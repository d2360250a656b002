"""Run one twistctl command in-process with the layer spans installed.

Usage: python3 bench/traced_child.py SPANS_JSON -- ARGV...

The command's stdout and exit status are the CLI's own; the span totals
go to SPANS_JSON, so stdout stays byte-identical to an untraced run.
"""

import json
import sys

from spans import Recorder, install


def main(argv) -> int:
    out_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced_child.py SPANS_JSON -- ARGV...")
    rec = Recorder()
    install(rec)
    from twistctl.cli import run
    code = run(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(rec.to_json(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
