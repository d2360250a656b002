"""List the package functions that no golden CLI command enters.

The commands and their input files are those of tests/test_golden_cli.py
(COMMANDS and _prepare).  Each command runs in-process under sys.setprofile
in a scratch directory, after every lru_cache in the package is cleared, so
a result cached while the inputs were written does not hide a call.  Every
module of the package is imported first, under the profiler, since each
command imports only the modules it runs; calls made while a module is
imported count as reached, as any command that imports it makes them too.
Each function (methods and nested functions included, lambdas
not) that no call entered is printed with its line count, then the total.

Usage: python3 scripts/cli_reach.py
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "twistctl"


def _functions(path: Path) -> dict:
    """(first line, qualified name, line count) of every def in the file,
    keyed by the first line, which is the first decorator's when there is
    one, as in a code object's co_firstlineno."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[first] = (name, child.end_lineno - first + 1)
                walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def main() -> None:
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        modules = [importlib.import_module(f"twistctl.{info.name}")
                   for info in pkgutil.iter_modules([str(PACKAGE)])]
    finally:
        sys.setprofile(None)

    spec = importlib.util.spec_from_file_location(
        "golden_cli", ROOT / "tests" / "test_golden_cli.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        golden._prepare(Path(tmp))
        for module in modules:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        os.chdir(tmp)
        try:
            for argv, _ in golden.COMMANDS.values():
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    sys.setprofile(profile)
                    try:
                        golden.run(list(argv))
                    finally:
                        sys.setprofile(None)
        finally:
            os.chdir(cwd)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for first, (name, lines) in sorted(_functions(path).items()):
            if (str(path), first) not in entered:
                print(f"{path.relative_to(ROOT)}:{first} {name} ({lines} lines)")
                total += lines
    print(f"{total} lines in functions that no command of "
          f"{len(golden.COMMANDS)} enters")


if __name__ == "__main__":
    main()
