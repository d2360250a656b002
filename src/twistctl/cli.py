"""Command-line front end: ingest coefficient data, detect extra-twists,
classify per-prime images, validate cocycles, run finite-field oracles,
and talk to the newform tables.

Every subcommand but normalize, which writes a JSON document, emits the
same facts in two shapes: a human-readable text rendering (default) and a
schema-stable JSON document (--format json) whose bytes depend only on the
run configuration and the inputs.  Exit status is
0 on success, 1 when a domain error surfaces (the error name is printed;
an input nested too deeply for the JSON reader prints RecursionError),
and 2 for usage errors.

Every JSON document a command prints or writes goes through _dumps, the one
indented writer: the bytes of json.dumps(doc, indent=2, sort_keys=True), with
the text of each list or dict kept by (id, depth) for the call.  classify and
report point every prime with the same verdicts at one list, encoded once.

Each handler imports the layers it runs, so a command loads no more of the
package than it uses: oracle never loads the number-field stack, and twists
never loads the forms layer.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

from .arith import is_prime, primes_up_to
from .errors import InsufficientData, TwistctlError


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _parse_primes(spec: str) -> tuple:
    """Accept a range like 3..100 or an explicit comma list like 5,13,17."""
    try:
        if ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            primes = [p for p in primes_up_to(hi) if p >= lo]
        else:
            from collections import Counter

            primes = [int(tok) for tok in spec.split(",")]
            counts = Counter(primes)
            for p in primes:
                if not is_prime(p):
                    raise argparse.ArgumentTypeError(f"{p} is not prime")
                if counts[p] > 1:
                    raise argparse.ArgumentTypeError(f"{p} is repeated")
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse prime range {spec!r}")
    if not primes:
        raise argparse.ArgumentTypeError(f"prime range {spec!r} is empty")
    return tuple(primes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistctl",
        description="extra-twist detection and twisted-form classification "
                    "for tabulated Frobenius data")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True,
                           help="input document (JSON)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name, text in (
            ("twists", "detect extra-twists and fixed fields"),
            ("classify", "per-prime image verdicts"),
            ("report", "full detection and classification report")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--bound", type=_positive_int, default=100)
        if name != "twists":
            p.add_argument("--primes", type=_parse_primes, required=True,
                           help="range like 3..100 or comma list like 5,13,17")

    p = sub.add_parser("verify-cocycle", help="validate a cocycle document")
    add_common(p)

    p = sub.add_parser("oracle", help="finite-field fixed-point search "
                                      "against closed-form orders")
    add_common(p, with_input=False)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--flip", action="store_true",
                   help="twist by the transpose-inverse outer automorphism")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--check-projection", action="store_true",
                   help="also verify the group-law-preserving bijection")
    p.add_argument("--seed", type=int, default=0, help="projection sample seed")

    p = sub.add_parser("normalize", help="rescale determinant data away")
    p.add_argument("--input", required=True, help="input document (JSON)")
    p.add_argument("--output", default=None,
                   help="write the normalized document here instead of "
                        "stdout")
    p.add_argument("--scalings", default=None,
                   help="JSON file mapping places to scaling coordinates")

    p = sub.add_parser("lmfdb", help="newform table client")
    lsub = p.add_subparsers(dest="lmfdb_action", required=True)
    for action in ("fetch", "compare"):
        lp = lsub.add_parser(action)
        lp.add_argument("--label", required=True)
        lp.add_argument("--cache-dir", default=None)
        lp.add_argument("--network", action="store_true",
                        help="allow live requests on a cache miss")
        lp.add_argument("--format", choices=("text", "json"), default="text")
        if action == "compare":
            lp.add_argument("--bound", type=_positive_int, default=500)
            lp.add_argument("--aut-images", default=None,
                            help="JSON list of coefficient-field "
                                 "automorphism images, e.g. [[0,1],[1,-1]]")
    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load_input_system(path: str):
    from .eigensystem import load_system, normalize

    text = Path(path).read_text()
    sys_ = load_system(json.loads(text))
    normalized_on_load = False
    if not sys_.is_normalized and sys_.n == 3:
        # rank-3 detection runs on determinant-trivialized data only
        sys_ = normalize(sys_)
        normalized_on_load = True
    return sys_, normalized_on_load


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _dumps(doc) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True), floats refused.
    Each container's text is kept by (id, depth) for the call, so a list that
    many keys share is encoded once per depth; a cycle raises RecursionError."""
    esc, texts = json.encoder.encode_basestring_ascii, {}

    def encode(obj, depth):
        if isinstance(obj, str):
            return esc(obj)
        if not isinstance(obj, (dict, list, tuple)):
            return _scalar(obj)
        key = id(obj), depth
        if key not in texts:
            if isinstance(obj, dict):
                ends, parts = "{}", [
                    esc(k if isinstance(k, str) else _scalar(k)) + ": "
                    + encode(v, depth + 1) for k, v in sorted(obj.items())]
            else:
                ends, parts = "[]", [encode(v, depth + 1) for v in obj]
            pad = "\n" + "  " * (depth + 1)
            texts[key] = (ends[0] + pad + ("," + pad).join(parts) + pad[:-2]
                          + ends[1] if parts else ends)
        return texts[key]
    return encode(doc, 0)


def _print_doc(doc: dict, ns, render, out) -> None:
    if ns.format == "json":
        print(_dumps(doc), file=out)
    else:
        for line in render(doc):
            print(line, file=out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _render_twists(doc) -> list:
    lines = [f"twist group order {doc['group_order']} "
             f"(inner subgroup order {doc['inner_order']})"]
    for t in doc["twists"]:
        chi = t["character"]
        what = (f"modulus {chi['modulus']}" if chi["kind"] == "dirichlet"
                else f"on {len(chi['values'])} places")
        lines.append(f"  {t['kind']} twist at automorphism "
                     f"{t['aut_index']}: character {what}")
    lines.append(f"fixed field degree {doc['fixed_field']['degree']}, "
                 f"min poly {doc['fixed_field']['min_poly']}")
    lines.append(f"inner fixed field degree "
                 f"{doc['inner_fixed_field']['degree']}, "
                 f"min poly {doc['inner_fixed_field']['min_poly']}")
    lines.append(f"verdict: {doc['verdict']['kind']}")
    cent = doc["coefficient_field_check"]
    lines.append("coefficient-field check: "
                 f"inner {'ok' if cent['inner_matches'] else 'FAILED'}, "
                 f"full {'ok' if cent['full_matches'] else 'FAILED'}"
                 + (" (bound may be too small)" if cent["b_insufficiency"]
                    else ""))
    if doc.get("normalized_on_load"):
        lines.append("input was normalized on load")
    return lines


def _render_classify(doc) -> list:
    lines = [f"predicted dimension {doc['predicted_dimension']} "
             f"(upper bound {doc['mt_upper_bound_dimension']})"]
    for p in sorted(doc["primes"], key=int):
        parts = [f"{v['group_label']} at a place of residue degree "
                 f"{v['residue_degree']}" for v in doc["primes"][p]]
        lines.append(f"p={p}: " + "; ".join(parts))
    if doc["excluded"]:
        lines.append("excluded primes:")
        for p in sorted(doc["excluded"], key=int):
            lines.append(f"  {p}: {doc['excluded'][p]}")
    return lines


def _render_report(doc) -> list:
    lines = [f"twist group order {doc['group_order']} "
             f"(inner subgroup order {doc['inner_order']})",
             f"verdict: {doc['verdict']}",
             f"fixed field degree {doc['fixed_field']['degree']}, "
             f"min poly {doc['fixed_field']['min_poly']}",
             f"inner fixed field degree "
             f"{doc['inner_fixed_field']['degree']}, "
             f"min poly {doc['inner_fixed_field']['min_poly']}"]
    lines += _render_classify(doc)
    return lines


_CLASSIFY_KEYS = ("bound", "primes", "excluded", "predicted_dimension",
                  "mt_upper_bound_dimension")

_IMAGE_RENDERERS = {"twists": _render_twists, "classify": _render_classify,
                    "report": _render_report}


def _cmd_image(ns) -> int:
    """twists, classify and report: the detection, the image report, or its
    per-prime part."""
    from .twists import detect, detection_to_json

    sys_, renormed = _load_input_system(ns.input)
    result = detect(sys_, ns.bound)
    if ns.subcommand == "twists":
        body = detection_to_json(result)
    else:
        from .forms import image_report, report_to_json
        body = report_to_json(image_report(sys_, result, ns.primes))
        if ns.subcommand == "classify":
            body = {key: body[key] for key in _CLASSIFY_KEYS}
    doc = {"command": ns.subcommand, "input": ns.input,
           "normalized_on_load": renormed, **body}
    _print_doc(doc, ns, _IMAGE_RENDERERS[ns.subcommand], _sys.stdout)
    return 0


def _cmd_verify_cocycle(ns) -> int:
    from .forms import cocycle_from_json

    doc_in = json.loads(Path(ns.input).read_text())
    cocycle = cocycle_from_json(doc_in)
    flips = sum(1 for _, flip in cocycle.assignments.values() if flip)
    doc = {"command": "verify-cocycle", "input": ns.input,
           "valid": True,
           "kind": "finite-model" if cocycle.context.model else
                   "number-field",
           "group_order": len(cocycle.context.elements),
           "outer_assignments": flips}
    _print_doc(doc, ns, lambda d: [
        f"cocycle over a group of order {d['group_order']} is valid "
        f"({d['kind']}, {d['outer_assignments']} flip assignments)"],
        _sys.stdout)
    return 0


def _render_oracle(doc) -> list:
    lines = [str(doc["fixed_points"])]
    if doc["matches"]:
        lines.append(f"matches {doc['closed_form']}")
    else:
        lines.append(f"differs from {doc['closed_form']} "
                     f"(expected {doc['expected']})")
    if doc.get("projection") is not None:
        proj = doc["projection"]
        lines.append("projection check "
                     + ("passed" if proj["passed"] else "FAILED")
                     + f" on {proj['source_order']} group elements")
    return lines


def _cmd_oracle(ns) -> int:
    from .finitefield import split_order, unitary_order
    from .forms import (DEFAULT_BUDGET, finite_model, finite_model_context,
                        projection_iso_check, trivial_cocycle,
                        twisted_fixed_points, unitary_cocycle)

    model = finite_model(ns.q, ns.m, ns.n, ns.budget or DEFAULT_BUDGET)
    if ns.flip:
        cocycle = unitary_cocycle(model)
    else:
        cocycle = trivial_cocycle(finite_model_context(model), ns.n)
    if ns.check_projection:
        # the check counts the twisted-fixed group on its way
        proj = projection_iso_check(model, cocycle, seed=ns.seed)
        count, projection = proj.source_order, {
            "source_order": proj.source_order,
            "tuple_order": proj.tuple_order, "passed": proj.passed}
    else:
        count, projection = twisted_fixed_points(model, cocycle), None
    if ns.flip:
        expected, label = unitary_order(ns.q, ns.n), f"SU_{ns.n}({ns.q})"
    else:
        expected, label = split_order(ns.q, ns.n), f"SL_{ns.n}(F_{ns.q})"
    doc = {"command": "oracle", "q": ns.q, "m": ns.m, "n": ns.n,
           "flip": ns.flip, "fixed_points": count,
           "closed_form": label, "expected": expected,
           "matches": count == expected, "projection": projection}
    _print_doc(doc, ns, _render_oracle, _sys.stdout)
    return 0 if doc["matches"] else 1


def _cmd_normalize(ns) -> int:
    from .eigensystem import (load_system, normalize, scalings_from_json,
                              serialize)

    sys_ = load_system(json.loads(Path(ns.input).read_text()))
    scalings = None
    if ns.scalings:
        scalings = scalings_from_json(
            sys_, json.loads(Path(ns.scalings).read_text()))
    doc = serialize(normalize(sys_, scalings))
    payload = _dumps(doc)
    if ns.output:
        Path(ns.output).write_text(payload + "\n")
        print(f"wrote {ns.output}")
    else:
        print(payload)
    return 0


def _cmd_lmfdb(ns) -> int:
    from . import lmfdb
    from .numberfield import aut_images_from_json
    from .twists import detect

    record = lmfdb.fetch_newform(ns.label, cache_dir=ns.cache_dir,
                                 allow_network=ns.network or None)
    if ns.lmfdb_action == "fetch":
        doc = {"command": "lmfdb fetch", "label": record.label,
               "level": record.level, "weight": record.weight,
               "field_degree": record.hecke_field_poly.degree,
               "stored_coefficients": len(record.an_exact),
               "recorded_inner_twists": [
                   {"character": lab, "order": order, "proved": proved}
                   for lab, order, proved in record.recorded_inner_twists]}
        _print_doc(doc, ns, lambda d: [
            f"{d['label']}: level {d['level']}, weight {d['weight']}, "
            f"Hecke field degree {d['field_degree']}, "
            f"{d['stored_coefficients']} stored coefficients, "
            f"{len(d['recorded_inner_twists'])} recorded inner twists"],
            _sys.stdout)
        return 0

    aut_images = (aut_images_from_json(json.loads(ns.aut_images))
                  if ns.aut_images else None)
    sys_ = lmfdb.to_eigensystem(record, aut_images=aut_images,
                                bound=ns.bound)
    try:
        result = detect(sys_, ns.bound)
    except InsufficientData:
        result = None
    cmp = lmfdb.compare_inner_twists(result, record, ns.bound)
    doc = {"command": "lmfdb compare"}
    doc.update(lmfdb.comparison_to_json(cmp))
    _print_doc(doc, ns, lambda d: [
        f"{d['label']} at bound {d['bound']}: {d['verdict']}",
        f"  detected: {d['detected']}",
        f"  recorded: {d['recorded']}"], _sys.stdout)
    return 0


_HANDLERS = {
    "twists": _cmd_image,
    "classify": _cmd_image,
    "report": _cmd_image,
    "verify-cocycle": _cmd_verify_cocycle,
    "oracle": _cmd_oracle,
    "normalize": _cmd_normalize,
    "lmfdb": _cmd_lmfdb,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[ns.subcommand](ns)
    except TwistctlError as exc:
        print(f"error[{exc.name}]: {exc}", file=_sys.stderr)
        return 1
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=_sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(_sys.argv[1:]))


if __name__ == "__main__":
    main()
