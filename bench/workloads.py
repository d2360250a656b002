"""The benchmark's workloads: seeded inputs, CLI invocations and the checks
each invocation's output must pass.

Inputs come from the seeded builders in twistctl.synth and are written
under the workload's work directory; the program only ever sees those
files.  Every check holds for any seed.  Paths given to the CLI are
relative to the checkout root, so the bytes of each stdout depend on the
seed alone and can be compared against recorded digests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LMFDB_CACHE = "tests/data/lmfdb_cache"
RANK2_FIXTURE = "tests/data/rational_rank2.json"
LMFDB_LABELS = (("11.2.a.a", None), ("16.3.c.a", None),
                ("47.1.b.a", "[[0,1],[1,-1]]"))

# (n, q, m, flip, projection check, expected order).  The orders are the
# closed forms |SU_3(2)| = 216, |SL_3(F_2)| = 168 and |SU_2(4)| = 60.
ORACLE_SHAPES = ((3, 2, 2, True, False, 216),
                 (3, 2, 2, False, False, 168),
                 (2, 4, 2, True, True, 60))


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Invocation:
    key: str                                # stable name within the workload
    argv: tuple                             # twistctl arguments
    check: Callable[[str], None]            # raises CheckFailed on bad stdout
    written: Path | None = None             # a file the command writes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Path], dict]        # seed, dir -> name: path
    invocations: Callable[[int, Path], list]        # seed, dir -> Invocations


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _detect_inputs(seed: int, wd: Path) -> dict:
    from twistctl import synth
    from twistctl.eigensystem import serialize
    return {
        "cubic_klein": write_json(wd / "cubic_klein.json",
                                  serialize(synth.cubic_klein_system(100, seed))),
        "cm": write_json(wd / "cm.json", serialize(synth.cm_system(200, seed))),
    }


def _check_cubic_klein(out: str) -> None:
    doc = json.loads(out)
    require(doc["group_order"] == 4, "cubic_klein group order is not 4")
    require(doc["inner_order"] == 2, "cubic_klein inner order is not 2")
    require(any(t["kind"] == "inner" and t["character"]["modulus"] == 7
                for t in doc["twists"]),
            "cubic_klein has no inner twist of modulus 7")
    require(doc["verdict"]["kind"] == "general-type",
            "cubic_klein verdict is not general-type")


def _check_cm(out: str) -> None:
    verdict = json.loads(out)["verdict"]
    require(verdict["kind"] == "self-twist", "cm verdict is not self-twist")
    require(verdict["witness"]["modulus"] == 7, "cm witness modulus is not 7")


def _detect_invocations(seed: int, wd: Path) -> list:
    return [
        Invocation("twists.cubic_klein",
                   ("twists", "--format", "json", "--bound", "100",
                    "--input", str(wd / "cubic_klein.json")),
                   _check_cubic_klein),
        Invocation("twists.cm",
                   ("twists", "--format", "json", "--bound", "200",
                    "--input", str(wd / "cm.json")),
                   _check_cm),
    ]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

CLASSIFY_PRIMES = (3, 20000)


def primes_between(lo: int, hi: int) -> list:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi + 1, p)))
    return [p for p in range(lo, hi + 1) if sieve[p]]


def _classify_inputs(seed: int, wd: Path) -> dict:
    from twistctl import synth
    from twistctl.eigensystem import serialize
    return {"klein": write_json(wd / "klein.json",
                                serialize(synth.klein_system(200, seed)))}


def _check_classify(out: str) -> None:
    doc = json.loads(out)
    # [F:Q] = 4 / |G| over the quartic field and the dimension is
    # [F:Q](n^2 - 1) + 1 with n = 3, so 9 means a twist group of order 4.
    require(doc["predicted_dimension"] == 9,
            "predicted dimension is not 9 (twist group order is not 4)")
    classified = {int(p) for p in doc["primes"]}
    excluded = {int(p) for p in doc["excluded"]}
    require(not classified & excluded, "a prime is both classified and excluded")
    require(classified | excluded == set(primes_between(*CLASSIFY_PRIMES)),
            "classified plus excluded primes differ from the requested primes")
    # One place of F = Q above p; it splits exactly when Frobenius fixes
    # sqrt 2, the inner fixed field's generator, i.e. when p = +-1 mod 8.
    for p, places in doc["primes"].items():
        require(len(places) == 1, f"prime {p} has {len(places)} places")
        split = int(p) % 8 in (1, 7)
        require((places[0]["form"] == "inner-split") == split,
                f"prime {p} has form {places[0]['form']}")


def _classify_invocations(seed: int, wd: Path) -> list:
    lo, hi = CLASSIFY_PRIMES
    return [Invocation("classify.klein",
                       ("classify", "--bound", "100", "--primes", f"{lo}..{hi}",
                        "--format", "json", "--input", str(wd / "klein.json")),
                       _check_classify)]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_inputs(seed: int, wd: Path) -> dict:
    return {}


def _oracle_check(expected: int, projection: bool):
    def check(out: str) -> None:
        doc = json.loads(out)
        require(doc["matches"] is True, "oracle count does not match")
        require(doc["fixed_points"] == expected,
                f"oracle found {doc['fixed_points']} fixed points, not {expected}")
        if projection:
            require(doc["projection"]["passed"] is True,
                    "projection check did not pass")
    return check


def _oracle_invocations(seed: int, wd: Path) -> list:
    out = []
    for n, q, m, flip, projection, expected in ORACLE_SHAPES:
        argv = ["oracle", "--format", "json", "--n", str(n), "--q", str(q),
                "--m", str(m)]
        if flip:
            argv.append("--flip")
        if projection:
            argv += ["--check-projection", "--seed", str(seed)]
        key = f"oracle.n{n}q{q}m{m}" + (".flip" if flip else "")
        out.append(Invocation(key, tuple(argv), _oracle_check(expected, projection)))
    return out


# ---------------------------------------------------------------------------
# readme
# ---------------------------------------------------------------------------

def _random_invertible(ring, n: int, q: int, rng: random.Random) -> tuple:
    from twistctl.forms import mat_det
    while True:
        g = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        if not ring.is_zero(mat_det(ring, g)):
            return g


def _readme_inputs(seed: int, wd: Path) -> dict:
    from twistctl import synth
    from twistctl.eigensystem import serialize
    from twistctl.forms import (conjugate_cocycle, cocycle_to_json,
                                finite_model, unitary_cocycle)
    model = finite_model(2, 2, 3)
    base = unitary_cocycle(model)
    g = _random_invertible(base.context.ring, 3, 4, random.Random(seed))
    return {
        "cocycle": write_json(wd / "cocycle.json",
                              cocycle_to_json(conjugate_cocycle(base, g))),
        "raw": write_json(wd / "raw.json",
                          serialize(synth.vantop_system(500, seed))),
    }


def _check_lmfdb(out: str) -> None:
    doc = json.loads(out)
    require(doc["verdict"] == "agree", f"{doc['label']} verdict is {doc['verdict']}")


def _check_cocycle(out: str) -> None:
    doc = json.loads(out)
    require(doc["valid"] is True, "cocycle is not valid")
    require(doc["group_order"] == 2 and doc["outer_assignments"] == 1,
            "cocycle group or flip count is wrong")


def _normalize_check(path: Path):
    def check(out: str) -> None:
        from twistctl.eigensystem import load_system
        require(out == f"wrote {path}\n", "normalize stdout is unexpected")
        sys_ = load_system(json.loads(path.read_text()))
        require(sys_.is_normalized, "normalized document does not re-load "
                                    "as normalized")
    return check


def _check_rank2(out: str) -> None:
    doc = json.loads(out)
    require(doc["group_order"] == 1 and doc["inner_order"] == 1,
            "rank-2 rational fixture has a nontrivial twist group")


def _readme_invocations(seed: int, wd: Path) -> list:
    out = []
    for label, auts in LMFDB_LABELS:
        argv = ["lmfdb", "compare", "--label", label, "--cache-dir", LMFDB_CACHE,
                "--format", "json"]
        if auts:
            argv += ["--aut-images", auts]
        out.append(Invocation(f"lmfdb.{label}", tuple(argv), _check_lmfdb))
    normalized = wd / "normalized.json"
    out += [
        Invocation("verify-cocycle",
                   ("verify-cocycle", "--format", "json",
                    "--input", str(wd / "cocycle.json")),
                   _check_cocycle),
        Invocation("normalize",
                   ("normalize", "--input", str(wd / "raw.json"),
                    "--output", str(normalized)),
                   _normalize_check(normalized), written=normalized),
        Invocation("twists.rational_rank2",
                   ("twists", "--format", "json", "--input", RANK2_FIXTURE),
                   _check_rank2),
    ]
    return out


WORKLOADS = {w.name: w for w in (
    Workload("detect", "twist detection on cubic-Klein and CM data: character "
             "fitting and number-field products do nearly all the work",
             _detect_inputs, _detect_invocations),
    Workload("classify", "per-prime classification over 2260 primes: "
             "Frobenius and place decomposition dominate, detection is small",
             _classify_inputs, _classify_invocations),
    Workload("oracle", "finite-field fixed-point enumeration with and without "
             "the transpose-inverse flip; no number field is built",
             _oracle_inputs, _oracle_invocations),
    Workload("readme", "the short README commands: fixed costs, the newform "
             "cache read path and the serialize write path",
             _readme_inputs, _readme_invocations),
)}
