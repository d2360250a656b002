"""Set-up probe: a fresh interpreter imports the CLI and loads one
workload's inputs, then exits before any detection or enumeration.

Usage: python3 bench/setup_probe.py WORKLOAD WORKDIR

The benchmark times the whole process, interpreter start included, so
work moved into import, field or table construction, or cache reads shows
as set-up time.
"""

import json
import sys
from pathlib import Path

import twistctl.cli  # noqa: F401  (the import is part of what is measured)
from twistctl import lmfdb
from twistctl.eigensystem import load_system, normalize
from twistctl.forms import (cocycle_from_json, finite_model,
                            finite_model_context, trivial_cocycle,
                            unitary_cocycle)

from workloads import LMFDB_CACHE, LMFDB_LABELS, ORACLE_SHAPES, RANK2_FIXTURE


def load(path):
    sys_ = load_system(json.loads(Path(path).read_text()))
    if not sys_.is_normalized and sys_.n == 3:
        sys_ = normalize(sys_)
    return sys_


def detect(wd: Path):
    load(wd / "cubic_klein.json")
    load(wd / "cm.json")


def classify(wd: Path):
    load(wd / "klein.json")


def oracle(wd: Path):
    for n, q, m, flip, _, _ in ORACLE_SHAPES:
        model = finite_model(q, m, n)
        if flip:
            unitary_cocycle(model)
        else:
            trivial_cocycle(finite_model_context(model), n)


def readme(wd: Path):
    for label, _ in LMFDB_LABELS:
        lmfdb.fetch_newform(label, cache_dir=LMFDB_CACHE, allow_network=False)
    cocycle_from_json(json.loads((wd / "cocycle.json").read_text()))
    load(wd / "raw.json")
    load(RANK2_FIXTURE)


if __name__ == "__main__":
    name, workdir = sys.argv[1], Path(sys.argv[2])
    {"detect": detect, "classify": classify, "oracle": oracle,
     "readme": readme}[name](workdir)
