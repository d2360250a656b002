"""The committed fixtures are what their scripts write.

scripts/make_fixtures.py serializes the seeded synth builders, and
scripts/build_lmfdb_cache.py recomputes the cached newform responses; both
regenerate the files under tests/data byte for byte.  Only the build time
in each cache sidecar differs from run to run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
FIXTURES = ("generic.json", "klein.json", "rational_inner.json",
            "rational_rank2.json", "vantop.json")
LABELS = ("11.2.a.a", "16.3.c.a", "47.1.b.a")


def _regenerate(script: str, outdir: Path) -> None:
    subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                    str(outdir)], check=True, capture_output=True)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    _regenerate("make_fixtures.py", outdir)
    return outdir


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("lmfdb_cache")
    _regenerate("build_lmfdb_cache.py", outdir)
    return outdir


def test_the_script_writes_exactly_the_committed_fixtures(fixtures):
    assert sorted(p.name for p in fixtures.iterdir()) == sorted(FIXTURES)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_regenerates_byte_identically(fixtures, name):
    assert (fixtures / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("label", LABELS)
def test_cache_entry_regenerates_byte_identically(cache, label):
    name = f"{label}.v1.json"
    assert (cache / name).read_bytes() == \
        (DATA / "lmfdb_cache" / name).read_bytes()


@pytest.mark.parametrize("label", LABELS)
def test_cache_sidecar_differs_only_in_its_build_time(cache, label):
    def sidecar(root):
        doc = json.loads((root / f"{label}.v1.meta.json").read_text())
        assert "fetched_at" in doc
        del doc["fetched_at"]
        return doc
    assert sidecar(cache) == sidecar(DATA / "lmfdb_cache")
