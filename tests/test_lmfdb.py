"""Tests for the newform table client: caching, parsing, conversion, and
agreement between detected twists and the recorded inner-twist tables.

Everything runs against the committed response cache under
tests/data/lmfdb_cache, which was produced by scripts/build_lmfdb_cache.py
from first-principles computations (point counting for 11.2.a.a, an eta
product for 16.3.c.a, theta series for 47.1.b.a).  The one test that talks
to the live service is opt-in via TWISTCTL_NETWORK=1; every other test of
the GET replaces urllib.request.urlopen and the clock, and opens no socket.
"""

import http.client
import io
import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from twistctl import lmfdb, synth
from twistctl.arith import divisors, euler_phi
from twistctl.characters import (Character, char_eval,
                                 unit_group_structure)
from twistctl.cli import run
from twistctl.eigensystem import load_system, serialize
from twistctl.errors import (
    InsufficientData,
    MissingCoefficients,
    NetworkError,
    NotFound,
    NotGalois,
    SchemaDrift,
)
from twistctl.numberfield import unit_roots
from twistctl.twists import detect

from test_fit_reference import unit_exponents

CACHE = Path(__file__).parent / "data" / "lmfdb_cache"
SQRT5_AUTS = [[0, 1], [1, -1]]


def cached_record(label):
    return lmfdb.fetch_newform(label, cache_dir=CACHE, allow_network=False)


def tampered_cache(tmp_path, label, mutate):
    """Copy a committed cache entry through a mutation into a tmp cache."""
    doc = json.loads((CACHE / f"{label}.v1.json").read_text())
    mutate(doc)
    (tmp_path / f"{label}.v1.json").write_text(json.dumps(doc))
    return tmp_path


class TestFetchAndCache:
    def test_malformed_labels_rejected_before_any_io(self, tmp_path):
        for bad in ("11.2.A.a", "garbage", "11.2.a", "11.2.a.a.b", "a.b.c.d"):
            with pytest.raises(NotFound):
                lmfdb.fetch_newform(bad, cache_dir=tmp_path,
                                    allow_network=True)
        assert list(tmp_path.iterdir()) == []

    def test_cache_miss_without_network_opt_in(self, tmp_path):
        with pytest.raises(NetworkError, match="network access is disabled"):
            lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                allow_network=False)

    def test_cache_hit_needs_no_network(self):
        record = cached_record("11.2.a.a")
        assert record.label == "11.2.a.a"

    def test_every_entry_has_a_provenance_sidecar(self):
        for label in ("11.2.a.a", "16.3.c.a", "47.1.b.a"):
            meta = json.loads(
                (CACHE / f"{label}.v1.meta.json").read_text())
            assert meta["label"] == label
            assert meta["source"]

    def test_non_json_cache_entry_reports_drift(self, tmp_path):
        (tmp_path / "11.2.a.a.v1.json").write_text("not json {")
        with pytest.raises(SchemaDrift) as exc:
            lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                allow_network=False)
        assert exc.value.body == "not json {"

    def test_empty_data_table_means_not_found(self, tmp_path):
        def clear(doc):
            doc["newform"]["data"] = []
        tampered_cache(tmp_path, "11.2.a.a", clear)
        with pytest.raises(NotFound):
            lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                allow_network=False)

    def test_missing_table_reports_drift_with_body(self, tmp_path):
        def drop(doc):
            del doc["eigenvalues"]
        tampered_cache(tmp_path, "11.2.a.a", drop)
        with pytest.raises(SchemaDrift) as exc:
            lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                allow_network=False)
        assert exc.value.body is not None

    def test_foreign_basis_is_flagged_not_resolved(self, tmp_path):
        def unset(doc):
            doc["eigenvalues"]["data"][0]["hecke_ring_power_basis"] = False
        tampered_cache(tmp_path, "16.3.c.a", unset)
        with pytest.raises(SchemaDrift, match="power basis"):
            lmfdb.fetch_newform("16.3.c.a", cache_dir=tmp_path,
                                allow_network=False)

    def test_wrong_coordinate_length_reports_drift(self, tmp_path):
        def shear(doc):
            doc["eigenvalues"]["data"][0]["an"][4] = [1, 2, 3]
        tampered_cache(tmp_path, "11.2.a.a", shear)
        with pytest.raises(SchemaDrift, match="coordinate"):
            lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                allow_network=False)

    def test_default_cache_dir_precedence(self, tmp_path, monkeypatch):
        """TWISTCTL_CACHE wins over XDG_CACHE_HOME, which wins over
        ~/.cache; an empty variable counts as unset."""
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("TWISTCTL_CACHE", "")
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        assert lmfdb.default_cache_dir() == \
            tmp_path / "home" / ".cache" / "twistctl" / "lmfdb"
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert lmfdb.default_cache_dir() == \
            tmp_path / "xdg" / "twistctl" / "lmfdb"
        monkeypatch.setenv("TWISTCTL_CACHE", str(tmp_path / "own"))
        assert lmfdb.default_cache_dir() == tmp_path / "own"


URL = "https://www.lmfdb.org/api/mf_newforms/?label=11.2.a.a&_format=json"
EIGEN_URL = \
    "https://www.lmfdb.org/api/mf_hecke_nf/?label=11.2.a.a&_format=json"


class FakeClock:
    """monotonic() and sleep() on a counter that only sleep() advances."""

    def __init__(self):
        self.now, self.sleeps = 1000.0, []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class FakeResponse:
    """What urlopen returns for a 2xx status: a context manager with a
    status and a body."""

    def __init__(self, status, body):
        self.status, self.body = status, body

    def read(self):
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def http_error(code, fp):
    """What urlopen raises for a status outside 2xx."""
    return urllib.error.HTTPError(URL, code, "status", {}, fp)


@pytest.fixture
def offline(monkeypatch):
    """urlopen answers from `served` (url -> response, or an exception to
    raise) and logs each (url, timeout) in `requested`; lmfdb's clock is a
    FakeClock, and the previous request lies far in its past."""
    net = SimpleNamespace(served={}, requested=[], clock=FakeClock())

    def urlopen(url, timeout):
        net.requested.append((url, timeout))
        answer = net.served[url]
        if isinstance(answer, BaseException):
            raise answer
        return answer

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(lmfdb, "time", SimpleNamespace(
        monotonic=net.clock.monotonic, sleep=net.clock.sleep,
        strftime=time.strftime, gmtime=time.gmtime))
    monkeypatch.setattr(lmfdb, "_last_request", 0.0)
    return net


class TestHttpGet:
    """The one GET keeps its contract: 200 with JSON is the document; 404
    is NotFound; any other status, 2xx included, and any transport failure
    are NetworkError; a body that is not JSON is SchemaDrift carrying the
    body as text; and requests are spaced one second apart."""

    def test_json_body_is_the_document(self, offline):
        offline.served[URL] = FakeResponse(200, b'{"data": [1, 2]}')
        assert lmfdb._http_get_json(URL) == {"data": [1, 2]}
        assert offline.requested == [(URL, 30)]
        assert offline.clock.sleeps == []

    @pytest.mark.parametrize("code, error", [(404, NotFound),
                                             (500, NetworkError)])
    def test_error_status(self, offline, code, error):
        body = io.BytesIO(b"<html>error</html>")
        offline.served[URL] = http_error(code, body)
        with pytest.raises(error, match=str(code)):
            lmfdb._http_get_json(URL)
        assert body.closed

    def test_success_status_other_than_200(self, offline):
        offline.served[URL] = FakeResponse(204, b"")
        with pytest.raises(NetworkError, match="204"):
            lmfdb._http_get_json(URL)

    def test_non_json_body_is_drift_with_text(self, offline):
        offline.served[URL] = FakeResponse(200, b"<html>\xff down</html>")
        with pytest.raises(SchemaDrift) as exc:
            lmfdb._http_get_json(URL)
        assert exc.value.body == "<html>\ufffd down</html>"

    @pytest.mark.parametrize("failure", [
        urllib.error.URLError("name resolution failed"),
        TimeoutError("timed out"),
        http.client.IncompleteRead(b"{\"da", 10),
    ], ids=type)
    def test_transport_failure(self, offline, failure):
        offline.served[URL] = failure
        with pytest.raises(NetworkError) as exc:
            lmfdb._http_get_json(URL)
        assert exc.value.__cause__ is failure

    def test_one_second_between_requests(self, offline):
        offline.served[URL] = FakeResponse(200, b"{}")
        offline.served[EIGEN_URL] = TimeoutError("timed out")
        lmfdb._http_get_json(URL)
        offline.clock.now += 0.25
        with pytest.raises(NetworkError):
            lmfdb._http_get_json(EIGEN_URL)
        # a failed request still counts for the gap
        lmfdb._http_get_json(URL)
        assert offline.clock.sleeps == [0.75, 1.0]
        assert [url for url, _ in offline.requested] == [URL, EIGEN_URL, URL]


class TestCacheMiss:
    """fetch_newform on a miss, with the two responses served from the
    committed 11.2.a.a entry."""

    def serve(self, offline, mutate=lambda doc: None):
        doc = json.loads((CACHE / "11.2.a.a.v1.json").read_text())
        mutate(doc)
        for url, key in ((URL, "newform"), (EIGEN_URL, "eigenvalues")):
            offline.served[url] = FakeResponse(
                200, json.dumps(doc[key]).encode())
        return doc

    def test_miss_fetches_and_writes_the_entry(self, offline, tmp_path):
        doc = self.serve(offline)
        record = lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                     allow_network=True)
        assert offline.requested == [(URL, 30), (EIGEN_URL, 30)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "11.2.a.a.v1.json", "11.2.a.a.v1.meta.json"]
        assert json.loads((tmp_path / "11.2.a.a.v1.json").read_text()) == doc
        meta = json.loads((tmp_path / "11.2.a.a.v1.meta.json").read_text())
        assert (meta["label"], meta["version"], meta["source"]) == (
            "11.2.a.a", "v1", [URL, EIGEN_URL])
        assert record == cached_record("11.2.a.a")
        assert lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                   allow_network=False) == record
        assert len(offline.requested) == 2

    def test_sidecar_is_written_before_the_entry_moves_in(
            self, offline, tmp_path, monkeypatch):
        """A process killed at any point leaves no entry without its
        sidecar: the sidecar exists when the entry is moved into place."""
        self.serve(offline)
        replace, seen = os.replace, []

        def checked_replace(src, dst):
            seen.append((Path(dst).name,
                         (tmp_path / "11.2.a.a.v1.meta.json").exists()))
            replace(src, dst)

        monkeypatch.setattr(lmfdb.os, "replace", checked_replace)
        lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                            allow_network=True)
        assert seen == [("11.2.a.a.v1.meta.json", False),
                        ("11.2.a.a.v1.json", True)]

    def test_two_fetches_of_one_label_at_once(self, offline, tmp_path,
                                              monkeypatch):
        """Each fetch writes through temporary files of its own: with both
        held at os.replace until both have written, both return the record
        and no temporary file is left."""
        self.serve(offline)
        replace, both = os.replace, threading.Barrier(2, timeout=10)

        def held_replace(src, dst):
            both.wait()
            replace(src, dst)

        monkeypatch.setattr(lmfdb.os, "replace", held_replace)
        with ThreadPoolExecutor(2) as pool:
            first, second = pool.map(lambda _: lmfdb.fetch_newform(
                "11.2.a.a", cache_dir=tmp_path, allow_network=True), range(2))
        assert first == second == cached_record("11.2.a.a")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "11.2.a.a.v1.json", "11.2.a.a.v1.meta.json"]

    @pytest.mark.parametrize("mutate, error", [
        (lambda doc: doc["newform"]["data"][0].update(level=11.0),
         SchemaDrift),
        (lambda doc: doc["eigenvalues"].update(data=[]), NotFound),
    ], ids=["drift", "empty"])
    def test_unparsable_response_writes_nothing(self, offline, tmp_path,
                                                mutate, error):
        self.serve(offline, mutate)
        root = tmp_path / "cache"
        with pytest.raises(error):
            lmfdb.fetch_newform("11.2.a.a", cache_dir=root,
                                allow_network=True)
        assert len(offline.requested) == 2
        assert not root.exists()


FLOAT_MUTATIONS = {
    "field_poly": lambda doc: doc["newform"]["data"][0].update(
        field_poly=[-1, -1, 1.0]),
    "a_2": lambda doc: doc["eigenvalues"]["data"][0]["an"].__setitem__(
        1, [-1.0, 0.1]),
    "level": lambda doc: doc["newform"]["data"][0].update(level=47.9),
    "weight": lambda doc: doc["newform"]["data"][0].update(weight=True),
    "proved": lambda doc: doc["newform"]["data"][0].update(
        inner_twists=[["47.b", 2, "false"]]),
    "an": lambda doc: doc["eigenvalues"]["data"][0].update(an=5),
    "power_basis": lambda doc: doc["eigenvalues"]["data"][0].update(
        hecke_ring_power_basis="false"),
}


def _char_values(values):
    return lambda doc: doc["newform"]["data"][0].update(char_values=values)


# a nebentypus or inner-twist label that only one reading can make sense of
LOOSE_MUTATIONS = {
    "char_non_unit": _char_values([8, 2, [2], [0]]),
    "char_modulus_0": _char_values([0, 2, [], []]),
    "char_order_0": _char_values([4, 0, [3], [1]]),
    "char_order_negative": _char_values([4, -2, [3], [1]]),
    "char_exponent_missing": _char_values([16, 2, [15, 5], [1]]),
    "twist_label": lambda doc: doc["newform"]["data"][0].update(
        inner_twists=[["abc", 2, True]]),
}
MUTATIONS = {**FLOAT_MUTATIONS, **LOOSE_MUTATIONS}


class TestRecordsAreReadExactly:
    """A float (or a bool where an int belongs, a string where a bool
    belongs, or an int where a list belongs) anywhere in a record is schema
    drift, as in every other input document: int(47.9) would read a level of
    47, a_2 = [-1.0, 0.1] would be read as -1 + alpha/10, bool("false") as a
    proved inner twist or a power basis, and an = 5 ended in a traceback.
    So is a nebentypus on a modulus or value order below 1, on a generator
    that is no unit or with an exponent short, and an inner-twist label not
    led by its conductor: each passed fetch and ended compare in a
    traceback or the wrong error."""

    @pytest.mark.parametrize("what", sorted(MUTATIONS))
    def test_inexact_number_is_drift(self, tmp_path, what):
        tampered_cache(tmp_path, "47.1.b.a", MUTATIONS[what])
        with pytest.raises(SchemaDrift) as exc:
            lmfdb.fetch_newform("47.1.b.a", cache_dir=tmp_path,
                                allow_network=False)
        assert exc.value.body is not None

    @pytest.mark.parametrize("what", sorted(MUTATIONS))
    def test_inexact_number_fails_the_command(self, tmp_path, capsys, what):
        tampered_cache(tmp_path, "47.1.b.a", MUTATIONS[what])
        code = run(["lmfdb", "compare", "--label", "47.1.b.a",
                    "--cache-dir", str(tmp_path),
                    "--aut-images", "[[0,1],[1,-1]]"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[SchemaDrift]")


class TestRecordParsing:
    def test_rational_curve_record(self):
        record = cached_record("11.2.a.a")
        assert (record.level, record.weight) == (11, 2)
        assert list(record.hecke_field_poly.coeffs) == [0, 1]
        assert record.char_values == (1, 1, (), ())
        assert record.recorded_inner_twists == ()
        assert record.an_exact[1] == ("1",)
        assert record.an_exact[2] == ("-2",)
        assert len(record.an_exact) == 500

    def test_eta_product_record(self):
        record = cached_record("16.3.c.a")
        assert (record.level, record.weight) == (16, 3)
        assert record.char_values == (16, 2, (15, 5), (1, 0))
        assert record.recorded_inner_twists == (("4.b", 2, True),)
        assert record.an_exact[5] == ("-6",)
        assert record.an_exact[9] == ("9",)
        assert record.an_exact[13] == ("10",)

    def test_theta_series_record(self):
        record = cached_record("47.1.b.a")
        assert (record.level, record.weight) == (47, 1)
        assert list(record.hecke_field_poly.coeffs) == [-1, -1, 1]
        assert record.char_values == (47, 2, (5,), (1,))
        assert record.recorded_inner_twists == (("47.b", 2, True),)
        assert record.an_exact[2] == ("-1", "1")
        assert record.an_exact[3] == ("0", "-1")
        assert record.an_exact[47] == ("1", "0")

    def test_eta_product_vanishing_pattern(self):
        # complex multiplication forces a_p = 0 at every good p = 3 mod 4
        record = cached_record("16.3.c.a")
        for p in (3, 7, 11, 19, 23, 31, 43, 47, 59, 463, 467, 479, 487, 491):
            assert record.an_exact[p] == ("0",), p
        for p in (5, 13, 17, 29, 37, 41, 53, 61, 97, 401, 409, 421, 433, 449):
            assert record.an_exact[p] != ("0",), p

    def test_theta_series_vanishing_pattern(self):
        # a_p = 0 exactly at primes inert in the imaginary quadratic field
        # of discriminant -47
        record = cached_record("47.1.b.a")
        for p in (5, 11, 13, 19, 23, 29, 31, 41, 43, 109, 113):
            assert pow(p, 23, 47) == 46
            assert record.an_exact[p] == ("0", "0"), p
        for p in (2, 3, 7, 17, 37, 53, 59, 61, 71, 79, 83, 89, 97, 101, 103):
            assert pow(p, 23, 47) == 1
            assert record.an_exact[p] != ("0", "0"), p


class TestConversion:
    def test_rational_field_needs_no_automorphism_images(self):
        sys = lmfdb.to_eigensystem(cached_record("11.2.a.a"))
        assert (sys.n, sys.m, sys.omega) == (2, 1, None)
        assert sys.bad_places == (11,)
        assert not sys.is_normalized
        assert sys.coeffs[2].a == sys.field.from_rational(-2)
        assert sys.coeffs[499].a == sys.field.from_rational(
            int(cached_record("11.2.a.a").an_exact[499][0]))
        assert 11 not in sys.coeffs

    def test_nebentypus_reconstruction(self):
        sys = lmfdb.to_eigensystem(cached_record("16.3.c.a"))
        omega = sys.omega
        assert omega.modulus == 16
        assert omega.order() == 2
        assert omega.conductor() == 4
        one = sys.field.one()
        for u in (1, 5, 9, 13):
            assert char_eval(omega, u) == one
        for u in (3, 7, 11, 15):
            assert char_eval(omega, u) == -one

    def test_prime_modulus_nebentypus(self):
        sys = lmfdb.to_eigensystem(cached_record("47.1.b.a"),
                                   aut_images=SQRT5_AUTS)
        assert sys.m == 0
        assert sys.omega.conductor() == 47
        # quadratic residues evaluate to 1, non-residues to -1
        assert char_eval(sys.omega, 2) == sys.field.one()
        assert char_eval(sys.omega, 5) == -sys.field.one()

    def test_quadratic_field_requires_automorphism_images(self):
        record = cached_record("47.1.b.a")
        with pytest.raises(NotGalois, match="degree 2"):
            lmfdb.to_eigensystem(record)

    def test_wrong_automorphism_images_rejected(self):
        record = cached_record("47.1.b.a")
        with pytest.raises(NotGalois):
            lmfdb.to_eigensystem(record, aut_images=[[0, 1], [1, 1]])

    def test_coefficients_live_in_the_hecke_field(self):
        sys = lmfdb.to_eigensystem(cached_record("47.1.b.a"),
                                   aut_images=SQRT5_AUTS)
        beta = sys.field.gen()
        assert sys.coeffs[2].a == beta - sys.field.one()
        assert sys.coeffs[3].a == -beta
        assert sys.coeffs[2].b is None

    def test_serialized_conversion_reloads(self):
        for label, auts in (("11.2.a.a", None), ("16.3.c.a", None),
                            ("47.1.b.a", SQRT5_AUTS)):
            sys = lmfdb.to_eigensystem(cached_record(label), aut_images=auts)
            doc = serialize(sys)
            assert serialize(load_system(doc)) == doc

    def test_bound_beyond_stored_range_raises(self):
        record = cached_record("11.2.a.a")
        with pytest.raises(MissingCoefficients, match="up to n = 500"):
            lmfdb.to_eigensystem(record, bound=501)

    def test_bound_truncates_places(self):
        sys = lmfdb.to_eigensystem(cached_record("11.2.a.a"), bound=100)
        assert max(sys.coeffs) <= 100
        assert 97 in sys.coeffs


# ---------------------------------------------------------------------------
# the nebentypus against the breadth-first walk it replaced
# ---------------------------------------------------------------------------

def ref_character_from_values(field, char_values):
    """The nebentypus by a breadth-first walk over the record's generators,
    its table projected onto the canonical generators and expanded again
    by Character.dirichlet."""
    modulus, value_order, gens, exps = char_values
    if modulus == 1 or value_order == 1:
        return None
    mu = unit_roots(field)
    if mu.order % value_order:
        raise SchemaDrift(
            f"nebentypus values require a root of unity of order "
            f"{value_order}, which the Hecke field lacks", body=char_values)
    step = mu.order // value_order
    t = min((j * step for j in range(1, value_order)
             if gcd(j, value_order) == 1),
            key=lambda k: mu.powers[k].coords)
    exponents = {1: 0}
    frontier = [1]
    while frontier:
        u = frontier.pop()
        for g, e in zip(gens, exps):
            v = (u * g) % modulus
            k = (exponents[u] + e) % value_order
            if v in exponents:
                if exponents[v] != k:
                    raise SchemaDrift("inconsistent nebentypus values",
                                      body=char_values)
            else:
                exponents[v] = k
                frontier.append(v)
    if len(exponents) != euler_phi(modulus):
        raise SchemaDrift("nebentypus generators do not generate the unit "
                          "group", body=char_values)
    return Character.dirichlet(
        field, modulus, [exponents[g % modulus] * t
                         for g, _ in unit_group_structure(modulus)])


def nebentypus_outcomes(field, char_values):
    """(modulus, table) or None from the nebentypus and its reference, or
    the message of the SchemaDrift each raised."""
    def outcome(build):
        try:
            chi = build(field, char_values)
        except SchemaDrift as exc:
            return str(exc)
        return None if chi is None else (chi.modulus, chi.exps)

    return (outcome(lmfdb._character_from_values),
            outcome(ref_character_from_values))


NEBENTYPUS_FIELDS = (synth.sqrt2_field(), synth.gaussian_field(),
                     synth.eisenstein_field(), synth.biquadratic_field())


@st.composite
def nebentypus_records(draw):
    """char_values of a character of order dividing the value order, on a
    modulus up to 100, at random units written as any integer above them,
    the canonical generators now and then among them; sometimes with one
    exponent changed, and sometimes with a value order the field lacks."""
    field = draw(st.sampled_from(NEBENTYPUS_FIELDS))
    w = unit_roots(field).order
    value_order = draw(st.sampled_from(divisors(w)[1:] * 3 + [1, 5]))
    modulus = draw(st.integers(1, 100))
    xs = [value_order // gcd(value_order, d)
          * draw(st.integers(0, gcd(value_order, d) - 1))
          for _, d in unit_group_structure(modulus)]
    logs = unit_exponents(modulus)
    units = draw(st.lists(st.sampled_from(sorted(logs)), max_size=6))
    if draw(st.booleans()):
        units += [g for g, _ in unit_group_structure(modulus)]
    units = draw(st.permutations(units))
    exps = [sum(e * x for e, x in zip(logs[u], xs)) % value_order
            for u in units]
    if units and draw(st.booleans()):
        exps[draw(st.integers(0, len(units) - 1))] = draw(
            st.integers(0, value_order - 1))
    gens = [u + modulus * draw(st.integers(0, 2)) for u in units]
    return field, (modulus, value_order, tuple(gens), tuple(exps))


class TestNebentypusReference:
    @pytest.mark.parametrize("label,auts", [("11.2.a.a", None),
                                            ("16.3.c.a", None),
                                            ("47.1.b.a", SQRT5_AUTS)])
    def test_cached_records(self, label, auts):
        sys = lmfdb.to_eigensystem(cached_record(label), aut_images=auts)
        got, want = nebentypus_outcomes(sys.field,
                                        cached_record(label).char_values)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(nebentypus_records())
    def test_drawn_records(self, problem):
        """Both build the same character or both refuse, with one message."""
        got, want = nebentypus_outcomes(*problem)
        assert got == want


class TestComparison:
    def detect_and_compare(self, label, auts, bound):
        record = cached_record(label)
        sys = lmfdb.to_eigensystem(record, aut_images=auts, bound=bound)
        result = detect(sys, bound)
        return lmfdb.compare_inner_twists(result, record, bound)

    def test_twistless_curve_agrees(self):
        cmp = self.detect_and_compare("11.2.a.a", None, 500)
        assert cmp.verdict == "agree"
        assert cmp.detected == ()
        assert cmp.recorded == ()

    def test_cm_self_twist_matches_recorded_row(self):
        cmp = self.detect_and_compare("16.3.c.a", None, 500)
        assert cmp.verdict == "agree"
        assert cmp.detected == ((0, 2, 4),)
        assert cmp.recorded == (("4.b", 2, 4, True),)
        assert cmp.proved_unmatched == ()

    def test_weight_one_self_twist_matches_recorded_row(self):
        cmp = self.detect_and_compare("47.1.b.a", SQRT5_AUTS, 500)
        assert cmp.verdict == "agree"
        assert cmp.detected == ((0, 2, 47),)
        assert cmp.recorded == (("47.b", 2, 47, True),)

    def test_short_bound_reports_insufficiency_not_mismatch(self):
        record = cached_record("47.1.b.a")
        sys = lmfdb.to_eigensystem(record, aut_images=SQRT5_AUTS, bound=20)
        with pytest.raises(InsufficientData):
            detect(sys, 20)
        cmp = lmfdb.compare_inner_twists(None, record, 20)
        assert cmp.verdict == "bound-insufficient"
        assert cmp.bound_insufficient
        assert cmp.proved_unmatched == (("47.b", 2, 47, True),)

    @pytest.mark.parametrize("label", ["11.2.a.a", "16.3.c.a", "47.1.b.a"])
    def test_failed_detection_compares_as_no_rows(self, label):
        record = cached_record(label)
        rows = tuple(lmfdb.compare_inner_twists(None, record, 20))
        if label == "11.2.a.a":
            assert rows == (label, 20, (), (), True, True, True, (), True,
                            "bound-insufficient")
        else:
            recorded = rows[3]
            assert len(recorded) == 1
            assert rows == (label, 20, (), recorded, False, False, False,
                            recorded, True, "bound-insufficient")

    def test_extra_detected_row_is_a_mismatch(self):
        record = cached_record("11.2.a.a")
        sys = lmfdb.to_eigensystem(record, bound=500)
        result = detect(sys, 500)
        fat_record = cached_record("16.3.c.a")
        cmp = lmfdb.compare_inner_twists(result, fat_record, 500)
        assert cmp.verdict == "bound-insufficient"
        backwards = lmfdb.compare_inner_twists(
            detect(lmfdb.to_eigensystem(fat_record, bound=500), 500),
            record, 500)
        assert backwards.verdict == "mismatch"

    def test_crossed_pairs_are_a_mismatch(self):
        """Orders and conductors that agree as two lists but pair up
        differently are a mismatch, as proved_unmatched says."""
        def twist(aut_index, order, conductor):
            chi = SimpleNamespace(is_trivial=lambda: False,
                                  order=lambda: order,
                                  conductor=lambda: conductor)
            return SimpleNamespace(aut_index=aut_index, character=chi)
        result = SimpleNamespace(
            group=SimpleNamespace(twists=[twist(1, 2, 3), twist(2, 3, 4)]),
            verdict=SimpleNamespace(kind="general-type", witness=None))
        record = cached_record("11.2.a.a")._replace(recorded_inner_twists=(
            ("4.a", 2, True), ("3.a", 3, True)))
        cmp = lmfdb.compare_inner_twists(result, record, 500)
        assert cmp.detected == ((1, 2, 3), (2, 3, 4))
        assert (cmp.counts_agree, cmp.orders_agree,
                cmp.conductors_agree) == (True, True, True)
        assert cmp.proved_unmatched == (("4.a", 2, 4, True),
                                         ("3.a", 3, 3, True))
        assert not cmp.bound_insufficient
        assert cmp.verdict == "mismatch"

    def test_comparison_json_is_deterministic(self):
        cmp = self.detect_and_compare("16.3.c.a", None, 500)
        doc = lmfdb.comparison_to_json(cmp)
        assert doc["verdict"] == "agree"
        assert doc["detected"] == [
            {"aut_index": 0, "order": 2, "conductor": 4}]
        assert doc["recorded"] == [
            {"character": "4.b", "order": 2, "conductor": 4, "proved": True}]
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            lmfdb.comparison_to_json(self.detect_and_compare(
                "16.3.c.a", None, 500)), sort_keys=True)


@pytest.mark.network
@pytest.mark.skipif(os.environ.get("TWISTCTL_NETWORK") != "1",
                    reason="live service access is opt-in")
class TestLiveService:
    def test_fetch_populates_cache_and_roundtrips(self, tmp_path):
        record = lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                     allow_network=True)
        assert (record.level, record.weight) == (11, 2)
        cache_file = tmp_path / "11.2.a.a.v1.json"
        assert cache_file.exists()
        before = cache_file.read_bytes()
        again = lmfdb.fetch_newform("11.2.a.a", cache_dir=tmp_path,
                                    allow_network=False)
        assert cache_file.read_bytes() == before
        assert again == record
        # the live coefficients must agree with the committed point counts
        committed = cached_record("11.2.a.a")
        overlap = min(len(record.an_exact), len(committed.an_exact))
        for n in range(1, overlap + 1):
            assert record.an_exact[n] == committed.an_exact[n], n
