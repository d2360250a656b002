"""Client for the LMFDB newform tables: fetch, cache, convert, compare.

A newform record combines two endpoint responses: the newform metadata row
(level, weight, nebentypus values, Hecke field polynomial, recorded inner
twists) and the exact Hecke eigenvalue row (a_n as coordinate vectors in the
power basis of the Hecke field).  Raw responses are cached on disk keyed by
label and endpoint version, with a metadata sidecar, so converted systems
are reproducible offline.  Network access is opt-in: a cache miss without
the opt-in raises instead of silently fetching.

Conversion produces a rank-2 coefficient system over the Hecke field with
central character |.|^(k-1) times the nebentypus; the caller supplies the
Galois automorphism images of the field since the tables do not store them.
The comparison helper lines detected twists up against the recorded
inner-twist table (which lists self-twists of CM forms alongside twists by
nontrivial field automorphisms) by (character order, conductor) pair.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from math import gcd
from pathlib import Path
from typing import NamedTuple

from .arith import euler_phi, factorize
from .characters import Character, residue_table
from .eigensystem import EigenSystem, system_over_q
from .errors import (
    MissingCoefficients,
    NetworkError,
    NotFound,
    NotGalois,
    SchemaDrift,
    SchemaError,
    TwistctlError,
    bool_from_json,
    int_from_json,
    typed_from_json,
)
from .numberfield import field_make, first_primitive, unit_roots
from .polynomials import QPoly, poly_from_strings, rationals_from_json
from .twists import DetectionResult

BASE_URL = "https://www.lmfdb.org/api"
API_VERSION = "v1"
LABEL_RE = re.compile(r"^\d+\.\d+\.[a-z]+\.[a-z]+$")

_REQUEST_GAP_SECONDS = 1.0
_request_lock = threading.Lock()
_last_request = 0.0


class NewformRecord(NamedTuple):
    """Parsed newform data, every number read exactly (no floats);
    coefficients are kept as coordinate strings."""
    label: str
    level: int
    weight: int
    hecke_field_poly: QPoly
    char_values: tuple            # (modulus, value order, generators, exponents)
    an_exact: dict                # n -> coordinate vector (exact strings)
    recorded_inner_twists: tuple  # (character orbit label, order, proved)


# ---------------------------------------------------------------------------
# fetching and caching
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    override = os.environ.get("TWISTCTL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "twistctl" / "lmfdb"


def _http_get_json(url: str) -> object:
    """Rate-limited single-flight GET; at most one request per second."""
    global _last_request
    import http.client
    import urllib.error
    import urllib.request
    with _request_lock:
        wait = _REQUEST_GAP_SECONDS - (time.monotonic() - _last_request)
        if wait > 0:
            time.sleep(wait)
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            raise NetworkError(f"request to {url} failed: {exc}") from exc
        finally:
            _last_request = time.monotonic()
    if status == 404:
        raise NotFound(f"{url} answered 404")
    if status != 200:
        raise NetworkError(f"{url} answered HTTP {status}")
    try:
        return json.loads(body)
    except ValueError:
        raise SchemaDrift(f"non-JSON response from {url}",
                          body=body.decode("utf-8", errors="replace"))


def fetch_newform(label: str, cache_dir=None,
                  allow_network: bool | None = None) -> NewformRecord:
    """Fetch (or load from cache) the combined record for a newform label.

    The label is validated before anything touches disk or network.  A cache
    hit never needs the network; a miss needs the opt-in (argument or
    TWISTCTL_NETWORK=1) and writes the raw responses back to the cache."""
    if not LABEL_RE.match(label):
        raise NotFound(f"malformed newform label {label!r}; "
                       "expected level.weight.char.orbit")
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / f"{label}.{API_VERSION}.json"
    if path.exists():
        text = path.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaDrift(f"cache entry for {label} is not JSON: {exc}",
                              body=text)
        return _parse_record(label, doc)

    if allow_network is None:
        allow_network = os.environ.get("TWISTCTL_NETWORK") == "1"
    if not allow_network:
        raise NetworkError(
            f"no cache entry for {label} and network access is disabled; "
            "set TWISTCTL_NETWORK=1 or pass allow_network=True")

    urls = (f"{BASE_URL}/mf_newforms/?label={label}&_format=json",
            f"{BASE_URL}/mf_hecke_nf/?label={label}&_format=json")
    doc = {"newform": _http_get_json(urls[0]),
           "eigenvalues": _http_get_json(urls[1])}
    record = _parse_record(label, doc)
    import tempfile
    root.mkdir(parents=True, exist_ok=True)
    meta = {"label": label, "version": API_VERSION, "source": list(urls),
            "fetched_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    # the sidecar goes first, so an entry in place always has one
    for dst, obj in ((path.with_suffix(".meta.json"), meta), (path, doc)):
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "w") as out:
            out.write(json.dumps(obj, sort_keys=True))
        os.replace(tmp, dst)
    return record


def _single_row(doc: dict, key: str, label: str) -> dict:
    try:
        rows = doc[key]["data"]
    except (KeyError, TypeError):
        raise SchemaDrift(f"response for {label} lacks a {key!r} data table",
                          body=doc)
    if not isinstance(rows, list) or not rows:
        raise NotFound(f"no {key} rows for label {label}")
    if not isinstance(rows[0], dict):
        raise SchemaDrift(f"{key} row for {label} is not an object", body=doc)
    return rows[0]


def _char_values(raw) -> tuple:
    """A record's nebentypus (modulus, value order, generators, exponents),
    read strictly: modulus and value order at least 1, one exponent per
    generator, and every generator a unit mod the modulus."""
    modulus, value_order, gens, exps = raw
    modulus = int_from_json(modulus, "character modulus")
    value_order = int_from_json(value_order, "character value order")
    gens = tuple(int_from_json(g, "character generator") for g in gens)
    exps = tuple(int_from_json(e, "character exponent") for e in exps)
    if modulus < 1 or value_order < 1:
        raise SchemaError(f"character modulus {modulus} and value order "
                          f"{value_order} must be at least 1")
    if len(gens) != len(exps):
        raise SchemaError(f"{len(gens)} character generators carry "
                          f"{len(exps)} exponents")
    if any(gcd(g, modulus) != 1 for g in gens):
        raise SchemaError(f"character generators {list(gens)} must be units "
                          f"mod {modulus}")
    return modulus, value_order, gens, exps


def _twist_label(lab) -> str:
    """An inner-twist character orbit label: a string whose part before the
    first "." is its conductor, a positive int written canonically."""
    conductor = typed_from_json(lab, str, "inner twist label").split(".")[0]
    if not re.fullmatch(r"[1-9][0-9]*", conductor):
        raise SchemaError(f"inner twist label {lab!r} must begin with its "
                          "conductor, a positive integer")
    return lab


def _parse_record(label: str, doc: dict) -> NewformRecord:
    meta = _single_row(doc, "newform", label)
    eig = _single_row(doc, "eigenvalues", label)
    try:
        level = int_from_json(meta["level"], "level")
        weight = int_from_json(meta["weight"], "weight")
        poly = poly_from_strings(meta["field_poly"])
        char_values = _char_values(meta["char_values"])
        twists = tuple((_twist_label(lab),
                        int_from_json(order, "inner twist order"),
                        bool_from_json(proved, "inner twist proved flag"))
                       for lab, order, proved in meta["inner_twists"])
        an = typed_from_json(eig["an"], list, "an")
        power_basis = bool_from_json(eig.get("hecke_ring_power_basis", True),
                                     "hecke_ring_power_basis")
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaDrift(f"unexpected record shape for {label}: {exc}",
                          body=doc)
    if meta.get("label", label) != label:
        raise SchemaDrift(f"record carries label {meta.get('label')!r}, "
                          f"requested {label!r}", body=doc)
    if not power_basis:
        raise SchemaDrift(
            f"eigenvalues for {label} are not in the power basis of the "
            "Hecke field; basis changes are flagged, not resolved", body=doc)
    degree = poly.degree
    if degree < 1:
        raise SchemaDrift(f"field_poly for {label} is constant", body=doc)
    an_exact = {}
    for i, vec in enumerate(an):
        try:
            an_exact[i + 1] = tuple(map(str, rationals_from_json(
                vec, f"the coordinate list of a_{i + 1}", degree)))
        except SchemaError as exc:
            raise SchemaDrift(f"{label}: {exc}", body=doc)
    if not an_exact:
        raise SchemaDrift(f"record for {label} has no eigenvalues", body=doc)
    return NewformRecord(label=label, level=level, weight=weight,
                         hecke_field_poly=poly, char_values=char_values,
                         an_exact=an_exact, recorded_inner_twists=twists)


# ---------------------------------------------------------------------------
# conversion to a coefficient system
# ---------------------------------------------------------------------------

def _character_from_values(field, char_values) -> Character | None:
    """Nebentypus from (modulus, value order, generators, exponents): the
    residue table that residue_table walks from the generators' values
    zeta^exponent, for a root of unity zeta of the given order, which must
    exist in the Hecke field; the generators must generate (Z/N)^x."""
    modulus, value_order, gens, exps = char_values
    if modulus == 1 or value_order == 1:
        return None
    mu = unit_roots(field)
    if mu.order % value_order:
        raise SchemaDrift(
            f"nebentypus values require a root of unity of order "
            f"{value_order}, which the Hecke field lacks", body=char_values)
    # the record's root of unity is the first primitive one of its order
    t = first_primitive(mu.powers, value_order)
    table = residue_table(modulus, [(g, e * t) for g, e in zip(gens, exps)],
                          mu.order)
    if table is None:
        raise SchemaDrift("inconsistent nebentypus values", body=char_values)
    if len(table) != euler_phi(modulus):
        raise SchemaDrift("nebentypus generators do not generate the unit "
                          "group", body=char_values)
    return Character(field, "dirichlet", modulus, table)


def to_eigensystem(record: NewformRecord, aut_images=None,
                   bound: int | None = None) -> EigenSystem:
    """Rank-2 raw system over the Hecke field: a_p at good p <= bound, with
    central character exponent m = weight - 1 and the nebentypus as omega.

    aut_images lists the generator images of the full automorphism group of
    the Hecke field (which must be Galois over Q); degree-1 fields need
    nothing.  The record stores a_n for finitely many n, so a bound beyond
    the stored range raises rather than truncating silently."""
    degree = record.hecke_field_poly.degree
    if aut_images is None:
        if degree == 1:
            aut_images = [[0]]
        else:
            raise NotGalois(
                f"the Hecke field of {record.label} has degree {degree}; "
                "supply the automorphism images of its Galois closure")
    try:
        field = field_make(record.hecke_field_poly, aut_images)
    except (TwistctlError, ValueError) as exc:
        raise NotGalois(f"supplied images do not define the automorphism "
                        f"group of a Galois field: {exc}") from exc

    omega = _character_from_values(field, record.char_values)
    available = max(record.an_exact)
    if bound is None:
        bound = available
    elif bound > available:
        raise MissingCoefficients(
            f"record for {record.label} stores a_n up to n = {available}, "
            f"but the requested bound is {bound}")

    def coeff(p):
        if p not in record.an_exact:
            raise MissingCoefficients(f"no a_{p} stored for {record.label}")
        return field.element(record.an_exact[p]), None
    sys = system_over_q(field, 2, tuple(p for p, _ in factorize(record.level)),
                        bound, coeff, m=record.weight - 1, omega=omega)
    if not sys.coeffs:
        raise MissingCoefficients(
            f"record for {record.label} has no usable prime coefficients")
    return sys


# ---------------------------------------------------------------------------
# comparison against the recorded inner-twist table
# ---------------------------------------------------------------------------

class TwistComparison(NamedTuple):
    label: str
    bound: int
    detected: tuple           # (automorphism index, order, conductor)
    recorded: tuple           # (orbit label, order, conductor, proved)
    counts_agree: bool
    orders_agree: bool
    conductors_agree: bool
    proved_unmatched: tuple   # proved recorded rows with no detected partner
    bound_insufficient: bool
    verdict: str              # "agree" | "bound-insufficient" | "mismatch"


def compare_inner_twists(result: DetectionResult | None, record: NewformRecord,
                         bound: int) -> TwistComparison:
    """Line up detected twists with the recorded table.

    Detected rows are the nontrivial twists of the assembled group plus the
    self-twist witness when the verdict reports one (CM forms record their
    self-twist in the same table).  A detection that failed outright, or
    found fewer rows than recorded, is flagged as bound insufficiency since
    a larger bound may still close the gap; otherwise the verdict agrees
    exactly when the sorted (order, conductor) pairs of the two tables are
    equal, the pairs proved_unmatched matches by, and is a mismatch else."""
    recorded = tuple(
        (lab, order, int(lab.split(".")[0]), proved)
        for lab, order, proved in record.recorded_inner_twists)
    rows = []
    if result is not None:
        for t in result.group.twists:
            if t.aut_index == 0 and t.character.is_trivial():
                continue
            rows.append((t.aut_index, t.character.order(),
                         t.character.conductor()))
        verdict = result.verdict
        if verdict.kind == "self-twist" and verdict.witness is not None:
            rows.append((0, verdict.witness.order(),
                         verdict.witness.conductor()))
    detected = tuple(sorted(rows))

    counts = len(detected) == len(recorded)
    orders = sorted(d[1] for d in detected) == sorted(r[1] for r in recorded)
    conductors = sorted(d[2] for d in detected) \
        == sorted(r[2] for r in recorded)
    pairs = sorted(d[1:] for d in detected) == sorted(r[1:3] for r in recorded)
    insufficient = result is None or len(detected) < len(recorded)
    outcome = ("bound-insufficient" if insufficient
               else "agree" if pairs else "mismatch")
    seen = {d[1:] for d in detected}
    unmatched = tuple(r for r in recorded if r[3] and r[1:3] not in seen)
    return TwistComparison(
        label=record.label, bound=bound, detected=detected, recorded=recorded,
        counts_agree=counts, orders_agree=orders, conductors_agree=conductors,
        proved_unmatched=unmatched, bound_insufficient=insufficient,
        verdict=outcome)


def comparison_to_json(cmp: TwistComparison) -> dict:
    return {
        "label": cmp.label,
        "bound": cmp.bound,
        "detected": [{"aut_index": a, "order": o, "conductor": c}
                     for a, o, c in cmp.detected],
        "recorded": [{"character": lab, "order": o, "conductor": c,
                      "proved": p} for lab, o, c, p in cmp.recorded],
        "counts_agree": cmp.counts_agree,
        "orders_agree": cmp.orders_agree,
        "conductors_agree": cmp.conductors_agree,
        "proved_unmatched": [list(r) for r in cmp.proved_unmatched],
        "bound_insufficient": cmp.bound_insufficient,
        "verdict": cmp.verdict,
    }
