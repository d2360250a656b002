"""Every record of the package is an immutable value.

The systems, detection results, reports and finite-field models are
NamedTuples (Subgroup is a sorted tuple of automorphism indices).  Two
records built from equal fields compare equal, they hash equal when every
field is hashable, and neither a field nor a new attribute can be set;
a changed copy comes from _replace.
"""

import inspect
from pathlib import Path

import pytest

from twistctl import (eigensystem, forms, lmfdb, numberfield, synth,
                      twists)
from twistctl.finitefield import finite_field
from twistctl.numberfield import Subgroup, frobenius_at, stabilizer, unit_roots
from twistctl.twists import detect, relations

CACHE = Path(__file__).parent / "data" / "lmfdb_cache"
MODULES = (eigensystem, forms, lmfdb, numberfield, twists)


def _klein():
    return synth.klein_system(60)


def _detection():
    return detect(_klein(), 60)


def _model():
    return forms.finite_model(2, 2, 2)


def _newform():
    return lmfdb.fetch_newform("16.3.c.a", cache_dir=CACHE,
                               allow_network=False)


def _comparison():
    record = _newform()
    return lmfdb.compare_inner_twists(
        detect(lmfdb.to_eigensystem(record), 100), record, 100)


def _biquadratic_stabilizer():
    K = synth.biquadratic_field()
    return stabilizer(K, [synth.biq_sqrt2(K)])


# one builder per record type; each call builds a fresh record
BUILDERS = {
    eigensystem.PlaceData: lambda: _klein().coeffs[5],
    eigensystem.EigenSystem: lambda: synth.vantop_system(30),
    numberfield.Subgroup: _biquadratic_stabilizer,
    numberfield.SubfieldDescriptor: lambda: _detection().fixed,
    numberfield.FrobeniusResult:
        lambda: frobenius_at(synth.biquadratic_field(), 7),
    numberfield.UnitRoots: lambda: unit_roots(synth.eisenstein_field()),
    twists.ExtraTwist: lambda: _detection().group.twists[1],
    twists.TwistGroup: lambda: _detection().group,
    twists.Relations: lambda: relations(_klein(), 60),
    twists.CentReport: lambda: _detection().cent,
    twists.GeneralTypeVerdict: lambda: _detection().verdict,
    twists.DetectionResult: _detection,
    forms.Ring: lambda: forms.finite_field_ring(finite_field(4)),
    forms.GaloisContext: lambda: forms.finite_model_context(_model()),
    forms.FiniteModel: _model,
    forms.Cocycle: lambda: forms.unitary_cocycle(_model()),
    forms.ProjectionReport:
        lambda: forms.projection_iso_check(_model(),
                                           forms.unitary_cocycle(_model())),
    forms.PlaceVerdict: lambda: forms.classify_place(
        _klein().field, _detection().group, 5, 3)[0],
    forms.ImageReport: lambda: forms.image_report(
        _klein(), _detection(), [3, 5, 7, 11, 13]),
    lmfdb.NewformRecord: _newform,
    lmfdb.TwistComparison: _comparison,
}

# records whose builders make fresh functions on each call, so only records
# sharing those functions can compare equal
CLOSURES = {forms.Ring, forms.GaloisContext, forms.Cocycle}


def _rebuilt(record):
    """A second record of the same type built from the same field values."""
    if type(record) is Subgroup:
        return Subgroup(list(record))
    return type(record)(**record._asdict())


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _field_names(record) -> tuple:
    return getattr(record, "_fields", ("order",))


RECORD_TYPES = pytest.mark.parametrize(
    "cls", BUILDERS, ids=lambda cls: cls.__name__)


def test_every_record_type_has_a_builder():
    declared = {cls for module in MODULES
                for _, cls in inspect.getmembers(module, inspect.isclass)
                if cls.__module__ == module.__name__ and issubclass(cls, tuple)}
    assert declared == set(BUILDERS)


@RECORD_TYPES
def test_equal_fields_compare_equal(cls):
    record = BUILDERS[cls]()
    assert type(record) is cls
    copy = _rebuilt(record)
    assert type(copy) is cls and copy is not record
    assert copy == record and not copy != record
    if cls not in CLOSURES:
        again = BUILDERS[cls]()
        assert again is not record and again == record


@RECORD_TYPES
def test_hash_follows_the_fields(cls):
    record = BUILDERS[cls]()
    if all(_hashable(getattr(record, name)) for name in _field_names(record)):
        assert hash(_rebuilt(record)) == hash(record)
        if cls not in CLOSURES:
            assert hash(BUILDERS[cls]()) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


@RECORD_TYPES
def test_fields_and_attributes_cannot_be_set(cls):
    record = BUILDERS[cls]()
    for name in _field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_subgroup_sorts_and_drops_repeats():
    s = Subgroup((2, 0, 2))
    assert s == Subgroup((0, 2)) and s == (0, 2)
    assert s.order == 2
    assert 0 in s and 2 in s and 1 not in s


def test_replace_keeps_the_normalized_type():
    sys_ = _klein()
    changed = sys_._replace(bad_places=())
    assert type(changed) is eigensystem.EigenSystem
    assert changed.is_normalized and changed.bad_places == ()
    assert changed != sys_
    raw = synth.vantop_system(30)._replace(m=1)
    assert type(raw) is eigensystem.EigenSystem and not raw.is_normalized
