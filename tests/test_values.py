"""Value semantics of the package's classes.

Every value class sits on one frozen base: instances refuse assignment and
deletion, compare and hash by their fields, and print the repr that names
them.  The expected reprs are the text the classes printed when they were
generated dataclasses, so that the change of base changed no output.
"""

import json
from pathlib import Path

import pytest

import cuspidal
from conftest import fresh_python
from cuspidal import (
    BettiTable,
    CatalogEntry,
    CountingFn,
    CriterionReport,
    CriterionRow,
    CuspCollection,
    EuOracle,
    EuReport,
    IntPoly,
    IntSeq,
    MultSeq,
    NewtonPairs,
    Regroupings,
    Semigroup,
    WeightedRectangle,
    catalog,
    regroupings,
    semigroup_from_generators,
)

CUSPS = "CuspCollection(cusps=(Semigroup(apery=(0, 3)),), multseqs=(MultSeq(entries=(2,)),))"


def _values():
    """(instance, its repr) for one instance of each value class."""
    c = CuspCollection((semigroup_from_generators([2, 3]),))
    row = CriterionRow(0, 1, 1, True)
    return [
        (IntSeq((1, -1, 2)), "IntSeq(values=(1, -1, 2))"),
        (CountingFn((0, 0, 1), 1), "CountingFn(head=(0, 0, 1), offset=1)"),
        (MultSeq((3, 2)), "MultSeq(entries=(3, 2))"),
        (NewtonPairs(((2, 3), (2, 1))), "NewtonPairs(pairs=((2, 3), (2, 1)))"),
        (semigroup_from_generators([2, 3]), "Semigroup(apery=(0, 3))"),
        (IntPoly(IntSeq((1, -1, 1))), "IntPoly(coeffs=IntSeq(values=(1, -1, 1)))"),
        (c, CUSPS),
        (EuReport(d=4, a=1, eu_h0=2, eu_hstar=-1, terms=((1, 2, 3),)),
         "EuReport(d=4, a=1, eu_h0=2, eu_hstar=-1, terms=((1, 2, 3),))"),
        (row, "CriterionRow(j=0, lhs=1, rhs=1, ok=True)"),
        (CriterionReport("conj_index", (row,), True, difference=0),
         "CriterionReport(criterion='conj_index', rows=(CriterionRow(j=0, lhs=1, rhs=1, "
         "ok=True),), passed=True, difference=0)"),
        (regroupings([3, 2]),
         "Regroupings(collections=((MultSeq(entries=(3,)), MultSeq(entries=(2,))), "
         "(MultSeq(entries=(3, 2)),)), truncated=False)"),
        (catalog("sporadic3"),
         "CatalogEntry(family='sporadic3', label='sporadic3', d=5, params=(), "
         "cusps=(MultSeq(entries=(2, 2)), MultSeq(entries=(2, 2)), MultSeq(entries=(2, 2))), "
         "newton=(NewtonPairs(pairs=((2, 5),)), NewtonPairs(pairs=((2, 5),)), "
         "NewtonPairs(pairs=((2, 5),))))"),
        (WeightedRectangle((1, 2), (0, 1, 2, 3, 4, 5)),
         "WeightedRectangle(dims=(1, 2), weights=(0, 1, 2, 3, 4, 5))"),
        (BettiTable(-1, ((1, 0), (0, 0))), "BettiTable(min_level=-1, rows=((1, 0), (0, 0)))"),
        (EuOracle(1, 2, -1, BettiTable(-1, ((1, 0),))),
         "EuOracle(eu_h0=1, eu_hstar=2, min_weight=-1, "
         "table=BettiTable(min_level=-1, rows=((1, 0),)))"),
    ]


CLASSES = (IntSeq, CountingFn, MultSeq, NewtonPairs, Semigroup, IntPoly, CuspCollection,
           EuReport, CriterionRow, CriterionReport, Regroupings, CatalogEntry,
           WeightedRectangle, BettiTable, EuOracle)

each_class = pytest.mark.parametrize("i", range(len(CLASSES)), ids=[c.__name__ for c in CLASSES])


def test_one_value_of_each_class():
    assert [type(v) for v, _ in _values()] == list(CLASSES)


@each_class
def test_repr_unchanged(i):
    value, text = _values()[i]
    assert repr(value) == text


@each_class
def test_assignment_and_deletion_refused(i):
    value, text = _values()[i]
    for name in (*type(value)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@each_class
def test_equal_and_hashed_by_fields(i):
    value, twin = _values()[i][0], _values()[i][0]
    assert twin is not value
    assert twin == value and not twin != value and hash(twin) == hash(value)
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    assert value != fields and value != fields[0]  # nor are the fields themselves


# records that the base constructs, and CriterionReport, whose own __init__
# only carries the default of difference
BASE_BUILT = (IntPoly, EuReport, CriterionRow, CriterionReport, Regroupings,
              WeightedRectangle, BettiTable, EuOracle)
each_base_built = pytest.mark.parametrize("cls", BASE_BUILT, ids=[c.__name__ for c in BASE_BUILT])


def _fields_of(cls):
    """The fields of the instance of cls in _values(), by position and by keyword."""
    value = next(v for v, _ in _values() if type(v) is cls)
    args = tuple(getattr(value, name) for name in cls._fields)
    return value, args, dict(zip(cls._fields, args))


@each_base_built
def test_positional_and_keyword_construction_agree(cls):
    value, args, kwargs = _fields_of(cls)
    rest = {name: kwargs[name] for name in cls._fields[1:]}
    built = [cls(*args), cls(**kwargs), cls(args[0], **rest)]
    assert built == [value] * 3 and [repr(v) for v in built] == [repr(value)] * 3


WRONG_ARGUMENTS = {
    "missing field": lambda cls, args, kwargs: cls(*args[:-2]),  # CriterionReport defaults one
    "missing keyword": lambda cls, args, kwargs: cls(**dict(list(kwargs.items())[1:])),
    "extra argument": lambda cls, args, kwargs: cls(*args, 0),
    "unknown keyword": lambda cls, args, kwargs: cls(**kwargs, extra=0),
    "field given twice": lambda cls, args, kwargs: cls(args[0], **kwargs),
}


@each_base_built
@pytest.mark.parametrize("wrong", WRONG_ARGUMENTS)
def test_wrong_arguments_refused(cls, wrong):
    _, args, kwargs = _fields_of(cls)
    with pytest.raises(TypeError, match=cls.__name__):
        WRONG_ARGUMENTS[wrong](cls, args, kwargs)


def test_wrong_arguments_message_names_the_fields():
    with pytest.raises(TypeError) as info:
        CriterionRow(0, 1, 1)
    assert str(info.value) == ("CriterionRow takes each of its fields (j, lhs, rhs, ok) once, "
                               "by position or by keyword")


def test_unequal_when_one_field_differs():
    assert IntSeq((1, 2)) != IntSeq((1, 3))
    assert CountingFn((0, 0, 1), 1) != CountingFn((0, 1, 2), 0)
    assert CriterionRow(0, 1, 1, True) != CriterionRow(0, 1, 1, False)
    assert CriterionReport("bl", (), True, None) != CriterionReport("bl", (), True, difference=0)
    assert MultSeq((3,)) != MultSeq((2,)) and MultSeq((2, 2)) != NewtonPairs(((2, 5),))
    assert len({IntSeq((1,)), IntSeq((1, 0)), IntSeq((2,))}) == 2


def test_len_and_str():
    assert len(IntSeq((1, -1, 2, 0))) == 3 and len(IntSeq()) == 0
    cusps = {MultSeq((3, 2, 2)): "[3,2_2]", NewtonPairs(((2, 3), (2, 1))): "(2,3)(2,1)",
             semigroup_from_generators([4, 6, 13]): "<4,6,13>"}
    for cusp, literal in cusps.items():
        assert str(cusp) == cusp.literal() == literal


def test_semigroup_apery_set_is_the_field():
    s = semigroup_from_generators([3, 5])
    t = Semigroup((1, 2, 4, 7))
    assert s.apery == (0, 10, 5) and s.gaps == (1, 2, 4, 7)
    assert s.delta == 4 and s.conductor == 8
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t) == "Semigroup(apery=(0, 10, 5))"


def test_cusp_collection_keeps_first_use_values():
    # cached_property and seed_h write into the instance dict, past __setattr__
    c = CuspCollection((semigroup_from_generators([2, 3]),) * 3)
    assert c.delta == 3 and vars(c)["delta"] == 3
    h = c.h
    c.seed_h(h)
    assert c.h is h
    assert c == CuspCollection(c.cusps)


def test_import_generates_no_code():
    # site may load typing before the package; only what the import adds counts
    package = sorted("cuspidal" if p.stem == "__init__" else "cuspidal." + p.stem
                     for p in Path(cuspidal.__file__).parent.glob("*.py"))
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import cuspidal.cli\n"
            "added = set(sys.modules) - before\n"
            f"print(json.dumps([sorted(added & {{'dataclasses', 'inspect', 'typing'}}), "
            f"sorted(set({package!r}) - added)]))\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    generated, missing = json.loads(proc.stdout)
    assert generated == [] and missing == []
