"""Frozen records against ``@dataclass(frozen=True)`` twins.

Each of the package's fourteen record classes has a dataclass twin below with
the same fields and defaults, so the twin is the oracle for what the
decorator gave: field order, repr, equality, hash, defaults, argument
errors, immutability and pickling.  The records' own ``__post_init__``
checks are tested at the end.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest

from nodalcodes import bounds, classify, codes, fields, forms, linalg, nodes, seeded, symmetroid
from nodalcodes.errors import DataError, DomainError, HomogeneityError
from nodalcodes.fields import QQ
from nodalcodes.forms import parse_form


@dataclass(frozen=True)
class RationalField:
    pass


@dataclass(frozen=True)
class PrimeField:
    p: int


@dataclass(frozen=True)
class BoundReport:
    b: int
    mu: int
    beauville: int
    improved: int
    miyaoka_max: int
    jacobian_slice_dim: int
    beauville_printed: int


@dataclass(frozen=True)
class TableEntry:
    code: object
    dim: int
    profile: str
    enumerator: dict
    canonical: bytes
    aut: int


@dataclass(frozen=True)
class ClassificationTable:
    mu: int
    entries: tuple
    excluded: tuple = ()
    audit: bool = False


@dataclass(frozen=True)
class EvenSetWord:
    mu: int
    weak: bool
    support: int


@dataclass(frozen=True)
class EvenSetCode:
    mu: int
    basis: tuple


@dataclass(frozen=True)
class HomogeneousForm:
    degree: int
    field: object
    terms: dict


@dataclass(frozen=True)
class ExactMatrix:
    field: object
    entries: tuple


@dataclass(frozen=True)
class NodeConfiguration:
    degree: int
    field: object
    points: tuple
    surface: object = None


@dataclass(frozen=True)
class DefectReport:
    b: int
    mu: int
    m_degree: int
    dim_m: int
    estimate: int
    defect: int


@dataclass(frozen=True)
class SymmetricLinearMatrix:
    prime: int
    coefficients: tuple


@dataclass(frozen=True)
class ScanResult:
    prime: int
    points: tuple
    degenerate: bool


@dataclass(frozen=True)
class QuadricCertificate:
    prime: int
    rank: int
    certified: bool


TWINS = (RationalField, PrimeField, BoundReport, TableEntry, ClassificationTable, EvenSetWord, EvenSetCode,
         HomogeneousForm, ExactMatrix, NodeConfiguration, DefectReport, SymmetricLinearMatrix, ScanResult,
         QuadricCertificate)


@pytest.fixture(scope="session")
def samples() -> dict:
    """One record of each class, by twin, built at the first test that asks,
    so that a fault in the classifier or the scan fails those tests and
    leaves the module's other tests running."""
    return {twin: record for record, twin in _samples()}


@pytest.fixture
def record(samples, twin):
    return samples[twin]


def _samples() -> list:
    table = classify.classify_quartic_codes(12, audit=True)
    matrix = seeded.random_symmetroid_matrix(13, 0)
    form = parse_form("x^2 + 3*y*z - 1/2*w^2")
    return [
        (QQ, RationalField),
        (fields.PrimeField(7), PrimeField),
        (bounds.bound_report(8, 168), BoundReport),
        (table.entries[0], TableEntry),
        (table, ClassificationTable),
        (codes.EvenSetWord(8, True, 0b111111), EvenSetWord),
        (codes.EvenSetCode(6, (3, 6)), EvenSetCode),
        (form, HomogeneousForm),
        (linalg.ExactMatrix(QQ, ((1, Fraction(1, 2)), (3, 4))), ExactMatrix),
        (nodes.NodeConfiguration(2, QQ, ((0, 0, 0, 1), (0, 0, 1, 1)), form), NodeConfiguration),
        (nodes.defect(6, 65, 4), DefectReport),
        (matrix, SymmetricLinearMatrix),
        (symmetroid.scan_nodes_fp(matrix), ScanResult),
        (symmetroid.no_quadric_certificate(symmetroid.scan_nodes_fp(matrix).points, 13),
         QuadricCertificate),
    ]


def _args(record, twin) -> list:
    """The record's field values, in the order of the twin's fields."""
    return [getattr(record, f.name) for f in dataclasses.fields(twin)]


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_every_record_class_has_a_twin(samples):
    assert tuple(samples) == TWINS
    assert len({type(record) for record in samples.values()}) == 14
    for twin, record in samples.items():
        assert type(record).__qualname__ == twin.__qualname__


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_fields_in_order(record, twin):
    args = _args(record, twin)
    assert list(vars(record)) == [f.name for f in dataclasses.fields(twin)]
    rebuilt = type(record)(*args)
    assert _args(rebuilt, twin) == args
    assert type(record)(**{f.name: a for f, a in zip(dataclasses.fields(twin), args)}) == record


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_repr(record, twin):
    if "__repr__" in vars(type(record)):
        assert repr(record) == vars(type(record))["__repr__"](record)
    else:
        assert repr(record) == repr(twin(*_args(record, twin)))


def test_own_repr_wins():
    assert repr(parse_form("x^2 + 3*y*z")) == "HomogeneousForm(x^2 + 3*y*z)"
    assert repr(linalg.ExactMatrix(fields.PrimeField(7), ((1, 2, 3),))) == "ExactMatrix(PrimeField(p=7), 1x3)"


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_equality(record, twin):
    args = _args(record, twin)
    other_class = twin(*args)
    for obj, same in ((record, type(record)(*args)), (other_class, twin(*args))):
        assert obj == same and not obj != same
        assert obj.__eq__(tuple(args)) is NotImplemented and obj != tuple(args)
    assert record.__eq__(other_class) is NotImplemented and other_class.__eq__(record) is NotImplemented
    assert record != other_class and other_class != record


def test_unequal_fields_and_subclasses():
    word = codes.EvenSetWord(8, False, 255)
    assert word != codes.EvenSetWord(8, False, 15) and word != codes.EvenSetWord(9, False, 255)

    class Word(codes.EvenSetWord):
        pass

    @dataclass(frozen=True)
    class TwinWord(EvenSetWord):
        pass

    assert word != Word(8, False, 255) and EvenSetWord(8, False, 255) != TwinWord(8, False, 255)
    assert Word(8, False, 255) == Word(mu=8, weak=False, support=255)
    assert list(vars(Word(8, False, 255))) == list(vars(TwinWord(8, False, 255)))
    with pytest.raises(DataError):
        Word(8, True, 0)


def test_a_subclass_appends_its_own_fields():
    class Table(classify.ClassificationTable):
        note: str = ""

    @dataclass(frozen=True)
    class TwinTable(ClassificationTable):
        note: str = ""

    for cls in (Table, TwinTable):
        table = cls(6, (), note="x")
        assert [table.mu, table.entries, table.excluded, table.audit, table.note] == [6, (), (), False, "x"]
        assert list(vars(table)) == ["mu", "entries", "excluded", "audit", "note"]


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_hash(record, twin):
    assert _hash(record) == _hash(twin(*_args(record, twin)))


def test_unhashable_fields_make_an_unhashable_record():
    with pytest.raises(TypeError):
        hash(parse_form("x + y"))
    with pytest.raises(TypeError):
        hash(forms.HomogeneousForm(1, QQ, {}))
    assert {codes.EvenSetCode(6, (3, 6)), codes.EvenSetCode(6, (6, 3))} == {codes.EvenSetCode(6, (5, 3))}


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_defaults(record, twin):
    fields = dataclasses.fields(twin)
    required = [f for f in fields if f.default is dataclasses.MISSING]
    args = _args(record, twin)[:len(required)]
    for cls in (type(record), twin):
        built = cls(*args)
        assert list(vars(built)) == [f.name for f in fields]
        for f in fields[len(required):]:
            assert getattr(built, f.name) == f.default


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_argument_errors(record, twin):
    args = _args(record, twin)
    names = [f.name for f in dataclasses.fields(twin)]
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(twin))
    for cls in (type(record), twin):
        calls = [
            lambda: cls(*args, None),  # extra positional
            lambda: cls(*args, extra=None),  # extra keyword
        ]
        if required:  # RationalField has no field to miss or to give twice
            calls += [
                lambda: cls(*args[:required - 1]),  # missing
                lambda: cls(*args, **{names[0]: args[0]}),  # one field twice
            ]
        for call in calls:
            with pytest.raises(TypeError):
                call()


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_frozen(record, twin):
    for obj in (record, twin(*_args(record, twin))):
        for name in [f.name for f in dataclasses.fields(twin)] + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        for name in [f.name for f in dataclasses.fields(twin)]:
            with pytest.raises(AttributeError):
                delattr(obj, name)


@pytest.mark.parametrize("twin", TWINS, ids=lambda twin: twin.__name__)
def test_pickle_and_copy(record, twin):
    for obj in (record, twin(*_args(record, twin))):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(clone) is type(obj)
            assert clone == obj and repr(clone) == repr(obj) and _hash(clone) == _hash(obj)
            assert list(vars(clone)) == list(vars(obj))


@pytest.mark.parametrize("build, error", [
    (lambda: fields.PrimeField(9), DomainError),
    (lambda: fields.PrimeField(2), DomainError),
    (lambda: fields.PrimeField(True), DataError),
    (lambda: fields.PrimeField(7.0), DataError),
    (lambda: codes.EvenSetWord(-1, False, 0), DataError),
    (lambda: codes.EvenSetWord(4, False, 16), DataError),
    (lambda: codes.EvenSetWord(4, False, -1), DataError),
    (lambda: codes.EvenSetWord(4, True, 0), DataError),
    (lambda: codes.EvenSetCode(4, (32,)), DataError),
    (lambda: codes.EvenSetCode(4, (-1,)), DataError),
    (lambda: codes.EvenSetCode(4, (0b10011, 0b00011)), DataError),  # empty weak set in the span
    (lambda: forms.HomogeneousForm(2, QQ, {(1, 1, 0): 1}), DataError),
    (lambda: forms.HomogeneousForm(2, QQ, {(3, -1, 0, 0): 1}), DataError),
    (lambda: forms.HomogeneousForm(2, QQ, {(1, 0, 0, 0): 1}), HomogeneityError),
    (lambda: forms.HomogeneousForm(1, fields.PrimeField(7), {(1, 0, 0, 0): 7}), DataError),
    (lambda: linalg.ExactMatrix(QQ, ((1, 2), (3,))), DataError),
    (lambda: nodes.NodeConfiguration(0, QQ, ()), DomainError),
    (lambda: nodes.NodeConfiguration(2, QQ, ((1, 0, 0, 0), (2, 0, 0, 0))), DataError),
    (lambda: nodes.NodeConfiguration(2, QQ, ((1, 0, 0),)), DataError),
    (lambda: nodes.NodeConfiguration(2, QQ, (), parse_form("x", fields.PrimeField(7))), DataError),
    (lambda: nodes.NodeConfiguration(2, QQ, (), parse_form("x^3")), DataError),
    (lambda: symmetroid.SymmetricLinearMatrix(9, ((1, 0, 0, 0),) * 10), DomainError),
    (lambda: symmetroid.SymmetricLinearMatrix(7, ((1, 0, 0, 0),) * 9), DataError),
    (lambda: symmetroid.SymmetricLinearMatrix(7, ((1, 0, 0),) * 10), DataError),
    # each coefficient is a prime-field scalar: no float, no bool, no fraction
    (lambda: symmetroid.SymmetricLinearMatrix(7, ((1.0, 0, 0, 0),) + ((1, 0, 0, 0),) * 9), DataError),
    (lambda: symmetroid.SymmetricLinearMatrix(7, ((True, 0, 0, 0),) + ((1, 0, 0, 0),) * 9), DataError),
    (lambda: symmetroid.SymmetricLinearMatrix(7, ((1, Fraction(1, 2), 0, 0),) * 10), DataError),
])
def test_post_init_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_post_init_normalizes_fields():
    assert codes.EvenSetCode(6, (3, 6)).basis == (5, 3)
    assert nodes.NodeConfiguration(2, QQ, ((2, 4, 0, 0),)).points == ((1, 2, 0, 0),)
    assert symmetroid.SymmetricLinearMatrix(7, ((8, -1, 0, 0),) * 10).coefficients[0] == (1, 6, 0, 0)
