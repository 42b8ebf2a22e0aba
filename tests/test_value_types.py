"""Value semantics of the immutable types: equality, hashing, repr, refused
assignment, the records' construction and the validated types' checks."""

from __future__ import annotations

import copy
import pickle
from itertools import product

import pytest

from omcert.cli import Outcome, RunConfig
from omcert.contradiction import AssumptionRecord, ContradictionCertificate, RestrictionCheck
from omcert.matroid import (
    Chirotope,
    CovectorAxiomReport,
    TopeSet,
    UniformTopeReport,
    alternating_chirotope,
    check_covector_axioms,
    check_uniform_tope_axioms,
    covectors_of,
)
from omcert.oracle import DirectSearchOutcome, OracleRun
from omcert.search import SaturationRun, SearchCertificate, SearchInstance, SurvivorRecord
from omcert.signed_vector import Immutable, SignedVector
from omcert.strong_map import StrongMapVerdict

sv = SignedVector.parse


def per_character_string(v: SignedVector) -> str:
    """The sign string built one element at a time, the reference definition."""
    out = []
    for i in range(v.n):
        bit = 1 << i
        out.append("+" if v.pos & bit else "-" if v.neg & bit else "0")
    return "".join(out)


class TestSignedVector:
    def test_equality_and_hash(self):
        a, b = SignedVector(6, 0b000101, 0b001010), sv("+-+-00")
        assert a == b and a is not b
        assert a != sv("+-+-0-") and a != sv("+-+-0")
        assert hash(a) == hash(b) == hash((6, 0b000101, 0b001010))
        assert a != (6, 0b000101, 0b001010)

    def test_hash_is_the_field_tuple_hash(self):
        for v in (sv("0"), sv("+-0"), SignedVector(32, 0x12345678, 0x80000000)):
            assert hash(v) == hash((v.n, v.pos, v.neg))

    def test_repr(self):
        assert repr(sv("+-0")) == "SignedVector('+-0')"

    def test_string_matches_per_character_definition(self):
        vectors = [sv("".join(s)) for n in range(1, 7) for s in product("+-0", repeat=n)]
        vectors += [
            SignedVector(32, 0, 0),
            SignedVector(32, (1 << 32) - 1, 0),
            SignedVector(32, 0, (1 << 32) - 1),
            SignedVector(32, 0x12345678, 0x80000000),
            SignedVector(32, 0x55555555, 0xAAAAAAAA),
        ]
        for v in vectors:
            want = per_character_string(v)
            assert v.to_string() == want
            assert str(v) == want  # the second call reads the cached string
            assert sv(want) == v


def tope_set() -> TopeSet:
    return TopeSet(3, 2, frozenset({sv("+++"), sv("++-"), sv("+--")}))


def survivor(**changed) -> SurvivorRecord:
    fields = {
        "topes": (sv("++"),),
        "vc_witnesses": (((1, 2), sv("+-")),),
        "excluded_absent": (("+-", True),),
        "circuits": (((1, 2), sv("+-")),),
    }
    return SurvivorRecord(**(fields | changed))


class TestValidatedTypes:
    def test_tope_set_equality_hash_and_repr(self):
        a, b = tope_set(), tope_set()
        assert a == b and hash(a) == hash(b) == hash((3, 2, a.topes))
        assert a != TopeSet(3, 3, a.topes)
        assert repr(a) == f"TopeSet(n=3, r=2, topes={a.topes!r})"

    def test_tope_set_caches_are_not_fields(self):
        a, b = tope_set(), tope_set()
        assert a.strings == ("+++", "++-", "+--")
        assert a.ordered == tuple(sv(s) for s in a.strings)
        assert a.hit_patterns == b.hit_patterns
        assert a.hit_patterns is a.hit_patterns  # computed once
        assert a == b and hash(a) == hash(b)

    def test_types_with_the_same_fields_differ(self):
        class Twin(Immutable):
            __slots__ = _fields = TopeSet._fields

        a = tope_set()
        twin = Twin(a.n, a.r, a.topes)
        assert a._key() == twin._key() and hash(a) == hash(twin)
        assert a != twin and twin != a

    def test_chirotope_repr(self):
        assert repr(Chirotope(3, 2, (1, -1, 1))) == "Chirotope(n=3, r=2, values=(1, -1, 1))"


def instances() -> list[tuple[object, str]]:
    """One value of every immutable type, with one of its fields."""
    topes = tope_set()
    instance = SearchInstance(n=3, rank=2, choose=1, base=(), pool=tuple(topes.ordered))
    search = SearchCertificate(instance, 1, (survivor(),), (sv("+-"), sv("+-")))
    verdict = StrongMapVerdict(holds=True, method="tope-inclusion", corank=0, witness=None)
    restriction = RestrictionCheck((1, 2), True, True, sv("+-"))
    assumption = AssumptionRecord("name", "statement", None, "note")
    contradiction = ContradictionCertificate(
        verdict, 4, 2, search, True, restriction, restriction, True, (assumption,), "v"
    )
    return [
        (sv("+-0"), "pos"),
        (alternating_chirotope(4, 2), "values"),
        (topes, "topes"),
        (survivor(), "circuits"),
        (check_uniform_tope_axioms(topes), "witnesses"),
        (check_covector_axioms(covectors_of(alternating_chirotope(3, 2))), "vector_count"),
        (instance, "pool"),
        (search, "survivors"),
        (SaturationRun(picks=((0,),), nodes=1, credited=1), "nodes"),
        (OracleRun(leaves=(alternating_chirotope(5, 3),), nodes=1, exhausted=False), "leaves"),
        (restriction, "lifted_circuit"),
        (assumption, "verified"),
        (contradiction, "verdict"),
        (DirectSearchOutcome(status="none-found", nodes=1, witness=None), "status"),
        (verdict, "holds"),
        (RunConfig("all", 6, 4, "alternating", None, "json", None), "output_path"),
        (Outcome(doc={"n": 6}, lines=["n=6"], ok=True), "lines"),
    ]


def records() -> list[object]:
    """The values whose class takes ``Immutable``'s constructor."""
    return [value for value, _ in instances() if type(value).__init__ is Immutable.__init__]


def test_every_converted_type_is_covered():
    covered = {type(value) for value, _ in instances()}
    assert covered == {
        SignedVector, Chirotope, TopeSet, SurvivorRecord, UniformTopeReport,
        CovectorAxiomReport, SearchInstance, SearchCertificate, SaturationRun, OracleRun,
        RestrictionCheck, AssumptionRecord, ContradictionCertificate, DirectSearchOutcome,
        StrongMapVerdict, RunConfig, Outcome,
    }
    assert len(records()) == 14


@pytest.mark.parametrize(
    "value, name", instances(), ids=[type(value).__name__ for value, _ in instances()]
)
def test_equal_only_within_one_class(value, name):
    fields = tuple(getattr(value, field) for field in type(value)._fields)
    assert value != fields and fields != value
    assert value != value._key()


@pytest.mark.parametrize(
    "value, name", instances(), ids=[type(value).__name__ for value, _ in instances()]
)
def test_hash_is_the_key_hash(value, name):
    try:
        want = hash(value._key())
    except TypeError:  # a key holding a list or a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == want


@pytest.mark.parametrize("value", records(), ids=[type(value).__name__ for value in records()])
def test_record_repr_lists_the_fields(value):
    fields = ", ".join(f"{field}={getattr(value, field)!r}" for field in type(value)._fields)
    assert repr(value) == f"{type(value).__name__}({fields})"


@pytest.mark.parametrize("value", records(), ids=[type(value).__name__ for value in records()])
def test_record_construction(value):
    cls, fields = type(value), type(value)._fields
    values = [getattr(value, field) for field in fields]
    by_name = dict(zip(fields, values))
    assert cls(*values) == cls(**by_name) == cls(*values[:2], **dict(zip(fields[2:], values[2:]))) == value
    with pytest.raises(TypeError, match=f"{cls.__name__} is missing field '{fields[0]}'"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match=f"{cls.__name__} got unexpected fields 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"{cls.__name__} got field '{fields[0]}' both by position and by name"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=f"{cls.__name__} takes {len(fields)} fields, got {len(fields) + 1}"):
        cls(*values, None)


@pytest.mark.parametrize(
    "value, name", instances(), ids=[type(value).__name__ for value, _ in instances()]
)
def test_fields_cannot_be_assigned_or_deleted(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_attribute = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize(
    "value, name", instances(), ids=[type(value).__name__ for value, _ in instances()]
)
def test_copies_and_pickles_are_equal(value, name):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        assert getattr(twin, name) == getattr(value, name)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SignedVector(0, 0, 0), "ground set size must be an integer in 1..32, got 0"),
        (lambda: SignedVector(33, 0, 0), "ground set size must be an integer in 1..32, got 33"),
        (lambda: SignedVector(2.0, 0, 0), "ground set size must be an integer in 1..32, got 2.0"),
        (lambda: SignedVector(2, 0b01, 0b01), "positive and negative supports overlap"),
        (lambda: SignedVector(2, 0b100, 0), "support exceeds the ground set"),
        (lambda: Chirotope(3, 4, (1,)), "rank must be within 1..3, got 4"),
        (lambda: Chirotope(3, 2, (1, 0)), "expected 3 stored values, got 2"),
        (lambda: Chirotope(3, 2, (1, 2, 0)), r"chirotope values must lie in \{-1, 0, 1\}"),
        (lambda: Chirotope(3, 2, (0, 0, 0)), "chirotope must not be identically zero"),
        (lambda: TopeSet(3, 0, frozenset()), "rank must be within 1..3, got 0"),
        (lambda: TopeSet(3, 2, frozenset({sv("++")})), r"tope \+\+ lives on 2 elements, expected 3"),
        (lambda: TopeSet(3, 2, frozenset({sv("++0")})), r"tope \+\+0 lacks full support"),
        (lambda: TopeSet(3, 2, frozenset({sv("-++")})), r"tope -\+\+ is not canonical"),
    ],
)
def test_construction_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()

