"""The contract of plumbcalc's result records: immutable named tuples with
fixed field names, order and defaults, the ``Name(field=value, ...)``
repr, tuple equality and hash, and a pickle round trip (``census`` with
``jobs > 1`` sends records between processes).  ``CutResult`` is a plain
class whose decorated graphs are built on first read."""

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import plumbcalc
from plumbcalc.census import CensusRecord, DetOneRecord
from plumbcalc.classify import ClassificationReport, classify
from plumbcalc.errors import GraphStructureError
from plumbcalc.lattice import Definiteness, DefinitenessKind
from plumbcalc.laufer import ComputationSequence, JumpWitness, LauferStep
from plumbcalc.seifert import (
    ContinuedFraction,
    RealizabilityWitness,
    SeifertData,
    negative_cf,
)
from plumbcalc.surgery import (
    CertificateNode,
    CheckResult,
    Claim,
    CutResult,
    JumpInfo,
    cut_and_fill,
)

from conftest import two_star_chain

FIELDS = {
    Definiteness: ("kind", "corank"),
    LauferStep: ("cycle_before", "vertex", "pairing_value"),
    ComputationSequence: ("steps", "final"),
    JumpWitness: ("step", "vertex", "value"),
    ContinuedFraction: ("value", "terms"),
    RealizabilityWitness: ("m", "a", "assignment"),
    SeifertData: ("e0", "legs"),
    Claim: ("kind", "expected", "got"),
    JumpInfo: ("stabilized_weight", "step", "vertex", "value", "component"),
    CertificateNode: (
        "graph", "tag", "claims", "children", "edge", "r", "jump", "seifert",
    ),
    CheckResult: ("ok", "path", "reason"),
    CensusRecord: ("graph_text", "vertex_count", "report", "seconds"),
    DetOneRecord: ("graph", "rational"),
    ClassificationReport: (
        "graph_text", "negative_definite", "definiteness_kind", "det", "zhs",
        "rational", "l_space", "lo", "taut_foliation", "m", "m_is_upper_bound",
        "bad_set", "certificate_path",
    ),
}

DEFAULTS = {
    Definiteness: {"corank": 0},
    CertificateNode: {
        "children": (), "edge": None, "r": None, "jump": None, "seifert": None,
    },
    CheckResult: {"path": None, "reason": None},
    ClassificationReport: {
        "m": None, "m_is_upper_bound": False, "bad_set": None, "certificate_path": None,
    },
}

# records whose fields hold a dict cannot be hashed, as before
UNHASHABLE = (LauferStep, ComputationSequence)


def _samples(s237):
    claim = Claim("det", 1, 1)
    jump = JumpInfo(Fraction(-2), 1, "c", 2, ("c", "p2"))
    sd = SeifertData(-1, ((7, 1), (2, 1), (3, 1)))
    step = LauferStep({"c": 1, "p2": 0}, "c", 1)
    report = classify(s237)
    return [
        Definiteness(DefinitenessKind.NEGATIVE_SEMIDEFINITE, 1),
        step,
        ComputationSequence((step,), {"c": 1, "p2": 1}),
        JumpWitness(3, "c", 2),
        negative_cf(Fraction(-7, 3)),
        RealizabilityWitness(5, 2, (Fraction(1, 3), Fraction(1, 2), Fraction(1, 7))),
        sd,
        claim,
        jump,
        CertificateNode(s237, "Case1", (claim,), (), ("c", "p2"), Fraction(-1, 2), jump),
        CheckResult(False, "root.children[0]", "stored r 1 != recomputed 2"),
        CensusRecord(report.graph_text, 4, report, 0.25),
        DetOneRecord(s237, False),
        report,
    ]


@pytest.fixture(scope="module")
def samples(s237):
    return _samples(s237)


def test_every_record_is_sampled(samples):
    assert [type(r) for r in samples] == list(FIELDS)


def test_fields_and_defaults(samples):
    for rec in samples:
        cls = type(rec)
        assert cls._fields == FIELDS[cls], cls.__name__
        assert cls._field_defaults == DEFAULTS.get(cls, {}), cls.__name__


def test_repr_keeps_the_field_format(samples):
    for rec in samples:
        body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields)
        assert repr(rec) == f"{type(rec).__name__}({body})"
        assert str(rec) == repr(rec)
    assert repr(Claim("det", 1, 1)) == "Claim(kind='det', expected=1, got=1)"
    assert repr(CheckResult(True)) == "CheckResult(ok=True, path=None, reason=None)"
    assert (
        repr(SeifertData(-1, [(7, 1), (2, 1), (3, 1)]))
        == "SeifertData(e0=-1, legs=((2, 1), (3, 1), (7, 1)))"
    )


def test_equality_and_hash(samples, s237):
    for rec, twin in zip(samples, _samples(s237)):
        assert rec is not twin and rec == twin and not rec != twin
        assert rec == tuple(rec)  # a record equals the plain tuple of its values
        if isinstance(rec, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == hash(twin) == hash(tuple(rec))
        if not isinstance(rec, SeifertData):  # which checks its fields
            first = rec._fields[0]
            other = rec._replace(**{first: "other"})
            assert other != rec and getattr(other, first) == "other"


def test_fields_cannot_be_assigned(samples):
    for rec in samples:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.extra = 1


def _record_classes():
    """Every record class of the package: each tuple subclass with ``_fields``
    that a module of ``plumbcalc`` defines."""
    found = set()
    for info in pkgutil.iter_modules(plumbcalc.__path__, "plumbcalc."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                and obj.__module__ == module.__name__
            ):
                found.add(obj)
    return found


def test_every_record_class_is_covered_and_closed(samples):
    # a record is a collections.namedtuple class, or a subclass of one with
    # __slots__ = (): no instance dict, and no annotations, so a record
    # written as a typing.NamedTuple shows here
    classes = _record_classes()
    assert classes == set(FIELDS), classes ^ set(FIELDS)
    by_type = {type(rec): rec for rec in samples}
    for cls in classes:
        assert not any("__annotations__" in vars(k) for k in cls.__mro__), cls.__name__
        rec = by_type[cls]
        assert not hasattr(rec, "__dict__"), cls.__name__
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_pickle_round_trip(samples):
    for rec in samples:
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and back == rec


def test_check_result_truth():
    assert bool(CheckResult(True)) is True
    assert bool(CheckResult(False, "root", "unknown tag 'x'")) is False
    assert not CheckResult(False)


@pytest.mark.parametrize(
    "legs, message",
    [
        (((2, 1), (3, 1)), "Seifert data needs at least three legs"),
        (((2, 2), (3, 1), (5, 1)), "leg (2,2) violates 0 < omega < alpha"),
        (((2, 1), (3, 0), (5, 1)), "leg (3,0) violates 0 < omega < alpha"),
        (((4, 2), (3, 1), (5, 1)), "leg (4,2) not coprime"),
    ],
)
def test_seifert_data_rejects(legs, message):
    with pytest.raises(GraphStructureError) as exc:
        SeifertData(-1, legs)
    assert str(exc.value) == message
    good = SeifertData(-1, ((2, 1), (3, 1), (7, 1)))
    with pytest.raises(GraphStructureError) as exc:
        good._replace(legs=legs)
    assert str(exc.value) == message


def test_seifert_data_normalizes():
    sd = SeifertData(Fraction(-2), [(7, 1), (2, 1), (3, 2)])
    assert type(sd.e0) is int and sd.e0 == -2
    assert sd.legs == ((2, 1), (3, 2), (7, 1)) and type(sd.legs) is tuple
    assert sd.nu == 3
    assert sd == SeifertData(e0=-2, legs=((3, 2), (2, 1), (7, 1)))
    lowered = sd._replace(e0=Fraction(-3), legs=[(5, 1), (2, 1), (3, 1)])
    assert type(lowered) is SeifertData and type(lowered.e0) is int
    assert lowered == (-3, ((2, 1), (3, 1), (5, 1)))
    back = pickle.loads(pickle.dumps(sd))
    assert type(back) is SeifertData and back == sd and back.nu == 3


def test_cut_result_is_a_plain_object():
    g = two_star_chain()
    cut = cut_and_fill(g, ("m1", "m2"))
    again = cut_and_fill(g, ("m1", "m2"))
    assert cut != again and cut == cut  # compared by identity
    assert (cut.edge, cut.r, cut.det_w, cut.det_w_minus) == (
        again.edge, again.r, again.det_w, again.det_w_minus,
    )
    assert cut.side_v == again.side_v and cut.filled_w == again.filled_w
    assert isinstance(cut, CutResult) and not isinstance(cut, tuple)
    assert cut.decorated_v is cut.decorated_v and cut.decorated_w is cut.decorated_w
