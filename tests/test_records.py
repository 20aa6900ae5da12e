"""The library's value classes against real dataclasses with the same fields.

Each class derives from `cyltab.errors.Record` and must behave as the
`@dataclass(frozen=True, slots=True)` it replaces: the twin built here from
its field list with `dataclasses.make_dataclass` is the oracle for repr,
equality, hashing, construction, defaults, slots and match arguments.
"""

import json
import pickle
from dataclasses import FrozenInstanceError, field, make_dataclass
from inspect import signature
from pathlib import Path

import pytest

import cyltab
from cyltab import serialization as ser
from cyltab.errors import Record
from cyltab.insertion import InsertionEvent, TableauState
from cyltab.polynomials import IdentityReport, SparsePolynomial
from cyltab.words import LiftedWord, TransformResult

FIXTURES = Path(cyltab.__file__).parent / "fixtures"


def payload(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())["payload"]


def tableau(name: str, key: str = "tableau"):
    return ser.parse_tableau(payload(name)[key])


def _samples() -> dict:
    """Two unequal instances of each class, built by the library's own operations."""
    t1, u1 = tableau("crsk_pair", "t"), tableau("crsk_pair", "u")
    t2, u2 = tableau("crsk_degenerate_branch", "t"), tableau("crsk_degenerate_branch", "u")
    ins = [
        cyltab.full_multi(tableau(name), ser.parse_boxes(payload(name)["boxes"]))
        for name in ("insert_single_box_chain", "multi_insert_queue_trace")
    ]
    rev = payload("reverse_multi_queue_trace")
    rev_t, rev_boxes = ser.parse_tableau(rev["tableau"]), ser.parse_boxes(rev["boxes"])
    revs = [cyltab.reverse_full_multi(rev_t, rev_boxes, seed_row=s) for s in (0, 1)]
    games = [cyltab.tableau_to_game(t) for t in (t1, t2)]
    outputs = [cyltab.crsk(t1, u1), cyltab.crsk(t2, u2)]
    x, y = SparsePolynomial(1, {(1,): 2}), SparsePolynomial(1, {(1,): 3})
    transforms = [cyltab.word_transform(w) for w in ((2, 3, 1), (3, 1, 2, 4))]
    events = [e for r in ins for e in r.events[:1]]
    return {
        cyltab.CylParams: [t1.params, t2.params],
        cyltab.Point: [cyltab.Point(0, 1), cyltab.Point(-2, 1)],
        cyltab.Box: [cyltab.Box(0, 1), cyltab.Box(1, 0)],
        cyltab.CylPartition: [t1.inner, t1.outer],
        cyltab.SkewShape: [t1.shape, t2.shape],
        cyltab.CylTableau: [t1, u1],
        cyltab.InsertionQueue: [q for r in ins for q in r.queues[:1]],
        cyltab.ReverseQueue: [q for r in revs for q in r.queues[:1]],
        cyltab.BumpingRoute: [r.routes[0] for r in ins],
        InsertionEvent: events,
        cyltab.MultiInsertResult: ins,
        cyltab.ReverseMultiResult: revs,
        TableauState: [TableauState.from_tableau(t) for t in (t1, t2)],
        cyltab.CrskOutput: outputs,
        cyltab.CrskInput: [cyltab.crsk_inverse(o.p, o.q) for o in outputs],
        cyltab.Arrangement: [g.initial for g in games],
        cyltab.MarbleGame: games,
        IdentityReport: [IdentityReport(x, x), IdentityReport(x, y)],
        cyltab.Move: [cyltab.Move("Rotate"), cyltab.Move("Kprime", 1)],
        cyltab.Certificate: [r.certificate for r in transforms],
        TransformResult: transforms,
        LiftedWord: [cyltab.lift_word(w) for w in ((2, 1, 1), (1, 3, 2))],
    }


SAMPLES = _samples()
# The fields of each class, in order; derived ones are set by __post_init__.
FIELDS = {
    cyltab.CylParams: ("k", "n"),
    cyltab.Point: ("x", "y"),
    cyltab.Box: ("row", "col"),
    cyltab.CylPartition: ("params", "window"),
    cyltab.SkewShape: ("outer", "inner"),
    cyltab.CylTableau: ("shape", "rows"),
    cyltab.InsertionQueue: ("items", "k"),
    cyltab.ReverseQueue: ("items", "k"),
    cyltab.BumpingRoute: ("points", "steps"),
    InsertionEvent: ("step", "kind", "box", "inserted", "bumped"),
    cyltab.MultiInsertResult: ("tableau", "new_set", "log", "rounds"),
    cyltab.ReverseMultiResult: ("tableau", "reverse_new_set", "log", "rounds"),
    TableauState: ("params", "mu", "rows"),
    cyltab.CrskOutput: ("p", "q", "lam"),
    cyltab.CrskInput: ("t", "u", "mu"),
    cyltab.Arrangement: ("params", "counts"),
    cyltab.MarbleGame: ("initial", "turns"),
    IdentityReport: ("lhs", "rhs", "equal", "mismatches"),
    cyltab.Move: ("kind", "pos"),
    cyltab.Certificate: ("start", "moves", "end"),
    TransformResult: ("certificate", "switch_positions", "words", "critical"),
    LiftedWord: ("permutation", "anchor", "smallest"),
}
DERIVED = {IdentityReport: ("equal", "mismatches")}
DEFAULTS = {cyltab.Move: {"pos": 0}}
MUTABLE = {TableauState}
CLASSES = list(FIELDS)


def twin(cls):
    """The dataclass that cls replaces: same name, fields, defaults and __post_init__."""
    specs = []
    for f in FIELDS[cls]:
        if f in DERIVED.get(cls, ()):
            specs.append((f, object, field(init=False)))
        elif f in DEFAULTS.get(cls, {}):
            specs.append((f, object, field(default=DEFAULTS[cls][f])))
        else:
            specs.append((f, object))
    post = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    frozen = cls not in MUTABLE
    return make_dataclass(cls.__name__, specs, namespace=post, frozen=frozen, slots=True)


def init_values(obj) -> list:
    return [getattr(obj, f) for f in type(obj).__match_args__]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


def all_slots(cls) -> tuple:
    return tuple(s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ()))


def test_every_record_class_is_covered():
    assert set(SAMPLES) == set(FIELDS)
    for cls, (a, b) in SAMPLES.items():
        assert type(a) is type(b) is cls and a != b, cls


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_repr_eq_and_hash_match_the_dataclass(cls):
    Twin = twin(cls)
    ours = SAMPLES[cls]
    theirs = [Twin(*init_values(x)) for x in ours]
    for x, tx in zip(ours, theirs):
        assert repr(x) == repr(tx)
        # another class with the same fields is never equal, either way round
        assert (x == tx, x != tx, tx == x, tx != x) == (False, True, False, True)
        assert (x == init_values(x), x != None) == (False, True)  # noqa: E711
        assert outcome(hash, x) == outcome(hash, tx)
        if cls not in MUTABLE:
            assert outcome(hash, x) == outcome(hash, tuple(getattr(x, f) for f in FIELDS[cls]))
    for x, y in zip(ours, ours[1:] + ours[:1]):
        tx, ty = Twin(*init_values(x)), Twin(*init_values(y))
        assert (x == y, x != y, x == x) == (tx == ty, tx != ty, tx == tx)


def test_construction_defaults_slots_and_match_args_match_the_dataclass(cls):
    Twin = twin(cls)
    x = SAMPLES[cls][0]
    values = init_values(x)
    keywords = dict(zip(cls.__match_args__, values))
    assert cls(*values) == cls(**keywords) == x
    assert repr(cls(**keywords)) == repr(Twin(**keywords))
    params = [(p.name, p.default) for p in signature(cls).parameters.values()]
    assert params == [(p.name, p.default) for p in signature(Twin).parameters.values()]
    assert all_slots(cls) == all_slots(Twin) == FIELDS[cls]
    assert not hasattr(x, "__dict__")
    assert cls.__match_args__ == Twin.__match_args__


def test_pickle_round_trip(cls):
    for x in SAMPLES[cls]:
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is cls and y == x and repr(y) == repr(x)


def test_frozen_records_refuse_assignment_and_deletion(cls):
    x = SAMPLES[cls][0]
    for f in FIELDS[cls]:
        value = getattr(x, f)
        if cls in MUTABLE:
            setattr(x, f, value)
            continue
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f}'"):
            setattr(x, f, value)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f}'"):
            delattr(x, f)
        assert getattr(x, f) is value


def test_tableau_state_stays_mutable_and_unhashable():
    st = SAMPLES[TableauState][0].copy()
    st.mu = [9]
    assert st.mu == [9]
    del st.rows
    assert not hasattr(st, "rows")
    assert TableauState.__hash__ is None
    with pytest.raises(TypeError):
        hash(st)


def test_move_pos_defaults_to_zero():
    assert cyltab.Move("Rotate") == cyltab.Move("Rotate", 0) == cyltab.Move(kind="Rotate")
    assert cyltab.Move("Rotate").pos == 0


@pytest.mark.parametrize("cls", [cyltab.CylTableau, IdentityReport], ids=lambda c: c.__name__)
def test_post_init_is_looked_up_on_each_construction(cls, monkeypatch):
    # A tracer rebinds __post_init__ on the class after the class is built.
    calls = []
    original = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(original(self)))
    cls(*init_values(SAMPLES[cls][0]))
    assert len(calls) == 1


def test_value_methods_are_records_and_each_class_compiles_its_own_init(cls):
    assert (cls.__repr__, cls.__eq__) == (Record.__repr__, Record.__eq__)
    assert cls.__hash__ is (None if cls in MUTABLE else Record.__hash__)
    # The class that annotates the fields owns the one compiled method; a
    # field-less subclass (InsertionQueue, ReverseQueue) inherits it.
    owner = next(c for c in cls.__mro__ if vars(c).get("__slots__"))
    assert cls is owner or cls.__base__ is owner
    assert cls.__init__ is vars(owner)["__init__"]
    assert cls.__init__.__qualname__ == f"{owner.__qualname__}.__init__"


class OneField(Record):
    """A throwaway record with a single field."""

    x: object


def test_one_field_record_matches_its_dataclass():
    # attrgetter over one name returns the bare value, not a 1-tuple.
    Twin = make_dataclass("OneField", [("x", object)], frozen=True, slots=True)
    for v in (3, (1, 2), "a", None):
        one, twin = OneField(v), Twin(v)
        assert repr(one) == repr(twin)
        assert hash(one) == hash(twin) == hash((v,))
        assert (one == OneField(v), one != OneField(v)) == (twin == Twin(v), twin != Twin(v))
        assert (one == twin, one == (v,), one == v) == (False, False, False)
    assert (OneField(1) == OneField(2), OneField(1) == OneField(1.0)) == (False, True)
