"""The record contract of the classes built per input line on the corpus path.

``tasks._record`` gives them an ``__init__`` that stores through the slot
descriptors; everything else must be what ``@dataclass(frozen=True,
slots=True)`` gives, which a twin declared that way states here.
"""

import dataclasses
import inspect
import pickle
from dataclasses import KW_ONLY, FrozenInstanceError, InitVar, field

import pytest

from mskd.corpus import ResponseRow
from mskd.pool import TeacherPool
from mskd.tasks import (
    Binary,
    Number,
    OptionLetter,
    ParsedResponse,
    SpatialBox,
    SupervisionExample,
    TaskType,
    TemporalSegment,
    Text,
    _record,
)

MCQ = TaskType.MULTIPLE_CHOICE
RESPONSE = ParsedResponse("<answer>A</answer>", True, True, OptionLetter("A"))

# each record class with the arguments of one instance
RECORDS = [
    (TemporalSegment, (1.0, 2.5)),
    (SpatialBox, (0.1, 0.2, 0.3, 0.4)),
    (OptionLetter, ("A",)),
    (Binary, (True,)),
    (Number, (2.5,)),
    (Text, ("abc",)),
    (ParsedResponse, ("<answer>A</answer>", True, True, OptionLetter("A"))),
    (SupervisionExample, ("q0", MCQ, "which?", OptionLetter("A"), 4, (OptionLetter("A"), OptionLetter("B")))),
    (ResponseRow, ("q0", "teacher", 3, "<answer>A</answer>")),
    (TeacherPool, ("q0", MCQ, (RESPONSE, RESPONSE), (1.0, 0.0), 0.5)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def twin(cls):
    """cls declared as a plain frozen slotted dataclass: same name, fields
    and __post_init__."""
    spec = [(f.name, f.type, field(default=f.default, init=f.init, repr=f.repr, compare=f.compare))
            for f in dataclasses.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True, slots=True)


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_record_is_frozen_and_slotted(cls, args):
    rec = cls(*args)
    assert not hasattr(rec, "__dict__")
    for f in dataclasses.fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(rec, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(rec, f.name)
    assert cls(*args) == rec  # untouched


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_record_eq_hash_and_repr(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = dataclasses.replace(a, **{dataclasses.fields(cls)[0].name: args[0] * 2})
    assert other != a
    t = twin(cls)(*args)
    assert repr(a) == repr(t)
    if cls.__doc__.startswith(f"{cls.__name__}("):  # derived by the dataclass, not written
        assert cls.__doc__ == type(t).__doc__
    assert cls.__match_args__ == type(t).__match_args__


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_record_fields_replace_astuple_and_pickle(cls, args):
    rec = cls(*args)
    t = twin(cls)(*args)
    spec = [(f.name, f.type, f.default, f.init, f.repr, f.compare) for f in dataclasses.fields(cls)]
    assert spec == [(f.name, f.type, f.default, f.init, f.repr, f.compare) for f in dataclasses.fields(t)]
    assert dataclasses.astuple(rec) == dataclasses.astuple(t)
    assert dataclasses.replace(rec) == rec
    name = [f.name for f in dataclasses.fields(cls) if f.init][-1]
    swapped = dataclasses.replace(rec, **{name: args[-1]})
    assert type(swapped) is cls and swapped == rec
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec and hash(back) == hash(rec)
    assert dataclasses.astuple(back) == dataclasses.astuple(rec)


@pytest.mark.parametrize("cls,args", RECORDS, ids=IDS)
def test_record_signature_and_init(cls, args):
    assert inspect.signature(cls) == inspect.signature(twin(cls))
    # the one __init__ stores through the slot descriptors, not object.__setattr__
    assert "__setattr__" not in cls.__init__.__code__.co_names
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    kwargs = {f.name: a for f, a in zip((f for f in dataclasses.fields(cls) if f.init), args)}
    assert cls(**kwargs) == cls(*args)
    with pytest.raises(TypeError):
        cls(*args, None)


def test_supervision_example_post_init_still_runs():
    ex = SupervisionExample("q0", MCQ, "which?", OptionLetter("B"), 4, [OptionLetter("A"), OptionLetter("B")])
    assert ex.answer_space == (OptionLetter("A"), OptionLetter("B")) and ex.slot_of(OptionLetter("B")) == 1
    with pytest.raises(ValueError, match="closed-ended task needs ground_truth"):
        SupervisionExample("q1", MCQ, "which?")
    # defaults reach the fields
    pool = TeacherPool("q0", MCQ, (RESPONSE,), (1.0,))
    assert pool.tau_applied is None and ParsedResponse("x", False, False).payload is None


def _decorate(**annotations_and_defaults):
    """A class with the given annotations and class-body values, decorated."""
    annotations = annotations_and_defaults.pop("__annotations__")
    return _record(type("Bad", (), {"__annotations__": annotations, **annotations_and_defaults}))


@pytest.mark.parametrize(
    "body",
    [
        {"__annotations__": {"a": int, "b": list}, "b": field(default_factory=list)},
        {"__annotations__": {"a": int, "b": int}, "b": field(kw_only=True)},
        {"__annotations__": {"a": int, "_": KW_ONLY, "b": int}},
        {"__annotations__": {"a": int, "b": InitVar[int]}},
        {"__annotations__": {"a": int, "b": int}, "b": field(default=0, init=False)},
    ],
    ids=["default_factory", "kw_only_field", "kw_only_marker", "initvar", "init_false_default"],
)
def test_record_rejects_a_field_feature_its_init_does_not_implement(body):
    with pytest.raises(TypeError, match="_record does not implement"):
        _decorate(**body)


def test_record_accepts_what_its_init_implements():
    plain = _decorate(__annotations__={"a": int, "b": int, "c": int}, b=7, c=field(default=8, repr=False))
    assert plain(1) == plain(1, 7, 8) and plain(1).b == 7 and repr(plain(1, 2)) == "Bad(a=1, b=2)"
