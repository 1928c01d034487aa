"""The plain value classes behave as the frozen dataclasses they replaced.

Each class of the library built on ``records.Record`` is compared with a
frozen dataclass of the same name and fields, declared here: the same
``==`` (within a class only), the same hash, the same ``repr``, writes and
deletions refused with an ``AttributeError``, and positional, keyword and
default construction.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
from pathlib import Path

import pytest

from forcelab.cli import RunConfig
from forcelab.collapse import CountableSet, InjSeq
from forcelab.dctrees import MarkedElement
from forcelab.levy import BuiltBlock, CofinalPresentation, IndexUsage, OmegaLayer, UsageSeq
from forcelab.ordinals import OMEGA, Ordinal, OrdinalsBelow, TransfiniteSeq
from forcelab.posets import (DensityReport, FinitePoset, FinitePreorder, GammaPresentation,
                             GammaReport, GenericRun, PreorderViolation)
from forcelab.qtree import LatticeOracle, QSeq
from forcelab.records import Record

SRC = Path(__file__).resolve().parent.parent / "src" / "forcelab"
REQUIRED = dataclasses.MISSING


def f(n):
    return n


def g(n):
    return n + 1


THREE = Ordinal(((0, 3),))
USAGE = IndexUsage(None, (0, 2))
LAYER = OmegaLayer(IndexUsage())
SEQ = TransfiniteSeq(THREE, f)

# Each class: its fields with their defaults (REQUIRED: none, a Field: a
# factory), one value per field, and a second value per field.
SPECS = {
    RunConfig: ([("command", REQUIRED), ("params", dataclasses.field(default_factory=dict)),
                 ("output_path", None)],
                ["coll-run", {"n": 5}, "out.json"], ["dc-run", {"n": 6}, None]),
    CountableSet: ([("name", REQUIRED), ("enum", REQUIRED), ("index", REQUIRED)],
                   ["nat", f, f], ["evens", g, g]),
    InjSeq: ([("items", REQUIRED)], [(3, 1, 4)], [(3, 1)]),
    MarkedElement: ([("base", REQUIRED), ("marker", REQUIRED)], [(1, 2), 0], [(1,), 1]),
    IndexUsage: ([("layer", None), ("taken", ())], [LAYER, (0, 2)], [None, (1, 2)]),
    UsageSeq: ([("length", REQUIRED), ("evaluator", REQUIRED), ("usage", IndexUsage())],
               [THREE, f, USAGE], [OMEGA, g, IndexUsage()]),
    CofinalPresentation: ([("alpha", REQUIRED), ("stage", REQUIRED)],
                          [OMEGA, f], [Ordinal(((1, 2),)), g]),
    BuiltBlock: ([("seq", REQUIRED), ("indices", None), ("layer", None)],
                 [SEQ, (0, 1), LAYER], [TransfiniteSeq(OMEGA, f), None, None]),
    Ordinal: ([("terms", ())], [((1, 2), (0, 1))], [((0, 1),)]),
    OrdinalsBelow: ([("bound", REQUIRED)], [OMEGA], [THREE]),
    TransfiniteSeq: ([("length", REQUIRED), ("evaluator", REQUIRED)], [THREE, f], [OMEGA, g]),
    GenericRun: ([("poset", REQUIRED), ("chain", REQUIRED)],
                 ["Coll(w,nat)", ((), (0,))], ["finite", ((),)]),
    DensityReport: ([("dense", REQUIRED), ("fragment", REQUIRED), ("counterexample", None),
                     ("undecided", None)],
                    [None, 10, (0,), (1, 2)], [False, 11, None, None]),
    FinitePoset: ([("elements", REQUIRED), ("up", REQUIRED)],
                  [("a", "b"), (0b11, 0b10)], [("a", "c"), (0b01, 0b10)]),
    FinitePreorder: ([("elements", REQUIRED), ("relation", REQUIRED)],
                     [(1, 2), frozenset({(1, 1), (2, 2)})], [(1,), frozenset({(1, 1)})]),
    GammaPresentation: ([("name", REQUIRED), ("levels", REQUIRED), ("shared_codes", False)],
                        ["G", f, True], ["H", g, False]),
    PreorderViolation: ([("level", REQUIRED), ("law", REQUIRED), ("witness", REQUIRED)],
                        [2, "not-a-preorder", (1, 1, 1)], [3, "levels-overlap", (0, 0, 0)]),
    GammaReport: ([("ok", REQUIRED), ("size_profile", REQUIRED), ("violation", None)],
                  [False, (1, 2), PreorderViolation(1, "not-a-preorder", (1, 1, 1))],
                  [True, (1,), None]),
    LatticeOracle: ([("name", REQUIRED), ("carrier", REQUIRED), ("lt", REQUIRED),
                     ("meet", REQUIRED), ("join", REQUIRED), ("uppers", REQUIRED),
                     ("has_lower", REQUIRED), ("enum", None)],
                    ["L", f, f, f, f, f, f, f], ["M", g, g, g, g, g, g, None]),
}
CLASSES = list(SPECS)


def reference(cls):
    """A frozen dataclass of the class's name, fields and defaults."""
    fields = [(name, object) if default is REQUIRED else
              (name, object, default if isinstance(default, dataclasses.Field)
               else dataclasses.field(default=default))
              for name, default in SPECS[cls][0]]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


def test_every_value_class_is_covered():
    """The specs name every ``Record`` class of the library, and QSeq."""
    records = {c for path in sorted(SRC.glob("[!_]*.py"))
               for c in vars(importlib.import_module(f"forcelab.{path.stem}")).values()
               if isinstance(c, type) and issubclass(c, Record) and c is not Record}
    assert records == set(SPECS) | {QSeq}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_eq_hash_and_repr_are_a_frozen_dataclass(cls):
    ref_cls = reference(cls)
    names = [name for name, _ in SPECS[cls][0]]
    one, other = SPECS[cls][1:]
    value, ref = cls(*one), ref_cls(*one)
    assert value._fields == tuple(names)
    if cls is not Ordinal:  # an Ordinal keeps its own repr, the CNF text
        assert repr(value) == repr(ref)
    assert hash_or_error(value) == hash_or_error(ref)
    assert value == cls(*one) and not value != cls(*one)
    for i in range(len(names)):
        changed = [*one[:i], other[i], *one[i + 1:]]
        assert (value == cls(*changed)) == (ref == ref_cls(*changed)), names[i]
        assert (hash_or_error(cls(*changed)) == hash_or_error(ref_cls(*changed))), names[i]
    # another class never compares equal, a dataclass of the same fields included
    assert value != ref and value != tuple(one) and not value == object()


def test_a_subclass_value_never_equals_its_base_value():
    assert UsageSeq(THREE, f) != TransfiniteSeq(THREE, f)
    assert TransfiniteSeq(THREE, f) != UsageSeq(THREE, f)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_refuse_writes_and_deletions(cls):
    one, other = SPECS[cls][1:]
    value = cls(*one)
    for (name, _), new in zip(SPECS[cls][0], other):
        with pytest.raises(AttributeError):
            setattr(value, name, new)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert value == cls(*one)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_keyword_and_default_construction(cls):
    fields, one, _ = SPECS[cls]
    names = [name for name, _ in fields]
    assert cls(*one) == cls(**dict(zip(names, one)))
    required = [v for (_, default), v in zip(fields, one) if default is REQUIRED]
    defaults = [default.default_factory() if isinstance(default, dataclasses.Field) else default
                for _, default in fields if default is not REQUIRED]
    assert cls(*required) == cls(*required, *defaults)
    if cls is not Ordinal:
        assert repr(cls(*required)) == repr(reference(cls)(*required))
    with pytest.raises(TypeError):
        cls(*one, one[-1])
    if len(required) > 0:
        with pytest.raises(TypeError):
            cls(*required[:-1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_are_equal(cls):
    value = cls(*SPECS[cls][1])
    assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_pickling_round_trips():
    for value in (Ordinal(((2, 1), (0, 4))), IndexUsage(None, (0, 3)), InjSeq((1, 2)),
                  FinitePoset(("a", "b"), (0b11, 0b10))):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and repr(back) == repr(value)
    table = pickle.loads(pickle.dumps(FinitePoset(("a", "b"), (0b11, 0b10))))
    assert table.down == [0b01, 0b11] and table.leq("b", "a") is False


def test_a_qseq_is_a_frozen_dataclass_of_its_sequence():
    ref_cls = dataclasses.make_dataclass("QSeq", [("seq", object)], frozen=True)
    stages = [frozenset({3}), frozenset({3, 1})]
    t = QSeq(stages)
    assert t == QSeq(stages=stages) and t != QSeq(stages[:1])
    assert repr(t) == repr(ref_cls(InjSeq((3, 1))))
    assert hash(t) == hash(ref_cls(InjSeq((3, 1))))
    with pytest.raises(AttributeError):
        t.seq = InjSeq(())
    with pytest.raises(AttributeError):
        del t.seq


# Test-local classes: the methods ``Record`` writes for no field, one field,
# trailing defaults, and a subclass that adds a defaulted field.

class Empty(Record):
    __slots__ = ()


class Single(Record):
    __slots__ = ("x",)
    x: object


class Defaulted(Record, defaults=(None, ())):
    __slots__ = ("a", "b", "c")
    a: object
    b: object
    c: object


class Extended(Single, defaults=(0,)):
    __slots__ = ("y",)
    y: int


LOCAL_SPECS = {
    Single: ([("x", REQUIRED)], [(1, 2)], [(1,)]),
    Defaulted: ([("a", REQUIRED), ("b", None), ("c", ())], [1, "b", (2,)], [2, None, ()]),
    Extended: ([("x", REQUIRED), ("y", 0)], [(1, 2), 3], [(1,), 0]),
}


@pytest.mark.parametrize("cls", list(LOCAL_SPECS), ids=lambda c: c.__name__)
def test_written_methods_are_a_frozen_dataclass(monkeypatch, cls):
    """The checks every library class passes, on classes declared here."""
    monkeypatch.setitem(SPECS, cls, LOCAL_SPECS[cls])
    test_eq_hash_and_repr_are_a_frozen_dataclass(cls)
    test_fields_refuse_writes_and_deletions(cls)
    test_positional_keyword_and_default_construction(cls)
    test_copies_are_equal(cls)
    for name in ("__init__", "__eq__", "__hash__"):
        method = vars(cls)[name]
        assert method.__code__.co_filename == f"<record {cls.__name__}>"
        assert method.__qualname__ == f"{cls.__name__}.{name}"
        assert method.__module__ == cls.__module__


def test_a_class_without_fields_is_its_empty_tuple(monkeypatch):
    monkeypatch.setitem(SPECS, Empty, ([], [], []))
    ref = reference(Empty)()
    assert Empty._fields == () and Empty() == Empty() and not Empty() != Empty()
    assert hash(Empty()) == hash(()) == hash(ref)
    assert repr(Empty()) == repr(ref) == "Empty()"
    assert Empty() != ref and Empty() != () and Empty() != Single(())
    with pytest.raises(TypeError):
        Empty(1)


def test_a_subclass_states_its_own_defaults():
    assert Extended._fields == ("x", "y") and Extended((1,)) == Extended((1,), 0)
    assert Extended((1,)) != Single((1,)) and Single((1,)) != Extended((1,))
    with pytest.raises(TypeError):
        Single()


def test_more_defaults_than_fields_are_refused_when_the_class_is_made():
    with pytest.raises(TypeError, match="2 fields, not 3 defaults"):
        class Over(Record, defaults=(1, 2, 3)):
            __slots__ = ("a", "b")
            a: object
            b: object


def test_methods_the_class_body_writes_are_kept():
    class Checked(Record):
        __slots__ = ("n",)
        n: int

        def __init__(self, n=0):
            if n < 0:
                raise ValueError("negative")
            object.__setattr__(self, "n", n)

        def __eq__(self, other):
            return isinstance(other, Checked) and self.n % 2 == other.n % 2

    with pytest.raises(ValueError):
        Checked(-1)
    assert Checked(1) == Checked(3) and Checked() == Checked(2)
    with pytest.raises(TypeError):  # a class that writes __eq__ alone is unhashable
        hash(Checked())
