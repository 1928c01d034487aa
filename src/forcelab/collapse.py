"""The poset of finite injective sequences over a countable set.

Conditions are injective tuples ordered by end-extension (longer is
stronger); the union of a generic chain is an injection.  Also home to the
generic prefix-tree enumeration and the one presentation of every
sequence-tree poset here.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from .errors import EnumerationDepthCap, NotInjective
from .posets import (Code, DenseSet, GenericRun, Grown, PosetPresentation, SuffixFold,
                     _jsonable, _require_chain, extends, grow, prefixes)
from .records import Record

_set_field = object.__setattr__  # a value class's fields, past its refusing __setattr__


class CountableSet(Record):
    """An infinite set presented by an injective enumeration of element
    codes and its inverse.

    Codes are the set's elements: they compare by ``==`` and hash to
    match.  Injective means that no two indices give equal codes, which
    ``prefix_enumeration`` relies on; an ``index`` that accepts a second
    spelling of a code makes the presentation non-injective, a caller
    error.  ``index(code)`` is the code's enumeration index, or None for
    a non-member, so membership is always decided.  ``index_of`` raises
    ``ValueError`` on a non-member; ``index_or_none`` is the one rule for
    a failed lookup: ``index``, with its ``ValueError`` read as None.
    ``contains`` and the fresh-code and Lévy functionals ask it.
    """

    __slots__ = ("name", "enum", "index")
    name: str
    enum: Callable[[int], Code]
    index: Callable[[Code], Optional[int]]

    def index_of(self, code: Code) -> int:
        i = self.index(code)
        if i is None:
            raise ValueError(f"{code!r} is not in {self.name}")
        return i

    def index_or_none(self, code: Code) -> Optional[int]:
        try:
            return self.index(code)
        except ValueError:
            return None

    def contains(self, code: Code) -> bool:
        return self.index_or_none(code) is not None


def _nonnegative(n: int) -> int:
    """n itself, the identity enumeration; a negative n raises ``ValueError``."""
    if n < 0:
        raise ValueError(f"negative enumeration index {n}")
    return n


# A built-in set's codes are ints and pairs of ints; ``type(v) is int``
# refuses a bool, which ``isinstance`` would take for 0 or 1.

def nat_set() -> CountableSet:
    return CountableSet(
        "nat", _nonnegative,
        index=lambda v: v if type(v) is int and v >= 0 else None)


def evens_set() -> CountableSet:
    return CountableSet(
        "evens", lambda n: 2 * _nonnegative(n),
        index=lambda v: v // 2 if type(v) is int and v >= 0 and v % 2 == 0 else None)


def pairs_set() -> CountableSet:
    from .ordinals import cantor_pair, cantor_unpair  # here: no other set loads ordinals

    def index(v):
        if (isinstance(v, tuple) and len(v) == 2
                and all(type(c) is int and c >= 0 for c in v)):
            return cantor_pair(*v)
        return None

    return CountableSet("pairs", lambda n: cantor_unpair(_nonnegative(n)), index=index)


_BUILTINS = {"nat": nat_set, "evens": evens_set, "pairs": pairs_set}


def builtin_set(name: str) -> CountableSet:
    if name not in _BUILTINS:
        raise KeyError(f"unknown set {name!r}; have {sorted(_BUILTINS)}")
    return _BUILTINS[name]()


class InjSeq(Record):
    """A finite injective sequence of element codes.

    Building one makes ``items`` a tuple and checks it with
    ``require_injective``, so every ``InjSeq`` is injective.
    """

    __slots__ = ("items",)
    items: tuple

    def __init__(self, items: Sequence[Code]):
        items = tuple(items)
        require_injective(items)
        _set_field(self, "items", items)


def first_repeat(items: Sequence[Code]) -> Optional[tuple[int, int]]:
    """The least pair (i, j), i < j, with items[i] == items[j], or None.

    A sequence of distinct items is cleared by one C-level ``set`` build;
    when the set finds a duplicate, one pass pairs each later copy with
    the first position of its value, and the least such pair is returned.
    """
    if len(set(items)) == len(items):
        return None
    seen: dict = {}
    return min((seen[v], j) for j, v in enumerate(items) if seen.setdefault(v, j) != j)


def require_injective(items: Sequence[Code]) -> None:
    """Raise ``NotInjective`` naming the first repeated pair of positions."""
    pair = first_repeat(items)
    if pair is not None:
        i, j = pair
        raise NotInjective(f"positions {i} and {j} repeat {items[i]!r}")


def inj_seq_json(x: CountableSet, s: InjSeq) -> dict:
    return {"set": x.name, "items": _jsonable(s.items)}


# ---------------------------------------------------------------------------
# prefix-tree enumeration and presentation
# ---------------------------------------------------------------------------

_ENUM_DEPTH_CAP = 1000


def prefix_enumeration(x: CountableSet,
                       extends_ok: Callable[[tuple, Code], bool]) -> Callable[[int], tuple]:
    """Injective enumeration of a prefix-closed family of injective tuples.

    ``extends_ok(prefix, code)`` decides whether prefix + (code,) stays in
    the family; a code already in prefix is never offered.  Tuples are
    listed in blocks: block k holds the valid tuples over the first k codes
    that use code k-1, ordered by length then by index-lexicographic order.
    Prefix-closure makes pruning sound.  Only ``x.enum`` is read, so any
    object with an injective ``enum``, a ``LatticeOracle`` for one, will
    do.  Its codes must be distinct under ``==``, which is what ``in``
    tests on the tuples.

    ``enum(n)`` walks block k one length at a time, from the valid tuples
    of the last length listed, until item n is listed: the tuples past it
    cost nothing until asked for.  Each length is in index-lexicographic
    order because the last one is and each tuple is extended in index
    order.  Items and state are written back only when a length is
    complete, so a call that raises leaves the walk as it was; a negative
    n raises ``ValueError`` before any walk.
    """
    items: list[tuple] = [()]
    state = [0, [], []]  # block k, its codes, its valid tuples of the last length

    def enum(n: int) -> tuple:
        _nonnegative(n)
        while len(items) <= n:
            k, codes, level = state
            if not level:
                if k >= _ENUM_DEPTH_CAP:
                    raise EnumerationDepthCap(
                        f"enumeration needs more than {_ENUM_DEPTH_CAP} codes; "
                        "carrier may be finite")
                k, codes, level = k + 1, codes + [x.enum(k)], [()]
            longer = [t + (c,) for t in level for c in codes
                      if c not in t and extends_ok(t, c)]
            items.extend([t for t in longer if codes[-1] in t])
            state[:] = k, codes, longer
        return items[n]

    return enum


def sequence_tree(name: str, carrier: Callable[[tuple], bool],
                  enum: Callable[[int], tuple]) -> PosetPresentation:
    """The tuples (or ``Grown`` views) that pass ``carrier``, rooted at (),
    ordered by end-extension; the one presentation of every sequence tree
    here.  ``above`` is ``prefixes``, whose hashing agrees with the order.
    """
    return PosetPresentation(
        name=name,
        carrier=lambda t: isinstance(t, (tuple, Grown)) and carrier(t),
        leq=extends,
        enum=enum,
        root=(),
        above=prefixes,
    )


# ---------------------------------------------------------------------------
# the collapse poset and its dense levels
# ---------------------------------------------------------------------------

def coll_poset(x: CountableSet) -> PosetPresentation:
    """Finite injective sequences over x, ordered by end-extension."""
    return sequence_tree(
        f"Coll(w,{x.name})",
        lambda t: all(x.contains(c) for c in t) and first_repeat(t) is None,
        prefix_enumeration(x, lambda prefix, c: True))


def fresh_bound(x: CountableSet, p: tuple) -> int:
    """Least b such that every code of p lies among the first b enumerated."""
    return max((x.index_of(c) for c in p), default=-1) + 1


def _fresh_appender(x: CountableSet) -> Callable[[Sequence, int], Sequence]:
    """``append(p, k)``: p followed by the k codes from its fresh bound on
    (p itself when k <= 0), as a ``Grown`` view.

    The fresh bound is a ``SuffixFold``, and every view the appender
    returns is kept with its bound (the old bound plus k, since enum(b + j)
    has index b + j).  An input that *is* that view costs O(k): ``grow``
    appends ``map(x.enum, ...)`` in place, with no ``index_of`` call and no
    frame beyond ``x.enum``'s (five in all at k = 1).  An extension of it
    pays one ``index_of`` call per code of the suffix; any other input one
    per code, plus a copy.
    """
    bound = SuffixFold(lambda: 0, lambda b, suffix: max(b, fresh_bound(x, suffix)))

    def append(p: Sequence, k: int) -> Sequence:
        if k <= 0:
            return p
        b = bound.fold_state(p)
        q = grow(p, map(x.enum, range(b, b + k)))
        bound.keep(q, b + k)
        return q

    return append


def level_dense(x: CountableSet, i: int) -> DenseSet:
    """The dense level of conditions of length at least i.

    The extender appends the block of i enumeration codes starting at the
    least bound covering the condition's range; the output is injective,
    extends the input, and lands in the level.  The block is i codes at any
    length, a fixed recipe; a ``length_levels`` goal appends only the
    t - len(p) missing codes, so that a run through n goals grows by n.
    """
    append = _fresh_appender(x)
    return DenseSet(f"L_{i}", lambda f: len(f) >= i, lambda p: append(p, i))


class _LengthGoal(DenseSet):
    """Goal t of a ``length_levels`` family: the conditions of length at
    least t, reached by ``append(p, t - len(p))``.

    ``_LengthLevels`` makes one past the ``__init__`` of ``DenseSet``, a
    frozen dataclass still, since the benchmark's tracer copies dense
    sets with ``dataclasses.replace``: with ``t`` and ``append`` written
    into its ``__dict__``, no closure, and a ``name`` formatted only when
    read.  A copy made by ``dataclasses.replace`` is built by that
    ``__init__``, so the fields it was given, stored on the instance, win
    over these methods.  A ``Grown`` view's length is its ``n``, read with
    no frame.
    """

    def member(self, f: Sequence) -> bool:
        return (f.n if type(f) is Grown else len(f)) >= self.t

    def extend(self, p: Sequence) -> Sequence:
        return self.append(p, self.t - (p.n if type(p) is Grown else len(p)))

    def __getattr__(self, attr: str) -> Any:
        if attr == "name":  # only a goal made by _LengthLevels has no name field
            return f"len>={self.t}"
        raise AttributeError(attr)


_new_goal = object.__new__


class _LengthLevels(Sequence[DenseSet]):
    """The n goals of ``length_levels``, each made when it is read."""

    __slots__ = ("n", "append")

    def __init__(self, n: int, append: Callable[[Sequence, int], Sequence]):
        self.n = n
        self.append = append

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> DenseSet:
        n = self.n
        if not -n <= i < n:
            raise IndexError(f"goal {i} out of range of {n} length levels")
        goal = _new_goal(_LengthGoal)
        fields = goal.__dict__
        fields["t"] = i % n + 1
        fields["append"] = self.append
        return goal


def length_levels(n: int, append: Callable[[Sequence, int], Sequence]) -> Sequence[DenseSet]:
    """Engine family of n dense goals; meeting the first m forces length >= m.

    Goal i is the level of conditions of length at least i+1.  Its extender
    asks ``append(p, k)`` for p grown by the k = i+1-len(p) missing values
    (k <= 0 means p is already long enough), so a run through n goals grows
    linearly.

    The family is a rule, not a list: a read-only ``Sequence`` of length n
    (``len``, indexing from either end, iteration) that makes goal i, a
    ``DenseSet`` holding (i+1, append), each time it is read.  So building
    it costs O(1) time and memory whatever n is, and a goal costs no
    ``__init__`` call and no closure.
    """
    return _LengthLevels(n, append)


def level_family(x: CountableSet, n: int) -> Sequence[DenseSet]:
    """The length levels of Coll(w, x), grown by fresh codes.

    A ``length_levels`` rule over one appender: O(1) to build, each goal
    made when the engine reads it.  The extenders share one fresh-bound
    cache (see ``_fresh_appender``): fed the condition the previous goal
    returned, as the engine does, a step grows that view in place and
    costs O(1).
    """
    return length_levels(n, _fresh_appender(x))


def generic_to_injection(run: GenericRun) -> InjSeq:
    """The union of a descending chain of conditions, as an injective sequence.

    Each link is checked with ``extends``, which on two views of one
    buffer is O(1).
    """
    chain = run.chain
    _require_chain(chain, extends)
    return InjSeq(chain[-1] if chain else ())


def injection_to_generic(x: CountableSet,
                         g: "Callable[[int], Code] | Sequence[Code]",
                         n: int) -> GenericRun:
    """The run of initial restrictions of an injection.

    The chain is the n + 1 ``Grown`` views of one list of the first n
    values, so it takes O(n) memory.  The restriction to i+1 meets goal i
    of ``level_family(x, n)`` (length >= i+1), so for g = x.enum this is
    the engine's run over that family from ().  A sequence g with fewer
    than n values raises ``ValueError``: its restrictions cannot meet the
    last goal; so does a negative n, since a run always holds its start.
    """
    if n < 0:
        raise ValueError(f"a run cannot meet {n} levels")
    values = [g(i) for i in range(n)] if callable(g) else list(g[:n])
    if len(values) < n:
        raise ValueError(f"injection has {len(values)} values, need {n}")
    require_injective(values)
    return GenericRun(f"Coll(w,{x.name})", tuple(Grown(values, k) for k in range(n + 1)))
