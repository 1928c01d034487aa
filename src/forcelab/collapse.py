"""The poset of finite injective sequences over a countable set.

Conditions are injective tuples ordered by end-extension (longer is
stronger); the union of a generic chain is an injection.  Also home to the
generic prefix-tree enumeration and the one presentation of every
sequence-tree poset here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .errors import EnumerationDepthCap, IndexScanCap, NotInjective
from .posets import (Code, DenseSet, GenericRun, Grown, PosetPresentation, SuffixFold,
                     _jsonable, _require_chain, extends, grow, prefixes)

_INDEX_SCAN_CAP = 100_000


@dataclass(frozen=True)
class CountableSet:
    """An infinite set presented by an injective enumeration of element codes.

    Injective means that no two indices give codes equal under ``eq``, nor
    under ``==``, which ``prefix_enumeration`` tests.  ``index`` inverts
    ``enum`` where available; otherwise membership falls back to a scan of
    the first ``_INDEX_SCAN_CAP`` codes.  ``index_of`` raises
    ``IndexScanCap`` when the scan gives up, so no caller of it reads the
    cap as an answer.  ``contains`` answers False for a code the scan did
    not find, since without ``index`` absence cannot be decided.
    """

    name: str
    enum: Callable[[int], Code]
    eq: Callable[[Code, Code], bool] = operator.eq
    index: Optional[Callable[[Code], Optional[int]]] = None

    def index_of(self, code: Code) -> int:
        if self.index is not None:
            i = self.index(code)
            if i is None:
                raise ValueError(f"{code!r} is not in {self.name}")
            return i
        for i in range(_INDEX_SCAN_CAP):
            if self.eq(self.enum(i), code):
                return i
        raise IndexScanCap(
            f"{code!r} not found in the first {_INDEX_SCAN_CAP} codes of {self.name}")

    def contains(self, code: Code) -> bool:
        try:
            self.index_of(code)
            return True
        except (ValueError, IndexScanCap):
            return False


def nat_set() -> CountableSet:
    return CountableSet(
        "nat", lambda n: n,
        index=lambda v: v if isinstance(v, int) and v >= 0 else None)


def evens_set() -> CountableSet:
    return CountableSet(
        "evens", lambda n: 2 * n,
        index=lambda v: v // 2 if isinstance(v, int) and v >= 0 and v % 2 == 0 else None)


def pairs_set() -> CountableSet:
    from .ordinals import cantor_pair, cantor_unpair  # here: no other set loads ordinals

    def index(v):
        if (isinstance(v, tuple) and len(v) == 2
                and all(isinstance(c, int) and c >= 0 for c in v)):
            return cantor_pair(*v)
        return None

    return CountableSet("pairs", cantor_unpair, index=index)


_BUILTINS = {"nat": nat_set, "evens": evens_set, "pairs": pairs_set}


def builtin_set(name: str) -> CountableSet:
    if name not in _BUILTINS:
        raise KeyError(f"unknown set {name!r}; have {sorted(_BUILTINS)}")
    return _BUILTINS[name]()


@dataclass(frozen=True)
class InjSeq:
    """A finite injective sequence of element codes."""

    items: tuple


def make_inj_seq(x: CountableSet, items: Sequence[Code]) -> InjSeq:
    items = tuple(items)
    require_injective(items, x.eq)
    return InjSeq(items)


def first_repeat(items: Sequence[Code],
                 eq: Callable[[Code, Code], bool] = operator.eq
                 ) -> Optional[tuple[int, int]]:
    """The least pair (i, j), i < j, with eq(items[i], items[j]), or None.

    Under ``operator.eq`` a sequence of distinct hashable items is cleared
    by one C-level ``set`` build; otherwise, or when the set finds a
    duplicate, the pairs are compared in order.
    """
    if eq is operator.eq and len(set(items)) == len(items):
        return None
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if eq(items[i], items[j]):
                return i, j
    return None


def require_injective(items: Sequence[Code],
                      eq: Callable[[Code, Code], bool] = operator.eq) -> None:
    """Raise ``NotInjective`` naming the first repeated pair of positions."""
    pair = first_repeat(items, eq)
    if pair is not None:
        i, j = pair
        raise NotInjective(f"positions {i} and {j} repeat {items[i]!r}")


def inj_seq_json(x: CountableSet, s: InjSeq) -> dict:
    return {"set": x.name, "items": [_jsonable(c) for c in s.items]}


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
    Prefix-closure makes pruning sound.  The codes of x must be distinct
    under ``==``, which is what ``in`` tests on the tuples.

    ``enum(n)`` walks block k one length at a time, from the valid tuples
    of the last length listed, until item n is listed: the tuples past it
    cost nothing until asked for.  Each length is in index-lexicographic
    order because the last one is and each tuple is extended in index
    order.  Items and state are written back only when a length is
    complete, so a call that raises leaves the walk as it was.
    """
    items: list[tuple] = [()]
    state = [0, [], []]  # block k, its codes, its valid tuples of the last length

    def enum(n: int) -> tuple:
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
                  enum: Callable[[int], tuple],
                  eq: Callable[[Code, Code], bool] = operator.eq) -> PosetPresentation:
    """The tuples (or ``Grown`` views) that pass ``carrier``, rooted at (),
    ordered by end-extension under ``eq``; the one presentation of every
    sequence tree here.

    ``above`` is ``prefixes`` under ``operator.eq``, whose hashing agrees
    with the order; under any other ``eq`` it is left out and fragment
    checks fall back to ``leq``.
    """
    return PosetPresentation(
        name=name,
        carrier=lambda t: isinstance(t, (tuple, Grown)) and carrier(t),
        leq=extends if eq is operator.eq else lambda g, f: extends(g, f, eq),
        enum=enum,
        root=(),
        above=prefixes if eq is operator.eq else None,
    )


# ---------------------------------------------------------------------------
# the collapse poset and its dense levels
# ---------------------------------------------------------------------------

def coll_poset(x: CountableSet) -> PosetPresentation:
    """Finite injective sequences over x, ordered by end-extension under x.eq."""
    return sequence_tree(
        f"Coll(w,{x.name})",
        lambda t: all(x.contains(c) for c in t) and first_repeat(t, x.eq) is None,
        prefix_enumeration(x, lambda prefix, c: True),
        x.eq)


def fresh_bound(x: CountableSet, p: tuple) -> int:
    """Least b such that every code of p lies among the first b enumerated."""
    return max((x.index_of(c) for c in p), default=-1) + 1


def _fresh_appender(x: CountableSet) -> Callable[[Sequence, int], Sequence]:
    """``append(p, k)``: p followed by the k codes from its fresh bound on
    (p itself when k <= 0), as a ``Grown`` view.

    The fresh bound is a ``SuffixFold``, and every view the appender
    returns is kept with its bound (the old bound plus k, since enum(b + j)
    has index b + j).  An input that *is* that view costs O(k): ``grow``
    appends in place and no ``index_of`` call is made.  An extension of it
    pays one ``index_of`` call per code of the suffix; any other input one
    per code, plus a copy.
    """
    bound = SuffixFold(lambda: 0, lambda b, suffix: max(b, fresh_bound(x, suffix)))

    def append(p: Sequence, k: int) -> Sequence:
        if k <= 0:
            return p
        b = bound.fold_state(p)
        q = grow(p, [x.enum(b + j) for j in range(k)])
        bound.keep(q, b + k)
        return q

    return append


def level_dense(x: CountableSet, i: int) -> DenseSet:
    """The dense level of conditions of length at least i.

    The extender appends the block of i enumeration codes starting at the
    least bound covering the condition's range; the output is injective,
    extends the input, and lands in the level.
    """
    append = _fresh_appender(x)
    return DenseSet(f"L_{i}", lambda f: len(f) >= i, lambda p: append(p, i))


def length_levels(n: int, append: Callable[[Sequence, int], Sequence]) -> list[DenseSet]:
    """Engine family of n dense goals; meeting the first m forces length >= m.

    Goal i is the level of conditions of length at least i+1.  Its extender
    asks ``append(p, k)`` for p grown by the k = i+1-len(p) missing values
    (k <= 0 means p is already long enough), so a run through n goals grows
    linearly.
    """
    return [DenseSet(f"len>={t}", lambda f, t=t: len(f) >= t,
                     lambda p, t=t: append(p, t - len(p)))
            for t in range(1, n + 1)]


def level_family(x: CountableSet, n: int) -> list[DenseSet]:
    """The length levels of Coll(w, x), grown by fresh codes.

    The extenders share one fresh-bound cache (see ``_fresh_appender``):
    fed the condition the previous goal returned, as the engine does, a
    step grows that view in place and costs O(1).
    """
    return length_levels(n, _fresh_appender(x))


def generic_to_injection(x: CountableSet, run: GenericRun) -> InjSeq:
    """The union of a descending chain of conditions, as an injective sequence.

    Each link is checked with ``extends`` under ``x.eq``, which on two
    views of one buffer is O(1).
    """
    chain = run.chain
    _require_chain(chain, extends if x.eq is operator.eq
                   else lambda a, b: extends(a, b, x.eq))
    return make_inj_seq(x, chain[-1] if chain else ())


def injection_to_generic(x: CountableSet,
                         g: "Callable[[int], Code] | Sequence[Code]",
                         n: int) -> GenericRun:
    """The run of initial restrictions of an injection, meeting level i at position i.

    The chain is the n + 1 ``Grown`` views of one list of the first n
    values, so it takes O(n) memory.  ``met`` pairs ``level_dense(x, i)``
    with position i (see ``GenericRun``).  A sequence g with fewer than n
    values raises ``ValueError``: its restrictions cannot meet level n; so
    does a negative n, since a run always holds its start.
    """
    if n < 0:
        raise ValueError(f"a run cannot meet {n} levels")
    values = [g(i) for i in range(n)] if callable(g) else list(g[:n])
    if len(values) < n:
        raise ValueError(f"injection has {len(values)} values, need {n}")
    require_injective(values, x.eq)
    met = tuple((i, i) for i in range(n + 1))
    return GenericRun(f"Coll(w,{x.name})", tuple(Grown(values, k) for k in range(n + 1)), met)
