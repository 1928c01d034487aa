"""Poset presentations, dense sets, the generic-filter engine, and fragment checks.

Order convention throughout: smaller is stronger, so leq(q, p) reads
"q extends p".  A filter is upward closed and downward directed.

The finite tables, their brute-force oracle, the law checks and the
countable unions of finite pre-orders live in ``forcelab.tables``; each
of their names read off this module loads it there (PEP 562), so only
the commands that use them pay for it.
"""

from __future__ import annotations

import collections.abc
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import BadExtender, NotAChain
from .records import Record

Code = Any


@dataclass(frozen=True)
class PosetPresentation:
    """A poset given by predicates plus an injective enumeration of its carrier.

    ``above(q)``, when given, is the finite list of conditions q extends, q
    itself included: on any fragment, r in above(q) iff leq(q, r), with
    hashing that agrees with that order.  Fragment checks then read upward
    cones off it instead of testing every pair with ``leq``.
    """

    name: str
    carrier: Callable[[Code], bool]
    leq: Callable[[Code, Code], bool]
    enum: Callable[[int], Code]
    root: Optional[Code] = None
    above: Optional[Callable[[Code], Iterable[Code]]] = None


@dataclass(frozen=True)
class DenseSet:
    """A dense set with a constructive extender: extend(p) is a member below p."""

    name: str
    member: Callable[[Code], bool]
    extend: Callable[[Code], Code]


class Grown(collections.abc.Sequence):
    """The first n entries of an append-only list, read like a tuple.

    ``grow`` makes these views.  No entry below a view's n ever changes,
    so a view is as immutable as a tuple: it has ``len``, indexing
    (a slice is a tuple), iteration, ``in``, ``+`` (giving a tuple), ``==``
    with tuples and views, and the hash and ``repr`` of the tuple of its
    entries.  Two views of one buffer agree on their common length, which
    is what makes ``extends`` on them O(1).
    """

    __slots__ = ("buf", "n")

    def __init__(self, buf: list, n: int):
        self.buf = buf
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if type(i) is slice:
            start, stop, step = i.indices(self.n)
            return tuple(self.buf[start:stop] if step == 1 else self.buf[:self.n][i])
        if not -self.n <= i < self.n:
            raise IndexError("Grown index out of range")
        return self.buf[i % self.n]

    def __iter__(self):
        return itertools.islice(self.buf, self.n)

    def __contains__(self, value) -> bool:
        return value in itertools.islice(self.buf, self.n)

    def __eq__(self, other) -> bool:
        if isinstance(other, Grown):
            if other.buf is self.buf:
                return other.n == self.n
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(other) == self.n and tuple(self) == other

    def __add__(self, other):
        if not isinstance(other, (tuple, Grown)):
            return NotImplemented
        return tuple(self) + tuple(other)

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return other + tuple(self)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def grow(t: Sequence, values: Iterable) -> Grown:
    """t followed by values, as a ``Grown`` view.

    A view that ends at its buffer's end is grown in place, O(len values);
    any other t, a tuple or a view some earlier ``grow`` already extended
    (a branch), is copied first.  So a run that grows its own last
    condition never copies it; the view is built past ``__init__``.
    """
    if type(t) is Grown and t.n == len(t.buf):
        buf = t.buf
    else:
        buf = list(t)
    buf.extend(values)
    view = object.__new__(Grown)
    view.buf, view.n = buf, len(buf)
    return view


def extends(g: Sequence, f: Sequence) -> bool:
    """True iff g end-extends f: it is at least as long and agrees with f on f.

    The one end-extension check of every sequence-tree order here.  Two
    views of one buffer compare by length alone, O(1); other sequences
    take one slice compare done in C, O(len f) C-level work.
    """
    if type(f) is Grown and type(g) is Grown and f.buf is g.buf:
        return f.n <= g.n
    n = len(f)
    return len(g) >= n and g[:n] == f


def prefixes(t: Sequence) -> list:
    """t[:0], t[:1], ..., t[:len t]: the conditions t end-extends.

    The ``above`` of every sequence-tree order here, since r is among them
    iff ``extends(t, r)``.
    """
    return [t[:k] for k in range(len(t) + 1)]


class SuffixFold:
    """``fold_state(t)`` is ``fold(start(), t)``, resumed from the last sequence kept.

    It keeps one tuple or ``Grown`` view with its state.  That sequence
    itself costs one ``is`` test; one that end-extends it folds only
    ``t[len(last):]`` into the kept state, O(len suffix) interpreted work
    plus the ``extends`` test, and a view grown from the kept one reads
    that suffix off the shared buffer with no test; any other is folded
    from ``start()``.  A list is folded but never kept, since it may change
    in place.  ``fold``, and the caller, may update the returned state
    (t's kept state) in place, so a state is valid until the next call; a
    fold that raises leaves nothing kept, the empty tuple included, which
    CPython shares between all callers.  ``keep(t, value)`` records the
    state of a sequence the caller has just built, so the next call with
    it costs nothing.
    """

    __slots__ = ("start", "fold", "last", "state")

    def __init__(self, start: Callable[[], Any],
                 fold: Callable[[Any, Sequence], Any]):
        self.start = start
        self.fold = fold
        self.last: "tuple | Grown | None" = None
        self.state: Any = None

    def fold_state(self, t: Sequence) -> Any:
        last = self.last
        if t is last:
            return self.state
        if type(t) not in (tuple, Grown):
            return self.fold(self.start(), t)
        if type(t) is Grown and type(last) is Grown and t.buf is last.buf and last.n <= t.n:
            # a view grown from the kept one: its new entries, off the buffer
            state, suffix = self.state, t.buf[last.n:t.n]
        elif last is not None and extends(t, last):
            state, suffix = self.state, t[len(last):]
        else:
            state, suffix = self.start(), t
        self.last = self.state = None
        state = self.fold(state, suffix)
        self.last, self.state = t, state
        return state

    def keep(self, t: Sequence, value: Any) -> None:
        if type(t) in (tuple, Grown):
            self.last, self.state = t, value


class GenericRun(Record):
    """A finite descending chain together with the dense sets it met.

    ``chain`` is the tuple of the conditions the run visited.  On the
    prefix trees these are ``Grown`` views of one shared buffer, apart from
    a plain-tuple start and the steps that return it unchanged, so a chain
    of n steps takes O(n) memory.  The upward closure of the chain is the
    filter the run denotes.  Every run meets goal i of its family at
    position i+1, the condition step i returned.
    """

    __slots__ = ("poset", "chain")
    poset: str
    chain: tuple

    @property
    def met(self) -> tuple[tuple[int, int], ...]:
        """The (goal index, chain position) pairs, made when read."""
        return tuple(enumerate(range(1, len(self.chain))))


def rasiowa_sikorski(p: PosetPresentation, ds: Sequence[DenseSet],
                     start: Code, n: int) -> GenericRun:
    """Descend through the first n dense sets of the family, from start.

    chain(0) = start and chain(i+1) = ds[i].extend(chain(i)); each step is
    verified against the extender contract (below the input, and a member).
    The family is any ``Sequence``, a list or a rule such as
    ``length_levels`` that makes goal i when it is read: step i reads
    ds[i] once and uses that one goal for its extend, its ``member`` call
    and the name in a ``BadExtender``.  The engine's own work per step is
    O(1): that read, one extend, one ``leq`` and one ``member`` call and an
    append, so a step costs whatever those callables cost on the current
    condition.  The chain keeps every condition the extenders returned,
    which is O(n) memory when they grow one shared buffer (``grow``).
    """
    if n < 0:
        raise ValueError(f"cannot descend through {n} dense sets")
    if not p.carrier(start):
        raise ValueError(f"start {start!r} is not in the carrier of {p.name}")
    if n > len(ds):
        raise ValueError(f"family has {len(ds)} dense sets, need {n}")
    last = start
    chain = [start]
    for i in range(n):
        d = ds[i]
        q = d.extend(last)
        if not p.leq(q, last):
            raise BadExtender(
                f"extender {d.name} output not below its input", index=i)
        if not d.member(q):
            raise BadExtender(
                f"extender {d.name} output not a member", index=i)
        chain.append(q)
        last = q
    return GenericRun(p.name, tuple(chain))


def _require_chain(chain: Sequence[Code], leq: Callable[[Code, Code], bool]) -> None:
    """Raise ``NotAChain`` at the first entry that does not extend the one
    before; one ``leq`` call per link."""
    bad = next(((a, b) for a, b in zip(chain[1:], chain) if not leq(a, b)), None)
    if bad is not None:
        raise NotAChain(f"{bad[0]!r} does not extend {bad[1]!r}")


def _cone(p: PosetPresentation, frag: Sequence[Code], m: Code) -> Iterable[Code]:
    """The conditions m extends: ``p.above(m)``, which may reach past frag,
    or without ``p.above`` the elements b of frag with leq(m, b)."""
    if p.above is None:
        return [b for b in frag if p.leq(m, b)]
    return p.above(m)


def filter_from_chain(p: PosetPresentation, chain: Sequence[Code],
                      truncation: int) -> set:
    """Upward closure of a descending chain within the first enumerated elements.

    Once the chain is checked, transitivity makes its upward closure the
    cone of its last entry (an empty chain closes to the empty set).
    Cost: ``truncation`` enum calls, len(chain) - 1 ``leq`` calls for the
    chain check and that one cone: len(above(last)) hashes and
    ``truncation`` lookups with ``p.above``, else ``truncation`` ``leq``
    calls.
    """
    _require_chain(chain, p.leq)
    frag = [p.enum(k) for k in range(truncation)]
    cone = set(_cone(p, frag, chain[-1])) if chain else set()
    return {q for q in frag if q in cone}


class DensityReport(Record, defaults=(None, None)):
    """Density evidence on an enumeration fragment; not a proof for the full poset.

    ``dense`` is None when the fragment cannot decide: ``undecided`` has no
    extension in d among the fragment, but d's extender gives one outside it.
    """

    __slots__ = ("dense", "fragment", "counterexample", "undecided")
    dense: Optional[bool]
    fragment: int
    counterexample: Optional[Code]
    undecided: Optional[Code]


def is_dense_on_truncation(p: PosetPresentation, d: DenseSet,
                           n: int) -> DensityReport:
    """Check that each of the first n elements has an extension in d among the first n.

    The first element without one is a counterexample unless d's extender
    maps it to a member below it (which lies past the fragment); then the
    report is inconclusive.  An extender that raises BadExtender gives no
    such witness.

    Cost: n enum calls, then one walk from the last element back that
    asks ``member`` only of an element no cone taken so far covers and
    adds the cone of each member it finds.  Skipping a covered element is
    sound: a member m' extends it, so by transitivity of ``leq``
    (``check_poset_laws`` asserts it) its cone lies inside the cone of m';
    order changes the work, not the report.  A cone is len(above(m))
    hashes with ``p.above``, O(n * depth) in all on the prefix trees, else
    n ``leq`` calls.  Then one lookup per element finds the first one left
    uncovered, and at most one extend, ``member`` and ``leq`` call judge
    it.  Memory: the fragment and the set of covered conditions.
    """
    frag = [p.enum(k) for k in range(n)]
    covered: set = set()
    for m in reversed(frag):
        if m not in covered and d.member(m):
            covered.update(_cone(p, frag, m))
    for q in frag:
        if q not in covered:
            try:
                r = d.extend(q)
                witnessed = d.member(r) and p.leq(r, q)
            except BadExtender:
                witnessed = False
            if witnessed:
                return DensityReport(None, n, undecided=q)
            return DensityReport(False, n, counterexample=q)
    return DensityReport(True, n)


def run_trace_json(run: GenericRun) -> dict:
    """JSON form of a run: {"poset", "start", "steps": [{"i", "condition", "meets"}]};
    step i meets goal i."""
    steps = [{"i": i, "condition": _jsonable(cond), "meets": [i]}
             for i, cond in enumerate(run.chain[1:])]
    return {"poset": run.poset, "start": _jsonable(run.chain[0]), "steps": steps}


# The exact types JSON writes as scalars; a sequence of these needs no walk.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))
_JSON_ROWS = frozenset((list, tuple))


def _scalar_rows(items: Sequence) -> bool:
    """Whether every member of items is a list or tuple of JSON scalars;
    C-level scans only."""
    return (_JSON_ROWS.issuperset(map(type, items))
            and _JSON_SCALARS.issuperset(map(type, itertools.chain.from_iterable(items))))


def _jsonable(code: Code):
    """The JSON form of a code: tuples and ``Grown`` views as lists,
    frozensets as sorted lists.  A sequence of scalars, or of rows of
    scalars such as ``pairs`` codes, is copied without a Python-level walk."""
    if isinstance(code, (tuple, Grown)):
        items = list(code)
        if _JSON_SCALARS.issuperset(map(type, items)):
            return items
        if _scalar_rows(items):
            return list(map(list, items))
        return [_jsonable(c) for c in items]
    if isinstance(code, frozenset):
        return sorted(_jsonable(c) for c in code)
    return code


# ---------------------------------------------------------------------------
# the finite tables, in ``tables``
# ---------------------------------------------------------------------------

# The brute-force oracle's largest carrier; ``cli`` bounds --size by it at import.
_ORACLE_CAP = 20

# The names ``tables`` defines, each loaded from there when first read here.
_TABLE_NAMES = frozenset("""
    FinitePoset _bit_rows _transpose _bits _closed_rows_table table_poset
    check_poset_laws is_filter brute_force_filter random_finite_poset
    table_dense_sets random_dense_sets FinitePreorder GammaPresentation
    PreorderViolation GammaReport gamma_check""".split())


def __getattr__(name):
    if name not in _TABLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables
    value = globals()[name] = getattr(tables, name)  # stored: later reads skip this
    return value
