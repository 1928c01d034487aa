"""Poset presentations, dense sets, the generic-filter engine, and oracles.

Order convention throughout: smaller is stronger, so leq(q, p) reads
"q extends p".  A filter is upward closed and downward directed.
"""

from __future__ import annotations

import collections.abc
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import BadExtender, NotAChain, OracleLimit

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


@dataclass(frozen=True)
class GenericRun:
    """A finite descending chain together with the dense sets it met.

    ``chain`` is the tuple of the conditions the run visited.  On the
    prefix trees these are ``Grown`` views of one shared buffer, apart from
    a plain-tuple start and the steps that return it unchanged, so a chain
    of n steps takes O(n) memory.  The upward closure of the chain is the
    filter the run denotes.  Every run meets goal i of its family at
    position i+1, the condition step i returned.
    """

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


@dataclass(frozen=True)
class DensityReport:
    """Density evidence on an enumeration fragment; not a proof for the full poset.

    ``dense`` is None when the fragment cannot decide: ``undecided`` has no
    extension in d among the fragment, but d's extender gives one outside it.
    """

    dense: Optional[bool]
    fragment: int
    counterexample: Optional[Code] = None
    undecided: Optional[Code] = None


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
# finite posets: law checks, brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePoset:
    """A finite poset as bit rows: bit j of up[i] iff elements[i] <= elements[j].

    Rows are reflexive.  ``down`` (the transposed rows) and the position map
    are not fields, so ``==`` and ``hash`` read elements and rows only.
    """

    elements: tuple
    up: tuple

    def __post_init__(self):
        n = len(self.elements)
        pos = {e: i for i, e in enumerate(self.elements)}
        if len(pos) != n or type(self.up) is not tuple or len(self.up) != n or not all(
                type(row) is int and 0 <= row < 1 << n and row >> i & 1
                for i, row in enumerate(self.up)):
            raise ValueError(f"need {n} distinct elements, {n} reflexive int rows < 2**{n}")
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "down", _transpose(self.up))

    def leq(self, a, b) -> bool:
        if a == b:
            return True
        i, j = self._pos.get(a), self._pos.get(b)
        return i is not None and j is not None and self.up[i] >> j & 1 == 1

    def _mask(self, s: set) -> int:
        return sum(1 << i for i in map(self._pos.get, s) if i is not None)

    def _is_filter_mask(self, mask: int) -> bool:
        """``is_filter`` on the elements of a nonzero mask, read off the rows."""
        up, down, members = self.up, self.down, list(_bits(mask))
        return (all(not up[i] & ~mask for i in members)
                and all(down[i] & down[j] & mask for i in members for j in members))


def _bit_rows(elements: Sequence, leq: Callable[[Code, Code], bool]) -> list[int]:
    """One int per element: bit j of row i iff leq(elements[i], elements[j])."""
    return [sum(1 << j for j, b in enumerate(elements) if leq(a, b)) for a in elements]


def _transpose(rows: list[int]) -> list[int]:
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def _bits(mask: int) -> Iterable[int]:
    """The positions of the set bits of mask, least first; O(popcount) steps."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _closed_rows_table(elements: Sequence, rows: list[int]) -> FinitePoset:
    """The table of the reflexive-transitive closure of first bit rows (Warshall, in place)."""
    for k in range(len(rows)):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | rows[k]
    return FinitePoset(tuple(elements), tuple(rows))


def table_poset(table: FinitePoset) -> PosetPresentation:
    """Present a finite table as a PosetPresentation named "finite"."""
    elems = table.elements
    maxima = [p for p, row in zip(elems, table.down) if row.bit_count() == len(elems)]
    ups = {a: [elems[j] for j in _bits(row)] for a, row in zip(elems, table.up)}
    return PosetPresentation(
        name="finite",
        carrier=lambda c: c in elems,
        leq=table.leq,
        enum=lambda k: elems[k],
        root=maxima[0] if maxima else None,
        above=lambda q: ups.get(q, [q]),
    )


def check_poset_laws(p: PosetPresentation, n: int) -> list[int]:
    """Assert reflexivity, transitivity and antisymmetry of leq on the first n elements.

    When the presentation has ``above``, also assert its contract there:
    above(a) meets the fragment in exactly the b with leq(a, b).  Returns
    the fragment's bit rows: bit j of row i iff leq(enum(i), enum(j)).
    """
    frag = [p.enum(k) for k in range(n)]
    for q in frag:
        if not p.carrier(q):
            raise AssertionError(f"enumerated {q!r} fails the carrier predicate")
    rows = _bit_rows(frag, p.leq)
    for i in range(n):
        if not rows[i] >> i & 1:
            raise AssertionError(f"leq not reflexive at {frag[i]!r}")
        for j in _bits(rows[i]):
            if rows[j] & ~rows[i]:
                raise AssertionError(
                    f"leq not transitive at {frag[i]!r} <= {frag[j]!r}")
            if rows[j] >> i & 1 and i != j:
                raise AssertionError(
                    f"leq not antisymmetric on {frag[i]!r}, {frag[j]!r}")
    if p.above is not None:
        pos = {q: k for k, q in enumerate(frag)}
        for i, a in enumerate(frag):
            wrong = rows[i] ^ sum(1 << j for j in set(map(pos.get, p.above(a))) - {None})
            if wrong:
                b = frag[next(_bits(wrong))]
                raise AssertionError(
                    f"above({a!r}) and leq disagree on {b!r}")
    return rows


_ORACLE_CAP = 20


def is_filter(table: FinitePoset, subset: Iterable) -> bool:
    """Nonempty, upward closed, downward directed, and made of table elements."""
    s = set(subset)
    mask = table._mask(s)
    return 0 < mask.bit_count() == len(s) and table._is_filter_mask(mask)


def brute_force_filter(table: FinitePoset,
                       dense: Sequence[Iterable]) -> Optional[frozenset]:
    """Exhaustively search for a filter meeting every listed set.

    Returns the first such filter in bitmask order over the element list,
    or None when none exists.  Carriers above 20 elements are refused.
    """
    if len(table.elements) > _ORACLE_CAP:
        raise OracleLimit(f"carrier of size {len(table.elements)} exceeds {_ORACLE_CAP}")
    targets = [table._mask(frozenset(d)) for d in dense]
    for mask in range(1, 1 << len(table.elements)):
        if all(mask & t for t in targets) and table._is_filter_mask(mask):
            return frozenset(table.elements[i] for i in _bits(mask))
    return None


def random_finite_poset(rng, size: int) -> FinitePoset:
    """A random partial order on 0..size-1 (random DAG edges, then closure)."""
    rows = [1 << i for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                rows[j] |= 1 << i  # higher index extends lower: j <= i
    return _closed_rows_table(range(size), rows)


def table_dense_sets(table: FinitePoset, subsets: Sequence[Iterable]) -> list[DenseSet]:
    """Honest DenseSets for subsets known to be dense in the table.

    The extender picks the first listed element below its input that lies
    in the subset.
    """
    out = []
    for i, subset in enumerate(subsets):
        s = frozenset(subset)

        def extend(p, s=s, m=table._mask(s)):
            below = m & table.down[table.elements.index(p)] if p in table.elements else 0
            if not below:
                raise BadExtender(f"no extension of {p!r} into {sorted(map(str, s))}")
            return table.elements[next(_bits(below))]

        out.append(DenseSet(f"D{i}", lambda q, s=s: q in s, extend))
    return out


def random_dense_sets(rng, table: FinitePoset, count: int) -> list[frozenset]:
    """Random subsets of the table that happen to be dense (rejection
    sampled as masks; only an accepted one becomes a frozenset)."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        mask = sum([1 << i for i in range(len(table.elements)) if rng.random() < 0.5])
        if mask and all(row & mask for row in table.down):
            out.append(frozenset(table.elements[i] for i in _bits(mask)))
    while len(out) < count:
        out.append(frozenset(table.elements))  # whole carrier is always dense
    return out


# ---------------------------------------------------------------------------
# countable unions of finite pre-orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitePreorder:
    """A finite pre-order level: explicit carrier plus relation table."""

    elements: tuple
    relation: frozenset


@dataclass(frozen=True)
class GammaPresentation:
    """A pre-order presented as a countable union of finite levels.

    Levels must be pairwise disjoint unless ``shared_codes`` declares that
    they may share codes; ``gamma_check`` then skips its disjointness check.
    """

    name: str
    levels: Callable[[int], FinitePreorder]
    shared_codes: bool = False


@dataclass(frozen=True)
class PreorderViolation:
    level: int
    law: str
    witness: tuple


@dataclass(frozen=True)
class GammaReport:
    ok: bool
    size_profile: tuple[int, ...]
    violation: Optional[PreorderViolation] = None


def gamma_check(g: GammaPresentation, depth: int) -> GammaReport:
    """Verify the first ``depth`` levels are finite pre-orders; report sizes.

    A failing level is reported as not-a-preorder with a witness triple
    (for reflexivity failures the witness repeats the offending element).
    A transitivity witness (a, b, d) has a <= b <= d but not a <= d and is
    the least such triple in the level's element order.  A relation pair
    naming an element outside its level raises ValueError.  Unless
    ``g.shared_codes`` is set, a level sharing a code with an earlier one
    is reported as levels-overlap.
    """
    sizes = []
    seen: set = set()
    for lv in range(depth):
        level = g.levels(lv)
        elems = level.elements
        rel = level.relation
        sizes.append(len(elems))
        for x in elems:
            if (x, x) not in rel:
                return GammaReport(False, tuple(sizes),
                                   PreorderViolation(lv, "not-a-preorder", (x, x, x)))
        inside = set(elems)
        foreign = [ab for ab in rel if ab[0] not in inside or ab[1] not in inside]
        if foreign:
            raise ValueError(
                f"level {lv} relates {min(map(repr, foreign))} outside its elements")
        rows = _bit_rows(elems, lambda a, b: (a, b) in rel)
        for i, row in enumerate(rows):
            for j in _bits(row):
                missing = rows[j] & ~row
                if missing:
                    d = next(_bits(missing))
                    return GammaReport(False, tuple(sizes), PreorderViolation(
                        lv, "not-a-preorder", (elems[i], elems[j], elems[d])))
        if not g.shared_codes:
            overlap = seen & inside
            if overlap:
                x = sorted(map(str, overlap))[0]
                return GammaReport(False, tuple(sizes),
                                   PreorderViolation(lv, "levels-overlap", (x, x, x)))
            seen |= inside
    return GammaReport(True, tuple(sizes))
