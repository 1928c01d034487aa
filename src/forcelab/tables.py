"""Finite posets as bit-row tables: law checks, the brute-force filter
oracle, random tables with dense sets, and countable unions of finite
pre-orders.

Only ``oracle-check`` and ``qtree`` read these, so ``posets`` loads this
module when one of its names is first read there (PEP 562), and the
other commands never compile it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import BadExtender, NotAPartialOrder, OracleLimit
from .posets import _ORACLE_CAP, Code, DenseSet, PosetPresentation
from .records import Record

_set_field = object.__setattr__  # a value class's fields, past its refusing __setattr__


class FinitePoset(Record):
    """A finite poset as bit rows: bit j of up[i] iff elements[i] <= elements[j].

    Rows are reflexive, and ``NotAPartialOrder`` refuses rows that are not
    transitive or not antisymmetric.  ``down`` (the transposed rows) and the
    position map are not fields, so ``==`` and ``hash`` read elements and
    rows only.
    """

    __slots__ = ("elements", "up", "down", "_pos")
    elements: tuple
    up: tuple

    def __init__(self, elements: tuple, up: tuple):
        n = len(elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != n or type(up) is not tuple or len(up) != n or not all(
                type(row) is int and 0 <= row < 1 << n and row >> i & 1
                for i, row in enumerate(up)):
            raise ValueError(f"need {n} distinct elements, {n} reflexive int rows < 2**{n}")
        down, broken = _order_columns(elements, up)
        if broken:
            raise NotAPartialOrder(broken)
        _set_field(self, "elements", elements)
        _set_field(self, "up", up)
        _set_field(self, "_pos", pos)
        _set_field(self, "down", down)

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


def _order_columns(elements: Sequence, rows: Sequence[int]) -> tuple[list[int], Optional[str]]:
    """The columns of bit rows (bit i of column j iff bit j of row i) and the
    first order law the rows break, or None, in one walk over (i, j) in
    order: reflexivity at i, then transitivity and antisymmetry at each j of
    row i.  The walk stops at a break, leaving the columns unfinished."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        if not row >> i & 1:
            return cols, f"leq not reflexive at {elements[i]!r}"
        bit = 1 << i
        for j in _bits(row):
            cols[j] |= bit
            if rows[j] & ~row:
                return cols, f"leq not transitive at {elements[i]!r} <= {elements[j]!r}"
            if rows[j] & bit and i != j:
                return cols, f"leq not antisymmetric on {elements[i]!r}, {elements[j]!r}"
    return cols, None


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
    elems, up, pos = table.elements, table.up, table._pos
    maxima = [p for p, row in zip(elems, table.down) if row.bit_count() == len(elems)]

    def above(q):
        """The cone of q, read off its row when asked."""
        i = pos.get(q)
        return [q] if i is None else [elems[j] for j in _bits(up[i])]

    return PosetPresentation(
        name="finite",
        carrier=lambda c: c in elems,
        leq=table.leq,
        enum=lambda k: elems[k],
        root=maxima[0] if maxima else None,
        above=above,
    )


def check_poset_laws(p: PosetPresentation, n: int) -> tuple[list[int], list[int]]:
    """Assert reflexivity, transitivity and antisymmetry of leq on the first n elements.

    When the presentation has ``above``, also assert its contract there:
    above(a) meets the fragment in exactly the b with leq(a, b).  Returns
    the fragment's bit rows and their columns: bit j of row i, and bit i of
    column j, iff leq(enum(i), enum(j)).
    """
    frag = [p.enum(k) for k in range(n)]
    for q in frag:
        if not p.carrier(q):
            raise AssertionError(f"enumerated {q!r} fails the carrier predicate")
    rows = _bit_rows(frag, p.leq)
    cols, broken = _order_columns(frag, rows)
    if broken:
        raise AssertionError(broken)
    if p.above is not None:
        pos = {q: k for k, q in enumerate(frag)}
        for i, a in enumerate(frag):
            wrong = rows[i] ^ sum(1 << j for j in set(map(pos.get, p.above(a))) - {None})
            if wrong:
                b = frag[next(_bits(wrong))]
                raise AssertionError(
                    f"above({a!r}) and leq disagree on {b!r}")
    return rows, cols


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
    sampled as masks; only an accepted one becomes a frozenset).

    A mask is dense when it meets every down row: when it holds every
    minimal element, one whose down row is its own bit, and meets each
    row that holds no minimal element.  In a partial order, as
    ``random_finite_poset`` makes, each element lies above a minimal one,
    so there is no such row and one comparison tests a mask."""
    minimal = sum(1 << i for i, row in enumerate(table.down) if row == 1 << i)
    rest = [row for row in table.down if not row & minimal]
    out = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        mask = sum([1 << i for i in range(len(table.elements)) if rng.random() < 0.5])
        if mask and mask & minimal == minimal and all(row & mask for row in rest):
            out.append(frozenset(table.elements[i] for i in _bits(mask)))
    while len(out) < count:
        out.append(frozenset(table.elements))  # whole carrier is always dense
    return out


# ---------------------------------------------------------------------------
# countable unions of finite pre-orders
# ---------------------------------------------------------------------------

class FinitePreorder(Record):
    """A finite pre-order level: explicit carrier plus relation table."""

    __slots__ = ("elements", "relation")
    elements: tuple
    relation: frozenset


class GammaPresentation(Record, defaults=(False,)):
    """A pre-order presented as a countable union of finite levels.

    Levels must be pairwise disjoint unless ``shared_codes`` declares that
    they may share codes; ``gamma_check`` then skips its disjointness check.
    """

    __slots__ = ("name", "levels", "shared_codes")
    name: str
    levels: Callable[[int], FinitePreorder]
    shared_codes: bool


class PreorderViolation(Record):
    """The level a ``gamma_check`` failed at, the law broken and a witness triple."""

    __slots__ = ("level", "law", "witness")
    level: int
    law: str
    witness: tuple


class GammaReport(Record, defaults=(None,)):
    """A ``gamma_check`` verdict, the sizes of the levels read, and the violation."""

    __slots__ = ("ok", "size_profile", "violation")
    ok: bool
    size_profile: tuple[int, ...]
    violation: Optional[PreorderViolation]


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
