"""Choice functionals and effective dependent-choice witnesses.

A functional maps each finite sequence to a nonempty set of allowed next
values, carried here as a membership predicate plus a select witness.  The
conditions obeying a functional form a sub-tree of the injective-sequence
poset; running the generic engine over it extracts witnesses.  Functionals
that allow repetition are reduced to injective ones over marked pairs,
the marker counting prior occurrences.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .collapse import CountableSet, length_levels, prefix_enumeration
from .errors import BadSelector, NotInTree
from .ordinals import cantor_pair, cantor_unpair
from .posets import Code, DenseSet, PosetPresentation, extends, prefixes, rasiowa_sikorski


@dataclass(frozen=True)
class ChoiceFunctional:
    """A choice oracle on finite sequences.

    ``member(t, v)`` decides v in F(t); ``select(t)`` names one member.
    With ``injective_mode`` set, members never repeat earlier values, so
    witnesses stay injective.
    """

    name: str
    member: Callable[[Sequence, Code], bool]
    select: Callable[[Sequence], Code]
    injective_mode: bool = False


class _FreshScan:
    """The least index i whose candidate ``code(i)`` a tuple does not use.

    Shared by the ``seq``, ``evens`` and ``bounded`` selects.  It keeps the
    last tuple it scanned, the set of codes that tuple uses and the index
    where its scan stopped; every candidate below that index is used.  A
    tuple that end-extends the last one only uses more codes, so the set
    grows by the new suffix and the scan resumes where it stopped.  Any
    other tuple starts over with its own set from index 0, and a list is
    scanned without being kept.

    Cost per call along a growing run: O(1) interpreted work amortised
    (the suffix and the few candidates past the stop), plus the C-level
    compare of the old part in ``extends``.  ``seen(t)`` gives members the
    set instead of t when t *is* the last tuple, so their ``in`` test is a
    hash lookup instead of a scan of t.
    """

    def __init__(self, code: Callable[[int], Code]):
        self.code = code
        self.last: tuple = ()
        self.used: set = set()
        self.stop = 0

    def seen(self, t: Sequence):
        return self.used if t is self.last else t

    def first_unused(self, t: Sequence,
                     limit: Optional[int] = None) -> tuple[int, Code]:
        """(i, code(i)) for the least i whose code t does not use.

        With ``limit``, candidates past it are not tried: when every
        i <= limit is used the answer is (limit + 1, None).
        """
        if type(t) is not tuple:
            return _first_unused(self.code, set(t), 0, limit)
        if t is not self.last:
            if extends(t, self.last):
                self.used |= set(t[len(self.last):])
            else:
                self.used, self.stop = set(t), 0
            self.last = t
        i, c = _first_unused(self.code, self.used, self.stop, limit)
        self.stop = i
        return i, c


def _first_unused(code: Callable[[int], Code], used: set, i: int,
                  limit: Optional[int]) -> tuple[int, Code]:
    while limit is None or i <= limit:
        c = code(i)
        if c not in used:
            return i, c
        i += 1
    return i, None


def f_seq(x: CountableSet) -> ChoiceFunctional:
    """The canonical functional allowing exactly the unused elements of x.

    ``member`` is one ``index_of`` call plus, under ``operator.eq``, a test
    against the used codes of t: a set lookup when t is the tuple ``select``
    last saw, else a C-level ``not in`` scan.  ``select`` is a
    ``_FreshScan`` over the enumeration, so along a growing run a step
    costs O(1) interpreted work (one or two amortised ``enum`` calls).
    """
    scan = _FreshScan(x.enum)

    def member(t: Sequence, v: Code) -> bool:
        if x.eq is operator.eq:
            return x.contains(v) and v not in scan.seen(t)
        return x.contains(v) and not any(x.eq(v, c) for c in t)

    def select(t: Sequence) -> Code:
        return scan.first_unused(t)[1]

    return ChoiceFunctional(f"seq({x.name})", member, select, injective_mode=True)


def evens_functional(x: CountableSet) -> ChoiceFunctional:
    """Allows unused codes with even enumeration index.

    ``select`` is a ``_FreshScan`` over the even-indexed codes.
    """
    scan = _FreshScan(lambda i: x.enum(2 * i))

    def member(t: Sequence, v: Code) -> bool:
        if not x.contains(v) or v in scan.seen(t):
            return False
        return x.index_of(v) % 2 == 0

    def select(t: Sequence) -> Code:
        return scan.first_unused(t)[1]

    return ChoiceFunctional(f"evens({x.name})", member, select, injective_mode=True)


def bounded_functional(x: CountableSet) -> ChoiceFunctional:
    """Allows unused codes of index at most twice the current length.

    ``select`` is a ``_FreshScan`` over the enumeration that tries no index
    past 2 * len(t).
    """
    scan = _FreshScan(x.enum)

    def member(t: Sequence, v: Code) -> bool:
        if not x.contains(v) or v in scan.seen(t):
            return False
        return x.index_of(v) <= 2 * len(t)

    def select(t: Sequence) -> Code:
        bound = 2 * len(t)
        i, c = scan.first_unused(t, bound)
        if i > bound:
            raise BadSelector(f"no unused code of index <= {bound}")
        return c

    return ChoiceFunctional(f"bounded({x.name})", member, select, injective_mode=True)


def const_functional(x: CountableSet) -> ChoiceFunctional:
    """The constant singleton: only the first code is ever allowed."""
    c = x.enum(0)
    return ChoiceFunctional(f"const({x.name})",
                            lambda t, v: x.eq(v, c),
                            lambda t: c,
                            injective_mode=False)


def cycle_functional(x: CountableSet, period: int) -> ChoiceFunctional:
    """Forces the codes 0..period-1 cyclically; repetitions from step period on."""
    return ChoiceFunctional(f"cycle{period}({x.name})",
                            lambda t, v: x.eq(v, x.enum(len(t) % period)),
                            lambda t: x.enum(len(t) % period),
                            injective_mode=False)


INJECTIVE_FIXTURES = ("seq", "evens", "bounded")
REPEATING_FIXTURES = ("const", "cycle2", "cycle3")


def fixture_functional(x: CountableSet, name: str) -> ChoiceFunctional:
    builders = {
        "seq": f_seq,
        "evens": evens_functional,
        "bounded": bounded_functional,
        "const": const_functional,
        "cycle2": lambda s: cycle_functional(s, 2),
        "cycle3": lambda s: cycle_functional(s, 3),
    }
    if name not in builders:
        raise KeyError(f"unknown functional {name!r}; have {sorted(builders)}")
    return builders[name](x)


# ---------------------------------------------------------------------------
# the tree of conditions obeying a functional
# ---------------------------------------------------------------------------

def in_tree(f: ChoiceFunctional, t: Sequence) -> bool:
    return all(f.member(t[:i], t[i]) for i in range(len(t)))


def t_of_f(x: CountableSet, f: ChoiceFunctional) -> PosetPresentation:
    """The sub-poset of injective sequences whose every step obeys f."""
    if not f.injective_mode:
        raise ValueError(f"{f.name} does not preserve injectivity")

    def carrier(t: Code) -> bool:
        return isinstance(t, tuple) and in_tree(f, t)

    return PosetPresentation(
        name=f"T({f.name})",
        carrier=carrier,
        leq=extends,
        enum=prefix_enumeration(x, lambda prefix, c: f.member(prefix, c)),
        root=(),
        above=prefixes,
    )


def tree_level_family(f: ChoiceFunctional, n: int) -> list[DenseSet]:
    """Length-target dense goals whose extenders iterate the functional's select."""

    def append(t: tuple, k: int) -> tuple:
        for _ in range(k):
            v = f.select(t)
            if not f.member(t, v):
                raise BadSelector(
                    f"select of {f.name} returned non-member {v!r}",
                    position=len(t))
            t = t + (v,)
        return t

    return length_levels(n, append)


def dc_witness(x: CountableSet, f: ChoiceFunctional, n: int) -> tuple:
    """A length-n sequence with every step allowed by f, via a generic run."""
    poset = t_of_f(x, f)
    run = rasiowa_sikorski(poset, tree_level_family(f, n), (), n)
    return run.chain[-1][:n]


def check_dc_witness(f: ChoiceFunctional, g: Sequence) -> bool:
    """True iff g(i) in F(g restricted to i) at every position."""
    return in_tree(f, g)


def modified_functional(f: ChoiceFunctional, t: Sequence) -> ChoiceFunctional:
    """The functional that forces the steps of t, then behaves like f.

    On a proper restriction of t the only member is the next value of t;
    elsewhere membership defers to f.  Its witnesses extend t, which is the
    density argument for length levels below t.
    """
    t = tuple(t)
    if not in_tree(f, t):
        raise NotInTree(f"{t!r} does not obey {f.name}")

    def forced_at(s: Sequence) -> Optional[int]:
        if len(s) < len(t) and tuple(s) == t[:len(s)]:
            return len(s)
        return None

    def member(s: Sequence, v: Code) -> bool:
        i = forced_at(s)
        if i is not None:
            return v == t[i]
        return f.member(s, v)

    def select(s: Sequence) -> Code:
        i = forced_at(s)
        if i is not None:
            return t[i]
        return f.select(s)

    return ChoiceFunctional(f"{f.name}_forced", member, select, f.injective_mode)


# ---------------------------------------------------------------------------
# marker reduction: repetition-allowing functionals become injective ones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkedElement:
    """An element code paired with how many times it already occurred."""

    base: Code
    marker: int


def marked_set(x: CountableSet) -> CountableSet:
    """The product of x with the naturals, diagonally enumerated."""

    def enum(n: int) -> MarkedElement:
        a, b = cantor_unpair(n)
        return MarkedElement(x.enum(a), b)

    def index(v) -> Optional[int]:
        if not isinstance(v, MarkedElement) or v.marker < 0:
            return None
        try:
            a = x.index_of(v.base)
        except ValueError:
            return None
        return cantor_pair(a, v.marker)

    return CountableSet(f"{x.name}*w", enum, index=index)


def _occurrences(bases: Sequence, v: Code, upto: int, eq) -> int:
    return sum(1 for j in range(upto) if eq(bases[j], v))


def _consistent_markers(x: CountableSet, u: Sequence) -> bool:
    """True when u carries exactly the occurrence counts of its own bases under x.eq."""
    if not all(isinstance(m, MarkedElement) for m in u):
        return False
    bases = [p.base for p in u]
    return all(m.marker == _occurrences(bases, m.base, i, x.eq)
               for i, m in enumerate(u))


def _marker_walk(u: Sequence, counts: dict) -> bool:
    """Add u's bases to ``counts`` (base -> occurrences so far), under operator.eq.

    False, with ``counts`` left part-way, unless every element of u is a
    MarkedElement carrying its base's count up to it.
    """
    if not all(isinstance(m, MarkedElement) for m in u):
        return False
    for m in u:
        if m.marker != counts.get(m.base, 0):
            return False
        counts[m.base] = counts.get(m.base, 0) + 1
    return True


def _marker_tracker() -> Callable[[Sequence], Optional[tuple]]:
    """``marks(u)``: (bases of u, base -> occurrences) when u's markers are
    its true occurrence counts, else None; under operator.eq.

    It keeps the last tuple it saw with its bases tuple, its count dict
    and its consistency flag.  A tuple that end-extends the last one walks
    only the new suffix; markers that are wrong on a prefix stay wrong on
    every extension.  Any other u is walked in full, and a list is walked
    without being kept.
    """
    state = [(), (), {}, True]  # last tuple, its bases, its counts, consistent

    def marks(u: Sequence) -> Optional[tuple]:
        last, bases, counts, ok = state
        if u is not last:
            if type(u) is tuple and extends(u, last):
                new = u[len(last):]
                state[:] = [(), (), {}, True]  # a walk that raises keeps no stale count
                ok = ok and _marker_walk(new, counts)
                bases = bases + tuple(m.base for m in new) if ok else ()
            else:
                counts = {}
                ok = _marker_walk(u, counts)
                bases = tuple(m.base for m in u) if ok else ()
            if type(u) is tuple:
                state[:] = [u, bases, counts, ok]
        return (bases, counts) if ok else None

    return marks


def marker_reduction(x: CountableSet, f: ChoiceFunctional) -> ChoiceFunctional:
    """Lift a repetition-allowing functional to an injective one over marked pairs.

    On a sequence whose markers record true occurrence counts, the allowed
    pairs are the f-allowed bases marked with their current count; anything
    else falls back to the fresh-pair functional of the marked set.  The
    count of a newly allowed base always exceeds every marker it carries so
    far, so witnesses never repeat a pair.

    Cost: under ``operator.eq`` the marker state of the last tuple seen is
    kept (see ``_marker_tracker``), so along a growing run a ``member`` or
    ``select`` call walks only the new suffix, O(1) interpreted work per
    step plus the C-level compare and copy of the old part, and f sees one
    bases tuple.  Under a custom ``eq`` every call walks u in full with it,
    O(len(u)^2) ``eq`` calls, and f sees a bases list.
    """
    product = marked_set(x)
    product_seq = f_seq(product)
    if x.eq is operator.eq:
        marks = _marker_tracker()
    else:
        def marks(u: Sequence) -> Optional[tuple]:
            if not _consistent_markers(x, u):
                return None
            return [p.base for p in u], None

    def occurrences(bases: Sequence, counts: Optional[dict], b: Code) -> int:
        if counts is None:
            return _occurrences(bases, b, len(bases), x.eq)
        return counts.get(b, 0)

    def member(u: Sequence, v: Code) -> bool:
        if not isinstance(v, MarkedElement):
            return False
        seen = marks(u)
        if seen is None:
            return product_seq.member(u, v)
        bases, counts = seen
        return f.member(bases, v.base) and v.marker == occurrences(bases, counts, v.base)

    def select(u: Sequence) -> Code:
        seen = marks(u)
        if seen is None:
            return product_seq.select(u)
        bases, counts = seen
        b = f.select(bases)
        return MarkedElement(b, occurrences(bases, counts, b))

    return ChoiceFunctional(f"marked({f.name})", member, select, injective_mode=True)


def unmark(g: Sequence) -> tuple:
    """First projection: drop the markers."""
    return tuple(m.base for m in g)


def witness_json(f: ChoiceFunctional, values: Sequence,
                 markers: "Sequence[int] | None" = None) -> dict:
    from .posets import _jsonable
    doc = {"functional": f.name, "length": len(values),
           "values": [_jsonable(v) for v in values]}
    if markers is not None:
        doc["markers"] = list(markers)
    return doc
