"""Choice functionals and effective dependent-choice witnesses.

A functional maps each finite sequence to a nonempty set of allowed next
values, carried here as a membership predicate plus a select witness.  The
conditions obeying a functional form a sub-tree of the injective-sequence
poset; running the generic engine over it extracts witnesses.  Functionals
that allow repetition are reduced to injective ones over marked pairs,
the marker counting prior occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .collapse import CountableSet, length_levels, prefix_enumeration, sequence_tree
from .errors import BadSelector, NotInTree
from .posets import (Code, DenseSet, Grown, PosetPresentation, SuffixFold, _jsonable, grow,
                     rasiowa_sikorski)


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


def _fresh_functional(x: CountableSet, name: str, stride: int = 1,
                      bound: Optional[int] = None) -> ChoiceFunctional:
    """The unused codes of x whose enumeration index is a multiple of
    ``stride`` and, with ``bound``, at most bound * len(t); select names the
    one of least index.

    Its state is a ``SuffixFold`` of t into the set of codes t uses and the
    index where the last scan stopped: every candidate below it is used, and
    stays used on every extension.  Along a growing run a ``select`` folds
    in only the new suffix and tries O(1) candidates amortised, and the
    ``member`` call that checks its answer reads the same set, so a step
    on a ``Grown`` view costs O(1).  ``member`` tests a t that is neither a
    tuple nor a view with ``in`` instead, and it asks x once for the
    index of v (``index_or_none``), which also decides membership in x.
    """

    def fold(state: tuple, suffix: Sequence) -> tuple:
        used, stop = state
        used.update(suffix)
        return used, stop

    scan = SuffixFold(lambda: (set(), 0), fold)

    def member(t: Sequence, v: Code) -> bool:
        i = x.index_or_none(v)
        if i is None:
            return False
        # a list or range is never kept, so a set built from it would only
        # slow its own ``in`` test
        if v in (scan.fold_state(t)[0] if type(t) in (tuple, Grown) else t):
            return False
        return i % stride == 0 and (bound is None or i <= bound * len(t))

    def select(t: Sequence) -> Code:
        used, i = scan.fold_state(t)
        limit = None if bound is None else bound * len(t)
        while limit is None or i <= limit:
            c = x.enum(i)
            if c not in used:
                scan.keep(t, (used, i))
                return c
            i += stride
        raise BadSelector(f"no unused code of index <= {limit}")

    return ChoiceFunctional(f"{name}({x.name})", member, select, injective_mode=True)


def f_seq(x: CountableSet) -> ChoiceFunctional:
    """The canonical functional allowing exactly the unused elements of x."""
    return _fresh_functional(x, "seq")


def evens_functional(x: CountableSet) -> ChoiceFunctional:
    """Allows unused codes with even enumeration index."""
    return _fresh_functional(x, "evens", stride=2)


def bounded_functional(x: CountableSet) -> ChoiceFunctional:
    """Allows unused codes of index at most twice the current length."""
    return _fresh_functional(x, "bounded", bound=2)


def const_functional(x: CountableSet) -> ChoiceFunctional:
    """The constant singleton: only the first code is ever allowed."""
    c = x.enum(0)
    return ChoiceFunctional(f"const({x.name})",
                            lambda t, v: v == c,
                            lambda t: c,
                            injective_mode=False)


def cycle_functional(x: CountableSet, period: int) -> ChoiceFunctional:
    """Forces the codes 0..period-1 cyclically; repetitions from step period on."""
    return ChoiceFunctional(f"cycle{period}({x.name})",
                            lambda t, v: v == x.enum(len(t) % period),
                            lambda t: x.enum(len(t) % period),
                            injective_mode=False)


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
    """True iff every value of t is allowed by f on the values before it.

    The restrictions are ``Grown`` views of one copy of t, so each is
    built in O(1) and f's resumable oracles fold each value once.
    """
    buf = list(t)
    return all(f.member(Grown(buf, i), v) for i, v in enumerate(buf))


def t_of_f(x: CountableSet, f: ChoiceFunctional) -> PosetPresentation:
    """The sub-poset of injective sequences whose every step obeys f."""
    if not f.injective_mode:
        raise ValueError(f"{f.name} does not preserve injectivity")
    return sequence_tree(f"T({f.name})", lambda t: in_tree(f, t),
                         prefix_enumeration(x, f.member))


def tree_level_family(f: ChoiceFunctional, n: int) -> Sequence[DenseSet]:
    """Length-target dense goals whose extenders iterate the functional's select.

    A ``length_levels`` rule: O(1) to build, goal i made when it is read.
    Each value is appended with ``grow``, so along a run the condition is
    one ``Grown`` view extended in place.
    """

    def append(t: Sequence, k: int) -> Sequence:
        for _ in range(k):
            v = f.select(t)
            if not f.member(t, v):
                raise BadSelector(
                    f"select of {f.name} returned non-member {v!r}",
                    position=len(t))
            t = grow(t, (v,))
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
    density argument for length levels below t.  Whether s is a proper
    restriction of t is a ``SuffixFold`` of s, so along a growing run each
    call compares only the new values with t.
    """
    t = tuple(t)
    if not in_tree(f, t):
        raise NotInTree(f"{t!r} does not obey {f.name}")

    def fold(state: tuple, suffix: Sequence) -> tuple:
        k, agrees = state
        end = k + len(suffix)
        return end, agrees and t[k:end] == tuple(suffix)

    restriction = SuffixFold(lambda: (0, True), fold)

    def forced_at(s: Sequence) -> Optional[int]:
        k, agrees = restriction.fold_state(s)
        return k if agrees and k < len(t) else None

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
    from .ordinals import cantor_pair, cantor_unpair  # here: dc-run loads no ordinals

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


def _marker_walk(u: Sequence, counts: dict) -> bool:
    """Add u's bases to ``counts`` (base -> occurrences so far).

    False, with ``counts`` left part-way, unless every element of u is a
    MarkedElement carrying its base's count up to it.
    """
    if not all(isinstance(m, MarkedElement) for m in u):
        return False
    for m in u:
        n = counts.get(m.base, 0)
        if m.marker != n:
            return False
        counts[m.base] = n + 1
    return True


def _marker_tracker() -> SuffixFold:
    """``marks(u)``: (bases of u, base -> occurrences, ok), where ok says
    u's markers are its true occurrence counts.

    A ``SuffixFold`` whose fold walks the new suffix with ``_marker_walk``
    into a dict and a ``Grown`` view of bases.  Markers that are wrong on
    a prefix stay wrong on every extension, so a wrong state folds to
    itself.
    """

    def fold(state: tuple, suffix: Sequence) -> tuple:
        bases, counts, ok = state
        if not (ok and _marker_walk(suffix, counts)):
            return (), counts, False
        return grow(bases, [m.base for m in suffix]), counts, True

    return SuffixFold(lambda: ((), {}, True), fold)


def marker_reduction(x: CountableSet, f: ChoiceFunctional) -> ChoiceFunctional:
    """Lift a repetition-allowing functional to an injective one over marked pairs.

    On a sequence whose markers record true occurrence counts, the allowed
    pairs are the f-allowed bases marked with their current count; anything
    else falls back to the fresh-pair functional of the marked set.  The
    count of a newly allowed base always exceeds every marker it carries so
    far, so witnesses never repeat a pair.

    Cost: the marker state of the last sequence seen is kept (see
    ``_marker_tracker``), so along a growing run a ``member`` or ``select``
    call walks only the new suffix.  f sees one ``Grown`` view of the
    bases, grown in place, and a step costs O(1).
    """
    product_seq = f_seq(marked_set(x))
    marks = _marker_tracker().fold_state

    def member(u: Sequence, v: Code) -> bool:
        if not isinstance(v, MarkedElement):
            return False
        bases, counts, ok = marks(u)
        if not ok:
            return product_seq.member(u, v)
        return f.member(bases, v.base) and v.marker == counts.get(v.base, 0)

    def select(u: Sequence) -> Code:
        bases, counts, ok = marks(u)
        if not ok:
            return product_seq.select(u)
        b = f.select(bases)
        return MarkedElement(b, counts.get(b, 0))

    return ChoiceFunctional(f"marked({f.name})", member, select, injective_mode=True)


def unmark(g: Sequence) -> tuple:
    """First projection: drop the markers."""
    return tuple(m.base for m in g)


def witness_json(f: ChoiceFunctional, values: Sequence,
                 markers: "Sequence[int] | None" = None) -> dict:
    doc = {"functional": f.name, "length": len(values),
           "values": _jsonable(tuple(values))}
    if markers is not None:
        doc["markers"] = list(markers)
    return doc
