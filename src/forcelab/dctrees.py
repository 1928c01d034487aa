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
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .collapse import CountableSet, length_levels, prefix_enumeration, sequence_tree
from .errors import BadSelector, NotInTree
from .posets import (Code, DenseSet, Grown, PosetPresentation, SuffixFold, _jsonable, grow,
                     rasiowa_sikorski)
from .records import Record

_base = attrgetter("base")
_new, _set_field = object.__new__, object.__setattr__  # a value built with no __init__ frame


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

    Its state is a ``SuffixFold`` of t into the set of codes t uses, the
    index where the last scan stopped and the code there: every candidate
    below it is used, and stays used on every extension.  Along a growing
    run a ``select`` folds in only the new suffix and draws one code (the
    one it named last is kept), and the ``member`` call that checks its
    answer reads the same set, so a step on a ``Grown`` view costs O(1).
    ``member`` tests a t that is neither a tuple nor a view with ``in``
    instead, and it asks x's ``index`` once for v (``index_or_none``),
    which decides membership in x as well.
    """

    def fold(state: list, suffix: Sequence) -> list:
        state[0].update(suffix)
        return state

    scan = SuffixFold(lambda: [set(), 0, x.enum(0)], fold)

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
        state = scan.fold_state(t)
        used, i, c = state
        while c in used:  # t is finite, so some candidate is unused
            i += stride
            c = x.enum(i)
        if bound is not None and i > bound * len(t):
            raise BadSelector(f"no unused code of index <= {bound * len(t)}")
        state[1:] = i, c  # t's own state, so the next call starts here
        return c

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
    codes = [x.enum(i) for i in range(period)]  # drawn once, not on every call
    return ChoiceFunctional(f"cycle{period}({x.name})",
                            lambda t, v: v == codes[len(t) % period],
                            lambda t: codes[len(t) % period],
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

    Each restriction is the one before it grown by a value, so all are
    views of one buffer and f's resumable oracles fold each value once.
    """
    u = grow((), ())
    for v in t:
        if not f.member(u, v):
            return False
        u = grow(u, (v,))
    return True


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

class MarkedElement(Record):
    """An element code paired with how many times it already occurred."""

    __slots__ = ("base", "marker")
    base: Code
    marker: int


def marked_set(x: CountableSet) -> CountableSet:
    """The product of x with the naturals, diagonally enumerated; a
    marker is an ``int`` (not a ``bool``), as a built-in set's codes are."""
    from .ordinals import cantor_pair, cantor_unpair  # here: dc-run loads no ordinals

    def enum(n: int) -> MarkedElement:
        a, b = cantor_unpair(n)
        return MarkedElement(x.enum(a), b)

    def index(v) -> Optional[int]:
        if not (isinstance(v, MarkedElement) and type(v.marker) is int and v.marker >= 0):
            return None
        a = x.index_or_none(v.base)
        return None if a is None else cantor_pair(a, v.marker)

    return CountableSet(f"{x.name}*w", enum, index=index)


def _marker_tracker() -> SuffixFold:
    """``marks(u)``: (bases of u, base -> occurrences, ok), where ok says
    u's markers are its true occurrence counts.

    A ``SuffixFold`` whose fold walks the new suffix into a dict and a
    ``Grown`` view of bases; on the first element that is no
    ``MarkedElement`` carrying its base's count so far it gives up, with
    the dict left part-way.  Markers that are wrong on a prefix stay wrong
    on every extension, so a wrong state folds to itself.
    """

    def fold(state: tuple, suffix: Sequence) -> tuple:
        bases, counts, ok = state
        for m in suffix if ok else ():
            if not isinstance(m, MarkedElement) or m.marker != counts.get(m.base, 0):
                return (), counts, False
            counts[m.base] = counts.get(m.base, 0) + 1
        return (grow(bases, map(_base, suffix)), counts, True) if ok else state

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
    bases, grown in place, and a step costs O(1); the ``MarkedElement``
    that ``select`` names is built past its ``__init__``, with no frame.
    """
    product_seq = f_seq(marked_set(x))
    marks = _marker_tracker().fold_state

    def member(u: Sequence, v: Code) -> bool:
        if not isinstance(v, MarkedElement):
            return False
        bases, counts, ok = marks(u)
        if not ok:
            return product_seq.member(u, v)
        return (f.member(bases, v.base) and type(v.marker) is int
                and v.marker == counts.get(v.base, 0))

    def select(u: Sequence) -> Code:
        bases, counts, ok = marks(u)
        if not ok:
            return product_seq.select(u)
        b, m = f.select(bases), _new(MarkedElement)
        _set_field(m, "base", b)
        _set_field(m, "marker", counts.get(b, 0))
        return m

    return ChoiceFunctional(f"marked({f.name})", member, select, injective_mode=True)


def unmark(g: Sequence) -> tuple:
    """First projection: drop the markers."""
    return tuple(map(_base, g))


def witness_json(f: ChoiceFunctional, values: Sequence,
                 markers: "Sequence[int] | None" = None) -> dict:
    doc = {"functional": f.name, "length": len(values),
           "values": _jsonable(tuple(values))}
    if markers is not None:
        doc["markers"] = list(markers)
    return doc
