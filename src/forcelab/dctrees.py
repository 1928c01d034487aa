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

from .collapse import CountableSet, extends, length_levels, prefix_enumeration, prefixes
from .errors import BadSelector, NotInTree
from .ordinals import cantor_pair, cantor_unpair
from .posets import Code, DenseSet, PosetPresentation, rasiowa_sikorski


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


def f_seq(x: CountableSet) -> ChoiceFunctional:
    """The canonical functional allowing exactly the unused elements of x.

    ``member`` is one ``index_of`` call plus, under ``operator.eq``, a
    C-level ``not in`` scan of t.  ``select`` resumes its scan at the index
    it returned last when t extends the tuple it was last called on, since
    a longer sequence only uses more codes; otherwise it scans from 0.
    Along a growing run a step therefore costs O(1) interpreted work (two
    amortised ``enum`` calls) on top of C-level O(len t) set and compare
    work.
    """

    def member(t: Sequence, v: Code) -> bool:
        if x.eq is operator.eq:
            return x.contains(v) and v not in t
        return x.contains(v) and not any(x.eq(v, c) for c in t)

    last: list = [(), 0]  # the last tuple select saw and the index it returned

    def select(t: Sequence) -> Code:
        used = set(t)
        i = last[1] if extends(t, last[0]) else 0
        while x.enum(i) in used:
            i += 1
        if type(t) is tuple:
            last[0], last[1] = t, i
        return x.enum(i)

    return ChoiceFunctional(f"seq({x.name})", member, select, injective_mode=True)


def evens_functional(x: CountableSet) -> ChoiceFunctional:
    """Allows unused codes with even enumeration index."""

    def member(t: Sequence, v: Code) -> bool:
        if not x.contains(v) or v in t:
            return False
        return x.index_of(v) % 2 == 0

    def select(t: Sequence) -> Code:
        used = set(t)
        i = 0
        while x.enum(2 * i) in used:
            i += 1
        return x.enum(2 * i)

    return ChoiceFunctional(f"evens({x.name})", member, select, injective_mode=True)


def bounded_functional(x: CountableSet) -> ChoiceFunctional:
    """Allows unused codes of index at most twice the current length."""

    def member(t: Sequence, v: Code) -> bool:
        if not x.contains(v) or v in t:
            return False
        return x.index_of(v) <= 2 * len(t)

    def select(t: Sequence) -> Code:
        used = set(t)
        for i in range(2 * len(t) + 1):
            if x.enum(i) not in used:
                return x.enum(i)
        raise BadSelector(f"no unused code of index <= {2 * len(t)}")

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
    """True when u carries exactly the occurrence counts of its own bases."""
    if not all(isinstance(m, MarkedElement) for m in u):
        return False
    if x.eq is operator.eq:
        counts: dict = {}
        for m in u:
            if m.marker != counts.get(m.base, 0):
                return False
            counts[m.base] = counts.get(m.base, 0) + 1
        return True
    bases = [p.base for p in u]
    return all(m.marker == _occurrences(bases, m.base, i, x.eq)
               for i, m in enumerate(u))


def marker_reduction(x: CountableSet, f: ChoiceFunctional) -> ChoiceFunctional:
    """Lift a repetition-allowing functional to an injective one over marked pairs.

    On a sequence whose markers record true occurrence counts, the allowed
    pairs are the f-allowed bases marked with their current count; anything
    else falls back to the fresh-pair functional of the marked set.  The
    count of a newly allowed base always exceeds every marker it carries so
    far, so witnesses never repeat a pair.
    """
    product = marked_set(x)
    product_seq = f_seq(product)

    def member(u: Sequence, v: Code) -> bool:
        if not isinstance(v, MarkedElement):
            return False
        if _consistent_markers(x, u):
            bases = [p.base for p in u]
            return (f.member(bases, v.base)
                    and v.marker == _occurrences(bases, v.base, len(bases), x.eq))
        return product_seq.member(u, v)

    def select(u: Sequence) -> Code:
        if _consistent_markers(x, u):
            bases = [p.base for p in u]
            b = f.select(bases)
            return MarkedElement(b, _occurrences(bases, b, len(bases), x.eq))
        return product_seq.select(u)

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
