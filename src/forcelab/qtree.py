"""Subset-stage trees, their isomorphism with injective sequences, and
trees of strictly decreasing sequences from a lattice with the finite
predecessor property.

A subset-stage condition records, stage by stage, the set of values seen so
far; each stage adds exactly one new element.  Reading off the new element
per stage recovers the injective sequence, and both directions preserve the
extension order.  The image of an injective sequence keeps the sequence
itself and makes a stage only when one is read, so both directions take
O(L) work done in C.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .collapse import (CountableSet, InjSeq, _nonnegative, prefix_enumeration,
                       require_injective, sequence_tree)
from .errors import NotAQSeq, NotInLambda
from .posets import Code, PosetPresentation, _bits, _transpose, check_poset_laws, extends


class Stages(collections.abc.Sequence):
    """The subset stages of an injective sequence: stage i is
    ``frozenset(items[:i+1])``, made when it is read.

    The constructor checks the items with ``require_injective``, so a
    ``Stages`` is a valid stage sequence from the start and ``items`` reads
    the sequence back.  It compares and hashes as the tuple of frozensets
    it stands for; a slice is a tuple of frozensets.
    """

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Code]):
        self.items = tuple(items)
        require_injective(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        if type(i) is slice:
            return tuple(map(self.__getitem__, range(len(self.items))[i]))
        self.items[i]  # raises as the same index into a tuple would
        return frozenset(self.items[:i % len(self.items) + 1])

    def __eq__(self, other) -> bool:
        if isinstance(other, Stages):
            return self.items == other.items
        if not isinstance(other, tuple):
            return NotImplemented
        return len(other) == len(self.items) and tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class QSeq:
    """A finite sequence of finite sets, each adding exactly one new element.

    ``stages`` is a tuple of sets, or the ``Stages`` that ``coll_to_q``
    makes.
    """

    stages: Sequence


def validate_qseq(t: Sequence) -> None:
    """Raise unless every stage extends the previous by exactly one element.

    A ``Stages`` was checked when it was built.
    """
    q_to_coll(QSeq(t if type(t) is Stages else tuple(t)))


def coll_to_q(f: InjSeq) -> QSeq:
    """Stage i collects the first i+1 values of the injective sequence."""
    return QSeq(Stages(f.items))


def q_to_coll(t: QSeq) -> InjSeq:
    """Read off the unique new element of each stage.

    The stages of an image give back their items; other stages are
    checked one by one.
    """
    if type(t.stages) is Stages:
        return InjSeq(t.stages.items)
    values = []
    seen: frozenset = frozenset()
    for i, stage in enumerate(t.stages):
        if not isinstance(stage, collections.abc.Set):
            raise NotAQSeq(f"stage {i} is a {type(stage).__name__}, not a set",
                           stage=i)
        new = stage - seen
        if len(stage) != len(seen) + 1 or len(new) != 1:
            if not stage >= seen:
                raise NotAQSeq(f"stage {i} drops earlier elements", stage=i)
            raise NotAQSeq(f"stage {i} adds {len(new)} elements, not 1",
                           stage=i)
        values.append(next(iter(new)))
        seen = stage
    return InjSeq(tuple(values))


def q_extends(t_longer: QSeq, t_shorter: QSeq) -> bool:
    g, f = t_longer.stages, t_shorter.stages
    if type(g) is Stages and type(f) is Stages:
        return extends(g.items, f.items)
    return extends(g, f)


# ---------------------------------------------------------------------------
# strict lattices with the finite predecessor property
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeOracle:
    """A strict lattice presented by predicates and finite predecessor lists.

    ``lt(p, q)`` reads "p is strictly below q".  ``uppers(p)`` lists every
    element strictly above p and must be finite; ``has_lower`` returns some
    element strictly below its argument, so there are no minimal elements.
    ``meet`` and ``join`` may be partial.  ``enum`` (optional) enumerates
    the carrier so trees over the lattice can present their own carriers.
    """

    name: str
    carrier: Callable[[Code], bool]
    lt: Callable[[Code, Code], bool]
    meet: Callable[[Code, Code], Optional[Code]]
    join: Callable[[Code, Code], Optional[Code]]
    uppers: Callable[[Code], list]
    has_lower: Callable[[Code], Code]
    enum: Optional[Callable[[int], Code]] = None


def check_lattice(l: LatticeOracle, sample: Sequence[Code]) -> None:
    """Spot-check strictness, lattice laws, fpp lists and has_lower on a sample.

    Past irreflexivity, the order laws and the ``uppers`` lists are
    ``check_poset_laws`` on the order "equal or lt" over the sample, so
    every sample element must pass ``l.carrier`` and none may repeat.  Meets
    and joins must bound their arguments; the laws read bounds off its rows.
    """
    for a in sample:
        if l.lt(a, a):
            raise AssertionError(f"lt not irreflexive at {a!r}")
    leq = lambda a, b: a == b or l.lt(a, b)
    up = check_poset_laws(PosetPresentation(
        name=l.name, carrier=l.carrier, leq=leq,
        enum=sample.__getitem__, above=lambda a: [a, *l.uppers(a)]), len(sample))
    down = _transpose(up)
    for a in sample:
        if a in l.uppers(a):
            raise AssertionError(f"uppers({a!r}) lists {a!r} itself")
        if not l.lt(l.has_lower(a), a):
            raise AssertionError(f"has_lower({a!r}) not strictly below")
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            m, jn = l.meet(a, b), l.join(a, b)
            if m is not None and not (leq(m, a) and leq(m, b)):
                raise AssertionError(f"meet({a!r}, {b!r}) = {m!r} is not below both")
            if jn is not None and not (leq(a, jn) and leq(b, jn)):
                raise AssertionError(f"join({a!r}, {b!r}) = {jn!r} is not above both")
            lower = down[i] & down[j] if m is not None else 0
            upper = up[i] & up[j] if jn is not None else 0
            for k in _bits((lower | upper) & ~(1 << i | 1 << j)):
                r = sample[k]
                if lower >> k & 1 and not (r == m or l.lt(r, m)):
                    raise AssertionError(f"meet law fails at {a!r}, {b!r}, {r!r}")
                if upper >> k & 1 and not (jn == r or l.lt(jn, r)):
                    raise AssertionError(f"join law fails at {a!r}, {b!r}, {r!r}")


def lambda_tree(l: LatticeOracle) -> PosetPresentation:
    """The tree of finite strictly decreasing lattice sequences, by extension.

    Every sequence extends through ``has_lower``, so the tree order has no
    minimal elements.  Presentation enumeration requires the lattice to
    carry one.
    """

    def carrier(s: tuple) -> bool:
        return (all(l.carrier(v) for v in s)
                and all(l.lt(s[j + 1], s[j]) for j in range(len(s) - 1)))

    if l.enum is not None:
        enum = prefix_enumeration(l, lambda prefix, c: l.lt(c, prefix[-1]) if prefix else True)
    else:
        def enum(_n: int) -> Code:
            raise ValueError(f"lattice {l.name} carries no enumeration")

    return sequence_tree(f"tree({l.name})", carrier, enum)


def finite_subset_lattice(x: CountableSet) -> LatticeOracle:
    """Nonempty finite subsets of x under reverse proper inclusion.

    Strictly below means strictly larger as a set, so decreasing sequences
    grow; meet is union, join is intersection where nonempty.  Proper
    nonempty subsets make predecessor lists finite, and adding the next
    fresh code witnesses the absence of minimal elements.
    """

    asked: dict = {}  # code -> (the code object asked about, answer)

    def contains(v: Code) -> bool:
        # The stages of a sequence share their codes.  An equal code of
        # another type (True for 1) may get another answer, so only the
        # same object reuses one.
        hit = asked.get(v)
        if hit is None or hit[0] is not v:
            hit = asked[v] = (v, x.contains(v))
        return hit[1]

    def carrier(s: Code) -> bool:
        return isinstance(s, frozenset) and len(s) > 0 and all(map(contains, s))

    def lt(s: Code, t: Code) -> bool:
        return t < s  # proper subset, reversed

    def meet(s: Code, t: Code) -> Code:
        return s | t

    def join(s: Code, t: Code) -> Optional[Code]:
        common = s & t
        return common if common else None

    def uppers(s: Code) -> list:
        out = []
        items = sorted(s, key=x.index_of)
        for mask in range(1, (1 << len(items)) - 1):
            out.append(frozenset(v for i, v in enumerate(items) if mask >> i & 1))
        return out

    def has_lower(s: Code) -> Code:
        i = 0
        while x.enum(i) in s:
            i += 1
        return s | {x.enum(i)}

    def enum(n: int) -> Code:
        mask = _nonnegative(n) + 1  # skip the empty set
        return frozenset(x.enum(i) for i in range(mask.bit_length()) if mask >> i & 1)

    return LatticeOracle(
        name=f"finite-subsets({x.name})",
        carrier=carrier, lt=lt, meet=meet, join=join,
        uppers=uppers, has_lower=has_lower, enum=enum)


def q_into_lambda(x: CountableSet, t: QSeq) -> tuple:
    """A subset-stage condition, re-checked as a decreasing-sequence tree element.

    Stages grow strictly, which is exactly a strictly decreasing sequence in
    the reverse-inclusion lattice; the embedding is the identity, and an
    image comes back as the tuple of its stages.
    """
    tree = lambda_tree(finite_subset_lattice(x))
    stages = tuple(t.stages) if type(t.stages) is Stages else t.stages
    if not tree.carrier(stages):
        raise NotInLambda(f"stages {stages!r} are not strictly decreasing")
    return stages


def qseq_json(x: CountableSet, t: QSeq) -> dict:
    return {"stages": [sorted(stage, key=x.index_of) for stage in t.stages]}
