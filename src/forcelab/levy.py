"""Lifting dependent choice through a singular limit.

A witness of limit length is assembled block by block along a cofinal
ladder: block xi has the order type of the ladder interval and is produced
by a block builder from the concatenated earlier blocks.  Freshness over an
infinite prefix is decided structurally: the construction records which
enumeration indices each block consumes, finite blocks as explicit index
sets and infinite blocks as an "every other fresh index" layer, which keeps
infinitely many indices free for later blocks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, sub
from typing import Any, Callable, Optional, Sequence

from . import ordinals
from .collapse import CountableSet
from .errors import (
    BadBlock,
    BadBlockWitness,
    BadCofinal,
    OutOfDomain,
    RangeNotDecidable,
)
from .ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    TransfiniteSeq,
    ord_add,
    ord_of,
    ord_sub_left,
)
from .records import Record

# A value class's fields are written past its refusing ``__setattr__``; per-block
# values are built with no ``__init__`` frame at all, as ``Ordinal._of`` builds
# an Ordinal, since no ``__init__`` here checks anything.
_new, _set_field = object.__new__, object.__setattr__


# ---------------------------------------------------------------------------
# structural bookkeeping of consumed enumeration indices
# ---------------------------------------------------------------------------


def _free_below(taken: tuple) -> list:
    """For each run of ``taken``, the naturals below its start that no run takes."""
    return list(accumulate(map(sub, taken[::2], (0,) + taken[1::2])))


def _skip_taken(taken: tuple, n: int, free: Optional[list] = None) -> int:
    """The n-th (from 0) natural outside the runs ``taken``, by bisection over
    ``free``, ``_free_below(taken)``, which a caller asking many n passes."""
    if len(taken) <= 2:  # at most one run: no prefix sums to build
        return n + taken[1] - taken[0] if taken and n >= taken[0] else n
    free = _free_below(taken) if free is None else free
    j = bisect_right(free, n)  # the runs below the answer, the last ending at taken[2j - 1]
    return n + taken[2 * j - 1] - free[j - 1] if j else n


def _rank_outside(taken: tuple, k: int) -> Optional[int]:
    """Rank of k among the naturals outside the runs ``taken``, the inverse
    of ``_skip_taken``; None when a run holds k."""
    i = bisect_right(taken, k)
    if i & 1:
        return None
    return k - (sum(taken[1:i:2]) - sum(taken[:i:2]))


class OmegaLayer:
    """The even-ranked fresh indices over a base usage: an infinite block's
    consumption that still leaves infinitely many indices free.  ``below``
    maps the naturals onto the level space above it, bottom up: each
    ``(runs, d)`` drops the ranks in ``runs``, keeps those whose low d bits
    are all ones and shifts them right by d (d layers with no runs between).
    A lookup costs O(levels with runs * runs), O(1) interpreted steps on
    the standard ladders, where ``below`` is one pair.  ``below`` determines
    the base, so layers compare and hash by it: one flat tuple, with no
    walk down the chain of layers.
    """

    def __init__(self, base: "IndexUsage"):
        self.base = base
        below = base.layer.below if base.layer is not None else ()
        if below and not base.taken:
            self.below = below[:-1] + ((below[-1][0], below[-1][1] + 1),)
        else:
            self.below = below + ((base.taken, 1),)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaLayer):
            return NotImplemented
        return self.below == other.below

    def __hash__(self) -> int:
        return hash(self.below)

    def contains(self, k: int) -> bool:
        rank = self.base.fresh_rank(k)
        return rank is not None and rank % 2 == 0

    def nth_index(self, j: int) -> int:
        """Enumeration index of the layer's j-th element (the 2j-th fresh)."""
        return self.base.nth_fresh(2 * j)


class IndexUsage(Record, defaults=(None, ())):
    """A decidable set of consumed enumeration indices.

    The fresh indices are the odd-ranked fresh indices of ``layer.base``
    (every natural without a layer) minus those whose rank among them lies
    in ``taken``: the bounds ``(start, stop, start, stop, ...)`` of sorted,
    disjoint, non-adjacent half-open runs of ranks.  The runs are
    canonical, so usages equal as sets compare equal.  A greedy run of
    finite blocks extends one run, so a usage costs O(runs) memory and a
    rank costs O(levels with runs * runs) C-level sums, no scan: O(1)
    interpreted steps on the standard ladders, through ``layer.below``.
    """

    __slots__ = ("layer", "taken")
    layer: Optional[OmegaLayer]
    taken: tuple

    def _level_rank(self, k: int) -> Optional[int]:
        """Rank of k in the space ``taken`` counts in, ``layer.below``'s
        image (every natural without a layer); None outside that space."""
        for runs, d in self.layer.below if self.layer is not None else ():
            if runs:
                k = _rank_outside(runs, k)
            if k is None or ~k & ((1 << d) - 1):  # in a run, or a layer above takes k
                return None
            k >>= d
        return k

    def fresh_rank(self, k: int) -> Optional[int]:
        """Position of k among the fresh indices, or None when k is consumed."""
        k = self._level_rank(k)
        if k is None or not self.taken:
            return k
        return _rank_outside(self.taken, k)

    def nth_fresh(self, n: int = 0) -> int:
        """The n-th (from 0) fresh index in increasing order; the least by default."""
        if self.taken:
            n = _skip_taken(self.taken, n)
        for runs, d in reversed(self.layer.below) if self.layer is not None else ():
            n = n << d | ((1 << d) - 1)
            if runs:
                n = _skip_taken(runs, n)
        return n

    least_fresh = nth_fresh

    def contains(self, k: int) -> bool:
        """Whether k is consumed: outside the level space, or in a run."""
        k = self._level_rank(k)
        return k is None or bisect_right(self.taken, k) & 1 == 1

    def with_fresh(self, ranks) -> "IndexUsage":
        """Also consume the fresh indices at the given fresh ranks."""
        free = _free_below(self.taken)  # once per call, not once per rank
        return self._with_level_ranks({_skip_taken(self.taken, r, free) for r in ranks})

    def with_explicit(self, indices) -> "IndexUsage":
        """Also consume the given indices; consumed ones are ignored."""
        taken = self.taken
        added = set()
        for k in indices:
            r = self._level_rank(k)
            if r is not None and not bisect_right(taken, r) & 1:
                added.add(r)
        return self._with_level_ranks(added)

    def _with_level_ranks(self, added: set) -> "IndexUsage":
        """Also take the given ranks of the level space, none in a run.

        A single rank that continues the last run extends it, O(1) tuple
        work.  Otherwise each rank is a run [k, k + 1); where it meets a
        run, the shared bound occurs twice, so the bounds that occur once
        are the merged runs.
        """
        if not added:
            return self
        taken = self.taken
        if len(added) == 1 and taken and taken[-1] in added:
            taken = taken[:-1] + (taken[-1] + 1,)
        else:
            taken = tuple(sorted(set(taken) ^ added ^ {k + 1 for k in added}))
        usage = _new(IndexUsage)
        _set_field(usage, "layer", self.layer)
        _set_field(usage, "taken", taken)
        return usage

    def with_layer(self, layer: OmegaLayer) -> "IndexUsage":
        """Also consume an omega layer, which must lie over this usage."""
        if layer.base != self:
            raise ValueError("an omega layer must lie over the usage it extends")
        return IndexUsage(layer)


_EMPTY_USAGE = IndexUsage()


class UsageSeq(TransfiniteSeq, defaults=(_EMPTY_USAGE,)):
    """A transfinite sequence that knows which enumeration indices it uses."""

    __slots__ = ("usage",)
    usage: IndexUsage


# ---------------------------------------------------------------------------
# functionals on transfinite sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransfiniteFunctional:
    """A choice oracle on transfinite sequences: membership plus a select witness."""

    name: str
    member: Callable[[Any, Any], bool]
    select: Callable[[Any], Any]
    set: Optional[CountableSet] = None


def transfinite_f_seq(x: CountableSet) -> TransfiniteFunctional:
    """Allows exactly the codes not in the range of the argument sequence.

    Range membership is decided through the sequence's usage record.  A
    finite sequence without one is recorded by the indices of its codes;
    codes outside x consume no index.
    """

    def recorded(seq) -> IndexUsage:
        """The usage of a sequence without a usage record (a usage is never
        falsy, so ``or`` asks this only of such a sequence)."""
        if seq.length.is_finite():
            indices = (x.index_or_none(seq.at(i)) for i in range(seq.length.to_int()))
            return IndexUsage().with_explicit(i for i in indices if i is not None)
        raise RangeNotDecidable(
            f"sequence of length {seq.length} carries no usage record")

    def member(seq, v) -> bool:
        usage = getattr(seq, "usage", None) or recorded(seq)
        i = x.index_or_none(v)
        return i is not None and not usage.contains(i)

    def select(seq):
        return x.enum((getattr(seq, "usage", None) or recorded(seq)).least_fresh())

    return TransfiniteFunctional(f"seq({x.name})", member, select, set=x)


# ---------------------------------------------------------------------------
# cofinal ladders
# ---------------------------------------------------------------------------


class CofinalPresentation(Record):
    """An increasing ladder of length w starting at 0 with supremum alpha:
    ``stage(n)`` is its n-th stage, for every natural n."""

    __slots__ = ("alpha", "stage")
    alpha: Ordinal
    stage: Callable[[int], Ordinal]


def standard_cofinal(alpha: Ordinal) -> CofinalPresentation:
    """The canonical ladder: limit boundaries first, then single steps.

    Supports the limits whose ladders need only finite and w-length blocks:
    alpha = w*k walks 0, w, ..., w*(k-1) and then counts on, and
    alpha = w^2 walks the multiples of w.
    """
    if not alpha.is_limit():
        raise BadCofinal(f"{alpha} is not a limit ordinal")
    if alpha.terms == ((2, 1),):
        k = None
    elif len(alpha.terms) == 1 and alpha.terms[0][0] == 1:
        k = alpha.terms[0][1]
    else:
        raise BadCofinal(
            f"no ladder with finite-or-w blocks reaches {alpha}")

    def stage(n: int) -> Ordinal:
        # w*m + (n - m), where m stops at k - 1 under w*k
        m = n if k is None else min(n, k - 1)
        return Ordinal._of(((1, m),) * (m > 0) + ((0, n - m),) * (n > m))

    return CofinalPresentation(alpha, stage)


def _stage(cof: CofinalPresentation, n: int) -> Ordinal:
    """Stage n of the ladder, or ``BadCofinal`` naming n if it is no ``Ordinal``."""
    if isinstance(xi := cof.stage(n), Ordinal):
        return xi
    raise BadCofinal(f"stage {n} is {xi!r}, not an Ordinal")


def validate_cofinal(cof: CofinalPresentation) -> list[Ordinal]:
    """Check ladder invariants on the first ``_VALIDATE_STAGES`` stages; return those."""
    stages = [_stage(cof, 0)]
    if not stages[0].is_zero():
        raise BadCofinal("ladder must start at 0")
    for xi in range(1, _VALIDATE_STAGES + 1):
        prev, cur = stages[-1], _stage(cof, xi)
        if not prev < cur:
            raise BadCofinal(f"ladder not strictly increasing at {xi}")
        if not cur < cof.alpha:
            raise BadCofinal(f"stage {xi} reaches {cof.alpha}")
        gamma = ord_sub_left(prev, cur)
        if not (gamma.is_finite() or gamma == OMEGA):
            raise BadCofinal(f"block {xi - 1} has length {gamma}, not finite or w")
        stages.append(cur)
    return stages


# ---------------------------------------------------------------------------
# block builders
# ---------------------------------------------------------------------------


class BuiltBlock(Record, defaults=(None, None)):
    """A block plus the bookkeeping to restrict or extend its usage."""

    __slots__ = ("seq", "usage_after", "indices", "layer")
    seq: TransfiniteSeq
    usage_after: IndexUsage    # usage of prefix + this whole block
    indices: Optional[tuple]   # finite block: consumed indices in order
    layer: Optional[OmegaLayer]

    def partial_usage(self, offset: int, base: IndexUsage) -> IndexUsage:
        if self.indices is not None:
            return base.with_explicit(self.indices[:offset])
        # the layer's j-th element is the base's fresh index of rank 2j;
        # over a base without runs these are the runs [2j, 2j + 1), whose
        # bounds are 0, 1, ..., 2 * offset - 1
        if not base.taken:
            return IndexUsage(base.layer, tuple(range(2 * offset)))
        return base.with_fresh(range(0, 2 * offset, 2))


def standard_block_builder(x: CountableSet) -> Callable:
    """Block builder for freshness functionals over x.

    Finite blocks iterate the functional's select greedily.  Blocks of
    length w instead take every other fresh index: a greedy infinite block
    would exhaust a countable presentation and leave nothing for the later
    blocks, while the alternating choice is still a block of allowed values.
    """

    def build(gamma: Ordinal, f: TransfiniteFunctional,
              prefix: TransfiniteSeq) -> BuiltBlock:
        usage = getattr(prefix, "usage", None)
        if usage is None:
            raise RangeNotDecidable(
                "standard builder needs a prefix with a usage record")
        if not gamma.terms or not gamma.terms[0][0]:  # finite: () or ((0, n),)
            n = gamma.terms[0][1] if gamma.terms else 0
            values, indices, cur = [], [], usage
            if n > 1:  # later values see the prefix, then the values so far
                plen = prefix.length

                def splice(pos: Ordinal):
                    return (prefix.at(pos) if pos < plen
                            else values[ord_sub_left(plen, pos).to_int()])

            for j in range(n):
                working = (UsageSeq(ord_add(prefix.length, Ordinal.from_int(j)),
                                    splice, usage=cur) if j else prefix)
                values.append(f.select(working))
                indices.append(x.index_of(values[-1]))
                cur = cur.with_explicit(indices[-1:])
            items, seq, block = tuple(values), _new(TransfiniteSeq), _new(BuiltBlock)
            _set_field(seq, "length", gamma)  # a block over the values, of length gamma
            _set_field(seq, "evaluator", lambda p: items[p.to_int()])
            _set_field(block, "seq", seq)
            _set_field(block, "usage_after", cur)
            _set_field(block, "indices", tuple(indices))
            _set_field(block, "layer", None)
            return block
        if gamma == OMEGA:
            layer = OmegaLayer(usage)
            seq = TransfiniteSeq(OMEGA, lambda j: x.enum(layer.nth_index(j.to_int())))
            return BuiltBlock(seq, usage.with_layer(layer), layer=layer)
        raise BadBlock(f"block length {gamma} unsupported (finite or w only)")

    return build


_terms = attrgetter("terms")
_OMEGA_BLOCK_PROBES = (0, 1, 2, 5, 13)
_FINITE_CHECK_CAP = 64
_VALIDATE_STAGES = 50


# ---------------------------------------------------------------------------
# the lifted witness
# ---------------------------------------------------------------------------


class LiftedWitness:
    """A length-alpha sequence built block by block along a cofinal ladder.

    The ladder's checked stages start the lift's one stage list.  Blocks
    are constructed lazily but strictly in order; every finished block is
    verified to have the ladder's order type and to satisfy the functional
    at sampled positions.  Restrictions carry the usage record of exactly
    the consumed prefix.
    """

    def __init__(self, cof: CofinalPresentation, f: TransfiniteFunctional,
                 builder: Callable):
        self.cof = cof
        self.functional = f
        self.builder = builder
        self.length = cof.alpha
        self._blocks: list[BuiltBlock] = []
        self._stages = validate_cofinal(cof)  # ladder stages computed so far
        self._next_prefix = UsageSeq(self._stages[0], self.at, usage=IndexUsage())
        self._last_located: tuple = (None, None)  # terms of a position, its locate

    # -- block construction -------------------------------------------

    def _grow_stages(self, pos: Optional[Ordinal] = None,
                     block: Optional[int] = None) -> None:
        """Evaluate ladder stages into ``self._stages``, the one stage list
        of the lift, until the last lies past ``pos``, or until block
        ``block`` has its end stage."""
        stages = self._stages
        while (not pos.terms < stages[-1].terms if block is None
               else len(stages) <= block + 1):
            if len(stages) > ordinals._SCAN_CAP + 1:
                raise BadCofinal("ladder never passes " + (
                    str(pos) if block is None else f"the end of block {block}"))
            stages.append(_stage(self.cof, len(stages)))

    def _block(self, xi: int) -> BuiltBlock:
        stages = self._stages
        for nxt in range(len(self._blocks), xi + 1):  # each turn appends a block or raises
            if len(stages) <= nxt + 1:
                self._grow_stages(block=nxt)
            # the order type of block nxt, between its two stages
            gamma = ord_sub_left(stages[nxt], stages[nxt + 1])
            prefix = self._next_prefix
            block = self.builder(gamma, self.functional, prefix)
            if not isinstance(block, BuiltBlock):
                raise BadBlock("builder must return a BuiltBlock")
            length = block.seq.length
            if length is not gamma and length != gamma:
                raise BadBlock(f"block {nxt} has length {length}, expected {gamma}")
            if block.layer is not None and block.layer.base != prefix.usage:
                raise BadBlock(f"block {nxt} has a layer over a foreign usage")
            after = _new(UsageSeq)
            _set_field(after, "length", stages[nxt + 1])
            _set_field(after, "evaluator", self.at)
            _set_field(after, "usage", block.usage_after)
            self._blocks.append(block)  # the functional may read the block's values
            try:
                self._verify_block(nxt, block, prefix, after)
            except BaseException:
                self._blocks.pop()  # a refused block is never served
                raise
            self._next_prefix = after
        return self._blocks[xi]

    def _verify_block(self, xi: int, block: BuiltBlock, prefix: UsageSeq,
                      after: UsageSeq) -> None:
        """Each probed value must be allowed before its offset and refused
        after the block; a finite block's indices must add up to its usage,
        since restrictions inside the block read them."""
        gamma = block.seq.length
        base, member = prefix.usage, self.functional.member
        n = None if gamma.terms and gamma.terms[0][0] else gamma.to_int()  # None: infinite
        for j in _OMEGA_BLOCK_PROBES if n is None else range(min(n, _FINITE_CHECK_CAP)):
            working = (UsageSeq(ord_add(prefix.length, Ordinal.from_int(j)), self.at,
                                usage=block.partial_usage(j, base)) if j else prefix)
            value = block.seq.at(j)
            if not member(working, value):
                raise BadBlockWitness(f"block {xi} value at offset {j} is not allowed",
                                      position=str(working.length))
            if member(after, value):
                raise BadBlock(f"block {xi} value at offset {j} is still allowed "
                               f"after the block, at {after.length}")
        if n is not None and block.partial_usage(n, base) != after.usage:
            raise BadBlock(f"block {xi} reports indices that disagree with its usage")

    # -- sequence interface ---------------------------------------------

    def at(self, pos) -> Any:
        xi, offset = self.locate(pos)
        return self._block(xi).seq.at(offset)

    def locate(self, pos) -> tuple[int, Ordinal]:
        """Block index and offset of a position; below the furthest ladder
        stage computed so far, a bisection with no new ``stage`` call.  The
        last answer is kept, so a value and its sample check locate once."""
        p = ord_of(pos)
        if p.terms == self._last_located[0]:
            return self._last_located[1]
        if not p < self.length:
            raise IndexError(f"position {p} not below {self.length}")
        stages = self._stages
        if not p.terms < stages[-1].terms:
            self._grow_stages(p)
        # Ordinals compare as their terms; comparing those is done in C
        xi = bisect_right(stages, p.terms, key=_terms) - 1
        self._last_located = p.terms, (xi, ord_sub_left(stages[xi], p))
        return self._last_located[1]

    def usage_at(self, pos) -> IndexUsage:
        """Usage record of the restriction to positions below pos."""
        xi, offset = self.locate(pos)
        block = self._block(xi)
        base = self._blocks[xi - 1].usage_after if xi else IndexUsage()
        return block.partial_usage(offset.to_int(), base)

    def restrict(self, length) -> UsageSeq:
        l = ord_of(length)
        if self.length < l:
            raise IndexError(f"cannot restrict length {self.length} to {l}")
        if l == self.length:
            raise RangeNotDecidable(
                "the full witness has no single usage record; restrict below a stage")
        return UsageSeq(l, self.at, usage=self.usage_at(l))

    def block_lengths(self, upto: int) -> list[Ordinal]:
        return [self._block(xi).seq.length for xi in range(upto)]

    def default_samples(self) -> list[Ordinal]:
        """0, a mid-block point, the first five ladder boundaries, and the
        two least limit ordinals below alpha when they exist, read off the
        stages the lift has evaluated, so the ladder is not asked again."""
        stages, samples = self._stages, {ZERO}
        gamma0 = ord_sub_left(stages[0], stages[1])
        if gamma0 == OMEGA:
            samples.add(Ordinal.from_int(3))
        elif gamma0.to_int() >= 2:
            samples.add(Ordinal.from_int(gamma0.to_int() // 2))
        for stage in stages[1:6]:
            if stage < self.length:
                samples.add(stage)
        for k in (1, 2):
            limit = Ordinal.omega(k)
            if limit < self.length:
                samples.add(limit)
        return sorted(samples)


def levy_lift(cof: CofinalPresentation, f: TransfiniteFunctional,
              builder: Optional[Callable] = None) -> LiftedWitness:
    """Assemble a witness of length alpha from block witnesses on the ladder.

    Block xi is builder(gamma_xi, f, concatenation of the earlier blocks);
    the result evaluates anywhere below alpha and satisfies the functional
    at every position the verifier samples.
    """
    if builder is None:
        if f.set is None:
            raise ValueError(
                f"{f.name} names no countable set; pass a builder explicitly")
        builder = standard_block_builder(f.set)
    return LiftedWitness(cof, f, builder)


def _sample_ok(f: TransfiniteFunctional, g, beta) -> bool:
    """True iff g(beta) is allowed by f after g's restriction to beta."""
    b = ord_of(beta)
    if not b < g.length:
        raise OutOfDomain(f"sample {b} not below length {g.length}")
    return bool(f.member(g.restrict(b), g.at(b)))


def check_transfinite_witness(f: TransfiniteFunctional, g,
                              samples: Sequence) -> bool:
    """True iff g(beta) is allowed by f after g's restriction, at every sample."""
    return all(_sample_ok(f, g, beta) for beta in samples)


def sample_report(f: TransfiniteFunctional, g,
                  samples: Sequence) -> list[dict]:
    return [{"beta": str(ord_of(beta)), "ok": _sample_ok(f, g, beta)}
            for beta in samples]


def run_report_json(cof: CofinalPresentation, f: TransfiniteFunctional,
                    g: LiftedWitness, blocks: int,
                    samples: Sequence) -> dict:
    return {
        "alpha": str(cof.alpha),
        "blocks": [{"xi": i, "gamma": str(b)} for i, b in enumerate(g.block_lengths(blocks))],
        "samples": sample_report(f, g, samples),
    }
