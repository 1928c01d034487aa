"""The rank helpers and block values of the Lévy lift, against the bodies
they replaced.

``_skip_taken`` built prefix sums over every run on each call; it now
answers a tuple of at most one run in closed form.  ``IndexUsage.contains``
asked ``fresh_rank``, which also ranks k among the runs; it now asks only
whether a run holds k's level rank.  ``least_fresh`` was ``nth_fresh(0)``
and is now ``nth_fresh`` with its default.  ``_with_level_ranks`` and the
standard builder made their values through the frozen ``__init__``s and
``TransfiniteSeq.from_items``.  The replaced bodies are kept here, verbatim
in behaviour, as test oracles only, and every answer must agree.
"""

import random
from bisect import bisect_right
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import levy
from forcelab.collapse import evens_set, nat_set
from forcelab.levy import (
    BuiltBlock,
    CofinalPresentation,
    IndexUsage,
    OmegaLayer,
    UsageSeq,
    levy_lift,
    standard_block_builder,
    standard_cofinal,
    transfinite_f_seq,
)
from forcelab.ordinals import OMEGA, Ordinal, TransfiniteSeq, ord_add, ord_sub_left, parse_cnf

# ---------------------------------------------------------------------------
# the replaced bodies
# ---------------------------------------------------------------------------


def skip_taken_reference(taken, n):
    free = list(accumulate(map(sub, taken[::2], (0,) + taken[1::2])))
    i = 2 * bisect_right(free, n)
    return n + sum(taken[1:i:2]) - sum(taken[:i:2])


def contains_reference(usage, k):
    return usage.fresh_rank(k) is None


def least_fresh_reference(usage):
    return usage.nth_fresh(0)


def with_level_ranks_reference(usage, added):
    if not added:
        return usage
    taken = usage.taken
    if len(added) == 1 and taken and taken[-1] in added:
        return IndexUsage(usage.layer, taken[:-1] + (taken[-1] + 1,))
    bounds = set(taken) ^ added ^ {k + 1 for k in added}
    return IndexUsage(usage.layer, tuple(sorted(bounds)))


def standard_block_builder_reference(x):
    def build(gamma, f, prefix):
        usage = prefix.usage
        if gamma.is_finite():
            values, indices, cur = [], [], usage
            plen = prefix.length

            def splice(pos):
                return (prefix.at(pos) if pos < plen
                        else values[ord_sub_left(plen, pos).to_int()])

            for j in range(gamma.to_int()):
                working = (UsageSeq(ord_add(prefix.length, Ordinal.from_int(j)),
                                    splice, usage=cur) if j else prefix)
                values.append(f.select(working))
                indices.append(x.index_of(values[-1]))
                cur = cur.with_explicit(indices[-1:])
            return BuiltBlock(TransfiniteSeq.from_items(values), indices=tuple(indices))
        layer = OmegaLayer(usage)
        seq = TransfiniteSeq(OMEGA, lambda j: x.enum(layer.nth_index(j.to_int())))
        return BuiltBlock(seq, layer=layer)

    return build


# ---------------------------------------------------------------------------
# canonical runs: sorted, disjoint, non-adjacent half-open runs
# ---------------------------------------------------------------------------


def runs_from(first, pieces):
    """Run bounds from a first start and (length, gap) pairs, gap >= 1."""
    bounds, start = [], first
    for length, gap in pieces:
        bounds += (start, start + length)
        start += length + gap
    return tuple(bounds)


piece = st.tuples(st.integers(1, 6), st.integers(1, 6))
few_runs = st.builds(runs_from, st.integers(0, 4), st.lists(piece, max_size=12))
rngs = st.integers(0, 2**32 - 1).map(random.Random)  # a seed: long draws cost no data


def many_runs(rnd, count):
    return runs_from(rnd.randrange(5), [(rnd.randint(1, 6), rnd.randint(1, 6))
                                        for _ in range(count)])


def probes(taken, rnd, count=150):
    """Ranks near the ends of some runs, the first and the last among them,
    and random ranks up to past the last run."""
    top = (taken[-1] if taken else 0) + 10
    ends = taken[:4] + taken[-4:] + tuple(rnd.sample(taken, min(len(taken), count // 4)))
    near = {b + e for b in ends for e in (-2, -1, 0, 1)}
    return sorted({k for k in near if k >= 0} | {rnd.randrange(top) for _ in range(count)})


def usages(taken, rnd):
    """Usages with these runs over no layer, one layer, and a layer whose
    base has runs of its own."""
    under = IndexUsage(None, many_runs(rnd, 3))
    return [IndexUsage(None, taken),
            IndexUsage(OmegaLayer(IndexUsage()), taken),
            IndexUsage(OmegaLayer(under), taken)]


class TestSkipTaken:
    @settings(max_examples=200, deadline=None)
    @given(few_runs, st.integers(0, 120))
    def test_agrees_on_few_runs(self, taken, n):
        assert levy._skip_taken(taken, n) == skip_taken_reference(taken, n)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(1000, 1300), rngs)
    def test_agrees_on_a_thousand_runs(self, count, rnd):
        taken = many_runs(rnd, count)
        assert len(taken) >= 2000
        for n in probes(taken, rnd):
            assert levy._skip_taken(taken, n) == skip_taken_reference(taken, n)

    @pytest.mark.parametrize("taken", [(), (0, 1), (3, 7), (0, 2, 4, 9)])
    def test_inverts_rank_outside(self, taken):
        free = [k for k in range(20) if levy._rank_outside(taken, k) is not None]
        assert [levy._skip_taken(taken, r) for r in range(len(free))] == free


class TestContains:
    @settings(max_examples=100, deadline=None)
    @given(few_runs, rngs)
    def test_agrees_with_fresh_rank(self, taken, rnd):
        for usage in usages(taken, rnd):
            ks = range(3 * (taken[-1] if taken else 0) + 40)
            assert [usage.contains(k) for k in ks] == [contains_reference(usage, k) for k in ks]
            assert usage.least_fresh() == least_fresh_reference(usage)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(1000, 1300), rngs)
    def test_agrees_on_a_thousand_runs(self, count, rnd):
        taken = many_runs(rnd, count)
        for usage in usages(taken, rnd):
            ks = probes(tuple(4 * b for b in taken), rnd)  # over a layer ranks double or more
            assert [usage.contains(k) for k in ks] == [contains_reference(usage, k) for k in ks]
            assert usage.least_fresh() == least_fresh_reference(usage)


class TestWithLevelRanks:
    @settings(max_examples=150, deadline=None)
    @given(few_runs, st.sets(st.integers(0, 90), max_size=6), rngs)
    def test_values_equal_the_checked_constructor(self, taken, ranks, rnd):
        for usage in usages(taken, rnd):
            added = {r for r in ranks if not bisect_right(usage.taken, r) & 1}
            fast, ref = usage._with_level_ranks(added), with_level_ranks_reference(usage, added)
            assert fast == ref and hash(fast) == hash(ref) and repr(fast) == repr(ref)
            assert type(fast) is type(ref) and (fast.layer, fast.taken) == (ref.layer, ref.taken)

    def test_one_rank_past_the_last_run_extends_it(self):
        usage = IndexUsage(None, (0, 3))
        assert usage.with_explicit((3,)).taken == (0, 4)
        assert usage.with_explicit((5,)).taken == (0, 3, 5, 6)
        assert usage.with_explicit((3, 7)).taken == (0, 4, 7, 8)  # two ranks: no extension

    def test_extending_the_last_run_sorts_nothing(self, monkeypatch):
        """A rank that continues the last run extends it in O(1) tuple work;
        the merge of every bound sorts them all, O(runs log runs)."""
        sorts = []
        monkeypatch.setattr(levy, "sorted", lambda xs: sorts.append(1) or sorted(xs),
                            raising=False)
        usage = IndexUsage(None, runs_from(0, [(2, 1)] * 1000))
        last = usage.taken[-1]
        assert usage.with_explicit((last,)).taken == usage.taken[:-1] + (last + 1,)
        assert sorts == []
        assert usage.with_explicit((last + 1,)).taken == usage.taken + (last + 1, last + 2)
        assert sorts == [1]


def triangular():
    """The ladder 0, 1, 3, 6, 10, ... to w: finite blocks of lengths 1, 2, 3, ..."""
    return CofinalPresentation(OMEGA, lambda n: Ordinal.from_int(n * (n + 1) // 2))


class TestBlocks:
    @pytest.mark.parametrize("alpha, blocks", [("w", 12), ("w*2", 40), ("w*3", 30),
                                               ("w^2", 6), ("triangular", 12)])
    @pytest.mark.parametrize("make", [nat_set, evens_set])
    def test_blocks_equal_the_reference_builder(self, alpha, blocks, make):
        x = make()
        cof = (triangular() if alpha == "triangular" else standard_cofinal(parse_cnf(alpha)))
        fast = levy_lift(cof, transfinite_f_seq(x))
        ref = levy_lift(cof, transfinite_f_seq(x), builder=standard_block_builder_reference(x))
        for xi in range(blocks):
            a, b = fast._block(xi), ref._block(xi)
            assert type(a) is BuiltBlock and type(a.seq) is TransfiniteSeq
            assert (a.seq.length, a.indices) == (b.seq.length, b.indices)
            assert (a.layer is None) == (b.layer is None) and a.layer == b.layer
            n = a.seq.length.to_int() if a.seq.length.is_finite() else 6
            assert [a.seq.at(j) for j in range(n)] == [b.seq.at(j) for j in range(n)]
            after = fast._prefixes[xi + 1]  # the boundary after block xi
            assert type(after) is UsageSeq and after.evaluator == fast.at
            assert (after.length, after.usage) == (ref._prefixes[xi + 1].length,
                                                   ref._prefixes[xi + 1].usage)

    def test_a_finite_block_is_its_values_over_gamma(self):
        build = standard_block_builder(nat_set())
        f = transfinite_f_seq(nat_set())
        prefix = UsageSeq(Ordinal.from_int(0), lambda p: None, usage=IndexUsage())
        block = build(Ordinal.from_int(3), f, prefix)
        assert [block.seq.at(j) for j in range(3)] == [0, 1, 2] and block.indices == (0, 1, 2)
        with pytest.raises(IndexError):
            block.seq.at(3)

    def test_a_later_value_reads_the_prefix_and_the_values_so_far(self):
        """A functional that reads its whole argument sees the prefix,
        then the block's earlier values, position by position."""
        x = nat_set()
        seen = []
        std = transfinite_f_seq(x)

        def select(seq):
            n = seq.length.to_int()
            seen.append([seq.at(i) for i in range(n)])
            return std.select(seq)

        f = levy.TransfiniteFunctional("reading", std.member, select, set=x)
        g = levy_lift(CofinalPresentation(OMEGA, lambda n: Ordinal.from_int(3 * n)), f)
        assert [g.at(i) for i in range(6)] == [0, 1, 2, 3, 4, 5]
        assert seen == [[], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]]


class TestStageGrowth:
    def test_the_cap_stops_only_a_walk_toward_a_position(self, monkeypatch):
        """``block_lengths(n)`` reads stages up to n, a walk its caller
        bounds; the cap stops a query whose position no stage may pass."""
        monkeypatch.setattr(levy.ordinals, "_SCAN_CAP", 60)
        g = levy_lift(standard_cofinal(parse_cnf("w*2")), transfinite_f_seq(nat_set()))
        assert len(g.block_lengths(63)) == 63 and len(g._stages) == 64
        with pytest.raises(levy.BadCofinal, match=r"^ladder never passes w\*1 \+ 70$"):
            g.at(parse_cnf("w + 70"))
        assert len(g._stages) == 64

    @pytest.mark.parametrize("alpha, pos, count, last", [("w*2", "w + 60", 63, "w + 61"),
                                                         ("w^2", "w*60", 62, "w*61")])
    @pytest.mark.parametrize("wrapped", [False, True])
    def test_stages_grow_only_as_far_as_asked(self, alpha, pos, count, last, wrapped):
        """The unit-block loop reads the stages of the standard builder's
        blocks, the per-block path those of a wrapper's."""
        build = standard_block_builder(nat_set())
        g = levy_lift(standard_cofinal(parse_cnf(alpha)), transfinite_f_seq(nat_set()),
                      builder=(lambda *args: build(*args)) if wrapped else build)
        assert len(g._stages) == 2  # stages 0 and 1, read when the lift is built
        for n in range(1, 56):  # block n - 1 reads stage n, and no further
            g.block_lengths(n)
            assert len(g._stages) == n + 1
        g.locate(parse_cnf(pos))
        assert len(g._stages) == count and g._stages[-1] == parse_cnf(last)
