"""Rank-arithmetic index bookkeeping of the Lévy lift.

The scanning, memoising ``OmegaLayer``/``IndexUsage`` pair that the rank
arithmetic replaced is kept here, verbatim in behaviour, as a test oracle
only, and so is the rank arithmetic over one sorted ``taken`` tuple that
the interval runs replaced.  Random usage histories go through all of them,
and every answer must agree.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import levy
from forcelab.collapse import nat_set
from forcelab.errors import BadBlock
from forcelab.levy import (
    BuiltBlock,
    IndexUsage,
    OmegaLayer,
    check_transfinite_witness,
    levy_lift,
    standard_block_builder,
    standard_cofinal,
    transfinite_f_seq,
)
from forcelab.ordinals import OMEGA, Ordinal, TransfiniteSeq, ord_add, parse_cnf

PROBE = range(0, 400)

# ---------------------------------------------------------------------------
# reference implementation: scan the base and memoise every index up to k
# ---------------------------------------------------------------------------


class ScanningLayer:
    def __init__(self, base):
        self.base = base
        self._fresh = []
        self._rank = {}
        self._scanned = 0

    def _scan_to(self, k):
        while self._scanned <= k:
            i = self._scanned
            if not self.base.contains(i):
                self._rank[i] = len(self._fresh)
                self._fresh.append(i)
            self._scanned += 1

    def contains(self, k):
        self._scan_to(k)
        rank = self._rank.get(k)
        return rank is not None and rank % 2 == 0

    def nth_index(self, j):
        while len(self._fresh) <= 2 * j:
            self._scan_to(self._scanned)
        return self._fresh[2 * j]


class ScanningUsage:
    def __init__(self, explicit=frozenset(), layers=()):
        self.explicit = explicit
        self.layers = layers

    def contains(self, k):
        return k in self.explicit or any(l.contains(k) for l in self.layers)

    def least_fresh(self):
        i = 0
        while self.contains(i):
            i += 1
        return i

    def with_explicit(self, indices):
        return ScanningUsage(self.explicit | frozenset(indices), self.layers)

    def with_layer(self, layer):
        return ScanningUsage(self.explicit, self.layers + (layer,))


# ---------------------------------------------------------------------------
# reference implementation: rank arithmetic over one sorted tuple of ranks
# ---------------------------------------------------------------------------


def _skip_sorted(taken, n):
    return n + bisect_right(range(len(taken)), n, key=lambda i: taken[i] - i)


@dataclass(frozen=True)
class TupleUsage:
    layer: Optional[OmegaLayer] = None
    taken: tuple = ()

    def fresh_rank(self, k):
        chain = [self]
        while chain[-1].layer is not None:
            chain.append(chain[-1].layer.base)
        for u in reversed(chain):
            if u.layer is not None:
                if not k & 1:
                    return None
                k >>= 1
            if u.taken:
                i = bisect_left(u.taken, k)
                if u.taken[i:i + 1] == (k,):
                    return None
                k -= i
        return k

    def nth_fresh(self, n):
        u = self
        while True:
            if u.taken:
                n = _skip_sorted(u.taken, n)
            if u.layer is None:
                return n
            n, u = 2 * n + 1, u.layer.base

    def contains(self, k):
        return self.fresh_rank(k) is None

    def least_fresh(self):
        return self.nth_fresh(0)

    def with_fresh(self, ranks):
        added = sorted(set(ranks))
        if not added:
            return self
        if self.taken:
            added = sorted(self.taken + tuple(_skip_sorted(self.taken, r) for r in added))
        return TupleUsage(self.layer, tuple(added))

    def with_explicit(self, indices):
        return self.with_fresh(r for r in map(self.fresh_rank, indices) if r is not None)

    def with_layer(self, layer):
        if layer.base != self:
            raise ValueError("an omega layer must lie over the usage it extends")
        return TupleUsage(layer)


# ---------------------------------------------------------------------------
# random histories
# ---------------------------------------------------------------------------

step = st.one_of(
    st.tuples(st.just("explicit"), st.lists(st.integers(0, 300), max_size=8)),
    st.just(("layer",)),
)


def replay(history):
    """The history applied to both implementations, with the layers made."""
    fast, ref = IndexUsage(), ScanningUsage()
    layers = []
    for kind, *args in history:
        if kind == "explicit":
            fast, ref = fast.with_explicit(args[0]), ref.with_explicit(args[0])
        else:
            pair = OmegaLayer(fast), ScanningLayer(ref)
            fast, ref = fast.with_layer(pair[0]), ref.with_layer(pair[1])
            layers.append(pair)
    return fast, ref, layers


def histories():
    # at most four layers keep the reference scan of PROBE cheap
    return st.lists(step, max_size=10).filter(
        lambda h: sum(s[0] == "layer" for s in h) <= 4)


class TestAgainstScanningReference:
    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_contains_and_least_fresh(self, history):
        fast, ref, _ = replay(history)
        assert [fast.contains(k) for k in PROBE] == [ref.contains(k) for k in PROBE]
        assert fast.least_fresh() == ref.least_fresh()

    @settings(max_examples=100, deadline=None)
    @given(histories())
    def test_ranks_invert(self, history):
        fast, ref, _ = replay(history)
        fresh = [k for k in PROBE if not ref.contains(k)]
        assert [fast.nth_fresh(r) for r in range(len(fresh))] == fresh
        assert [fast.fresh_rank(k) for k in fresh] == list(range(len(fresh)))
        assert all(fast.fresh_rank(k) is None for k in PROBE if ref.contains(k))

    @settings(max_examples=100, deadline=None)
    @given(histories())
    def test_layers(self, history):
        _fast, _ref, layers = replay(history)
        for fast_layer, ref_layer in layers:
            assert ([fast_layer.nth_index(j) for j in range(8)]
                    == [ref_layer.nth_index(j) for j in range(8)])
            assert ([fast_layer.contains(k) for k in PROBE]
                    == [ref_layer.contains(k) for k in PROBE])

    @settings(max_examples=100, deadline=None)
    @given(histories(), st.lists(st.integers(0, 40), max_size=10))
    def test_with_fresh_is_with_explicit(self, history, ranks):
        fast, ref, _ = replay(history)
        indices = [fast.nth_fresh(r) for r in ranks]
        by_rank = fast.with_fresh(ranks)
        assert by_rank == fast.with_explicit(indices)
        expected = ref.with_explicit(indices)
        assert [by_rank.contains(k) for k in PROBE] == [expected.contains(k) for k in PROBE]

    @settings(max_examples=100, deadline=None)
    @given(histories(), st.integers(0, 40))
    def test_omega_block_restriction_takes_its_first_elements(self, history, offset):
        base, _ref, _ = replay(history)
        layer = OmegaLayer(base)
        block = BuiltBlock(TransfiniteSeq(OMEGA, lambda j: j), base.with_layer(layer),
                           layer=layer)
        cut = block.partial_usage(offset, base)
        assert cut == base.with_fresh(range(0, 2 * offset, 2))
        first = {layer.nth_index(j) for j in range(offset)}
        assert ([cut.contains(k) for k in PROBE]
                == [base.contains(k) or k in first for k in PROBE])

    @settings(max_examples=60, deadline=None)
    @given(histories())
    def test_adding_nothing_returns_self(self, history):
        fast, _ref, _ = replay(history)
        consumed = [k for k in PROBE if fast.contains(k)][:10]
        assert fast.with_fresh(()) is fast
        assert fast.with_explicit(consumed) is fast


# explicit indices, fresh ranks or an omega layer
usage_step = st.one_of(
    st.tuples(st.just("explicit"), st.lists(st.integers(0, 300), max_size=8)),
    st.tuples(st.just("fresh"), st.lists(st.integers(0, 60), max_size=8)),
    st.just(("layer",)),
)


def replay_all(history):
    """The history applied to the runs, the sorted tuple and the scan."""
    runs, tup, ref = IndexUsage(), TupleUsage(), ScanningUsage()
    for kind, *args in history:
        if kind == "explicit":
            runs, tup = runs.with_explicit(args[0]), tup.with_explicit(args[0])
            ref = ref.with_explicit(args[0])
        elif kind == "fresh":
            # the scan has no ranks: it is told the indices they name
            ref = ref.with_explicit([tup.nth_fresh(r) for r in args[0]])
            runs, tup = runs.with_fresh(args[0]), tup.with_fresh(args[0])
        else:
            runs = runs.with_layer(OmegaLayer(runs))
            tup = tup.with_layer(OmegaLayer(tup))
            ref = ref.with_layer(ScanningLayer(ref))
    return runs, tup, ref


class TestAgainstSortedTuple:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(usage_step, max_size=12).filter(
        lambda h: sum(s[0] == "layer" for s in h) <= 4))
    def test_every_query_agrees(self, history):
        runs, tup, ref = replay_all(history)
        assert [runs.contains(k) for k in PROBE] == [tup.contains(k) for k in PROBE]
        assert [runs.contains(k) for k in PROBE] == [ref.contains(k) for k in PROBE]
        assert [runs.fresh_rank(k) for k in PROBE] == [tup.fresh_rank(k) for k in PROBE]
        assert [runs.nth_fresh(r) for r in PROBE] == [tup.nth_fresh(r) for r in PROBE]
        assert runs.least_fresh() == tup.least_fresh() == ref.least_fresh()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 120), max_size=40), st.randoms(use_true_random=False),
           st.integers(1, 6))
    def test_equal_sets_in_any_order_compare_equal(self, indices, rnd, pieces):
        shuffled = list(indices)
        rnd.shuffle(shuffled)
        one, other = IndexUsage().with_explicit(indices), IndexUsage()
        for i in range(pieces):  # the same set, in several calls of random size
            other = other.with_explicit(shuffled[i::pieces])
        assert one == other and hash(one) == hash(other)
        one.with_layer(OmegaLayer(other))  # a layer over an equal usage is no foreign layer
        assert [one.contains(k) for k in PROBE] == [k in set(indices) for k in PROBE]

    def test_runs_are_canonical(self):
        u = IndexUsage().with_explicit((5, 3, 0, 4, 9, 1))
        assert u.taken == (0, 2, 3, 6, 9, 10)
        assert u.with_explicit((2,)).taken == (0, 6, 9, 10)
        assert u.with_fresh((0, 1, 2)) == IndexUsage().with_explicit(range(8)).with_explicit((9,))


class TestDeepChains:
    """Chains of 200+ layers, far past what the scan can reach, with runs
    taken between some layers and none between others, so that
    ``OmegaLayer.below`` merges run-free stretches of many lengths."""

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(200, 260))
    def test_deep_mixed_chain_agrees_with_the_sorted_tuple(self, rnd, depth):
        runs, tup, levels = IndexUsage(), TupleUsage(), 0
        for step in range(depth + 1):
            roll = rnd.random()
            if roll < 0.1:
                ranks = [rnd.randrange(12) for _ in range(rnd.randrange(1, 4))]
                runs, tup = runs.with_fresh(ranks), tup.with_fresh(ranks)
            elif roll < 0.2:  # a fresh index and a neighbour, mostly consumed
                k = tup.nth_fresh(rnd.randrange(12))
                runs, tup = runs.with_explicit((k, k + 1)), tup.with_explicit((k, k + 1))
            if step < depth:
                levels += bool(runs.taken or not levels)
                runs = runs.with_layer(OmegaLayer(runs))
                tup = tup.with_layer(OmegaLayer(tup))
        assert len(runs.layer.below) == levels  # one pair per level with runs
        fresh = [tup.nth_fresh(r) for r in range(16)]
        assert [runs.nth_fresh(r) for r in range(16)] == fresh
        probes = sorted({k + e for k in fresh for e in (-1, 0, 1)} - {-1})
        assert [runs.fresh_rank(k) for k in probes] == [tup.fresh_rank(k) for k in probes]
        assert [runs.contains(k) for k in probes] == [tup.contains(k) for k in probes]


class TestManyRuns:
    """``with_fresh`` over a base of 1,500 runs (the even indices below
    3,000) builds the prefix sums of the runs once per call; it built them
    once per rank, O(ranks * runs) work for a restriction inside an
    omega-block."""

    EVENS = range(0, 3000, 2)

    def test_agrees_with_the_sorted_tuple(self):
        rnd = random.Random(79)
        runs, tup = IndexUsage().with_explicit(self.EVENS), TupleUsage().with_explicit(self.EVENS)
        assert len(runs.taken) == 3000
        probes = range(6000)
        for ranks in (range(0, 1000, 2), rnd.sample(range(3000), 400), [0, 1499, 1500, 1501, 4000]):
            got, want = runs.with_fresh(ranks), tup.with_fresh(ranks)
            assert [got.contains(k) for k in probes] == [want.contains(k) for k in probes]
            assert [got.nth_fresh(r) for r in range(0, 3000, 7)] == [
                want.nth_fresh(r) for r in range(0, 3000, 7)]

    def test_prefix_sums_are_built_once_per_call(self, monkeypatch):
        built = [0]
        accumulate = levy.accumulate

        def counting(*args):
            built[0] += 1
            return accumulate(*args)

        monkeypatch.setattr(levy, "accumulate", counting)
        runs = IndexUsage().with_explicit(self.EVENS)
        assert built[0] == 0
        runs.with_fresh(range(0, 1000, 2))
        assert built[0] == 1


class TestComposition:
    def test_layer_over_a_foreign_usage_rejected(self):
        with pytest.raises(ValueError):
            IndexUsage().with_layer(OmegaLayer(IndexUsage().with_explicit((1,))))
        u = IndexUsage().with_explicit((0, 2))
        same = IndexUsage().with_explicit((2, 0))  # equal in value, not identity
        assert u.with_layer(OmegaLayer(same)).least_fresh() == 3
        u, v = (IndexUsage().with_layer(OmegaLayer(IndexUsage())) for _ in range(2))
        assert u == v and hash(u) == hash(v)  # layered: equal in value, not identity
        assert u.with_layer(OmegaLayer(v)) == v.with_layer(OmegaLayer(u))
        assert OmegaLayer(u) != OmegaLayer(u.with_explicit((1,)))

    def test_layer_block_over_a_foreign_base_is_bad_block(self):
        nat = nat_set()
        f = transfinite_f_seq(nat)
        standard = standard_block_builder(nat)

        def foreign_layer(gamma, f_, prefix):
            if gamma != OMEGA:
                return standard(gamma, f_, prefix)
            foreign = prefix.usage.with_explicit((0,))
            layer = OmegaLayer(foreign)
            seq = TransfiniteSeq(OMEGA, lambda j: nat.enum(layer.nth_index(j.to_int())))
            return BuiltBlock(seq, foreign.with_layer(layer), layer=layer)

        g = levy_lift(standard_cofinal(Ordinal.omega(2)), f, builder=foreign_layer)
        with pytest.raises(BadBlock):
            g.at(0)

    def test_layer_block_over_an_equal_copy_is_accepted(self):
        """A layer over a usage rebuilt with new layer objects lies over
        the prefix's usage: layers compare by value."""
        nat = nat_set()
        standard = standard_block_builder(nat)

        def rebuilt(u):
            layer = OmegaLayer(rebuilt(u.layer.base)) if u.layer is not None else None
            return IndexUsage(layer, u.taken)

        def copied_layer(gamma, f_, prefix):
            if gamma != OMEGA:
                return standard(gamma, f_, prefix)
            usage = rebuilt(prefix.usage)
            layer = OmegaLayer(usage)
            seq = TransfiniteSeq(OMEGA, lambda j: nat.enum(layer.nth_index(j.to_int())))
            return BuiltBlock(seq, usage.with_layer(layer), layer=layer)

        cof = standard_cofinal(parse_cnf("w^2"))
        g = levy_lift(cof, transfinite_f_seq(nat), builder=copied_layer)
        h = levy_lift(cof, transfinite_f_seq(nat))
        for p in map(parse_cnf, ("5", "w*1 + 5", "w*3 + 5")):
            assert g.at(p) == h.at(p) and g.restrict(p).usage == h.restrict(p).usage


class TestRestrictions:
    def test_finite_sequence_without_usage(self):
        f = transfinite_f_seq(nat_set())
        s = TransfiniteSeq.from_items((0, "a", 1, 3))
        assert [f.member(s, v) for v in range(5)] == [False, False, True, False, True]
        assert not f.member(s, "a")
        assert f.select(s) == 2

    @pytest.mark.parametrize("alpha, pos", [("w*2", "5"), ("w*3", "w*1 + 7"),
                                            ("w^2", "w*2 + 3"), ("w*2", "w*1 + 4")])
    def test_usage_is_exactly_the_values_below(self, alpha, pos):
        g = levy_lift(standard_cofinal(parse_cnf(alpha)), transfinite_f_seq(nat_set()))
        xi, offset = g.locate(parse_cnf(pos))
        below = set()
        for b, gamma in enumerate(g.block_lengths(xi + 1)):
            # a value at offset j is at least j, so j < 400 covers PROBE
            stop = (offset.to_int() if b == xi
                    else gamma.to_int() if gamma.is_finite() else len(PROBE))
            below |= {g.at(ord_add(g.cof.stage(b), Ordinal.from_int(j)))
                      for j in range(stop)}
        usage = g.restrict(parse_cnf(pos)).usage
        assert [usage.contains(k) for k in PROBE] == [k in below for k in PROBE]


class TestDeepLadder:
    """Under w^2, after k layers the fresh index of rank r is
    (r + 1) * 2^k - 1.  Block k takes the ranks 2j, so position w*k + j
    holds (2j + 1) * 2^k - 1.  At k = 600 a rank that recursed once per
    layer would pass Python's default recursion limit."""

    @pytest.mark.parametrize("k", [16, 64, 600])
    def test_value_and_witness_at_w_times_k_plus_5(self, k):
        f = transfinite_f_seq(nat_set())
        g = levy_lift(standard_cofinal(parse_cnf("w^2")), f)
        pos = parse_cnf(f"w*{k} + 5")
        assert g.at(pos) == 5 * 2 ** (k + 1) + 2 ** k - 1
        assert check_transfinite_witness(f, g, [pos])
