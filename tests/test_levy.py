import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import ordinals
from forcelab.collapse import evens_set, nat_set, pairs_set
from forcelab.errors import (
    BadBlock,
    BadBlockWitness,
    BadCofinal,
    OutOfDomain,
    RangeNotDecidable,
)
from forcelab.levy import (
    BuiltBlock,
    CofinalPresentation,
    IndexUsage,
    LiftedWitness,
    OmegaLayer,
    TransfiniteFunctional,
    UsageSeq,
    check_transfinite_witness,
    levy_lift,
    run_report_json,
    sample_report,
    standard_block_builder,
    standard_cofinal,
    transfinite_f_seq,
)
from forcelab.ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    TransfiniteSeq,
    ord_add,
    parse_cnf,
)

W = OMEGA


def fin(n):
    return Ordinal.from_int(n)


def at_block(g, k, offset):
    return g.at(ord_add(Ordinal.omega(k) if k else ZERO, fin(offset)))


@pytest.fixture(scope="module")
def nat():
    return nat_set()


class TestIndexUsage:
    def test_explicit(self):
        u = IndexUsage().with_explicit((3, 5))
        assert u.contains(3) and u.contains(5) and not u.contains(4)
        assert u.least_fresh() == 0

    def test_omega_layer_takes_every_other_fresh(self):
        layer = OmegaLayer(IndexUsage().with_explicit((0, 2)))
        # fresh of base: 1, 3, 4, 5, 6, ...; layer takes 1, 4, 6, 8, ...
        assert [layer.nth_index(j) for j in range(4)] == [1, 4, 6, 8]
        assert layer.contains(1) and layer.contains(4)
        assert not layer.contains(3) and not layer.contains(0)

    def test_layered_usage_leaves_fresh(self):
        u = IndexUsage().with_layer(OmegaLayer(IndexUsage()))
        assert u.least_fresh() == 1
        u2 = u.with_layer(OmegaLayer(u))
        assert u2.least_fresh() == 3


def passes_the_lift(cof, nat):
    """The lift reads and checks stages 0 to 51 of the ladder, building
    blocks 0 to 50."""
    return len(levy_lift(cof, transfinite_f_seq(nat)).block_lengths(51)) == 51


def bad_at_61(alpha, bad):
    """The standard ladder under alpha with stage 61 replaced by ``bad``."""
    base = standard_cofinal(parse_cnf(alpha))
    return CofinalPresentation(base.alpha, lambda n: bad if n == 61 else base.stage(n))


class TestCofinal:
    def test_standard_omega(self, nat):
        cof = standard_cofinal(W)
        assert [cof.stage(i) for i in range(4)] == [ZERO, fin(1), fin(2), fin(3)]
        assert passes_the_lift(cof, nat)

    def test_standard_omega_times_2(self, nat):
        cof = standard_cofinal(Ordinal.omega(2))
        assert [str(cof.stage(i)) for i in range(4)] == ["0", "w*1", "w*1 + 1",
                                                         "w*1 + 2"]
        assert passes_the_lift(cof, nat)

    def test_standard_omega_times_3(self, nat):
        cof = standard_cofinal(Ordinal.omega(3))
        assert [str(cof.stage(i)) for i in range(5)] == ["0", "w*1", "w*2", "w*2 + 1",
                                                         "w*2 + 2"]
        assert passes_the_lift(cof, nat)

    def test_standard_omega_squared(self, nat):
        cof = standard_cofinal(parse_cnf("w^2"))
        assert [cof.stage(i) for i in range(10)] == [ZERO] + [Ordinal.omega(i)
                                                            for i in range(1, 10)]
        assert passes_the_lift(cof, nat)

    def test_block_order_types_match_interval_types(self, nat):
        # block xi has the order type gamma of [stage(xi), stage(xi+1)):
        # verify the defining identity stage(xi) + gamma = stage(xi+1) for xi <= 50
        for alpha in (Ordinal.omega(2), Ordinal.omega(3), parse_cnf("w^2")):
            cof = standard_cofinal(alpha)
            g = levy_lift(cof, transfinite_f_seq(nat))
            for xi, gamma in enumerate(g.block_lengths(51)):
                assert ord_add(cof.stage(xi), gamma) == cof.stage(xi + 1)

    def test_successor_alpha_rejected(self):
        with pytest.raises(BadCofinal):
            standard_cofinal(parse_cnf("w*1 + 1"))

    def test_unreachable_alpha_rejected(self):
        with pytest.raises(BadCofinal):
            standard_cofinal(parse_cnf("w^3*1"))
        with pytest.raises(BadCofinal):
            standard_cofinal(parse_cnf("w^2*1 + w*2"))

    def test_lift_refuses_bad_ladders(self, nat):
        f = transfinite_f_seq(nat)
        flat = CofinalPresentation(Ordinal.omega(2), lambda n: ZERO)
        with pytest.raises(BadCofinal):
            levy_lift(flat, f)
        not_zero = CofinalPresentation(Ordinal.omega(2), lambda n: fin(n + 1))
        with pytest.raises(BadCofinal):
            levy_lift(not_zero, f)
        too_long = CofinalPresentation(parse_cnf("w^2*2"),
                                       lambda n: Ordinal.omega_power(2, n))
        with pytest.raises(BadCofinal):
            levy_lift(too_long, f).at(0)

    @pytest.mark.parametrize("alpha, stage, message", [
        ("w^2", lambda n: fin(n) if n < 2 else Ordinal.omega(2 * n),
         r"^block 1 has length w\*4, not finite or w$"),
        ("w*2", lambda n: ord_add(W, fin(n)) if n else ZERO,
         r"^block 0 has length w\*1 \+ 1, not finite or w$"),
    ], ids=["w*4", "w+1"])
    def test_lift_names_the_block_of_another_length(self, nat, alpha, stage, message):
        """Block 1 of 0, 1, w*4, w*6, ... is [1, w*4), of type w*4; block 0
        of 0, w + 1, w + 2, ... is of type w + 1, though its end is a
        successor, as a unit block's is."""
        g = levy_lift(CofinalPresentation(parse_cnf(alpha), stage), transfinite_f_seq(nat))
        with pytest.raises(BadCofinal, match=message):
            g.at(1)

    @pytest.mark.parametrize("bad, message", [
        ("w + 55", "^ladder not strictly increasing at 61$"),  # a raw ValueError
        ("w + 59", "^ladder not strictly increasing at 61$"),  # served a block of length 0
        ("w*63", r"^stage 61 reaches w\*2$"),                  # BadBlock from the builder
    ])
    def test_a_late_stage_is_checked_when_read(self, nat, bad, message):
        """Stage 61 of the standard ladder under w*2 (stage 60 is w + 59)
        is checked when a query first reads it, as stage 1 is."""
        f = transfinite_f_seq(nat)
        g = levy_lift(bad_at_61("w*2", parse_cnf(bad)), f)
        assert g.at(parse_cnf("w + 58")) == 117
        for _ in range(2):  # refused again, never served
            with pytest.raises(BadCofinal, match=message) as exc:
                g.at(parse_cnf("w + 62"))
            assert exc.type is BadCofinal

    def test_a_late_stage_past_alpha_is_refused_for_any_builder(self, nat):
        """A builder that stretches an omega block to any infinite length
        is never asked for block 60, [w + 59, w*63)."""
        std, asked = standard_block_builder(nat), []

        def any_length(gamma, f, prefix):
            asked.append(gamma)
            if gamma.is_finite() or gamma == W:
                return std(gamma, f, prefix)
            b = std(W, f, prefix)
            return BuiltBlock(TransfiniteSeq(gamma, b.seq.evaluator), layer=b.layer)

        g = levy_lift(bad_at_61("w*2", parse_cnf("w*63")), transfinite_f_seq(nat),
                      builder=any_length)
        with pytest.raises(BadCofinal, match=r"^stage 61 reaches w\*2$"):
            g.at(parse_cnf("w + 62"))
        assert g.block_lengths(60) == asked == [W] + [fin(1)] * 59

    def test_a_late_block_of_length_w_times_2_is_refused(self, nat):
        """On the multiples of w under w^2 with stage 61 at w*62, block 60
        is [w*60, w*62), of type w*2: refused as the ladder's fault."""
        cof = bad_at_61("w^2", Ordinal.omega(62))
        g = levy_lift(cof, transfinite_f_seq(nat))
        with pytest.raises(BadCofinal,
                           match=r"^block 60 has length w\*2, not finite or w$") as exc:
            g.at(parse_cnf("w*61 + 3"))
        assert exc.type is BadCofinal

    def test_default_samples_read_the_ladder_to_stage_5_once(self, nat):
        calls = []
        base = standard_cofinal(parse_cnf("w*3"))
        cof = CofinalPresentation(base.alpha, lambda n: calls.append(n) or base.stage(n))
        g = levy_lift(cof, transfinite_f_seq(nat))
        assert calls == [0, 1]  # the lift reads stages 0 and 1 when it is built
        samples = [ZERO, fin(3), W, Ordinal.omega(2),
                   *(parse_cnf(f"w*2 + {i}") for i in range(1, 4))]
        assert g.default_samples() == samples
        assert calls == list(range(6))
        assert g.default_samples() == samples and calls == list(range(6))

    @pytest.mark.parametrize("first, mid", [(2, 1), (4, 2), (5, 2)])
    def test_default_samples_split_a_short_first_block(self, nat, first, mid):
        cof = CofinalPresentation(W, lambda n: fin(first * n))
        g = levy_lift(cof, transfinite_f_seq(nat))
        assert g.default_samples() == sorted({ZERO, fin(mid)} | {fin(first * i)
                                                                 for i in range(1, 6)})

    def test_default_samples_leave_a_long_first_block_to_the_lift(self, nat):
        """Block 0 of 0, w*4, w*8, ... has no mid-block sample; the lift
        refuses it when the samples are checked."""
        f = transfinite_f_seq(nat)
        g = levy_lift(CofinalPresentation(parse_cnf("w^2"),
                                          lambda n: Ordinal.omega_power(1, 4 * n)), f)
        samples = g.default_samples()
        assert samples == [ZERO, W, Ordinal.omega(2), *(Ordinal.omega(4 * i)
                                                        for i in range(1, 6))]
        with pytest.raises(BadCofinal, match=r"^block 0 has length w\*4, not finite or w$"):
            check_transfinite_witness(f, g, samples)

    def test_default_samples_add_both_limits_below_alpha(self, nat):
        """Stages 0, 1, ..., 10, w, w*2, w*2 + 1, ... to w*3: the first six
        pass neither w nor w*2, so both limits come from the limit rule."""
        cof = CofinalPresentation(
            Ordinal.omega(3),
            lambda n: fin(n) if n <= 10 else ord_add(Ordinal.omega(min(n - 10, 2)),
                                                     fin(max(n - 12, 0))))
        g = levy_lift(cof, transfinite_f_seq(nat))
        assert g.block_lengths(13) == [fin(1)] * 10 + [W, W, fin(1)]
        stages = [fin(i) for i in range(1, 6)]
        assert g.default_samples() == sorted([ZERO, W, Ordinal.omega(2), *stages])

    def test_a_lift_built_directly_checks_its_ladder(self, nat):
        flat = CofinalPresentation(Ordinal.omega(2), lambda n: ZERO)
        with pytest.raises(BadCofinal, match="not strictly increasing at 1"):
            LiftedWitness(flat, transfinite_f_seq(nat), standard_block_builder(nat))

    def test_lift_refuses_a_stage_that_reaches_alpha(self, nat):
        overshoot = CofinalPresentation(Ordinal.omega(2), lambda n: Ordinal.omega_power(1, n))
        g = levy_lift(overshoot, transfinite_f_seq(nat))
        with pytest.raises(BadCofinal, match=r"stage 2 reaches w\*2"):
            g.at(W)

    @pytest.mark.parametrize("value", [0, 3, "w", None, 1.0])
    def test_a_stage_that_is_no_ordinal_is_refused(self, nat, value):
        """A ladder of ints, strings or None is a ``BadCofinal`` naming the
        stage; it escaped as a raw ``AttributeError`` from ``is_zero``."""
        with pytest.raises(BadCofinal, match=f"^stage 0 is {value!r}, not an Ordinal$"):
            levy_lift(CofinalPresentation(W, lambda n: value), transfinite_f_seq(nat))
        with pytest.raises(BadCofinal, match="^stage 0 is 0, not an Ordinal$"):
            levy_lift(CofinalPresentation(W, lambda n: n), transfinite_f_seq(nat))

    def test_a_later_stage_that_is_no_ordinal_is_refused(self, nat):
        """Each stage is checked when the lift first reads it."""
        base = standard_cofinal(Ordinal.omega(2))
        cof = CofinalPresentation(base.alpha, lambda n: base.stage(n) if n <= 60 else n)
        g = levy_lift(cof, transfinite_f_seq(nat))
        assert g.at(parse_cnf("w + 58")) == 117
        with pytest.raises(BadCofinal, match="^stage 61 is 61, not an Ordinal$"):
            g.at(parse_cnf("w + 60"))

    def test_lift_shares_the_offset_walk_cap(self, nat, monkeypatch):
        # stages 0, 1, 2, ... lie below w*2 but never pass w
        monkeypatch.setattr(ordinals, "_SCAN_CAP", 60)
        asked = []
        finite = CofinalPresentation(Ordinal.omega(2), lambda n: asked.append(n) or fin(n))
        g = levy_lift(finite, transfinite_f_seq(nat))
        assert g.at(59) == 59
        with pytest.raises(BadCofinal, match="ladder never passes w"):
            g.at(W)
        assert max(asked) == 61


class TestLiftOmega:
    def test_degenerate_singleton_blocks(self, nat):
        # all blocks have length 1: plain step-by-step select
        g = levy_lift(standard_cofinal(W), transfinite_f_seq(nat))
        assert [g.at(i) for i in range(8)] == list(range(8))
        assert g.block_lengths(5) == [fin(1)] * 5


@pytest.fixture(scope="module")
def lifted(nat):
    f = transfinite_f_seq(nat)
    return f, levy_lift(standard_cofinal(Ordinal.omega(2)), f)


class TestLiftOmegaTimes2:
    def test_frozen_values(self, lifted):
        # hand trace: block 0 takes every other natural (0,2,4,...),
        # the singleton blocks then walk the odds in order
        _f, g = lifted
        assert g.at(0) == 0
        assert g.at(5) == 10
        assert g.at(W) == 1
        assert g.at(ord_add(W, fin(7))) == 15
        assert g.at(ord_add(W, fin(50))) == 101

    def test_membership_at_mandated_samples(self, lifted):
        f, g = lifted
        pts = [ZERO, fin(5), W, ord_add(W, fin(7)), ord_add(W, fin(50))]
        assert check_transfinite_witness(f, g, pts)
        assert check_transfinite_witness(f, g, g.default_samples())

    def test_fresh_after_the_whole_block(self, lifted):
        f, g = lifted
        restriction = g.restrict(W)
        assert not f.member(restriction, 0)      # used at position 0
        assert not f.member(restriction, 2244)   # evens all used by block 0
        assert f.member(restriction, 2245)

    def test_injective_across_sampled_pairs(self, lifted):
        _f, g = lifted
        rng = random.Random(303)
        points = [ord_add(W, fin(rng.randrange(500))) if rng.random() < 0.5
                  else fin(rng.randrange(500)) for _ in range(1000)]
        values = {}
        for b in points:
            v = g.at(b)
            assert values.setdefault(v, b) == b
        assert len(values) == len({str(b) for b in points})

    def test_samples_in_report(self, lifted):
        f, g = lifted
        report = sample_report(f, g, g.default_samples())
        assert all(entry["ok"] for entry in report)
        assert report[0]["beta"] == "0"


class TestLiftOmegaTimes3:
    def test_blocks_split_the_fresh_indices(self, nat):
        f = transfinite_f_seq(nat)
        g = levy_lift(standard_cofinal(Ordinal.omega(3)), f)
        assert [at_block(g, 0, i) for i in range(4)] == [0, 2, 4, 6]
        assert [at_block(g, 1, i) for i in range(4)] == [1, 5, 9, 13]
        assert [at_block(g, 2, i) for i in range(4)] == [3, 7, 11, 15]
        assert check_transfinite_witness(f, g, g.default_samples())
        lengths = g.block_lengths(50)
        assert lengths[:2] == [W, W] and set(lengths[2:]) == {fin(1)}


class TestChecker:
    def test_empty_samples_true(self, nat):
        f = transfinite_f_seq(nat)
        g = levy_lift(standard_cofinal(W), f)
        assert check_transfinite_witness(f, g, [])

    def test_corrupted_value_detected(self, nat):
        f = transfinite_f_seq(nat)
        g = levy_lift(standard_cofinal(Ordinal.omega(2)), f)
        swap_at = ord_add(W, fin(7))

        class Corrupted:
            length = g.length

            def at(self, pos):
                p = pos if isinstance(pos, Ordinal) else fin(pos)
                return g.at(0) if p == swap_at else g.at(p)

            def restrict(self, length):
                return g.restrict(length)

        bad = Corrupted()
        assert not check_transfinite_witness(f, bad, [swap_at])
        assert check_transfinite_witness(f, bad, [ZERO, fin(5), W])

    def test_out_of_domain_sample(self, nat):
        f = transfinite_f_seq(nat)
        g = levy_lift(standard_cofinal(W), f)
        with pytest.raises(OutOfDomain):
            check_transfinite_witness(f, g, [W])

    def test_full_restriction_refused(self, nat):
        g = levy_lift(standard_cofinal(W), transfinite_f_seq(nat))
        with pytest.raises(RangeNotDecidable):
            g.restrict(W)
        with pytest.raises(IndexError, match="cannot restrict length w\\*1 to w\\*1 \\+ 1"):
            g.restrict(ord_add(W, fin(1)))

    def test_finite_sequences_checked_by_scan(self, nat):
        f = transfinite_f_seq(nat)
        s = TransfiniteSeq.from_items((4, 9))
        assert f.member(s, 7)
        assert not f.member(s, 9)
        assert f.select(s) == 0

    def test_undecidable_range_signalled(self, nat):
        f = transfinite_f_seq(nat)
        bare = TransfiniteSeq(W, lambda p: p.to_int())
        with pytest.raises(RangeNotDecidable):
            f.member(bare, 3)


class TestBuilders:
    def test_wrong_length_rejected(self, nat):
        f = transfinite_f_seq(nat)

        def stub(gamma, _f, prefix):
            return BuiltBlock(TransfiniteSeq.from_items((0, 1)), indices=(0, 1))

        with pytest.raises(BadBlock):
            levy_lift(standard_cofinal(W), f, builder=stub).at(0)
        with pytest.raises(BadBlock, match="must return a BuiltBlock"):
            levy_lift(standard_cofinal(W), f, builder=lambda *args: None).at(0)

    def test_disallowed_value_rejected(self, nat):
        f = transfinite_f_seq(nat)

        def repeat_zero(gamma, _f, prefix):
            return BuiltBlock(TransfiniteSeq.from_items((0,)), indices=(0,))

        with pytest.raises(BadBlockWitness) as exc:
            levy_lift(standard_cofinal(W), f, builder=repeat_zero).at(3)
        assert exc.value.details["position"] == "1"

    @pytest.mark.parametrize("lie, message", [
        ("consumes nothing", "still allowed after the block"),
        ("other indices", "still allowed after the block"),
        ("no indices", "reports no indices"),
    ])
    def test_misreported_bookkeeping_is_bad_block(self, nat, lie, message):
        std = standard_block_builder(nat)

        def liar(gamma, f, prefix):
            b = std(gamma, f, prefix)
            if not gamma.is_finite():
                return b
            other = tuple(k + 2 for k in b.indices)  # the next odd index, still fresh
            return BuiltBlock(b.seq, indices={"consumes nothing": (), "other indices": other,
                                              "no indices": None}[lie])

        g = levy_lift(standard_cofinal(parse_cnf("w*2")), transfinite_f_seq(nat),
                      builder=liar)
        assert g.at(3) == 6
        for _ in range(2):  # a refused block is refused again, never served
            with pytest.raises(BadBlock) as exc:
                g.at(parse_cnf("w + 5"))
            assert exc.type is BadBlock and message in str(exc.value)
        assert "block 1 " in str(exc.value)

    @pytest.mark.parametrize("alpha, message", [
        ("w*2", "block 0 has no layer over its prefix's usage"),
        ("w", "block 0 of length 1 reports no indices"),
    ])
    def test_a_block_that_reports_nothing_consumed_is_bad_block(self, nat, alpha, message):
        """A finite block must report its indices and a block of length w
        its layer: the lift derives the usage after the block from them."""
        std = standard_block_builder(nat)

        def silent(gamma, f, prefix):
            return BuiltBlock(std(gamma, f, prefix).seq)

        g = levy_lift(standard_cofinal(parse_cnf(alpha)), transfinite_f_seq(nat),
                      builder=silent)
        with pytest.raises(BadBlock) as exc:
            g.at(0)
        assert exc.type is BadBlock and str(exc.value) == message

    def test_a_block_whose_indices_miss_its_values_is_refused(self, nat):
        """On the ladder 0, 2, 5, 9, ..., block 2 (positions 5 to 8) reports
        a fresh index in place of its last value's: the lift consumes what
        is reported, so that value is still allowed after the block, and
        the block is refused by name."""
        std = standard_block_builder(nat)

        def short(gamma, f, prefix):
            b = std(gamma, f, prefix)
            if prefix.length != fin(5):
                return b
            return BuiltBlock(b.seq, indices=b.indices[:-1] + (b.indices[-1] + 1,))

        cof = CofinalPresentation(W, lambda n: fin(n * (n + 3) // 2))
        g = levy_lift(cof, transfinite_f_seq(nat), builder=short)
        assert [g.at(j) for j in range(5)] == [0, 1, 2, 3, 4]
        with pytest.raises(BadBlock, match="^block 2 value at offset 3 is still allowed "
                                           "after the block, at 9$"):
            g.at(5)
        with pytest.raises(BadBlock, match="^block 2 "):  # refused again, never served
            g.at(6)

    def test_a_finite_block_that_repeats_a_value_is_refused(self, nat):
        """On the ladder 0, 2, 4, ..., block 0 has the values (0, 0) and
        reports the indices (5, 0), so both are consumed by its end; value 0
        is still allowed after offset 1, where only 5 is consumed, and was
        served twice."""
        def repeat(gamma, f, prefix):
            return BuiltBlock(TransfiniteSeq.from_items((0, 0)), indices=(5, 0))

        f = transfinite_f_seq(nat)
        g = levy_lift(CofinalPresentation(W, lambda n: fin(2 * n)), f, builder=repeat)
        for query in (lambda: g.at(1), lambda: check_transfinite_witness(f, g, [1])):
            with pytest.raises(BadBlock, match="^block 0 value at offset 0 is still "
                                               "allowed after it, at 1$"):
                query()

    @pytest.mark.parametrize("bad", [0, 1, 2, 5, 13])
    def test_omega_block_probes(self, nat, bad):
        """An infinite block is probed at offsets 0, 1, 2, 5 and 13; a code
        outside the set at any of them is refused."""
        std = standard_block_builder(nat)

        def outside_at(gamma, f, prefix):
            b = std(gamma, f, prefix)
            if gamma != W:
                return b
            seq = TransfiniteSeq(W, lambda j: -1 if j == fin(bad) else b.seq.at(j))
            return BuiltBlock(seq, layer=b.layer)

        g = levy_lift(standard_cofinal(parse_cnf("w*2")), transfinite_f_seq(nat),
                      builder=outside_at)
        with pytest.raises(BadBlockWitness, match=f"block 0 value at offset {bad} is not"):
            g.at(0)

    def test_a_long_finite_block_probes_every_value(self, nat):
        """Each value is probed, and each probe asks ``member`` twice:
        allowed before, refused after.  The first 64 values alone were
        probed, 128 calls."""
        plain = transfinite_f_seq(nat)
        calls = [0]

        def member(seq, v):
            calls[0] += 1
            return plain.member(seq, v)

        f = TransfiniteFunctional("counted", member, plain.select, set=nat)
        cof = CofinalPresentation(W, lambda n: fin(100 * n))
        g = levy_lift(cof, f)
        assert g.at(99) == 99 and calls[0] == 2 * 100

    def test_a_finite_block_is_checked_past_its_64th_value(self, nat):
        """Block 0 of the ladder 0, 100, 200, ... repeats value 70 at offset
        80 and reports index 70 there.  Only the first 64 values were
        probed, so ``g.at(70) == g.at(80) == 70`` was served and passed the
        default samples."""
        std = standard_block_builder(nat)

        def repeat_late(gamma, f, prefix):
            b = std(gamma, f, prefix)
            values = [b.seq.at(j) for j in range(100)]
            values[80] = values[70]
            return BuiltBlock(TransfiniteSeq.from_items(values),
                              indices=b.indices[:80] + b.indices[70:71] + b.indices[81:])

        f = transfinite_f_seq(nat)
        g = levy_lift(CofinalPresentation(W, lambda n: fin(100 * n)), f, builder=repeat_late)
        for query in (lambda: g.at(70),
                      lambda: check_transfinite_witness(f, g, g.default_samples())):
            with pytest.raises(BadBlockWitness, match="^block 0 value at offset 80 is not "
                                                      "allowed$") as exc:
                query()
            assert exc.value.details["position"] == "80"

    @pytest.mark.parametrize("per_block", [False, True])
    def test_a_unit_block_value_outside_the_set_is_bad_block_witness(self, nat, per_block):
        """A select that returns a code outside the set raised the bare
        ``ValueError`` of ``index_of``; the unit block at w, the first
        finite block under w*2, is refused by name, through the lift's
        unit-block loop and through the builder alike."""
        f = transfinite_f_seq(nat)
        bad = TransfiniteFunctional("bad", f.member, lambda s: -1, set=nat)
        std = standard_block_builder(nat)
        builder = (lambda *args: std(*args)) if per_block else std
        g = levy_lift(standard_cofinal(parse_cnf("w*2")), bad, builder=builder)
        assert g.at(5) == 10
        for _ in range(2):  # refused again, never served
            with pytest.raises(BadBlockWitness, match="^value -1 at offset 0 of the block "
                                                      "at w\\*1 is not in nat$") as exc:
                g.at(parse_cnf("w + 3"))
            assert exc.value.details["position"] == "w*1"
        assert len(g._blocks) == 1

    def test_a_finite_block_value_outside_the_set_is_bad_block_witness(self, nat):
        """On the ladder 0, 3, 6, ... the select gives -1 at position 4,
        offset 1 of block 1."""
        f = transfinite_f_seq(nat)
        bad = TransfiniteFunctional(
            "bad", f.member, lambda s: -1 if s.length == fin(4) else f.select(s), set=nat)
        g = levy_lift(CofinalPresentation(W, lambda n: fin(3 * n)), bad)
        assert g.at(2) == 2
        with pytest.raises(BadBlockWitness, match="^value -1 at offset 1 of the block at 3 "
                                                  "is not in nat$") as exc:
            g.at(3)
        assert exc.value.details["position"] == "4" and len(g._blocks) == 1

    @pytest.mark.parametrize("wrap", ["plain", "functools.wraps"])
    def test_a_custom_builder_is_called_once_per_block_in_order(self, nat, wrap):
        """A builder other than the standard one itself, even a wrapper of
        it that copies its attributes, builds every block, unit blocks too:
        one call per block, in order, and none for a warm query."""
        std, calls = standard_block_builder(nat), []

        def counted(gamma, f, prefix):
            calls.append((str(gamma), str(prefix.length)))
            return std(gamma, f, prefix)

        builder = functools.wraps(std)(counted) if wrap == "functools.wraps" else counted
        f = transfinite_f_seq(nat)
        g = levy_lift(standard_cofinal(parse_cnf("w*3")), f, builder=builder)
        assert g.at(parse_cnf("w*2 + 3")) == 15
        assert calls == [("w*1", "0"), ("w*1", "w*1"), ("1", "w*2"), ("1", "w*2 + 1"),
                         ("1", "w*2 + 2"), ("1", "w*2 + 3")]
        assert g.at(parse_cnf("w*2 + 1")) == 7 and len(calls) == 6

    def test_standard_builder_gives_an_empty_block_for_length_0(self, nat):
        build = standard_block_builder(nat)
        prefix = UsageSeq(fin(2), lambda p: p.to_int(), usage=IndexUsage().with_explicit((0, 1)))
        block = build(ZERO, transfinite_f_seq(nat), prefix)
        assert block.seq.length == ZERO and block.indices == () and block.layer is None

    def test_builder_needs_usage(self, nat):
        build = standard_block_builder(nat)
        with pytest.raises(RangeNotDecidable):
            build(fin(1), transfinite_f_seq(nat), TransfiniteSeq.from_items(()))

    def test_standard_builder_takes_finite_and_w_blocks_only(self, nat):
        build = standard_block_builder(nat)
        empty = UsageSeq(ZERO, TransfiniteSeq.from_items(()).at, usage=IndexUsage())
        with pytest.raises(BadBlock, match="block length w\\*2 unsupported"):
            build(parse_cnf("w*2"), transfinite_f_seq(nat), empty)

    def test_custom_builder_over_evens(self):
        ev = evens_set()
        f = transfinite_f_seq(ev)
        g = levy_lift(standard_cofinal(Ordinal.omega(2)), f)
        assert g.at(0) == 0
        assert g.at(W) == 2
        assert check_transfinite_witness(f, g, g.default_samples())

    def test_functional_without_set_needs_builder(self, nat):
        from forcelab.levy import TransfiniteFunctional
        f = transfinite_f_seq(nat)
        anonymous = TransfiniteFunctional("anon", f.member, f.select)
        with pytest.raises(ValueError):
            levy_lift(standard_cofinal(W), anonymous)
        g = levy_lift(standard_cofinal(W), anonymous,
                      builder=standard_block_builder(nat))
        assert g.at(2) == 2


def growing_blocks_ladder():
    """Under w*2: first w, then finite blocks of lengths 3, 4, 5, ..."""
    def stage(n):
        return ord_add(W, fin((n - 1) * (n + 4) // 2)) if n else ZERO

    return CofinalPresentation(Ordinal.omega(2), stage)


class TestLongerFiniteBlocks:
    def test_samples_split_a_finite_first_block(self, nat):
        """A first block of finite length l >= 2 is sampled at l // 2."""
        cof = CofinalPresentation(W, lambda n: fin(3 * n))
        f = transfinite_f_seq(nat)
        g = levy_lift(cof, f)
        samples = [fin(n) for n in (0, 1, 3, 6, 9, 12, 15)]
        assert g.default_samples() == samples
        assert check_transfinite_witness(f, g, samples)

    def test_values_checks_and_restrictions(self, nat):
        cof = growing_blocks_ladder()
        f = transfinite_f_seq(nat)
        g = levy_lift(cof, f)
        assert [str(length) for length in g.block_lengths(4)] == ["w*1", "3", "4", "5"]
        positions = [ord_add(W, fin(i)) for i in range(30)]
        assert [g.at(p) for p in positions] == list(range(1, 60, 2))
        assert check_transfinite_witness(f, g, positions)
        # w + 5 lies inside the block [w + 3, w + 7): below it the w-block
        # took the even indices and the finite blocks took 1, 3, 5, 7, 9
        usage = g.restrict(positions[5]).usage
        assert ([k for k in range(40) if usage.contains(k)]
                == sorted(set(range(0, 40, 2)) | {1, 3, 5, 7, 9}))

    def test_a_restriction_inside_an_omega_block_after_a_finite_one(self, nat):
        """On 0, 1, w, w + 1, ... block 0 takes index 0 and block 1 the
        even-ranked fresh indices after it, 1, 3, 5, ...; below 4 it has
        taken three of them."""
        f = transfinite_f_seq(nat)
        g = levy_lift(CofinalPresentation(Ordinal.omega(2), lambda n: fin(n) if n < 2
                                          else ord_add(W, fin(n - 2))), f)
        assert [g.at(j) for j in range(5)] == [0, 1, 3, 5, 7]
        usage = g.restrict(fin(4)).usage
        assert [k for k in range(10) if usage.contains(k)] == [0, 1, 3, 5]
        assert check_transfinite_witness(f, g, [fin(j) for j in range(6)])

    def test_select_sees_the_lift_s_previous_values(self, nat):
        plain = transfinite_f_seq(nat)
        seen = []

        def select(seq):
            # read the last two values, where the length has them
            length, back = seq.length, []
            while len(back) < 2 and length.is_successor():
                length = length.pred()
                back.append((length, seq.at(length)))
            seen.extend(back)
            return plain.select(seq)

        f = TransfiniteFunctional("seq-reading", plain.member, select, set=nat)
        g = levy_lift(growing_blocks_ladder(), f)
        assert g.at(ord_add(W, fin(11))) == 23
        inside = [(p, v) for p, v in seen if W <= p]
        assert len(inside) > 10 and all(v == g.at(p) for p, v in inside)
        # the block [w + 3, w + 7) read w + 2, the last value of the block before
        assert (ord_add(W, fin(2)), 5) in seen


def mixed_ladder(lengths):
    """The ladder whose first blocks have the given lengths (an int, or
    None for w), then unit blocks; alpha is w times one more than the
    number of w-blocks.  Also its stages up to the end of those blocks."""
    stages = [ZERO]
    for n in lengths:
        stages.append(ord_add(stages[-1], W if n is None else fin(n)))

    def stage(n):
        return stages[n] if n < len(stages) else ord_add(stages[-1], fin(n - len(stages) + 1))

    return CofinalPresentation(Ordinal.omega(lengths.count(None) + 1), stage), stages


_lengths = st.lists(st.one_of(st.just(1), st.integers(2, 70), st.none()), min_size=1, max_size=8)
_sets = st.sampled_from([nat_set, evens_set, pairs_set])


class TestUnitRuns:
    """The lift builds the unit blocks of the standard builder in one loop;
    the builder, wrapped in a plain function, takes the per-block path, the
    oracle: the same values, usages, lengths and checks, and the same
    refusals."""

    @staticmethod
    def lifts(cof, f, x):
        build = standard_block_builder(x)
        return (levy_lift(cof, f, builder=build),
                levy_lift(cof, f, builder=lambda *args: build(*args)))

    @settings(max_examples=60, deadline=None)
    @given(_lengths, _sets)
    def test_a_run_built_lift_matches_the_per_block_path(self, lengths, make_set):
        x = make_set()
        f = transfinite_f_seq(x)
        cof, stages = mixed_ladder(lengths)
        run, oracle = self.lifts(cof, f, x)
        deepest = ord_add(stages[-1], fin(3))
        assert run.at(deepest) == oracle.at(deepest)
        blocks = len(lengths) + 4
        assert len(run._blocks) == len(oracle._blocks) == blocks
        assert [p.usage for p in run._prefixes] == [p.usage for p in oracle._prefixes]
        assert run.block_lengths(blocks) == oracle.block_lengths(blocks)
        positions = [ord_add(stages[k], fin(j)) for k, n in enumerate(lengths)
                     for j in range(16 if n is None else n)]
        positions += [ord_add(stages[-1], fin(j)) for j in range(4)]
        assert [run.at(p) for p in positions] == [oracle.at(p) for p in positions]
        samples = positions + run.default_samples()
        assert check_transfinite_witness(f, run, samples)
        assert check_transfinite_witness(f, oracle, samples)

    @settings(max_examples=60, deadline=None)
    @given(_lengths, _sets, st.data())
    def test_a_stale_functional_is_refused_alike(self, lengths, make_set, data):
        """From block k on the functional selects a used code, selects a
        code outside the set, or allows every code.  Both lifts refuse the
        first block that asks it, with the same error, serve the blocks
        before it, and refuse it again on a second query."""
        x = make_set()
        plain = transfinite_f_seq(x)
        cof, stages = mixed_ladder(lengths)
        kind = data.draw(st.sampled_from(["used", "outside", "allows"]))
        k = data.draw(st.integers(kind == "used", len(lengths) + 2))
        stale = cof.stage(k)

        def select(seq):
            if seq.length < stale:
                return plain.select(seq)
            return seq.at(ZERO) if kind == "used" else -1

        def member(seq, v):
            return (kind == "allows" and stale < seq.length) or plain.member(seq, v)

        f = TransfiniteFunctional("stale", member, select, set=x)
        finite = [n is not None for n in lengths] + [True] * 4
        # select is asked by finite blocks only, member by every block
        refused = k if kind == "allows" else finite.index(True, k)
        deepest = ord_add(stages[-1], fin(3))
        errors, served = [], []
        for g in self.lifts(cof, f, x):
            for _ in range(2):
                with pytest.raises((BadBlock, BadBlockWitness)) as exc:
                    g.at(deepest)
                errors.append((exc.type, str(exc.value), exc.value.details))
                assert len(g._blocks) == refused
            served.append([g.at(cof.stage(xi)) for xi in range(refused)])
        assert errors[1:] == errors[:1] * 3 and served[0] == served[1]


class TestReport:
    def test_report_schema(self, nat):
        f = transfinite_f_seq(nat)
        cof = standard_cofinal(Ordinal.omega(2))
        g = levy_lift(cof, f)
        doc = run_report_json(cof, f, g, blocks=3,
                              samples=g.default_samples())
        assert doc["alpha"] == "w*2"
        assert doc["blocks"] == [{"xi": 0, "gamma": "w*1"},
                                 {"xi": 1, "gamma": "1"},
                                 {"xi": 2, "gamma": "1"}]
        assert all(s["ok"] for s in doc["samples"])
