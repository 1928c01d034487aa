import random

import pytest

from forcelab import ordinals
from forcelab.collapse import evens_set, nat_set
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
    validate_cofinal,
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


class TestCofinal:
    def test_standard_omega(self):
        cof = standard_cofinal(W)
        assert [cof.stage(i) for i in range(4)] == [ZERO, fin(1), fin(2), fin(3)]
        validate_cofinal(cof)

    def test_standard_omega_times_2(self):
        cof = standard_cofinal(Ordinal.omega(2))
        assert [str(cof.stage(i)) for i in range(4)] == ["0", "w*1", "w*1 + 1",
                                                         "w*1 + 2"]
        validate_cofinal(cof)

    def test_standard_omega_times_3(self):
        cof = standard_cofinal(Ordinal.omega(3))
        assert [str(cof.stage(i)) for i in range(5)] == ["0", "w*1", "w*2", "w*2 + 1",
                                                         "w*2 + 2"]
        validate_cofinal(cof)

    def test_standard_omega_squared(self):
        cof = standard_cofinal(parse_cnf("w^2"))
        assert [cof.stage(i) for i in range(10)] == [ZERO] + [Ordinal.omega(i)
                                                            for i in range(1, 10)]
        validate_cofinal(cof)

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

    def test_validate_catches_bad_ladders(self):
        flat = CofinalPresentation(Ordinal.omega(2), lambda n: ZERO)
        with pytest.raises(BadCofinal):
            validate_cofinal(flat)
        not_zero = CofinalPresentation(Ordinal.omega(2), lambda n: fin(n + 1))
        with pytest.raises(BadCofinal):
            validate_cofinal(not_zero)
        too_long = CofinalPresentation(parse_cnf("w^2*2"),
                                       lambda n: Ordinal.omega_power(2, n))
        with pytest.raises(BadCofinal):
            validate_cofinal(too_long)

    def test_validate_names_the_block_of_another_length(self):
        """Block 1 of 0, 1, w*4, w*6, ... is [1, w*4), of type w*4."""
        wide = CofinalPresentation(
            parse_cnf("w^2"), lambda n: fin(n) if n < 2 else Ordinal.omega(2 * n))
        with pytest.raises(BadCofinal, match=r"^block 1 has length w\*4, not finite or w$"):
            validate_cofinal(wide)

    def test_default_samples_ask_the_ladder_nothing(self, nat):
        calls = []
        base = standard_cofinal(parse_cnf("w*3"))
        cof = CofinalPresentation(base.alpha, lambda n: calls.append(n) or base.stage(n))
        g = levy_lift(cof, transfinite_f_seq(nat))
        assert calls == list(range(51))  # the lift's check of its first stages
        assert g.default_samples() == [ZERO, fin(3), W, Ordinal.omega(2),
                                       *(parse_cnf(f"w*2 + {i}") for i in range(1, 4))]
        assert calls == list(range(51))

    @pytest.mark.parametrize("first, mid", [(2, 1), (4, 2), (5, 2)])
    def test_default_samples_split_a_short_first_block(self, nat, first, mid):
        cof = CofinalPresentation(W, lambda n: fin(first * n))
        g = levy_lift(cof, transfinite_f_seq(nat))
        assert g.default_samples() == sorted({ZERO, fin(mid)} | {fin(first * i)
                                                                 for i in range(1, 6)})

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

    def test_validate_refuses_a_stage_that_reaches_alpha(self):
        overshoot = CofinalPresentation(Ordinal.omega(2), lambda n: Ordinal.omega_power(1, n))
        with pytest.raises(BadCofinal, match=r"stage 2 reaches w\*2"):
            validate_cofinal(overshoot)

    @pytest.mark.parametrize("value", [0, 3, "w", None, 1.0])
    def test_a_stage_that_is_no_ordinal_is_refused(self, nat, value):
        """A ladder of ints, strings or None is a ``BadCofinal`` naming the
        stage; it escaped as a raw ``AttributeError`` from ``is_zero``."""
        with pytest.raises(BadCofinal, match=f"^stage 0 is {value!r}, not an Ordinal$"):
            levy_lift(CofinalPresentation(W, lambda n: value), transfinite_f_seq(nat))
        with pytest.raises(BadCofinal, match="^stage 0 is 0, not an Ordinal$"):
            levy_lift(CofinalPresentation(W, lambda n: n), transfinite_f_seq(nat))

    def test_a_later_stage_that_is_no_ordinal_is_refused(self, nat):
        """Stages past the checked ones are read as blocks are built, and
        each is checked as it is read."""
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

    def test_a_long_finite_block_makes_64_probes(self, nat):
        """Each probe asks ``member`` twice: allowed before, refused after."""
        plain = transfinite_f_seq(nat)
        calls = [0]

        def member(seq, v):
            calls[0] += 1
            return plain.member(seq, v)

        f = TransfiniteFunctional("counted", member, plain.select, set=nat)
        cof = CofinalPresentation(W, lambda n: fin(100 * n))
        g = levy_lift(cof, f)
        assert g.at(99) == 99 and calls[0] == 2 * 64

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
