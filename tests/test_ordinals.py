import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.sets.ordinals import Ordinal as SymOrdinal
from sympy.sets.ordinals import OmegaPower, ord0

from forcelab.errors import (
    EmptyComponent,
    MissingLimitLength,
    NoOmegaBijection,
    OrdinalOverflow,
    SsupOfEmpty,
)
from forcelab.levy import standard_cofinal
from forcelab.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalsBelow,
    TransfiniteSeq,
    concat,
    format_cnf,
    omega_bijection,
    ord_add,
    ord_of,
    ord_sub_left,
    parse_cnf,
    ssup,
)

W = OMEGA


def fin(n):
    return Ordinal.from_int(n)


def rand_ordinal(rng, max_exp=3, max_terms=3, max_coeff=5):
    exps = sorted(rng.sample(range(max_exp + 1), rng.randint(0, max_terms)),
                  reverse=True)
    return Ordinal(tuple((e, rng.randint(1, max_coeff)) for e in exps))


def to_sympy(a):
    if not a.terms:
        return ord0
    return SymOrdinal(*[OmegaPower(e, c) for e, c in a.terms])


class TestArithmetic:
    def test_zero_identity(self):
        assert ord_add(ZERO, W) == W
        assert ord_add(W, ZERO) == W

    def test_absorption_noncommutative(self):
        assert ord_add(ONE, W) == W
        assert ord_add(W, ONE) == parse_cnf("w*1 + 1")
        assert ord_add(W, ONE) != W
        assert ONE + W == W and W + ONE == ord_add(W, ONE)  # ``+`` is ord_add

    def test_mixed_sum_example(self):
        # independent oracle: sympy agrees that (w*2+3) + (w+1) = w*3 + 1
        a, b = parse_cnf("w*2 + 3"), parse_cnf("w + 1")
        assert ord_add(a, b) == parse_cnf("w*3 + 1")
        assert to_sympy(ord_add(a, b)) == to_sympy(a) + to_sympy(b)

    def test_addition_matches_sympy(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = rand_ordinal(rng), rand_ordinal(rng)
            assert to_sympy(ord_add(a, b)) == to_sympy(a) + to_sympy(b)

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(2000):
            a, b, c = (rand_ordinal(rng) for _ in range(3))
            assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    def test_order_matches_sympy(self):
        rng = random.Random(13)
        for _ in range(500):
            a, b = rand_ordinal(rng), rand_ordinal(rng)
            assert (a < b) == (to_sympy(a) < to_sympy(b))

    def test_left_subtraction_roundtrip(self):
        rng = random.Random(17)
        for _ in range(500):
            a, b = rand_ordinal(rng), rand_ordinal(rng)
            if b < a:
                a, b = b, a
            assert ord_add(a, ord_sub_left(a, b)) == b

    def test_subtraction_refuses_reversed(self):
        with pytest.raises(ValueError):
            ord_sub_left(W, ONE)

    def test_successor_predecessor(self):
        a = parse_cnf("w^2*2 + 5")
        assert a.succ().pred() == a
        assert W.is_limit() and not W.is_successor()
        assert fin(3).is_successor()
        with pytest.raises(ValueError):
            W.pred()


class TestTextFormat:
    @pytest.mark.parametrize("text", ["0", "4", "w*1", "w*2 + 3",
                                      "w^2*3 + w*1 + 4", "w^5*1 + 2"])
    def test_roundtrip_exact(self, text):
        assert format_cnf(parse_cnf(text)) == text
        assert repr(parse_cnf(text)) == f"Ordinal({text!r})"

    def test_roundtrip_random(self):
        rng = random.Random(19)
        for _ in range(300):
            a = rand_ordinal(rng, max_exp=5)
            assert parse_cnf(format_cnf(a)) == a

    def test_rejects_garbage(self):
        for bad in ["w^", "+ 3", "w*0", "3 + w*1"]:
            with pytest.raises(ValueError):
                parse_cnf(bad)

    @pytest.mark.parametrize("text", [
        "w^-0", "w*1_0", "1_0", "w^ 2", "w* 3", "w^2 *3",
        "w*2\t+ 3", "\nw", "w*\u0663", "\uff17",
    ])
    def test_refuses_what_int_alone_let_through(self, text):
        # a sign, digit separators, a space inside a term, whitespace other
        # than spaces, and digits other than ASCII ones
        with pytest.raises(ValueError, match="cannot parse"):
            parse_cnf(text)

    @pytest.mark.parametrize("text, terms", [
        ("w", ((1, 1),)), ("w^3", ((3, 1),)), ("w^0", ((0, 1),)), ("007", ((0, 7),)),
        (" w^2*3+w + 4 ", ((2, 3), (1, 1), (0, 4))), (" 0 ", ()),
    ])
    def test_every_term_form(self, text, terms):
        assert parse_cnf(text).terms == terms

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(0, 12), st.integers(1, 10**12), max_size=6))
    def test_format_parses_back(self, coeffs):
        a = Ordinal(tuple(sorted(coeffs.items(), reverse=True)))
        assert parse_cnf(format_cnf(a)) == a


class TestSsup:
    def test_max_plus_one(self):
        assert ssup([fin(0), fin(1), fin(2)]) == fin(3)

    def test_limit_case(self):
        assert ssup(OrdinalsBelow(W)) == W
        assert ssup(OrdinalsBelow(fin(3))) == fin(3)

    def test_iteration_lists_the_members_in_order(self):
        assert list(OrdinalsBelow(fin(3))) == [fin(0), fin(1), fin(2)]
        assert list(OrdinalsBelow(ZERO)) == []
        assert list(itertools.islice(OrdinalsBelow(W), 4)) == [fin(n) for n in range(4)]

    def test_two_cases_brute(self):
        # brute force over the definition: least ordinal above both elements
        ys = [W, ord_add(W, fin(4))]
        expected = max(ys).succ()
        assert ssup(ys) == expected == parse_cnf("w*1 + 5")

    def test_empty_signals(self):
        with pytest.raises(SsupOfEmpty):
            ssup([])
        with pytest.raises(SsupOfEmpty):
            ssup(OrdinalsBelow(ZERO))

    def test_accepts_ints(self):
        assert ssup([0, 5, 2]) == fin(6)


def seq_of(*items):
    return TransfiniteSeq.from_items(items)


class TestTransfiniteSeq:
    def test_bounds_checked(self):
        s = seq_of("a", "b")
        assert s.at(1) == "b"
        with pytest.raises(IndexError):
            s.at(2)

    def test_purity_double_evaluation(self):
        s = TransfiniteSeq(W, lambda p: ("item", p.to_int() * 2))
        for n in (0, 3, 17):
            assert s.at(n) == s.at(n)

    def test_restrict(self):
        s = seq_of(1, 2, 3)
        r = s.restrict(2)
        assert r.length == fin(2) and [r.at(i) for i in range(2)] == [1, 2]
        with pytest.raises(IndexError):
            s.restrict(5)


class TestConcat:
    def test_finite_agrees_with_list_concat(self):
        t = seq_of(seq_of("a", "b"), seq_of("c"))
        c = concat(t)
        assert c.length == fin(3)
        assert [c.at(i) for i in range(3)] == ["a", "b", "c"]

    def test_finite_random_against_lists(self):
        rng = random.Random(23)
        for _ in range(100):
            chunks = [[rng.randint(0, 9) for _ in range(rng.randint(1, 4))]
                      for _ in range(rng.randint(1, 5))]
            t = TransfiniteSeq.from_items(
                [TransfiniteSeq.from_items(ch) for ch in chunks])
            c = concat(t)
            flat = [v for ch in chunks for v in ch]
            assert c.length == fin(len(flat))
            assert [c.at(i) for i in range(len(flat))] == flat

    def test_constant_blocks_of_length_one(self):
        t = TransfiniteSeq(W, lambda p: seq_of("x"))
        c = concat(t, limit_length=W)
        assert c.length == W
        for n in (0, 1, 10, 99):
            assert c.at(n) == "x"

    def test_omega_block_then_singletons(self):
        # hand oracle for the offsets: sigma_0 = 0, sigma_1 = w,
        # sigma_{n+1} = w + n, so position w + 3 falls in component 4.
        def component(p):
            n = p.to_int()
            if n == 0:
                return TransfiniteSeq(W, lambda q: ("x0", q.to_int()))
            return seq_of((f"x{n}", 0))

        t = TransfiniteSeq(W, component)
        c = concat(t, limit_length=Ordinal.omega(2))
        assert c.length == Ordinal.omega(2)
        assert c.at(ord_add(W, fin(3))) == ("x4", 0)
        assert c.at(ord_add(W, fin(0))) == ("x1", 0)
        assert c.at(5) == ("x0", 5)

    def test_empty_component_rejected(self):
        t = seq_of(seq_of("a"), TransfiniteSeq.from_items([]))
        with pytest.raises(EmptyComponent):
            concat(t)

    def test_infinite_needs_declared_length(self):
        t = TransfiniteSeq(W, lambda p: seq_of("x"))
        with pytest.raises(MissingLimitLength):
            concat(t)

    def test_declared_length_checked(self):
        t = seq_of(seq_of(1), seq_of(2))
        with pytest.raises(OrdinalOverflow):
            concat(t, limit_length=fin(3))
        t2 = TransfiniteSeq(W, lambda p: seq_of("x"))
        with pytest.raises(OrdinalOverflow):
            concat(t2, limit_length=ord_add(W, fin(1)))

    def test_offset_law(self):
        # sigma recurrence against independently folded ordinal sums
        lengths = [W if n % 7 == 0 else fin(n % 3 + 1) for n in range(51)]

        def component(p):
            n = p.to_int()
            ln = lengths[n] if n < len(lengths) else fin(1)
            return TransfiniteSeq(ln, lambda q, n=n: (n, str(q)))

        t = TransfiniteSeq(W, component)
        sigma = ZERO
        sigmas = []
        for n in range(51):
            sigmas.append(sigma)
            sigma = ord_add(sigma, lengths[n])
        c = concat(t, limit_length=Ordinal.omega_power(2))
        for xi in range(51):
            assert c.at(sigmas[xi]) == (xi, "0")
            if lengths[xi] == W:
                assert c.at(ord_add(sigmas[xi], fin(5))) == (xi, "5")


class TestOmegaBijection:
    def test_identity_on_omega(self):
        bij = omega_bijection(W)
        for n in range(100):
            assert bij.forward(fin(n)) == n
            assert bij.backward(n) == fin(n)
        with pytest.raises(ValueError, match="negative index"):
            bij.backward(-1)

    def test_omega_times_two_interleaves(self):
        bij = omega_bijection(Ordinal.omega(2))
        # exhaustive on the first 1000 positions: evens and odds
        for n in range(500):
            assert bij.forward(fin(n)) == 2 * n
            assert bij.forward(ord_add(W, fin(n))) == 2 * n + 1
        assert len({bij.forward(bij.backward(k)) for k in range(1000)}) == 1000

    def test_omega_squared_roundtrip(self):
        bij = omega_bijection(Ordinal.omega_power(2))
        o = parse_cnf("w*3 + 5")
        assert bij.backward(bij.forward(o)) == o
        rng = random.Random(29)
        for _ in range(1000):
            o = Ordinal(tuple((e, rng.randint(1, 50)) for e in (1, 0)
                              if rng.random() < 0.8)) if rng.random() < 0.9 else ZERO
            assert bij.backward(bij.forward(o)) == o

    @pytest.mark.parametrize("text", ["w*2", "w^2*1 + w*3 + 5", "w^3*2 + 7"])
    def test_roundtrip_both_ways(self, text):
        a = parse_cnf(text)
        bij = omega_bijection(a)
        for n in range(1000):
            o = bij.backward(n)
            assert o < a
            assert bij.forward(o) == n

    def test_forward_injective_on_sample(self):
        a = parse_cnf("w^2*2 + w*4 + 9")
        bij = omega_bijection(a)
        rng = random.Random(31)
        seen = {}
        for _ in range(2000):
            o = bij.backward(rng.randrange(10 ** 6))
            n = bij.forward(o)
            if o in seen:
                assert seen[o] == n
            seen[o] = n
        values = list(seen.values())
        assert len(set(values)) == len(values)

    def test_finite_rejected(self):
        with pytest.raises(NoOmegaBijection):
            omega_bijection(fin(17))

    def test_out_of_range_rejected(self):
        bij = omega_bijection(W)
        with pytest.raises(ValueError):
            bij.forward(ord_add(W, fin(1)))


def test_ord_of_coercion():
    assert ord_of(5) == fin(5)
    assert ord_of(W) is W


# ---------------------------------------------------------------------------
# unchecked results: every Ordinal the arithmetic builds without the checks
# of __post_init__ is one the checked constructor accepts as it stands
# ---------------------------------------------------------------------------

cnf = st.dictionaries(st.integers(0, 5), st.integers(1, 50), max_size=4).map(
    lambda d: Ordinal(tuple(sorted(d.items(), reverse=True))))


def assert_valid(o):
    checked = Ordinal(o.terms)
    assert checked == o and hash(checked) == hash(o)


class TestUncheckedResults:
    @settings(max_examples=300, deadline=None)
    @given(cnf, cnf, st.integers(0, 10**6))
    def test_arithmetic_results_pass_the_checks(self, a, b, n):
        total = ord_add(a, b)
        for o in (total, ord_sub_left(a, total), ord_sub_left(b, ord_add(b, a)),
                  Ordinal.from_int(n), ord_add(a, fin(n + 1)).pred()):
            assert_valid(o)
        assert ord_sub_left(a, total) == b

    @settings(max_examples=150, deadline=None)
    @given(cnf.filter(lambda a: not a < W), st.integers(0, 10**9))
    def test_bijection_results_pass_the_checks(self, a, n):
        bij = omega_bijection(a)
        o = bij.backward(n)
        assert_valid(o)
        assert bij.forward(o) == n

    @settings(max_examples=300, deadline=None)
    @given(cnf.filter(lambda a: not a < W), cnf)
    def test_bijection_forward_finds_the_block(self, a, o):
        # forward bisects the blocks' starts; backward reads the block off n
        if a < o:
            a, o = o, a
        if a == o:
            return
        bij = omega_bijection(a)
        assert bij.backward(bij.forward(o)) == o

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["w*1", "w*2", "w*3", "w*7", "w^2"]), st.integers(0, 10**6))
    def test_ladder_stages_pass_the_checks(self, alpha, xi):
        cof = standard_cofinal(parse_cnf(alpha))
        stage = cof.stage(xi)
        assert_valid(stage)
        assert stage < cof.alpha and cof.stage(xi) < cof.stage(xi + 1)

    @pytest.mark.parametrize("make, message", [
        (lambda: Ordinal(((0, 0),)), "bad coefficient 0"),
        (lambda: Ordinal(((0, 2), (1, 1))), "exponents must be strictly decreasing"),
        (lambda: parse_cnf("w*8+0"), "bad coefficient 0"),
        (lambda: Ordinal.from_int(-1), "ordinals are non-negative"),
        (lambda: Ordinal.from_int(2.0), "bad coefficient 2.0"),
    ])
    def test_checked_constructors_still_refuse(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestIntTermsOnly:
    """Exponents and coefficients are ints and nothing else: a bool or a
    float term printed as ``True`` or ``w*True``, which ``parse_cnf``
    cannot read back, and ``from_int`` read ``False`` and ``0.0`` as zero."""

    @pytest.mark.parametrize("n", [True, False, 0.0, 1.0, 2.5])
    def test_from_int_refuses_bools_and_floats(self, n):
        with pytest.raises(ValueError, match=f"bad coefficient {n!r}"):
            Ordinal.from_int(n)

    @pytest.mark.parametrize("n", ["3", None, 3j])
    def test_from_int_refuses_other_types_with_the_same_error(self, n):
        with pytest.raises(ValueError, match="bad coefficient"):
            Ordinal.from_int(n)

    @pytest.mark.parametrize("terms, message", [
        (((1, True),), "bad coefficient True"),
        (((0, 1.0),), "bad coefficient 1.0"),
        (((True, 1),), "bad exponent True"),
        (((2.0, 1),), "bad exponent 2.0"),
        (((2, 1), (False, 3)), "bad exponent False"),
    ])
    def test_constructor_refuses_bool_and_float_terms(self, terms, message):
        with pytest.raises(ValueError, match=message):
            Ordinal(terms)

    @pytest.mark.parametrize("pos", [True, False, 1.0])
    def test_positions_are_ints_or_ordinals(self, pos):
        with pytest.raises(ValueError, match="bad coefficient"):
            TransfiniteSeq.from_items([7, 8]).at(pos)
        with pytest.raises(ValueError, match="bad coefficient"):
            ord_of(pos)

    @pytest.mark.parametrize("text", ["w*1", "w*2 + 3", "w^2*1"])
    def test_infinite_ordinals_have_no_int(self, text):
        with pytest.raises(ValueError, match=re.escape(f"{text} is infinite")):
            parse_cnf(text).to_int()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**12))
    def test_ints_still_round_trip(self, n):
        o = Ordinal.from_int(n)
        assert o == ord_of(n) and o.to_int() == n
        assert parse_cnf(format_cnf(o)) == o
        assert (o is ZERO) == (n == 0)
