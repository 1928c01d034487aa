"""Failure paths of ``qtree.check_lattice`` and the one ladder-stage formula.

``check_lattice`` reads its order laws and ``uppers`` lists through
``posets.check_poset_laws`` and its lattice laws off the rows that check
returns; each broken oracle below must be rejected with the message
naming what broke, and a broken meet or join law with its least failing
triple in sample order.  ``standard_cofinal`` is compared
with the two-branch stage formula it replaced, kept here as an oracle.
"""

from __future__ import annotations

import dataclasses

import pytest

from forcelab.collapse import nat_set
from forcelab.errors import BadCofinal
from forcelab.levy import standard_cofinal
from forcelab.ordinals import ZERO, Ordinal, ord_add, parse_cnf
from forcelab.qtree import check_lattice, finite_subset_lattice

LAT = finite_subset_lattice(nat_set())
SAMPLE = [LAT.enum(n) for n in range(40)]


def fs(*xs):
    return frozenset(xs)


def broken(**fields):
    return dataclasses.replace(LAT, **fields)


class TestCheckLattice:
    def test_sound_lattice_passes_as_list_and_tuple(self):
        check_lattice(LAT, SAMPLE)
        check_lattice(LAT, tuple(SAMPLE))

    def test_reflexive_lt(self):
        with pytest.raises(AssertionError, match="lt not irreflexive at"):
            check_lattice(broken(lt=lambda s, t: t <= s), SAMPLE)

    def test_intransitive_lt(self):
        # only covers: {0,1,2} < {0,1} < {0} but not {0,1,2} < {0}
        def cover(s, t):
            return t < s and len(s) == len(t) + 1

        with pytest.raises(AssertionError, match="leq not transitive at"):
            check_lattice(broken(lt=cover), SAMPLE)

    def test_lt_both_ways(self):
        with pytest.raises(AssertionError, match="leq not antisymmetric on"):
            check_lattice(broken(lt=lambda s, t: s != t), SAMPLE)

    def test_uppers_with_one_element_too_many(self):
        # has_lower(s) lies strictly below s, and for s = {0} it is the
        # sample element {0, 1}
        def uppers(s):
            return LAT.uppers(s) + [LAT.has_lower(s)]

        with pytest.raises(AssertionError,
                           match=r"above\(frozenset\(\{0\}\)\) and leq disagree"):
            check_lattice(broken(uppers=uppers), SAMPLE)

    def test_uppers_listing_the_element_itself(self):
        with pytest.raises(AssertionError, match="lists .* itself"):
            check_lattice(broken(uppers=lambda s: LAT.uppers(s) + [s]), SAMPLE)

    def test_uppers_with_one_element_too_few(self):
        with pytest.raises(AssertionError,
                           match=r"above\(frozenset\(\{0, 1\}\)\) and leq disagree"):
            check_lattice(broken(uppers=lambda s: LAT.uppers(s)[1:]), SAMPLE)

    def test_has_lower_not_below(self):
        with pytest.raises(AssertionError,
                           match=r"has_lower\(frozenset\(\{0\}\)\) not strictly below"):
            check_lattice(broken(has_lower=lambda s: s | fs(0)), SAMPLE)

    def test_sample_element_outside_the_carrier(self):
        with pytest.raises(AssertionError, match="fails the carrier predicate"):
            check_lattice(LAT, SAMPLE + [fs(0, "x")])

    def test_repeated_sample_element(self):
        with pytest.raises(AssertionError, match="leq not antisymmetric on"):
            check_lattice(LAT, SAMPLE + [SAMPLE[3]])

    def test_meet_and_join_that_do_not_bound_their_arguments(self):
        with pytest.raises(AssertionError) as err:
            check_lattice(broken(meet=lambda s, t: s, join=lambda s, t: t), SAMPLE)
        assert str(err.value) == (
            "meet(frozenset({0}), frozenset({1})) = frozenset({0}) is not below both")

    def test_join_that_does_not_bound_its_arguments(self):
        with pytest.raises(AssertionError) as err:
            check_lattice(broken(join=lambda s, t: s | t), SAMPLE)
        assert str(err.value) == (
            "join(frozenset({0}), frozenset({1})) = frozenset({0, 1}) is not above both")

    def test_meet_below_a_common_lower_bound(self):
        # a lower bound of s and t, one code larger than the greatest: for
        # s = t = {0} it is {0, 1}, and the lower bound {0, 2} is not below it
        def meet(s, t):
            return s | t | {max(s | t) + 1}

        with pytest.raises(AssertionError) as err:
            check_lattice(broken(meet=meet), SAMPLE)
        assert str(err.value) == (
            "meet law fails at frozenset({0}), frozenset({0}), frozenset({0, 2})")

    def test_join_above_a_common_upper_bound(self):
        # an upper bound of s and t, one code smaller than the least: for
        # s = t = {0, 1} it is {0}, and the upper bound {1} is not above it
        def join(s, t):
            common = sorted(s & t)[:-1]
            return frozenset(common) if common else None

        with pytest.raises(AssertionError) as err:
            check_lattice(broken(join=join), SAMPLE)
        assert str(err.value) == (
            "join law fails at frozenset({0, 1}), frozenset({0, 1}), frozenset({1})")


def two_branch_stage(alpha: Ordinal, n: int) -> Ordinal:
    """The ladder stages of ``standard_cofinal`` as first written."""
    if not alpha.is_limit():
        raise BadCofinal(f"{alpha} is not a limit ordinal")
    if alpha.terms == ((2, 1),):
        return Ordinal.omega(n) if n else ZERO
    if len(alpha.terms) == 1 and alpha.terms[0][0] == 1:
        k = alpha.terms[0][1]
        if n < k:
            return Ordinal.omega(n) if n else ZERO
        return ord_add(Ordinal.omega(k - 1) if k > 1 else ZERO,
                       Ordinal.from_int(n - (k - 1)))
    raise BadCofinal(f"no ladder with finite-or-w blocks reaches {alpha}")


class TestStageFormula:
    @pytest.mark.parametrize("alpha", ["w", "w*2", "w*3", "w*5", "w*9", "w^2"])
    def test_first_300_stages(self, alpha):
        a = parse_cnf(alpha)
        cof = standard_cofinal(a)
        for n in range(300):
            assert cof.stage(n) == two_branch_stage(a, n), n

    @pytest.mark.parametrize("alpha", ["w+1", "w^2*2", "w^3", "w^2+w"])
    def test_same_bad_cofinal(self, alpha):
        a = parse_cnf(alpha)
        with pytest.raises(BadCofinal) as expected:
            two_branch_stage(a, 0)
        with pytest.raises(BadCofinal) as got:
            standard_cofinal(a)
        assert str(got.value) == str(expected.value)
