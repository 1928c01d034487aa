import random

import pytest

from forcelab.collapse import coll_poset, generic_to_injection, nat_set, pairs_set
from forcelab.dctrees import (
    ChoiceFunctional,
    MarkedElement,
    bounded_functional,
    check_dc_witness,
    const_functional,
    cycle_functional,
    dc_witness,
    evens_functional,
    f_seq,
    fixture_functional,
    in_tree,
    marked_set,
    marker_reduction,
    modified_functional,
    t_of_f,
    tree_level_family,
    unmark,
    witness_json,
)
from forcelab.errors import BadSelector, NotInTree
from forcelab.posets import rasiowa_sikorski


@pytest.fixture(scope="module")
def nat():
    return nat_set()


class TestFSeq:
    def test_select_first_omitted(self, nat):
        fs = f_seq(nat)
        assert fs.select(()) == 0
        assert fs.select((0, 1)) == 2
        assert fs.select((1, 0, 3)) == 2

    def test_member_is_complement_of_range(self, nat):
        fs = f_seq(nat)
        assert not fs.member((0,), 0)
        assert fs.member((0,), 1)
        assert not fs.member((), "x")  # not in the set at all

    def test_injective_mode(self, nat):
        assert f_seq(nat).injective_mode


class TestTreePoset:
    def test_f_seq_tree_is_whole_collapse(self, nat):
        tree = t_of_f(nat, f_seq(nat))
        coll = coll_poset(nat)
        for k in range(300):
            assert tree.enum(k) == coll.enum(k)
            assert tree.carrier(coll.enum(k))

    def test_evens_membership(self, nat):
        tree = t_of_f(nat, evens_functional(nat))
        assert tree.carrier((0, 2))
        assert not tree.carrier((1,))
        assert not tree.carrier((0, 0))

    def test_restriction_closed(self, nat):
        # tree property: restrictions of carrier elements stay in the carrier
        for f in (f_seq(nat), evens_functional(nat), bounded_functional(nat)):
            tree = t_of_f(nat, f)
            for k in range(1000):
                t = tree.enum(k)
                for i in range(len(t)):
                    assert tree.carrier(t[:i])

    def test_requires_injective_mode(self, nat):
        with pytest.raises(ValueError):
            t_of_f(nat, const_functional(nat))


class TestDcWitness:
    def test_least_omitted_trace(self, nat):
        assert dc_witness(nat, f_seq(nat), 5) == (0, 1, 2, 3, 4)

    def test_evens_trace(self, nat):
        assert dc_witness(nat, evens_functional(nat), 3) == (0, 2, 4)

    def test_zero_length(self, nat):
        assert dc_witness(nat, f_seq(nat), 0) == ()

    def test_witnesses_check(self, nat):
        for name in ("seq", "evens", "bounded"):
            f = fixture_functional(nat, name)
            g = dc_witness(nat, f, 60)
            assert len(g) == 60
            assert check_dc_witness(f, g)

    def test_engine_runs_meet_levels(self, nat):
        f = evens_functional(nat)
        tree = t_of_f(nat, f)
        run = rasiowa_sikorski(tree, tree_level_family(f, 40), (), 40)
        assert len(run.chain[-1]) >= 40
        assert check_dc_witness(f, run.chain[-1])
        inj = generic_to_injection(run)
        assert len(set(inj.items)) == len(inj.items)

    def test_f_seq_witness_equals_collapse_injection(self, nat):
        # the canonical functional's witness is exactly the generic injection
        from forcelab.collapse import level_family
        f = f_seq(nat)
        n = 25
        witness = dc_witness(nat, f, n)
        coll_run = rasiowa_sikorski(coll_poset(nat), level_family(nat, n), (), n)
        assert witness == generic_to_injection(coll_run).items[:n]

    def test_bad_selector_detected(self, nat):
        lying = ChoiceFunctional(
            "lying", member=lambda t, v: False, select=lambda t: 0,
            injective_mode=True)
        with pytest.raises(BadSelector):
            dc_witness(nat, lying, 3)


class TestCheckWitness:
    def test_empty_true(self, nat):
        assert check_dc_witness(f_seq(nat), ())

    def test_repetition_false(self, nat):
        assert not check_dc_witness(f_seq(nat), (0, 0))

    def test_prefix_sensitivity(self, nat):
        f = evens_functional(nat)
        assert check_dc_witness(f, (0, 2))
        assert not check_dc_witness(f, (0, 3))


class TestModifiedFunctional:
    def test_empty_prefix_is_original(self, nat):
        f = f_seq(nat)
        ft = modified_functional(f, ())
        for t in ((), (3,), (5, 1)):
            assert ft.select(t) == f.select(t)
            assert ft.member(t, 9) == f.member(t, 9)

    def test_forced_value(self, nat):
        ft = modified_functional(f_seq(nat), (4, 2))
        assert ft.select(()) == 4
        assert ft.select((4,)) == 2
        assert ft.member((4,), 2)
        assert not ft.member((4,), 7)
        # beyond the prefix, the original takes over
        assert ft.member((4, 2), 7)
        assert not ft.member((4, 2), 4)

    def test_off_prefix_defers(self, nat):
        ft = modified_functional(f_seq(nat), (4, 2))
        assert ft.member((9,), 4)
        assert ft.select((9,)) == 0

    def test_witness_has_prefix(self, nat):
        rng = random.Random(201)
        f = f_seq(nat)
        for _ in range(50):
            t = tuple(rng.sample(range(30), rng.randint(0, 10)))
            witness = dc_witness(nat, modified_functional(f, t), 15)
            assert witness[:len(t)] == t
            assert check_dc_witness(f, witness)

    def test_rejects_conditions_outside_tree(self, nat):
        with pytest.raises(NotInTree):
            modified_functional(evens_functional(nat), (1,))


class TestMarkerReduction:
    def test_constant_markers_count_up(self, nat):
        G = marker_reduction(nat, const_functional(nat))
        u = dc_witness(marked_set(nat), G, 6)
        assert u == tuple(MarkedElement(0, k) for k in range(6))
        assert unmark(u) == (0,) * 6

    def test_injective_lift_keeps_markers_zero(self, nat):
        G = marker_reduction(nat, f_seq(nat))
        u = dc_witness(marked_set(nat), G, 8)
        assert all(m.marker == 0 for m in u)
        assert check_dc_witness(f_seq(nat), unmark(u))

    def test_fallback_on_inconsistent_markers(self, nat):
        G = marker_reduction(nat, const_functional(nat))
        bad_prefix = (MarkedElement(0, 5),)  # marker 5 with no prior occurrences
        assert G.member(bad_prefix, MarkedElement(0, 0))
        assert G.member(bad_prefix, MarkedElement(3, 9))
        assert not G.member(bad_prefix, MarkedElement(0, 5))  # already used
        picked = G.select(bad_prefix)
        assert G.member(bad_prefix, picked)

    def test_fallback_rejects_non_marked_values(self, nat):
        G = marker_reduction(nat, const_functional(nat))
        assert not G.member((), "x")

    @pytest.mark.parametrize("name", ["const", "cycle2", "cycle3"])
    def test_pipeline_restores_witness(self, nat, name):
        f = fixture_functional(nat, name)
        G = marker_reduction(nat, f)
        assert G.injective_mode
        u = dc_witness(marked_set(nat), G, 50)
        assert len(set(u)) == 50  # injective pairs
        projected = unmark(u)
        assert check_dc_witness(f, projected)

    def test_markers_equal_occurrence_counts(self, nat):
        f = cycle_functional(nat, 2)
        u = dc_witness(marked_set(nat), marker_reduction(nat, f), 10)
        bases = unmark(u)
        for i, m in enumerate(u):
            assert m.marker == sum(1 for j in range(i) if bases[j] == m.base)

    def test_marked_set_is_countable(self, nat):
        mx = marked_set(nat)
        codes = [mx.enum(n) for n in range(2000)]
        assert len(set(codes)) == 2000
        for n in (0, 7, 55, 1999):
            assert mx.index_of(mx.enum(n)) == n

    @pytest.mark.parametrize("code", [MarkedElement(0, 1.5), MarkedElement(2, 0.0),
                                      MarkedElement(0, True), MarkedElement(1, False),
                                      MarkedElement(0, -1), MarkedElement(-1, 0)])
    def test_marked_set_refuses_markers_that_are_not_naturals(self, nat, code):
        """1.5 read as index 2.5, 0.0 as 3.0 and True as 2, for codes that
        are not in the set or are a second spelling of a code that is."""
        mx = marked_set(nat)
        assert not mx.contains(code)
        assert mx.index_or_none(code) is None
        with pytest.raises(ValueError):
            mx.index_of(code)

    @pytest.mark.parametrize("marker", [True, 1.0])
    def test_reduction_allows_only_int_counts(self, nat, marker):
        G = marker_reduction(nat, const_functional(nat))
        u = (MarkedElement(0, 0),)
        assert G.member(u, MarkedElement(0, 1))
        assert not G.member(u, MarkedElement(0, marker))


class TestWitnessJson:
    def test_schema_plain(self, nat):
        f = f_seq(nat)
        doc = witness_json(f, (0, 1, 2))
        assert doc == {"functional": "seq(nat)", "length": 3, "values": [0, 1, 2]}

    def test_schema_marked(self, nat):
        doc = witness_json(const_functional(nat), (0, 0), markers=[0, 1])
        assert doc["markers"] == [0, 1]
        assert doc["length"] == 2


def test_fixtures_on_pairs_set():
    x = pairs_set()
    g = dc_witness(x, f_seq(x), 6)
    assert g == tuple(x.enum(i) for i in range(6))
    assert in_tree(f_seq(x), g)
