import itertools
import random

import pytest

from forcelab.collapse import (
    builtin_set,
    coll_poset,
    evens_set,
    generic_to_injection,
    injection_to_generic,
    inj_seq_json,
    level_dense,
    level_family,
    make_inj_seq,
    nat_set,
    pairs_set,
)
from forcelab.errors import NotAChain, NotInjective
from forcelab.posets import check_poset_laws, is_dense_on_truncation, rasiowa_sikorski


@pytest.fixture(scope="module")
def nat():
    return nat_set()


@pytest.fixture(scope="module")
def nat_poset(nat):
    return coll_poset(nat)


class TestCountableSets:
    @pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
    def test_enum_injective_on_prefix(self, name):
        x = builtin_set(name)
        codes = [x.enum(n) for n in range(10_000)]
        assert len(set(codes)) == 10_000

    @pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
    def test_index_inverts_enum(self, name):
        x = builtin_set(name)
        for n in range(500):
            assert x.index_of(x.enum(n)) == n

    def test_membership(self):
        ev = evens_set()
        assert ev.contains(4) and not ev.contains(3)
        pr = pairs_set()
        assert pr.contains((3, 5)) and not pr.contains("x")

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_set("reals")


class TestCollPoset:
    def test_extension_order(self, nat_poset):
        assert nat_poset.leq((5, 6), (5,))
        assert not nat_poset.leq((5,), (6,))
        assert not nat_poset.leq((5,), (5, 6))
        assert nat_poset.leq((), ())

    def test_carrier_rejects_repeats(self, nat_poset):
        assert nat_poset.carrier((0, 1, 2))
        assert not nat_poset.carrier((0, 0))
        assert not nat_poset.carrier([0, 1])

    def test_root_is_empty_sequence(self, nat_poset):
        assert nat_poset.root == ()

    def test_enumeration_deterministic_and_valid(self, nat_poset):
        first = [nat_poset.enum(k) for k in range(300)]
        assert first == [nat_poset.enum(k) for k in range(300)]
        assert len(set(first)) == 300
        assert all(nat_poset.carrier(t) for t in first)
        assert first[0] == ()
        assert first[1] == (0,)

    def test_poset_laws_on_fragment(self, nat_poset):
        check_poset_laws(nat_poset, 300)


class TestLevelDense:
    def test_zero_level_is_identity(self, nat):
        d = level_dense(nat, 0)
        assert d.extend((2, 7)) == (2, 7)
        assert d.member(())

    def test_recipe_example(self, nat):
        # beta = 6 covers {5}, then append enum over [6, 9)
        assert level_dense(nat, 3).extend((5,)) == (5, 6, 7, 8)

    def test_empty_restriction(self, nat):
        assert level_dense(nat, 2).extend(()) == (0, 1)

    def test_exhaustive_small(self, nat, nat_poset):
        # all conditions over the first 6 codes, lengths <= 3, levels <= 5
        for length in range(4):
            for p in itertools.permutations(range(6), length):
                for i in range(6):
                    d = level_dense(nat, i)
                    q = d.extend(p)
                    assert nat_poset.leq(q, p)
                    assert len(set(q)) == len(q)
                    assert d.member(q)

    def test_exhaustive_on_enumerated_fragment(self, nat, nat_poset):
        # the first 200 enumerated conditions against every level up to 8
        levels = [level_dense(nat, i) for i in range(9)]
        for k in range(200):
            p = nat_poset.enum(k)
            for i, d in enumerate(levels):
                q = d.extend(p)
                assert nat_poset.leq(q, p)
                assert len(set(q)) == len(q)
                assert len(q) >= i

    def test_open_downward_closed(self, nat, nat_poset):
        # strengthening a member stays a member
        d = level_dense(nat, 2)
        for k in range(200):
            p = nat_poset.enum(k)
            if d.member(p):
                q = p + (max(p, default=-1) + 1,)
                assert d.member(q)

    def test_fragment_density(self, nat, nat_poset):
        report = is_dense_on_truncation(nat_poset, level_dense(nat, 2), 200)
        assert report.dense

    def test_domain_zero_not_dense(self, nat, nat_poset):
        from forcelab.posets import DenseSet
        d = DenseSet("dom0", lambda f: len(f) == 0, lambda q: q)
        report = is_dense_on_truncation(nat_poset, d, 50)
        assert not report.dense
        assert report.counterexample == (0,)

    def test_works_on_pairs_set(self):
        x = pairs_set()
        d = level_dense(x, 2)
        p = (x.enum(4),)
        q = d.extend(p)
        assert q[:1] == p and len(q) == 3 and len(set(q)) == 3


class TestEngineRuns:
    def test_five_levels_from_empty(self, nat, nat_poset):
        run = rasiowa_sikorski(nat_poset, level_family(nat, 5), (), 5)
        final = run.chain[-1]
        assert len(final) >= 5
        assert final == (0, 1, 2, 3, 4)
        for i in range(5):
            assert level_dense(nat, i).member(final)

    def test_generic_to_injection(self, nat, nat_poset):
        run = rasiowa_sikorski(nat_poset, level_family(nat, 100), (), 100)
        inj = generic_to_injection(nat, run)
        assert len(inj.items) >= 100
        assert len(set(inj.items)) == len(inj.items)

    def test_run_from_nonempty_start(self, nat, nat_poset):
        run = rasiowa_sikorski(nat_poset, level_family(nat, 6), (7, 2), 6)
        inj = generic_to_injection(nat, run)
        assert inj.items[:2] == (7, 2)
        assert len(inj.items) >= 6

    def test_union_of_chain_of_restrictions(self, nat):
        run = injection_to_generic(nat, [4, 9, 1], 3)
        assert generic_to_injection(nat, run).items == (4, 9, 1)

    def test_not_a_chain_rejected(self, nat):
        from forcelab.posets import GenericRun
        bad = GenericRun("Coll(w,nat)", ((0,), (1, 2)))
        with pytest.raises(NotAChain):
            generic_to_injection(nat, bad)


class TestInjectionToGeneric:
    def test_zero_steps(self, nat):
        run = injection_to_generic(nat, lambda i: i, 0)
        assert run.chain == ((),)
        assert run.met == ()

    def test_restrictions_meet_levels(self, nat):
        run = injection_to_generic(nat, nat.enum, 3)
        assert run.chain == ((), (0,), (0, 1), (0, 1, 2))
        assert run.met == ((0, 1), (1, 2), (2, 3))
        for i, pos in run.met:
            assert len(run.chain[pos]) >= i + 1

    def test_rejects_a_sequence_shorter_than_n(self, nat):
        """Restrictions of one value cannot meet the levels of length 2 and 3."""
        with pytest.raises(ValueError, match="has 1 values, need 3"):
            injection_to_generic(nat, [5], 3)

    def test_rejects_repeats(self, nat):
        with pytest.raises(NotInjective):
            injection_to_generic(nat, [1, 1, 2], 3)

    @pytest.mark.parametrize("g", [[1, 2, 3], [1, 1, 3], lambda i: i])
    def test_rejects_a_negative_n(self, nat, g):
        """A run holds at least its start, so no n below 0 has one; the
        repeat in [1, 1, 3] is never read."""
        for n in (-1, -2):
            with pytest.raises(ValueError, match=f"cannot meet {n} levels"):
                injection_to_generic(nat, g, n)

    def test_roundtrip_with_engine(self, nat, nat_poset):
        run = rasiowa_sikorski(nat_poset, level_family(nat, 8), (), 8)
        inj = generic_to_injection(nat, run)
        run2 = injection_to_generic(nat, inj.items, len(inj.items))
        assert generic_to_injection(nat, run2).items == inj.items

    def test_random_roundtrip_exact(self, nat):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(0, 20)
            vals = rng.sample(range(100), n)
            run = injection_to_generic(nat, vals, n)
            assert generic_to_injection(nat, run).items == tuple(vals)


class TestJson:
    def test_inj_seq_schema(self, nat):
        doc = inj_seq_json(nat, make_inj_seq(nat, (3, 1, 4)))
        assert doc == {"set": "nat", "items": [3, 1, 4]}

    def test_pairs_become_lists(self):
        x = pairs_set()
        doc = inj_seq_json(x, make_inj_seq(x, (x.enum(0), x.enum(3))))
        assert doc["set"] == "pairs"
        assert all(isinstance(item, list) for item in doc["items"])
