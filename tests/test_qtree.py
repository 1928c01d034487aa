import random

import pytest

from forcelab.collapse import InjSeq, nat_set, pairs_set
from forcelab.errors import NotAQSeq, NotInjective, NotInLambda
from forcelab.posets import check_poset_laws
from forcelab.qtree import (
    LatticeOracle,
    QSeq,
    check_lattice,
    coll_to_q,
    finite_subset_lattice,
    lambda_tree,
    q_extends,
    q_into_lambda,
    q_to_coll,
    qseq_json,
)


@pytest.fixture(scope="module")
def nat():
    return nat_set()


def fs(*items):
    return frozenset(items)


def random_inj(rng, max_len=50, alphabet=1000):
    return InjSeq(tuple(rng.sample(range(alphabet), rng.randint(0, max_len))))


class TestIsomorphism:
    def test_empty(self):
        assert coll_to_q(InjSeq(())).stages == ()
        assert q_to_coll(QSeq(())).items == ()

    def test_two_step_image(self):
        # pinned instance of the stage map: <x0,x1> -> <{x0},{x0,x1}>
        t = coll_to_q(InjSeq(("x0", "x1")))
        assert t.stages == (fs("x0"), fs("x0", "x1"))

    def test_two_step_inverse(self):
        f = q_to_coll(QSeq((fs("x0"), fs("x0", "x1"))))
        assert f.items == ("x0", "x1")

    def test_singleton(self):
        assert q_to_coll(QSeq((fs("a"),))).items == ("a",)

    def test_rejects_noninjective(self):
        with pytest.raises(NotInjective):
            coll_to_q(InjSeq((1, 1)))

    def test_not_a_qseq_reports_stage(self):
        with pytest.raises(NotAQSeq) as exc:
            q_to_coll(QSeq((fs(1), fs(1), fs(1, 2))))  # zero new at stage 1
        assert exc.value.details["stage"] == 1
        with pytest.raises(NotAQSeq) as exc:
            q_to_coll(QSeq((fs(1, 2),)))  # two new at stage 0
        assert exc.value.details["stage"] == 0
        with pytest.raises(NotAQSeq) as exc:
            q_to_coll(QSeq((fs(1), fs(2))))  # drops 1 at stage 1
        assert exc.value.details["stage"] == 1

    @pytest.mark.parametrize("stage", [[1, 2], (1, 2), 2])
    def test_a_stage_that_is_no_set_is_named(self, stage):
        with pytest.raises(NotAQSeq, match=f"stage 1 is a {type(stage).__name__}, not a set") as exc:
            q_to_coll(QSeq((fs(1), stage)))
        assert exc.value.details["stage"] == 1
        with pytest.raises(NotAQSeq):
            QSeq([fs(1), stage])

    def test_roundtrips_random(self):
        rng = random.Random(101)
        for _ in range(1000):
            f = random_inj(rng)
            t = coll_to_q(f)
            assert QSeq(tuple(t.stages)) == t
            assert q_to_coll(t).items == f.items
            assert coll_to_q(q_to_coll(t)).stages == t.stages

    def test_order_preserved_and_reflected(self):
        rng = random.Random(103)
        for _ in range(1000):
            f = random_inj(rng, max_len=30)
            if rng.random() < 0.5 and len(f.items) > 0:
                # genuine extension
                extra = [v for v in rng.sample(range(1000), 10)
                         if v not in f.items][:3]
                g = InjSeq(f.items + tuple(extra))
            else:
                g = random_inj(rng, max_len=30)
            f_ext = (len(g.items) >= len(f.items)
                     and g.items[:len(f.items)] == f.items)
            assert q_extends(coll_to_q(g), coll_to_q(f)) is f_ext


class TestSubsetLattice:
    def test_uppers_are_proper_nonempty_subsets(self, nat):
        lat = finite_subset_lattice(nat)
        ups = lat.uppers(fs(0, 1))
        assert sorted(map(sorted, ups)) == [[0], [1]]

    def test_uppers_count(self, nat):
        lat = finite_subset_lattice(nat)
        for size in range(1, 7):
            s = fs(*range(size))
            assert len(lat.uppers(s)) == 2 ** size - 2

    def test_reverse_inclusion(self, nat):
        lat = finite_subset_lattice(nat)
        assert lat.lt(fs(0, 1), fs(0))
        assert not lat.lt(fs(0), fs(0, 1))
        assert not lat.lt(fs(0), fs(0))

    def test_fresh_lower(self, nat):
        lat = finite_subset_lattice(nat)
        assert lat.has_lower(fs(0)) == fs(0, 1)
        assert lat.has_lower(fs(0, 1, 2)) == fs(0, 1, 2, 3)
        assert lat.has_lower(fs(1)) == fs(0, 1)  # the least code it lacks

    def test_meet_join(self, nat):
        lat = finite_subset_lattice(nat)
        assert lat.meet(fs(0, 1), fs(1, 2)) == fs(0, 1, 2)
        assert lat.join(fs(0, 1), fs(1, 2)) == fs(1)
        assert lat.join(fs(0), fs(1)) is None  # disjoint: partial

    def test_laws_on_hundred_sample(self, nat):
        lat = finite_subset_lattice(nat)
        sample = [lat.enum(n) for n in range(100)]
        check_lattice(lat, sample)

    def test_carrier(self, nat):
        lat = finite_subset_lattice(nat)
        assert lat.carrier(fs(3, 5))
        assert not lat.carrier(fs())
        assert not lat.carrier({3})

    @pytest.mark.parametrize("make, code, twin", [(nat_set, 1, True),
                                                  (pairs_set, (1, 2), (True, 2))])
    def test_carrier_answers_equal_codes_of_other_types_apart(self, make, code, twin):
        """``True == 1``, but the builtin sets index ints only: the carrier
        keeps each answer whichever of the two it meets first."""
        for order in ((code, twin), (twin, code)):
            lat = finite_subset_lattice(make())
            assert [lat.carrier(frozenset({c})) for c in order] == [c is code for c in order]


class TestLambdaTree:
    def test_root_and_order(self, nat):
        tree = lambda_tree(finite_subset_lattice(nat))
        assert tree.root == ()
        assert tree.enum(0) == ()
        s = (fs(0), fs(0, 1))
        assert tree.leq(s, (fs(0),))
        assert not tree.leq((fs(0),), s)

    def test_decreasing_carrier_fixture(self):
        # plain naturals: a strict order fixture for the carrier predicate
        # only (it has a minimal element and unbounded predecessor sets)
        chain = LatticeOracle(
            "nat-chain",
            carrier=lambda v: isinstance(v, int) and v >= 0,
            lt=lambda a, b: a < b,
            meet=lambda a, b: min(a, b),
            join=lambda a, b: max(a, b),
            uppers=lambda v: [],
            has_lower=lambda v: max(v - 1, 0),
            enum=lambda n: n)
        tree = lambda_tree(chain)
        assert tree.carrier((5, 3, 0))
        assert not tree.carrier((3, 5))

    def test_every_sequence_extendable(self, nat):
        lat = finite_subset_lattice(nat)
        tree = lambda_tree(lat)
        rng = random.Random(107)
        for _ in range(100):
            seq = ()
            for _ in range(rng.randint(0, 5)):
                last = seq[-1] if seq else fs(*rng.sample(range(10), rng.randint(1, 3)))
                seq = seq + (last,) if not seq else seq + (lat.has_lower(seq[-1]),)
            extended = seq + (lat.has_lower(seq[-1]),) if seq else (fs(0),)
            assert tree.carrier(seq)
            assert tree.carrier(extended)
            assert tree.leq(extended, seq)

    def test_enumeration_and_laws(self, nat):
        tree = lambda_tree(finite_subset_lattice(nat))
        first = [tree.enum(k) for k in range(120)]
        assert len(set(first)) == 120
        assert all(tree.carrier(s) for s in first)
        check_poset_laws(tree, 120)

    def test_enumeration_requires_lattice_enum(self):
        bare = LatticeOracle(
            "bare", carrier=lambda v: True, lt=lambda a, b: False,
            meet=lambda a, b: a, join=lambda a, b: a,
            uppers=lambda v: [], has_lower=lambda v: v)
        tree = lambda_tree(bare)
        with pytest.raises(ValueError):
            tree.enum(0)


class TestQIntoLambda:
    def test_empty_accepted(self, nat):
        assert q_into_lambda(nat, QSeq(())) == ()

    def test_strict_inclusion_accepted(self, nat):
        t = QSeq((fs(4), fs(4, 7)))
        assert q_into_lambda(nat, t) == t.stages

    def test_images_of_injections_accepted(self, nat):
        rng = random.Random(109)
        tree = lambda_tree(finite_subset_lattice(nat))
        for _ in range(300):
            f = random_inj(rng, max_len=20, alphabet=100)
            stages = q_into_lambda(nat, coll_to_q(f))
            assert tree.carrier(stages)

    def test_violation_rejected(self, nat):
        with pytest.raises(NotAQSeq):
            QSeq((fs(1), fs(1)))  # rejected when built
        with pytest.raises(NotInLambda, match="not in tree"):
            q_into_lambda(nat, QSeq((fs(1), fs(1, -2))))  # -2 is not in nat


def test_qseq_json(nat):
    t = coll_to_q(InjSeq((5, 2, 9)))
    assert qseq_json(nat, t) == {"stages": [[5], [2, 5], [2, 5, 9]]}
