"""Differential tests: each merged path against the copy it replaced.

The replaced copies are kept here, verbatim in behaviour, as test oracles
only: the DFS-and-set-difference prefix enumeration, the fixed-point pair
closure, the pairwise repeat loops, the stand-alone QSeq validator and the
concatenation-based evaluator of a lifted witness.
"""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import (
    CountableSet,
    InjSeq,
    builtin_set,
    coll_poset,
    first_repeat,
    make_inj_seq,
    prefix_enumeration,
    require_injective,
)
from forcelab.dctrees import bounded_functional, evens_functional, t_of_f
from forcelab.errors import NotAQSeq, NotInjective
from forcelab.levy import levy_lift, standard_cofinal, transfinite_f_seq
from forcelab.ordinals import (
    OMEGA,
    Ordinal,
    TransfiniteSeq,
    concat,
    ord_add,
    ord_of,
    ord_sub_left,
    parse_cnf,
)
from forcelab.posets import _closed_table, parse_poset_table, random_finite_poset
from forcelab.qtree import (
    QSeq,
    coll_to_q,
    finite_subset_lattice,
    lambda_tree,
    q_to_coll,
    validate_qseq,
)

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def prefix_enumeration_reference(x, extends_ok):
    """Block k: a full DFS over k codes, minus the DFS over k-1, then sorted."""
    items = [()]
    valid_cache = {0: [()]}

    def valid_upto(k):
        if k not in valid_cache:
            codes = [x.enum(i) for i in range(k)]
            found = []

            def dfs(prefix_idx, prefix_codes):
                found.append(prefix_idx)
                for i in range(k):
                    if i in prefix_idx:
                        continue
                    if extends_ok(prefix_codes, codes[i]):
                        dfs(prefix_idx + (i,), prefix_codes + (codes[i],))

            dfs((), ())
            found.sort(key=lambda t: (len(t), t))
            valid_cache[k] = found
        return valid_cache[k]

    def enum(n):
        k = max(valid_cache)
        while len(items) <= n:
            k += 1
            prev = set(valid_upto(k - 1))
            codes = [x.enum(i) for i in range(k)]
            for t in valid_upto(k):
                if t not in prev:
                    items.append(tuple(codes[i] for i in t))
        return items[n]

    return enum


def closure_reference(elements, pairs):
    closed = set(pairs) | {(e, e) for e in elements}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(closed), repeat=2):
            if b == c and (a, d) not in closed:
                closed.add((a, d))
                changed = True
    return frozenset(closed)


def random_poset_pairs_reference(rng, size):
    pairs = set()
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                pairs.add((j, i))
    return closure_reference(range(size), pairs)


def first_repeat_reference(items, eq):
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if eq(items[i], items[j]):
                return i, j
    return None


def coll_carrier_reference(x, t):
    if not isinstance(t, tuple):
        return False
    for i, c in enumerate(t):
        if not x.contains(c):
            return False
        for d in t[i + 1:]:
            if x.eq(c, d):
                return False
    return True


def validate_qseq_reference(t):
    seen = frozenset()
    for i, stage in enumerate(t):
        if len(stage) != len(seen) + 1 or len(stage - seen) != 1:
            if not stage >= seen:
                raise NotAQSeq(f"stage {i} drops earlier elements", stage=i)
            new = len(stage - seen)
            raise NotAQSeq(f"stage {i} adds {new} elements, not 1", stage=i)
        seen = stage


def lifted_at_reference(g, pos):
    """The lifted witness evaluated through the w-length concatenation."""
    p = ord_of(pos)
    if not p < g.length:
        raise IndexError(f"position {p} not below {g.length}")
    blocks = TransfiniteSeq(OMEGA, lambda xi: g._block(xi.to_int()).seq)
    return concat(blocks, limit_length=g.cof.alpha).at(p)


def locate_reference(cof, p):
    """Block index and offset by a scan of the ladder from stage 0."""
    xi = 0
    while not p < cof.stage(xi + 1):
        xi += 1
    return xi, ord_sub_left(cof.stage(xi), p)


def raised(fn, *args):
    """The type, message and details of what fn(*args) raised, or None."""
    try:
        fn(*args)
    except (NotAQSeq, NotInjective, IndexError) as exc:
        return type(exc), str(exc), getattr(exc, "details", None)
    return None


# ---------------------------------------------------------------------------
# prefix enumeration
# ---------------------------------------------------------------------------


def _families():
    nat = builtin_set("nat")
    pairs = builtin_set("pairs")
    lattice = finite_subset_lattice(nat)
    fresh = lambda prefix, c: c not in prefix
    return {
        "coll-nat": (nat, fresh),
        "coll-pairs": (pairs, fresh),
        "tree-evens": (nat, lambda prefix, c: evens_functional(nat).member(prefix, c)),
        "tree-bounded": (nat, lambda prefix, c: bounded_functional(nat).member(prefix, c)),
        "lambda-tree": (
            CountableSet(lattice.name, lattice.enum),
            lambda prefix, c: lattice.lt(c, prefix[-1]) if prefix else True),
    }


FAMILIES = _families()


class TestPrefixEnumeration:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_first_items_match_reference(self, name):
        x, ok = FAMILIES[name]
        fast, ref = prefix_enumeration(x, ok), prefix_enumeration_reference(x, ok)
        assert [fast(n) for n in range(400)] == [ref(n) for n in range(400)]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.lists(st.integers(0, 300), max_size=12))
    def test_queries_in_any_order(self, name, queries):
        x, ok = FAMILIES[name]
        fast, ref = prefix_enumeration(x, ok), prefix_enumeration_reference(x, ok)
        assert [fast(n) for n in queries] == [ref(n) for n in queries]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 150))
    def test_arbitrary_predicate(self, modulus, residue, n):
        # every singleton is allowed, so each block is nonempty
        def ok(prefix, c):
            return not prefix or (sum(prefix) * 7 + 3 * c + len(prefix)) % modulus != residue % modulus

        x = builtin_set("nat")
        fast, ref = prefix_enumeration(x, ok), prefix_enumeration_reference(x, ok)
        assert [fast(k) for k in range(n + 1)] == [ref(k) for k in range(n + 1)]

    def test_posets_enumerate_as_before(self):
        nat = builtin_set("nat")
        lattice = finite_subset_lattice(nat)
        cases = [
            (coll_poset(nat), FAMILIES["coll-nat"]),
            (t_of_f(nat, evens_functional(nat)), FAMILIES["tree-evens"]),
            (lambda_tree(lattice), FAMILIES["lambda-tree"]),
        ]
        for poset, (x, ok) in cases:
            ref = prefix_enumeration_reference(x, ok)
            assert [poset.enum(n) for n in range(200)] == [ref(n) for n in range(200)]


# ---------------------------------------------------------------------------
# transitive closure
# ---------------------------------------------------------------------------


@st.composite
def pair_sets(draw):
    size = draw(st.integers(0, 8))
    elems = list(range(size))
    pairs = draw(st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)))
                 if size else st.just(set()))
    return elems, pairs


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(pair_sets())
    def test_closed_table_matches_fixed_point(self, case):
        elems, pairs = case
        table = _closed_table(elems, pairs)
        assert table.elements == tuple(elems)
        assert table.leq_pairs == closure_reference(elems, pairs)

    @settings(max_examples=60, deadline=None)
    @given(pair_sets())
    def test_parsed_table_matches_fixed_point(self, case):
        elems, pairs = case
        names = [f"e{i}" for i in elems]
        text = "".join(f"elem {n}\n" for n in names)
        text += "".join(f"e{a} <= e{b}\n" for a, b in sorted(pairs))
        table = parse_poset_table(text)
        expect = closure_reference(names, {(f"e{a}", f"e{b}") for a, b in pairs})
        assert table.leq_pairs == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 12))
    def test_random_poset_matches_fixed_point(self, seed, size):
        table = random_finite_poset(random.Random(seed), size)
        assert table.elements == tuple(range(size))
        assert table.leq_pairs == random_poset_pairs_reference(random.Random(seed), size)


# ---------------------------------------------------------------------------
# injectivity
# ---------------------------------------------------------------------------

CODES = st.lists(st.integers(0, 12), max_size=14)


class TestInjectivity:
    @settings(max_examples=200, deadline=None)
    @given(CODES, st.integers(1, 6))
    def test_first_repeat_matches_pairwise_loop(self, items, modulus):
        mod_eq = lambda a, b: a % modulus == b % modulus
        assert first_repeat(items, operator.eq) == first_repeat_reference(items, operator.eq)
        assert first_repeat(items, mod_eq) == first_repeat_reference(items, mod_eq)

    @settings(max_examples=150, deadline=None)
    @given(CODES)
    def test_errors_match_pairwise_loop(self, items):
        pair = first_repeat_reference(items, operator.eq)
        expect = None if pair is None else (
            NotInjective, f"positions {pair[0]} and {pair[1]} repeat {items[pair[0]]!r}", {})
        assert raised(require_injective, items) == expect
        assert raised(make_inj_seq, builtin_set("nat"), items) == expect
        assert raised(coll_to_q, InjSeq(tuple(items))) == expect

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(("nat", "evens", "pairs")),
           st.lists(st.one_of(st.integers(-1, 12),
                              st.tuples(st.integers(0, 3), st.integers(0, 3))),
                    max_size=8))
    def test_coll_carrier_matches_pairwise_loop(self, name, items):
        x = builtin_set(name)
        t = tuple(items)
        assert coll_poset(x).carrier(t) == coll_carrier_reference(x, t)


# ---------------------------------------------------------------------------
# QSeq validation
# ---------------------------------------------------------------------------

STAGES = st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=6)


class TestQSeq:
    @settings(max_examples=300, deadline=None)
    @given(STAGES)
    def test_errors_match_reference(self, stages):
        expect = raised(validate_qseq_reference, stages)
        assert raised(validate_qseq, stages) == expect
        assert raised(q_to_coll, QSeq(tuple(stages))) == expect


# ---------------------------------------------------------------------------
# the lifted witness
# ---------------------------------------------------------------------------

LADDERS = {"w*2": 2, "w*3": 3, "w^2": 6}


@st.composite
def ladder_positions(draw):
    alpha = draw(st.sampled_from(sorted(LADDERS)))
    blocks = LADDERS[alpha]
    pos = st.builds(lambda a, b: ord_add(Ordinal.omega(a) if a else Ordinal.from_int(0),
                                         Ordinal.from_int(b)),
                    st.integers(0, blocks - 1), st.integers(0, 40))
    return alpha, draw(st.lists(pos, min_size=1, max_size=6))


class TestLiftedWitness:
    @settings(max_examples=40, deadline=None)
    @given(ladder_positions())
    def test_at_and_locate_match_references(self, case):
        alpha, positions = case
        cof = standard_cofinal(parse_cnf(alpha))
        fast = levy_lift(cof, transfinite_f_seq(builtin_set("nat")))
        ref = levy_lift(cof, transfinite_f_seq(builtin_set("nat")))
        for p in positions:
            assert fast.at(p) == lifted_at_reference(ref, p)
            assert fast.locate(p) == locate_reference(cof, p)

    @pytest.mark.parametrize("alpha", sorted(LADDERS))
    def test_out_of_range_matches(self, alpha):
        a = parse_cnf(alpha)
        cof = standard_cofinal(a)
        fast = levy_lift(cof, transfinite_f_seq(builtin_set("nat")))
        ref = levy_lift(cof, transfinite_f_seq(builtin_set("nat")))
        for p in (a, ord_add(a, Ordinal.from_int(3))):
            expect = raised(lifted_at_reference, ref, p)
            assert expect is not None and expect[0] is IndexError
            assert raised(fast.at, p) == expect
            assert raised(fast.locate, p) == expect
