"""Differential tests: fragment checks read from upward cones.

``is_dense_on_truncation`` collects the conditions its members extend, and
``filter_from_chain`` those the chain's last entry extends, from
``PosetPresentation.above`` (or from ``leq`` when a presentation has no
``above``); the density check asks ``member`` only of a condition no cone
taken so far covers.  The all-pairs ``leq`` scans they replaced are kept
here, verbatim in behaviour, as oracles only.
"""

import dataclasses
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import (
    coll_poset,
    level_dense,
    level_family,
    nat_set,
    pairs_set,
    prefixes,
)
from forcelab.dctrees import bounded_functional, evens_functional, t_of_f
from forcelab.errors import BadExtender, NotAChain
from forcelab.posets import (
    DenseSet,
    DensityReport,
    PosetPresentation,
    _require_chain,
    check_poset_laws,
    filter_from_chain,
    is_dense_on_truncation,
    random_finite_poset,
    rasiowa_sikorski,
    table_poset,
)
from forcelab.qtree import finite_subset_lattice, lambda_tree

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def filter_from_chain_reference(p, chain, truncation):
    """Every enumerated element tested against every chain member with leq."""
    _require_chain(chain, p.leq)
    closure = set()
    for k in range(truncation):
        q = p.enum(k)
        if any(p.leq(c, q) for c in chain):
            closure.add(q)
    return closure


def is_dense_on_truncation_reference(p, d, n):
    """Every fragment element tested against every member with leq."""
    frag = [p.enum(k) for k in range(n)]
    members = [q for q in frag if d.member(q)]
    for q in frag:
        if not any(p.leq(m, q) for m in members):
            try:
                r = d.extend(q)
                witnessed = d.member(r) and p.leq(r, q)
            except BadExtender:
                witnessed = False
            if witnessed:
                return DensityReport(None, n, undecided=q)
            return DensityReport(False, n, counterexample=q)
    return DensityReport(True, n)


# ---------------------------------------------------------------------------
# presentations, member predicates and extenders
# ---------------------------------------------------------------------------

NAT = nat_set()


POSETS = {
    "coll-nat": coll_poset(NAT),
    "coll-pairs": coll_poset(pairs_set()),
    # a presentation without a cone, so leq derives it
    "coll-no-cone": dataclasses.replace(coll_poset(NAT), above=None),
    "tree-evens": t_of_f(NAT, evens_functional(NAT)),
    "tree-bounded": t_of_f(NAT, bounded_functional(NAT)),
    "lambda-tree": lambda_tree(finite_subset_lattice(NAT)),
}

# block boundaries of the nat prefix enumeration: 65, 326 and 1957 items
FRAG_SIZES = st.one_of(st.integers(1, 70),
                       st.sampled_from([64, 65, 66, 325, 326, 327]))


def _bit(q, salt):
    return zlib.crc32(repr((salt, q)).encode()) & 1


def members(kind, arg):
    """Member predicates; only "level" is closed under extension."""
    return {
        "level": lambda q: len(q) >= arg,
        "exact": lambda q: len(q) == arg,
        "short": lambda q: len(q) <= arg,
        "hashed": lambda q: _bit(q, arg) == 1,
        "none": lambda q: False,
    }[kind]


def extender(kind, p, member, reach):
    """Extenders that refuse, leave their input, return a non-member, or
    search the first ``reach`` enumerated elements for a member below."""

    def refuse(q):
        raise BadExtender(f"no extension of {q!r}")

    def search(q):
        for k in range(reach):
            r = p.enum(k)
            if member(r) and p.leq(r, q):
                return r
        raise BadExtender(f"no extension of {q!r} among {reach}")

    return {
        "refuse": refuse,
        "identity": lambda q: q,
        "root": lambda q: p.enum(0),
        "search": search,
    }[kind]


MEMBER_KINDS = st.sampled_from(["level", "exact", "short", "hashed", "none"])
EXTENDER_KINDS = st.sampled_from(["refuse", "identity", "root", "search"])


def assert_same_report(p, d, n):
    assert is_dense_on_truncation(p, d, n) == is_dense_on_truncation_reference(p, d, n)


class TestConeContract:
    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_presentation_laws_include_the_cone(self, name):
        check_poset_laws(POSETS[name], 120)

    def test_which_presentations_carry_a_cone(self):
        assert POSETS["coll-nat"].above is prefixes
        assert POSETS["coll-no-cone"].above is None
        assert POSETS["tree-bounded"].above is prefixes
        assert POSETS["lambda-tree"].above is prefixes
        assert table_poset(random_finite_poset(random.Random(0), 5)).above is not None

    def test_prefixes_are_the_conditions_extended(self):
        assert prefixes(()) == [()]
        assert prefixes((4, 1, 7)) == [(), (4,), (4, 1), (4, 1, 7)]

    @pytest.mark.parametrize("wrong", [
        lambda t: prefixes(t)[1:],        # misses the root
        lambda t: prefixes(t) + [(0, 1)],  # claims a condition t may not extend
        lambda t: prefixes(t)[:-1],       # misses the condition itself
    ])
    def test_laws_reject_a_wrong_cone(self, wrong):
        p = PosetPresentation("bad", coll_poset(NAT).carrier, coll_poset(NAT).leq,
                              coll_poset(NAT).enum, (), above=wrong)
        with pytest.raises(AssertionError, match="above"):
            check_poset_laws(p, 120)

    def test_laws_reject_a_wrong_table_cone(self):
        table = random_finite_poset(random.Random(4), 8)
        p = table_poset(table)
        check_poset_laws(p, 8)
        bad = PosetPresentation("bad", p.carrier, p.leq, p.enum, p.root,
                                above=lambda q: [q])
        with pytest.raises(AssertionError, match="above"):
            check_poset_laws(bad, 8)


class TestDensityMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(POSETS)), MEMBER_KINDS, st.integers(0, 4),
           EXTENDER_KINDS, st.integers(1, 3), FRAG_SIZES)
    def test_sequence_trees(self, name, member_kind, arg, extend_kind, reach, n):
        p = POSETS[name]
        member = members(member_kind, arg)
        d = DenseSet("d", member, extender(extend_kind, p, member, reach * n))
        assert_same_report(p, d, n)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["coll-nat", "coll-pairs", "coll-no-cone"]),
           st.integers(0, 4), FRAG_SIZES)
    def test_level_dense(self, name, i, n):
        x = {"coll-nat": NAT, "coll-pairs": pairs_set(),
             "coll-no-cone": NAT}[name]
        assert_same_report(POSETS[name], level_dense(x, i), n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 12), st.booleans(), st.data())
    def test_random_tables(self, seed, size, derived, data):
        rng = random.Random(seed)
        table = random_finite_poset(rng, size)
        p = table_poset(table)
        if derived:
            p = dataclasses.replace(p, above=None)
        s = frozenset(data.draw(st.sets(st.sampled_from(table.elements))))
        member = s.__contains__
        kind = data.draw(EXTENDER_KINDS)
        d = DenseSet("s", member, extender(kind, p, member, size))
        assert_same_report(p, d, data.draw(st.integers(1, size)))

    @pytest.mark.parametrize("n", [1956, 1957, 1958, 2000, 2500])
    def test_large_fragments(self, n):
        # 2000 cuts block 7 and leaves L_3 undecided at (6,)
        assert_same_report(POSETS["coll-nat"], level_dense(NAT, 3), n)

    @pytest.mark.parametrize("n", [2000, 2500])
    def test_large_fragment_without_a_cone(self, n):
        member = members("exact", 2)
        p = POSETS["coll-no-cone"]
        assert_same_report(p, DenseSet("d", member, extender("refuse", p, member, 0)), n)


def chains(p, n):
    """Descending chains: the prefixes of a fragment element, possibly
    grown past the fragment, or an arbitrary (usually not descending) list."""
    frag = st.integers(0, n - 1).map(p.enum)
    grown = st.tuples(frag, st.lists(st.integers(10**6, 10**6 + 50), max_size=3,
                                     unique=True))
    return st.one_of(
        frag.map(prefixes),
        grown.map(lambda tg: prefixes(tg[0] + tuple(tg[1]))),
        st.lists(frag, max_size=4),
    )


class TestClosureMatchesReference:
    @staticmethod
    def assert_same_closure(p, chain, n):
        try:
            expected = filter_from_chain_reference(p, chain, n)
        except NotAChain:
            with pytest.raises(NotAChain):
                filter_from_chain(p, chain, n)
            return
        assert filter_from_chain(p, chain, n) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["coll-nat", "coll-no-cone", "tree-evens", "tree-bounded"]),
           FRAG_SIZES, st.data())
    def test_sequence_trees(self, name, n, data):
        p = POSETS[name]
        chain = data.draw(chains(p, n))
        self.assert_same_closure(p, chain, n)

    @settings(max_examples=40, deadline=None)
    @given(FRAG_SIZES, st.data())
    def test_lambda_tree(self, n, data):
        p = POSETS["lambda-tree"]
        t = p.enum(data.draw(st.integers(0, n - 1)))
        chain = data.draw(st.sampled_from([prefixes(t), [t], list(reversed(prefixes(t)))]))
        self.assert_same_closure(p, chain, n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 12), st.data())
    def test_random_tables(self, seed, size, data):
        table = random_finite_poset(random.Random(seed), size)
        p = table_poset(table)
        chain = data.draw(st.lists(st.sampled_from(table.elements), max_size=4))
        self.assert_same_closure(p, chain, data.draw(st.integers(1, size)))

    @pytest.mark.parametrize("n", [1957, 2000, 2500])
    def test_large_fragments(self, n):
        run = rasiowa_sikorski(POSETS["coll-nat"], level_family(NAT, 6), (), 6)
        self.assert_same_closure(POSETS["coll-nat"], run.chain, n)


def descending_chain(table, data, max_len):
    """A descending chain of table elements drawn one step down at a time;
    a step may stay put, since leq is reflexive."""
    chain = [data.draw(st.sampled_from(table.elements))]
    for _ in range(data.draw(st.integers(0, max_len - 1))):
        below = [e for e in table.elements if table.leq(e, chain[-1])]
        chain.append(data.draw(st.sampled_from(below)))
    return chain


class TestUnionMatchesReference:
    """The density check skips a condition an earlier-taken cone covers,
    and a closure reads the cone of a chain's last entry, which may leave
    the fragment or lie outside it; neither answer may change."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 12), st.booleans(), st.data())
    def test_random_tables(self, seed, size, derived, data):
        # table cones branch: they are not chains
        table = random_finite_poset(random.Random(seed), size)
        p = table_poset(table)
        if derived:
            p = dataclasses.replace(p, above=None)
        n = data.draw(st.integers(1, size))
        member = frozenset(data.draw(st.sets(st.sampled_from(table.elements)))).__contains__
        d = DenseSet("s", member, extender(data.draw(EXTENDER_KINDS), p, member, size))
        assert_same_report(p, d, n)
        TestClosureMatchesReference.assert_same_closure(
            p, descending_chain(table, data, 2 * size), n)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["coll-nat", "coll-pairs", "coll-no-cone"]), FRAG_SIZES,
           st.data())
    def test_coll_fragments(self, name, n, data):
        p = POSETS[name]
        x = pairs_set() if name == "coll-pairs" else NAT
        inside = st.integers(0, n - 1).map(p.enum)
        # enumerated past the cut, or grown by a code no fragment element uses
        past = st.integers(n, n + 400).map(p.enum)
        grown = st.tuples(inside, st.integers(10**6, 10**6 + 50)).map(
            lambda qc: qc[0] + (x.enum(qc[1]),))
        last = data.draw(st.one_of(inside, past, grown))
        TestClosureMatchesReference.assert_same_closure(p, prefixes(last), n)
        member = frozenset(data.draw(st.lists(inside, max_size=12))).__contains__
        d = DenseSet("s", member, extender(data.draw(EXTENDER_KINDS), p, member, n))
        assert_same_report(p, d, n)

    def test_a_chain_ending_outside_the_fragment(self):
        # (0, 1) lies past the fragment [(), (0,)] and closes to all of it;
        # the cone of (7, 8) leaves the fragment and keeps only ()
        p = POSETS["coll-nat"]
        assert filter_from_chain(p, [(), (0,), (0, 1)], 2) == {(), (0,)}
        assert filter_from_chain(p, [(), (7,), (7, 8)], 2) == {()}
        assert filter_from_chain(p, [(0, 1)], 2) == {(), (0,)}
