"""Differential tests: linear generic runs against the quadratic code they replaced.

The replaced code is kept here, verbatim in behaviour, as test oracles
only: the engine that stores every condition of a run, the marker
reduction that rewalks the whole marked sequence on every call, and the
``seq``, ``evens`` and ``bounded`` functionals whose selects rescan from 0
(``seq`` with its one-slot cache) and whose members scan t.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import collapse, dctrees
from forcelab.collapse import (
    CountableSet,
    builtin_set,
    coll_poset,
    generic_to_injection,
    injection_to_generic,
    level_family,
    nat_set,
)
from forcelab.dctrees import (
    MarkedElement,
    bounded_functional,
    evens_functional,
    f_seq,
    fixture_functional,
    marked_set,
    marker_reduction,
    t_of_f,
    tree_level_family,
)
from forcelab.errors import BadExtender, BadSelector, NotAChain
from forcelab.posets import (
    DenseSet,
    GenericRun,
    Grown,
    filter_from_chain,
    random_dense_sets,
    random_finite_poset,
    rasiowa_sikorski,
    run_trace_json,
    table_dense_sets,
    table_poset,
)

NAT = nat_set()

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def rasiowa_sikorski_reference(p, ds, start, n):
    """The engine that keeps every condition of the run as a tuple."""
    if n < 0:
        raise ValueError(f"cannot descend through {n} dense sets")
    if not p.carrier(start):
        raise ValueError(f"start {start!r} is not in the carrier of {p.name}")
    if n > len(ds):
        raise ValueError(f"family has {len(ds)} dense sets, need {n}")
    chain = [start]
    met = []
    for i in range(n):
        q = ds[i].extend(chain[-1])
        if not p.leq(q, chain[-1]):
            raise BadExtender(
                f"extender {ds[i].name} output not below its input", index=i)
        if not ds[i].member(q):
            raise BadExtender(
                f"extender {ds[i].name} output not a member", index=i)
        chain.append(q)
        met.append((i, i + 1))
    run = GenericRun(p.name, tuple(chain))
    assert run.met == tuple(met)
    return run


def injection_chain_reference(values, n):
    return tuple(tuple(values[:i]) for i in range(n + 1))


def generic_to_injection_reference(x, run):
    chain = run.chain
    for a, b in zip(chain[1:], chain):
        if not collapse.extends(a, b):
            raise NotAChain(f"{a!r} does not extend {b!r}")
    return collapse.InjSeq(chain[-1] if chain else ())


def f_seq_reference(x):
    def member(t, v):
        return x.contains(v) and v not in t

    last = [(), 0]

    def select(t):
        used = set(t)
        i = last[1] if collapse.extends(t, last[0]) else 0
        while x.enum(i) in used:
            i += 1
        if type(t) is tuple:
            last[0], last[1] = t, i
        return x.enum(i)

    return dctrees.ChoiceFunctional(f"seq({x.name})", member, select, True)


def evens_reference(x):
    def member(t, v):
        if not x.contains(v) or v in t:
            return False
        return x.index_of(v) % 2 == 0

    def select(t):
        used = set(t)
        i = 0
        while x.enum(2 * i) in used:
            i += 1
        return x.enum(2 * i)

    return dctrees.ChoiceFunctional(f"evens({x.name})", member, select, True)


def bounded_reference(x):
    def member(t, v):
        if not x.contains(v) or v in t:
            return False
        return x.index_of(v) <= 2 * len(t)

    def select(t):
        used = set(t)
        for i in range(2 * len(t) + 1):
            if x.enum(i) not in used:
                return x.enum(i)
        raise BadSelector(f"no unused code of index <= {2 * len(t)}")

    return dctrees.ChoiceFunctional(f"bounded({x.name})", member, select, True)


def _occurrences(bases, v, upto):
    return sum(1 for j in range(upto) if bases[j] == v)


def _consistent_markers_reference(u):
    if not all(isinstance(m, MarkedElement) for m in u):
        return False
    counts = {}
    for m in u:
        if m.marker != counts.get(m.base, 0):
            return False
        counts[m.base] = counts.get(m.base, 0) + 1
    return True


def marker_reduction_reference(x, f):
    product_seq = f_seq_reference(marked_set(x))

    def member(u, v):
        if not isinstance(v, MarkedElement):
            return False
        if _consistent_markers_reference(u):
            bases = [p.base for p in u]
            return (f.member(bases, v.base)
                    and v.marker == _occurrences(bases, v.base, len(bases)))
        return product_seq.member(u, v)

    def select(u):
        if _consistent_markers_reference(u):
            bases = [p.base for p in u]
            b = f.select(bases)
            return MarkedElement(b, _occurrences(bases, b, len(bases)))
        return product_seq.select(u)

    return dctrees.ChoiceFunctional(f"marked({f.name})", member, select, True)


# ---------------------------------------------------------------------------
# walks: grow, shrink, branch, probe with lists
# ---------------------------------------------------------------------------

# every code three times over, so that ``bounded`` can run out of codes
THRICE = CountableSet("thrice", lambda n: n // 3, index=NAT.index)
SETS = {"nat": NAT, "pairs": builtin_set("pairs"), "thrice": THRICE}

REFERENCES = {"seq": f_seq_reference, "evens": evens_reference,
              "bounded": bounded_reference}
BUILDERS = {"seq": f_seq, "evens": evens_functional, "bounded": bounded_functional}


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of the named error it raises."""
    try:
        return "value", fn(*args)
    except BadSelector as exc:
        return "error", type(exc).__name__, str(exc)


# One step of a walk: (kind, number).  ``grow`` appends the select answer,
# ``push`` appends a code, ``pop`` drops that many entries, ``branch``
# replaces the last entry, ``member``/``select`` probe (with a list when
# the number is odd).
STEPS = st.lists(st.tuples(
    st.sampled_from(["grow", "grow", "grow", "push", "pop", "branch",
                     "member", "select"]),
    st.integers(0, 40)), max_size=60)


def walk(fast, slow, steps, code):
    """Apply the steps to both functionals; every answer must agree.

    ``code(k)`` turns a number into an element.
    """
    t = ()
    for kind, k in steps:
        if kind == "grow":
            got = outcome(fast.select, t)
            assert got == outcome(slow.select, t)
            if got[0] == "value":
                assert fast.member(t, got[1]) == slow.member(t, got[1])
                t = t + (got[1],)
        elif kind == "push":
            t = t + (code(k),)
        elif kind == "pop":
            t = t[:max(0, len(t) - k % 4)]
        elif kind == "branch" and t:
            t = t[:-1] + (code(k),)
        elif kind in ("member", "select"):
            probe = list(t) if k % 2 else t
            if kind == "member":
                v = code(k // 2)
                assert fast.member(probe, v) == slow.member(probe, v)
            else:
                assert outcome(fast.select, probe) == outcome(slow.select, probe)


class TestResumableSelects:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)),
           st.sampled_from(sorted(SETS)), STEPS)
    def test_plain_walks_match_reference(self, name, xname, steps):
        x = SETS[xname]
        walk(BUILDERS[name](x), REFERENCES[name](x), steps, x.enum)

    def test_bounded_raises_named_error_like_reference(self):
        fast, slow = bounded_functional(THRICE), bounded_reference(THRICE)
        # indices 0..6 hold the codes 0, 1 and 2 only
        for probe in [(0, 1, 2), (0, 1), [0, 1, 2], (0, 1, 2, 5), (2, 1, 0)]:
            assert outcome(fast.select, probe) == outcome(slow.select, probe)
        assert outcome(fast.select, (0, 1, 2)) == (
            "error", "BadSelector", "no unused code of index <= 6")

    def test_a_list_mutated_in_place_is_not_cached(self):
        f = f_seq(NAT)
        t = [0, 1]
        assert f.select(t) == 2
        t.append(2)
        assert f.select(t) == 3 and not f.member(t, 2)

    def test_member_reads_the_scan_set_only_for_the_last_tuple(self):
        f = f_seq(NAT)
        t = (0, 1, 2)
        assert f.select(t) == 3
        assert not f.member(t, 1) and f.member(t, 3)
        assert f.member((5,), 1) and not f.member([1], 1)


def marked_code(k):
    # mostly plausible markers, sometimes a wrong one or an unmarked value
    if k % 11 == 10:
        return k
    return MarkedElement(k % 3, (k // 3) % 3)


class TestIncrementalMarkers:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["const", "cycle2", "cycle3", "seq", "evens", "bounded"]),
           STEPS)
    def test_marked_walks_match_reference(self, name, steps):
        fast = marker_reduction(NAT, fixture_functional(NAT, name))
        slow = marker_reduction_reference(NAT, fixture_functional(NAT, name))
        walk(fast, slow, steps, marked_code)

    @pytest.mark.parametrize("name", ["const", "cycle2", "cycle3"])
    def test_witness_matches_reference(self, name):
        mx = marked_set(NAT)
        fast = dctrees.dc_witness(mx, marker_reduction(NAT, fixture_functional(NAT, name)),
                                  300)
        g = marker_reduction_reference(NAT, fixture_functional(NAT, name))
        run = rasiowa_sikorski_reference(t_of_f(mx, g), tree_level_family(g, 300), (), 300)
        assert fast == run.chain[-1][:300]

    def test_inconsistent_extension_stays_inconsistent(self):
        g = marker_reduction(NAT, fixture_functional(NAT, "const"))
        ref = marker_reduction_reference(NAT, fixture_functional(NAT, "const"))
        u = (MarkedElement(0, 0), MarkedElement(0, 0))  # repeated marker
        for probe in (u, u + (MarkedElement(0, 1),), u[:1], u[:1] + (MarkedElement(0, 1),)):
            assert g.select(probe) == ref.select(probe)
            assert g.member(probe, MarkedElement(0, 2)) == ref.member(probe, MarkedElement(0, 2))

    def test_a_list_mutated_in_place_is_not_cached(self):
        g = marker_reduction(NAT, fixture_functional(NAT, "const"))
        u = [MarkedElement(0, 0)]
        assert g.select(u) == MarkedElement(0, 1)
        u.append(MarkedElement(0, 1))
        assert g.select(u) == MarkedElement(0, 2)
        assert g.member(u, MarkedElement(0, 2)) and not g.member(u, MarkedElement(0, 1))

    def test_unhashable_base_leaves_no_stale_state(self):
        g = marker_reduction(NAT, fixture_functional(NAT, "const"))
        u = (MarkedElement(0, 0),)
        assert g.select(u) == MarkedElement(0, 1)
        with pytest.raises(TypeError):
            g.select(u + (MarkedElement([1], 0),))
        assert g.select(u + (MarkedElement(0, 1),)) == MarkedElement(0, 2)


# ---------------------------------------------------------------------------
# the chain view reads like the tuple chain
# ---------------------------------------------------------------------------

def assert_same_chain(view, old):
    assert isinstance(old, tuple)
    assert len(view) == len(old)
    assert view == old and old == view and not (view != old)
    assert hash(view) == hash(old)
    assert tuple(view) == old and list(view) == list(old)
    for i in range(-len(old), len(old)):
        assert view[i] == old[i]
    rng = random.Random(len(old))
    for _ in range(12):
        a, b = rng.randint(-len(old) - 2, len(old) + 2), rng.randint(-len(old) - 2, len(old) + 2)
        step = rng.choice([None, 1, 2, 3, -1, -2])
        assert view[a:b:step] == old[a:b:step]
        assert hash(view[a:b:step]) == hash(old[a:b:step])
        assert len(view[a:b:step]) == len(old[a:b:step])
    with pytest.raises(IndexError):
        view[len(old)]
    if old:
        assert view != old[:-1] and view != old[:-1] + ((None,),)
        assert old[-1] in view and view.index(old[-1]) == old.index(old[-1])


SEQUENCE_RUNS = {
    "coll-nat": lambda n: (coll_poset(NAT), lambda: level_family(NAT, n)),
    "coll-pairs": lambda n: (coll_poset(builtin_set("pairs")),
                             lambda: level_family(builtin_set("pairs"), n)),
    "tree-seq": lambda n: (t_of_f(NAT, f_seq(NAT)),
                           lambda: tree_level_family(f_seq(NAT), n)),
    "tree-evens": lambda n: (t_of_f(NAT, evens_functional(NAT)),
                             lambda: tree_level_family(evens_functional(NAT), n)),
    "tree-bounded": lambda n: (t_of_f(NAT, bounded_functional(NAT)),
                               lambda: tree_level_family(bounded_functional(NAT), n)),
}


class TestChainView:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SEQUENCE_RUNS)), st.integers(0, 40),
           st.sampled_from([(), (7,), (7, 2), (3, 1, 4)]))
    def test_engine_chain_matches_tuple_chain(self, name, n, start):
        p, family = SEQUENCE_RUNS[name](n)
        if not p.carrier(start):
            start = ()
        fast = rasiowa_sikorski(p, family(), start, n)
        slow = rasiowa_sikorski_reference(p, family(), start, n)
        assert type(fast.chain) is tuple
        assert len({id(c.buf) for c in fast.chain if type(c) is Grown}) <= 1
        assert_same_chain(fast.chain, slow.chain)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.met == slow.met
        assert run_trace_json(fast) == run_trace_json(slow)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 200), unique=True, max_size=25), st.integers(0, 30))
    def test_injection_chain_matches_tuple_chain(self, values, n):
        n = min(n, len(values))
        run = injection_to_generic(NAT, values, n)
        old = injection_chain_reference(values, n)
        assert_same_chain(run.chain, old)
        assert generic_to_injection(run) == generic_to_injection_reference(
            NAT, GenericRun(run.poset, old))

    def test_table_posets_keep_tuple_chains(self):
        rng = random.Random(3)
        for _ in range(20):
            table = random_finite_poset(rng, rng.randint(2, 8))
            subsets = random_dense_sets(rng, table, rng.randint(1, 3))
            p = table_poset(table)
            start = p.root if p.root is not None else table.elements[0]
            ds = table_dense_sets(table, subsets)
            run = rasiowa_sikorski(p, ds, start, len(ds))
            assert type(run.chain) is tuple
            assert run == rasiowa_sikorski_reference(p, ds, start, len(ds))

    def test_user_presentation_without_cones_keeps_tuple_chain(self):
        p = dataclasses.replace(coll_poset(NAT), above=None)
        run = rasiowa_sikorski(p, level_family(NAT, 5), (), 5)
        assert type(run.chain) is tuple
        assert run.chain == ((), (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4))

    def test_decreasing_lengths_are_not_a_chain(self):
        buf = [4, 9, 1]
        bad = GenericRun("Coll(w,nat)", (Grown(buf, 1), Grown(buf, 3), Grown(buf, 2)))
        old = GenericRun("Coll(w,nat)", ((4,), (4, 9, 1), (4, 9)))
        with pytest.raises(NotAChain) as fast:
            generic_to_injection(bad)
        with pytest.raises(NotAChain) as slow:
            generic_to_injection_reference(NAT, old)
        assert str(fast.value) == str(slow.value)
        with pytest.raises(NotAChain):
            filter_from_chain(coll_poset(NAT), bad.chain, 10)

    @pytest.mark.parametrize("n", [1, 65, 326, 2000])
    def test_closure_of_a_view_matches_tuple_chain(self, n):
        p = coll_poset(NAT)
        fast = rasiowa_sikorski(p, level_family(NAT, 6), (), 6)
        slow = rasiowa_sikorski_reference(p, level_family(NAT, 6), (), 6)
        assert filter_from_chain(p, fast.chain, n) == filter_from_chain(p, slow.chain, n)

    def test_met_conventions(self):
        """The engine and an injection both meet goal i of ``length_levels``
        at position i+1, and the injection's run is the engine's run."""
        run = rasiowa_sikorski(coll_poset(NAT), level_family(NAT, 4), (), 4)
        family = level_family(NAT, 4)
        assert run.met == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert all(family[i].member(run.chain[pos]) for i, pos in run.met)
        inj = injection_to_generic(NAT, generic_to_injection(run).items, 4)
        assert inj == run
        assert inj.met == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert all(len(inj.chain[pos]) >= i + 1 for i, pos in inj.met)

    def test_bad_extender_still_caught_on_prefix_trees(self):
        p = coll_poset(NAT)
        liar = DenseSet("liar", lambda f: True, lambda q: (9,) + q)
        with pytest.raises(BadExtender):
            rasiowa_sikorski(p, [liar], (1,), 1)
        short = DenseSet("short", lambda f: len(f) >= 3, lambda q: q + (8,))
        with pytest.raises(BadExtender):
            rasiowa_sikorski(p, [short], (), 1)
