"""Differential tests: each merged path against the copy it replaced.

The replaced copies are kept here, verbatim in behaviour, as test oracles
only: the DFS-and-set-difference prefix enumeration, the fixed-point pair
closure, the pairwise repeat loops, the stand-alone QSeq validator, the
concatenation-based evaluator of a lifted witness, the finite-table
loops over ``leq`` that the bit rows replaced, the pair set a finite table
kept beside its rows, the row scan that tested each drawn mask for density,
and the subset-stage outputs that re-walked every stage.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import (
    InjSeq,
    builtin_set,
    coll_poset,
    first_repeat,
    prefix_enumeration,
    require_injective,
)
from forcelab.dctrees import bounded_functional, evens_functional, t_of_f
from forcelab.errors import BadExtender, NotAPartialOrder, NotAQSeq, NotInjective, NotInLambda
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
from forcelab.posets import (
    FinitePoset,
    FinitePreorder,
    GammaPresentation,
    PosetPresentation,
    _closed_rows_table,
    brute_force_filter,
    check_poset_laws,
    gamma_check,
    is_filter,
    random_dense_sets,
    random_finite_poset,
    table_dense_sets,
    table_poset,
)
from forcelab.qtree import (
    LatticeOracle,
    check_lattice,
    QSeq,
    coll_to_q,
    finite_subset_lattice,
    lambda_tree,
    q_into_lambda,
    qseq_json,
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


def pairs_of(table):
    """The pairs a table's rows hold, diagonal included: the pair set a
    table once kept beside its rows."""
    return frozenset((a, table.elements[j]) for a, row in zip(table.elements, table.up)
                     for j in range(len(table.elements)) if row >> j & 1)


def transpose(rows):
    """The columns of bit rows, whatever relation they hold."""
    return [sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
            for j in range(len(rows))]


def unchecked_table(elems, rows):
    """A ``FinitePoset`` on any reflexive rows, built past the partial-order
    check of its ``__init__``: the tables of relations that are no order,
    which these tests draw on purpose."""
    table = object.__new__(FinitePoset)
    for name, value in [("elements", tuple(elems)), ("up", tuple(rows)),
                        ("_pos", {e: i for i, e in enumerate(elems)}),
                        ("down", transpose(rows))]:
        object.__setattr__(table, name, value)
    return table


def table_of(elems, pairs):
    """The table of a relation as it stands, not closed: its rows hold the
    pairs and the diagonal, as leq adds equality."""
    return unchecked_table(elems, [
        sum(1 << j for j, b in enumerate(elems) if a == b or (a, b) in pairs)
        for a in elems])


def closed_table(elems, rows):
    """``_closed_rows_table`` of rows whose closure may be no order: the rows
    it closed in place, built past the check that refused them."""
    try:
        return _closed_rows_table(elems, rows)
    except NotAPartialOrder:
        return unchecked_table(elems, rows)


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


def random_finite_poset_reference(rng, size):
    """``random_finite_poset`` as it drew its edges into a set of pairs."""
    pairs = set()
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                pairs.add((j, i))  # higher index extends lower: j <= i
    return _closed_rows_table(range(size), list(table_of(range(size), pairs).up))


def random_dense_sets_reference(rng, table, count):
    """``random_dense_sets`` as it built a frozenset for every draw."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        s = frozenset(e for e in table.elements if rng.random() < 0.5)
        if s and is_dense_in_table_reference(table, s):
            out.append(s)
    while len(out) < count:
        out.append(frozenset(table.elements))  # whole carrier is always dense
    return out


def random_dense_sets_row_scan_reference(rng, table, count):
    """``random_dense_sets`` as it tested each mask against every down row."""
    out = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        mask = sum([1 << i for i in range(len(table.elements)) if rng.random() < 0.5])
        if mask and all(row & mask for row in table.down):
            out.append(frozenset(table.elements[i] for i in range(len(table.elements))
                                 if mask >> i & 1))
    while len(out) < count:
        out.append(frozenset(table.elements))
    return out


def first_repeat_reference(items):
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j]:
                return i, j
    return None


def coll_carrier_reference(x, t):
    if not isinstance(t, tuple):
        return False
    for i, c in enumerate(t):
        if not x.contains(c):
            return False
        for d in t[i + 1:]:
            if c == d:
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


def q_into_lambda_reference(x, t):
    """Every stage through the carrier of the decreasing-sequence tree."""
    tree = lambda_tree(finite_subset_lattice(x))
    stages = tuple(t.stages)
    if not tree.carrier(stages):
        raise NotInLambda(f"stages {stages!r} are not in {tree.name}")
    return stages


def qseq_json_reference(x, t):
    """Each stage sorted by index on its own."""
    return {"stages": [sorted(stage, key=x.index_of) for stage in t.stages]}


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
            lattice, lambda prefix, c: lattice.lt(c, prefix[-1]) if prefix else True),
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
        table = closed_table(elems, list(table_of(elems, pairs).up))
        assert table.elements == tuple(elems)
        closed = closure_reference(elems, pairs)
        assert pairs_of(table) == closed
        # the rows Warshall closed are the rows of the closed pairs
        assert table == table_of(elems, closed)
        assert table.down == [sum(1 << i for i, a in enumerate(elems) if (a, b) in closed)
                              for b in elems]

    @settings(max_examples=60, deadline=None)
    @given(pair_sets())
    def test_named_table_matches_fixed_point(self, case):
        """Closure reads positions only: over names it relates the names of
        the positions it relates."""
        elems, pairs = case
        names = [f"e{i}" for i in elems]
        table = closed_table(names, list(table_of(elems, pairs).up))
        expect = closure_reference(names, {(f"e{a}", f"e{b}") for a, b in pairs})
        assert pairs_of(table) == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 12))
    def test_random_poset_matches_fixed_point(self, seed, size):
        table = random_finite_poset(random.Random(seed), size)
        assert table.elements == tuple(range(size))
        assert pairs_of(table) == random_poset_pairs_reference(random.Random(seed), size)


class TestOracleStream:
    def test_cases_and_rng_state_match_the_loops(self):
        """oracle-check's draws, three cases on one generator per seed, with
        size caps from 2 to 20: the same tables and dense sets, and the
        generator left in the same state after each case."""
        for seed in range(1200):
            new, old = random.Random(seed), random.Random(seed)
            cap = 2 + seed % 19
            for _ in range(3):
                size = new.randint(2, cap)
                assert old.randint(2, cap) == size
                table = random_finite_poset(new, size)
                expect = random_finite_poset_reference(old, size)
                assert table == expect
                assert (table.up, table.down) == (expect.up, expect.down)
                count = new.randint(1, 3)
                assert old.randint(1, 3) == count
                assert (random_dense_sets(new, table, count)
                        == random_dense_sets_reference(old, expect, count))
                assert new.getstate() == old.getstate()


# ---------------------------------------------------------------------------
# injectivity
# ---------------------------------------------------------------------------

CODES = st.lists(st.integers(0, 12), max_size=14)


class TestInjectivity:
    @settings(max_examples=200, deadline=None)
    @given(CODES)
    def test_first_repeat_matches_pairwise_loop(self, items):
        assert first_repeat(items) == first_repeat_reference(items)

    @settings(max_examples=150, deadline=None)
    @given(CODES)
    def test_errors_match_pairwise_loop(self, items):
        pair = first_repeat_reference(items)
        expect = None if pair is None else (
            NotInjective, f"positions {pair[0]} and {pair[1]} repeat {items[pair[0]]!r}", {})
        assert raised(require_injective, items) == expect
        assert raised(InjSeq, items) == expect
        assert raised(InjSeq, tuple(items)) == expect

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


# codes outside every built-in set; True equals 1 but is no int code
OUTSIDE = (-2, True, "a", (1, -1))


@st.composite
def qseqs_over_sets(draw):
    """A built-in set and a QSeq over its first codes, with at most two codes
    from outside it inserted, built from its items or from its stages."""
    x = builtin_set(draw(st.sampled_from(("nat", "evens", "pairs"))))
    items = [x.enum(i) for i in draw(st.lists(st.integers(0, 20), unique=True, max_size=8))]
    for code in draw(st.lists(st.sampled_from(OUTSIDE), unique=True, max_size=2)):
        if code not in items:
            items.insert(draw(st.integers(0, len(items))), code)
    if draw(st.booleans()):
        return x, QSeq(tuple(frozenset(items[:i + 1]) for i in range(len(items))))
    return x, coll_to_q(InjSeq(items))


class TestQSeq:
    @settings(max_examples=300, deadline=None)
    @given(STAGES)
    def test_errors_match_reference(self, stages):
        expect = raised(validate_qseq_reference, stages)
        assert raised(QSeq, stages) == expect
        assert raised(QSeq, tuple(stages)) == expect

    @settings(max_examples=300, deadline=None)
    @given(qseqs_over_sets())
    def test_outputs_match_stage_walks(self, case):
        x, t = case
        assert outcome(q_into_lambda, x, t) == outcome(q_into_lambda_reference, x, t)
        assert outcome(qseq_json, x, t) == outcome(qseq_json_reference, x, t)


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


# ---------------------------------------------------------------------------
# finite tables: the loops over leq that the bit rows replaced
# ---------------------------------------------------------------------------


def is_filter_reference(table, subset):
    s = set(subset)
    if not s:
        return False
    for p in s:
        for q in table.elements:
            if table.leq(p, q) and q not in s:
                return False
    for p in s:
        for q in s:
            if not any(table.leq(r, p) and table.leq(r, q) for r in s):
                return False
    return True


def brute_force_filter_reference(table, dense):
    elems = table.elements
    targets = [frozenset(d) for d in dense]
    for mask in range(1, 1 << len(elems)):
        s = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        if any(not (s & t) for t in targets):
            continue
        if is_filter_reference(table, s):
            return s
    return None


def is_dense_in_table_reference(table, subset):
    s = frozenset(subset)
    return all(any(table.leq(q, p) and q in s for q in table.elements)
               for p in table.elements)


def table_extend_reference(table, s, p):
    for q in table.elements:
        if table.leq(q, p) and q in s:
            return q
    raise BadExtender(f"no extension of {p!r} into {sorted(map(str, s))}")


def table_root_reference(table):
    elems = table.elements
    maxima = [p for p in elems if all(table.leq(q, p) for q in elems)]
    return maxima[0] if maxima else None


def table_ups_reference(table):
    ups = {e: [e] for e in table.elements}
    for a, b in pairs_of(table):
        if a != b:
            ups.setdefault(a, [a]).append(b)
    return ups


def check_poset_laws_reference(p, n):
    frag = [p.enum(k) for k in range(n)]
    for q in frag:
        if not p.carrier(q):
            raise AssertionError(f"enumerated {q!r} fails the carrier predicate")
    rows = []
    for a in frag:
        mask = 0
        for j, b in enumerate(frag):
            if p.leq(a, b):
                mask |= 1 << j
        rows.append(mask)
    for i in range(n):
        if not rows[i] >> i & 1:
            raise AssertionError(f"leq not reflexive at {frag[i]!r}")
        m = rows[i]
        j = 0
        while m:
            if m & 1:
                if rows[j] & ~rows[i]:
                    raise AssertionError(
                        f"leq not transitive at {frag[i]!r} <= {frag[j]!r}")
                if rows[j] >> i & 1 and i != j:
                    raise AssertionError(
                        f"leq not antisymmetric on {frag[i]!r}, {frag[j]!r}")
            m >>= 1
            j += 1
    if p.above is not None:
        for i, a in enumerate(frag):
            cone = p.above(a)
            wrong = rows[i] ^ sum(1 << j for j, b in enumerate(frag) if b in cone)
            if wrong:
                b = frag[(wrong & -wrong).bit_length() - 1]
                raise AssertionError(f"above({a!r}) and leq disagree on {b!r}")


def gamma_check_reference(g, depth):
    sizes = []
    seen = set()
    for lv in range(depth):
        level = g.levels(lv)
        elems = level.elements
        rel = level.relation
        sizes.append(len(elems))
        for x in elems:
            if (x, x) not in rel:
                return (False, tuple(sizes), (lv, "not-a-preorder", (x, x, x)))
        pos = {x: i for i, x in enumerate(elems)}
        foreign = [ab for ab in rel if ab[0] not in pos or ab[1] not in pos]
        if foreign:
            raise ValueError(
                f"level {lv} relates {min(map(repr, foreign))} outside its elements")
        rows = [0] * len(elems)
        for a, b in rel:
            rows[pos[a]] |= 1 << pos[b]
        for i, row in enumerate(rows):
            for j in range(len(elems)):
                missing = rows[j] & ~row if row >> j & 1 else 0
                if missing:
                    d = (missing & -missing).bit_length() - 1
                    return (False, tuple(sizes),
                            (lv, "not-a-preorder", (elems[i], elems[j], elems[d])))
        if not g.shared_codes:
            overlap = seen & set(elems)
            if overlap:
                x = sorted(map(str, overlap))[0]
                return (False, tuple(sizes), (lv, "levels-overlap", (x, x, x)))
            seen |= set(elems)
    return (True, tuple(sizes), None)


def check_lattice_reference(l, sample):
    """The n^3 loop over every sample element as a bound of every pair.

    The one added behaviour, the check that each meet lies below and each
    join above both arguments, runs where ``check_lattice`` runs it: for
    each pair, before that pair's laws.
    """
    n = len(sample)
    for a in sample:
        if l.lt(a, a):
            raise AssertionError(f"lt not irreflexive at {a!r}")
    leq = lambda a, b: a == b or l.lt(a, b)
    check_poset_laws_reference(PosetPresentation(
        name=l.name, carrier=l.carrier, leq=leq,
        enum=sample.__getitem__, above=lambda a: [a, *l.uppers(a)]), n)
    for a in sample:
        if a in l.uppers(a):
            raise AssertionError(f"uppers({a!r}) lists {a!r} itself")
        if not l.lt(l.has_lower(a), a):
            raise AssertionError(f"has_lower({a!r}) not strictly below")
    for i in range(n):
        for j in range(n):
            a, b = sample[i], sample[j]
            m = l.meet(a, b)
            jn = l.join(a, b)
            if m is not None and not (leq(m, a) and leq(m, b)):
                raise AssertionError(f"meet({a!r}, {b!r}) = {m!r} is not below both")
            if jn is not None and not (leq(a, jn) and leq(b, jn)):
                raise AssertionError(f"join({a!r}, {b!r}) = {jn!r} is not above both")
            for k in range(n):
                r = sample[k]
                if l.lt(r, sample[i]) and l.lt(r, sample[j]) and m is not None:
                    if not (r == m or l.lt(r, m)):
                        raise AssertionError(
                            f"meet law fails at {sample[i]!r}, {sample[j]!r}, {r!r}")
                if l.lt(sample[i], r) and l.lt(sample[j], r) and jn is not None:
                    if not (jn == r or l.lt(jn, r)):
                        raise AssertionError(
                            f"join law fails at {sample[i]!r}, {sample[j]!r}, {r!r}")


def outcome(fn, *args):
    """What fn(*args) returned, or the type and message of what it raised."""
    try:
        return "returned", fn(*args)
    except (AssertionError, BadExtender, NotInLambda, ValueError) as exc:
        return type(exc), str(exc)


def law_failure(fn, *args):
    """The message of the AssertionError fn(*args) raised, or None."""
    try:
        fn(*args)
    except AssertionError as exc:
        return str(exc)
    return None


FOREIGN = "x"


@st.composite
def tables(draw):
    """A table over distinct ints or strings with any relation on them, or
    its reflexive-transitive closure."""
    size = draw(st.integers(0, 6))
    elems = tuple(range(size)) if draw(st.booleans()) else tuple(f"e{i}" for i in range(size))
    pairs = draw(st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)))
                 if size else st.just(set()))
    closed = draw(st.booleans())
    table = table_of(elems, pairs)
    return closed_table(elems, list(table.up)) if closed else table


def subsets_of(draw, table):
    """A subset of the table's elements, sometimes with an element outside it."""
    pool = list(table.elements) + [FOREIGN]
    return draw(st.sets(st.sampled_from(pool)))


@st.composite
def partial_orders(draw):
    """The closure of random edges that each run from a later to an earlier
    element of a random order of the elements: a partial order whose
    minimal elements lie anywhere in the element list."""
    size = draw(st.integers(0, 9))
    rank = draw(st.permutations(range(size)))
    rows = [1 << i for i in range(size)]
    for i, j in draw(st.sets(st.tuples(st.integers(0, max(size - 1, 0)),
                                       st.integers(0, max(size - 1, 0))))):
        if size and rank[i] > rank[j]:
            rows[i] |= 1 << j  # a later element extends an earlier one
    return _closed_rows_table(range(size), rows)


class TestDenseMasks:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(partial_orders(), tables()), st.integers(0, 2**32), st.integers(0, 4))
    def test_minimal_elements_decide_as_the_row_scan(self, table, seed, count):
        """On partial orders and on tables of any relation: the same draws,
        the same sets and the generator left alike."""
        new, old = random.Random(seed), random.Random(seed)
        assert (random_dense_sets(new, table, count)
                == random_dense_sets_row_scan_reference(old, table, count))
        assert new.getstate() == old.getstate()


def leq_outcome(leq, a, b):
    try:
        return leq(a, b)
    except TypeError as exc:
        return TypeError, str(exc)


class TestFiniteTables:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_leq_is_equality_or_a_pair(self, data):
        """On closed and unclosed tables, and for codes outside them (an
        unhashable one too), leq answers as the pair set it replaced."""
        size = data.draw(st.integers(0, 6))
        elems = tuple(range(size)) if data.draw(st.booleans()) else tuple(
            f"e{i}" for i in range(size))
        drawn = data.draw(st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)))
                          if size else st.just(set()))
        closed = data.draw(st.booleans())
        table = table_of(elems, drawn)
        if closed:
            table = closed_table(elems, list(table.up))
        pairs = closure_reference(elems, drawn) if closed else frozenset(drawn)
        codes = list(elems) + [FOREIGN, size, -1, True, None, (0,), [0]]
        for a in codes:
            for b in codes:
                assert leq_outcome(table.leq, a, b) == leq_outcome(
                    lambda a, b: a == b or (a, b) in pairs, a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_is_filter_matches_loops(self, data):
        table = data.draw(tables())
        subset = subsets_of(data.draw, table)
        inside = subset <= set(table.elements)
        assert is_filter(table, subset) == (is_filter_reference(table, subset) and inside)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_brute_force_filter_matches_loops(self, data):
        table = data.draw(tables())
        dense = [subsets_of(data.draw, table) for _ in range(data.draw(st.integers(0, 3)))]
        assert brute_force_filter(table, dense) == brute_force_filter_reference(table, dense)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_extender_matches_loops(self, data):
        table = data.draw(tables())
        subset = frozenset(subsets_of(data.draw, table))
        (d,) = table_dense_sets(table, [subset])
        for p in table.elements + (FOREIGN,):
            assert outcome(d.extend, p) == outcome(table_extend_reference, table, subset, p)
        # an unhashable code is outside the table too, not a TypeError
        assert outcome(d.extend, [0]) == (
            BadExtender, f"no extension of [0] into {sorted(map(str, subset))}")

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_presentation_matches_loops(self, table):
        pres = table_poset(table)
        assert pres.root == table_root_reference(table)
        assert not pres.carrier(FOREIGN) and not pres.carrier([0])
        ups = table_ups_reference(table)
        for q in table.elements:
            assert sorted(map(str, pres.above(q))) == sorted(map(str, ups[q]))
        assert pres.above(FOREIGN) == [FOREIGN]
        n = len(table.elements)
        assert law_failure(check_poset_laws, pres, n) == law_failure(
            check_poset_laws_reference, pres, n)

    @settings(max_examples=500, deadline=None)
    @given(tables(), st.data())
    def test_poset_laws_match_loops(self, table, data):
        # leq is the table's, the pairs of its rows, or a bare relation with
        # no reflexive pairs added; above lists the cones of the same table,
        # of that relation's closure, or is absent; one element may fail the
        # carrier
        elems = table.elements
        pairs = data.draw(st.sets(st.tuples(st.sampled_from(elems), st.sampled_from(elems)))
                          if elems else st.just(set()))
        leq = data.draw(st.sampled_from([table.leq, lambda a, b: (a, b) in pairs_of(table),
                                         lambda a, b: (a, b) in pairs]))
        other = table
        if data.draw(st.booleans()):
            other = closed_table(elems, list(table_of(elems, pairs).up))
        above = data.draw(st.sampled_from([None, table, other]))
        outside = data.draw(st.sampled_from(elems)) if elems and data.draw(
            st.integers(0, 4)) == 0 else FOREIGN
        p = PosetPresentation(
            name="drawn", carrier=lambda c: c != outside, leq=leq,
            enum=elems.__getitem__,
            above=None if above is None else table_poset(above).above)
        n = data.draw(st.sampled_from([len(elems)] * 3 + list(range(len(elems)))))
        failure = law_failure(check_poset_laws_reference, p, n)
        assert law_failure(check_poset_laws, p, n) == failure
        if failure is None:
            rows, cols = check_poset_laws(p, n)
            assert rows == [sum(1 << j for j, b in enumerate(elems[:n]) if leq(a, b))
                            for a in elems[:n]]
            assert cols == transpose(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_gamma_check_matches_loops(self, data):
        depth = data.draw(st.integers(1, 3))
        glued = data.draw(st.booleans())
        levels = []
        for lv in range(depth):
            size = data.draw(st.integers(0, 5))
            start = data.draw(st.integers(0, 3)) if glued or data.draw(st.booleans()) else 10 * lv
            elems = tuple(f"e{start + i}" for i in range(size))
            pool = elems + (("z",) if data.draw(st.integers(0, 9)) == 0 else ())
            rel = set(data.draw(st.sets(st.tuples(st.sampled_from(pool), st.sampled_from(pool))))
                      if pool else set())
            if data.draw(st.integers(0, 3)):
                rel |= {(x, x) for x in elems}
            levels.append(FinitePreorder(elems, frozenset(rel)))
        g = GammaPresentation("drawn", levels.__getitem__, glued)
        got = outcome(gamma_check, g, depth)
        if got[0] == "returned":
            report = got[1]
            violation = report.violation
            got = ("returned", (report.ok, report.size_profile, None if violation is None else
                                (violation.level, violation.law, violation.witness)))
        assert got == outcome(gamma_check_reference, g, depth)


LATTICE = finite_subset_lattice(builtin_set("nat"))


def keyed(s, t, modulus, residue):
    """A pair-dependent coin, so a broken callable breaks on some pairs only."""
    return (sum(s) * 3 + sum(t) * 7 + len(s)) % modulus == residue


def lattice_variant(draw):
    """The finite-subset lattice with at most one callable broken, on some pairs."""
    modulus = draw(st.integers(1, 6))
    residue = draw(st.integers(0, modulus - 1))
    on = lambda s, t: keyed(s, t, modulus, residue)
    sound = LATTICE
    broken = {
        "meet": {
            "left": lambda s, t: s if on(s, t) else s | t,
            "too-low": lambda s, t: s | t | {max(s | t) + 1} if on(s, t) else s | t,
            "partial": lambda s, t: None if on(s, t) else s | t,
        },
        "join": {
            "right": lambda s, t: t if on(s, t) else sound.join(s, t),
            "union": lambda s, t: s | t if on(s, t) else sound.join(s, t),
            "too-high": lambda s, t: (frozenset(sorted(s & t)[:-1]) or None) if on(s, t)
            else sound.join(s, t),
        },
        "lt": {
            "covers": lambda s, t: t < s and (len(s) == len(t) + 1 or not on(s, t)),
            "both-ways": lambda s, t: t < s or (s < t and on(s, t)),
            "reflexive": lambda s, t: t < s or (s == t and on(s, t)),
        },
        "uppers": {
            "one-more": lambda s: sound.uppers(s) + ([sound.has_lower(s)] if on(s, s) else []),
            "one-fewer": lambda s: sound.uppers(s)[1:] if on(s, s) else sound.uppers(s),
        },
    }
    field = draw(st.sampled_from(["none", *sorted(broken)]))
    if field == "none":
        return sound
    variants = broken[field]
    kept = {name: getattr(sound, name) for name in
            ("name", "carrier", "lt", "meet", "join", "uppers", "has_lower", "enum")}
    return LatticeOracle(**{**kept, field: variants[draw(st.sampled_from(sorted(variants)))]})


class TestLatticeLaws:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_check_lattice_matches_loops(self, data):
        lattice = lattice_variant(data.draw)
        sample = [LATTICE.enum(k) for k in data.draw(
            st.lists(st.integers(0, 30), min_size=1, max_size=16,
                     unique=data.draw(st.integers(0, 7)) > 0))]
        assert law_failure(check_lattice, lattice, sample) == law_failure(
            check_lattice_reference, lattice, sample)
