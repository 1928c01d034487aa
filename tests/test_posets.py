import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import coll_poset, level_dense, nat_set
from forcelab.errors import BadExtender, NotAChain, NotAPartialOrder, OracleLimit
from forcelab.posets import (
    DenseSet,
    FinitePoset,
    FinitePreorder,
    GammaPresentation,
    _closed_rows_table,
    brute_force_filter,
    check_poset_laws,
    filter_from_chain,
    gamma_check,
    is_dense_on_truncation,
    is_filter,
    random_dense_sets,
    random_finite_poset,
    rasiowa_sikorski,
    run_trace_json,
    table_dense_sets,
    table_poset,
)
from test_merged_paths import closed_table

# The covers of each of "0" to "6": 1, 2 <= 0; 3, 4 <= 1; 5 <= 2; 6 <= 3, 4.
SEVEN_COVERS = ("", "0", "0", "1", "1", "2", "34")


@pytest.fixture
def seven():
    rows = [1 << i | sum(1 << int(c) for c in covers) for i, covers in enumerate(SEVEN_COVERS)]
    return _closed_rows_table("0123456", rows)


def upward_closure_oracle(table, seeds):
    # independent of filter_from_chain: direct double loop
    return {q for q in table.elements if any(table.leq(s, q) for s in seeds)}


class TestFiniteTables:
    def test_rows_are_closed(self, seven):
        assert seven.leq("6", "0")
        assert seven.leq("5", "0")
        assert not seven.leq("5", "1")
        assert not seven.leq("0", "6")

    def test_presentation_laws(self, seven):
        p = table_poset(seven)
        check_poset_laws(p, len(seven.elements))
        assert p.root == "0"

    def test_closing_closed_rows_changes_nothing(self, seven):
        assert _closed_rows_table(seven.elements, list(seven.up)) == seven

    def test_mixed_type_elements_keep_their_order(self):
        # elements of different types cannot be sorted together
        table = FinitePoset(("a", 1, "b"), (0b111, 0b110, 0b100))
        p = table_poset(table)
        assert p.root == "b"
        assert [p.above(q) for q in table.elements] == [["a", 1, "b"], [1, "b"], ["b"]]
        assert check_poset_laws(p, 3) == list(table.up)
        assert brute_force_filter(table, [{"a"}]) == frozenset(("a", 1, "b"))
        assert brute_force_filter(table, [{1}]) == frozenset((1, "b"))

    @pytest.mark.parametrize("name", ["a<=b", "a <= b", "<=", "elem", "elem a", "elem a<=b"])
    def test_a_name_that_reads_as_a_relation_is_an_element(self, name):
        table = _closed_rows_table((name, "c"), [0b11, 0b10])  # name <= c
        assert table.leq(name, "c") and not table.leq("c", name)
        assert table_poset(table).root == "c"
        assert brute_force_filter(table, [{name}]) == frozenset({name, "c"})
        assert not is_filter(table, {name})

    def test_oracle_and_run_independent_of_hash_seed(self):
        script = (
            "import random\n"
            "from forcelab.posets import (FinitePoset, brute_force_filter, random_dense_sets,\n"
            "    random_finite_poset, rasiowa_sikorski, table_dense_sets, table_poset)\n"
            "names = tuple(f'n{i}' for i in range(8))\n"
            "table = FinitePoset(names, random_finite_poset(random.Random(4), 8).up)\n"
            "ds = random_dense_sets(random.Random(9), table, 3)\n"
            "print(sorted(map(sorted, ds)), sorted(brute_force_filter(table, ds)))\n"
            "run = rasiowa_sikorski(table_poset(table), table_dense_sets(table, ds), 'n0', 3)\n"
            "print(run.chain)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = set()
        for seed in range(1, 6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outs.add(done.stdout)
        assert len(outs) == 1


class TestEngine:
    def test_empty_family(self, seven):
        p = table_poset(seven)
        run = rasiowa_sikorski(p, [], "0", 0)
        assert run.chain == ("0",)
        assert run.met == ()

    def test_seven_element_run_matches_oracle(self, seven):
        d0, d1 = frozenset("56"), frozenset("156")
        p = table_poset(seven)
        ds = table_dense_sets(seven, [d0, d1])
        assert all(is_dense_on_truncation(p, d, 7).dense for d in ds)
        run = rasiowa_sikorski(p, ds, "0", 2)
        assert run.chain == ("0", "5", "5")
        closure = filter_from_chain(p, run.chain, len(seven.elements))
        assert closure == upward_closure_oracle(seven, run.chain)
        assert closure == {"0", "2", "5"}
        oracle = brute_force_filter(seven, [d0, d1])
        assert oracle == frozenset({"0", "2", "5"})
        assert is_filter(seven, closure)
        assert closure & d0 and closure & d1

    def test_met_covers_exactly_first_indices(self, seven):
        p = table_poset(seven)
        ds = table_dense_sets(seven, [frozenset("56")] * 4)
        run = rasiowa_sikorski(p, ds, "0", 4)
        assert [i for i, _pos in run.met] == [0, 1, 2, 3]
        assert [pos for _i, pos in run.met] == [1, 2, 3, 4]
        for i, pos in run.met:
            assert ds[i].member(run.chain[pos])

    def test_descending_verified(self, seven):
        p = table_poset(seven)
        for a, b in zip(run_chain := ("0", "5", "5"), run_chain[1:]):
            assert p.leq(b, a)

    def test_bad_extender_not_below(self, seven):
        p = table_poset(seven)
        lying = DenseSet("lie", lambda q: True, lambda q: "1")
        run = rasiowa_sikorski(p, [lying], "0", 1)  # 1 <= 0 is fine
        assert run.chain == ("0", "1")
        with pytest.raises(BadExtender) as exc:
            rasiowa_sikorski(p, [lying], "2", 1)  # 1 is not below 2
        assert exc.value.details["index"] == 0
        assert exc.value.code == "bad-extender"

    def test_bad_extender_not_member(self, seven):
        p = table_poset(seven)
        outside = DenseSet("outside", lambda q: q == "6", lambda q: "5")
        with pytest.raises(BadExtender):
            rasiowa_sikorski(p, [outside], "2", 1)

    def test_start_must_be_in_carrier(self, seven):
        with pytest.raises(ValueError):
            rasiowa_sikorski(table_poset(seven), [], "9", 0)

    def test_negative_length_rejected(self, seven):
        with pytest.raises(ValueError):
            rasiowa_sikorski(table_poset(seven), [], "0", -1)

    def test_family_shorter_than_n_rejected(self, seven):
        ds = table_dense_sets(seven, [frozenset("56")])
        with pytest.raises(ValueError, match="family has 1 dense sets, need 2"):
            rasiowa_sikorski(table_poset(seven), ds, "0", 2)


class TestFilterFromChain:
    def test_root_only(self, seven):
        p = table_poset(seven)
        assert filter_from_chain(p, ["0"], 7) == {"0"}

    def test_rejects_non_chain(self, seven):
        p = table_poset(seven)
        with pytest.raises(NotAChain):
            filter_from_chain(p, ["5", "6"], 7)

    def test_truncation_respected(self, seven):
        p = table_poset(seven)
        assert filter_from_chain(p, ["0", "5"], 1) == {"0"}

    def test_closure_properties(self, seven):
        p = table_poset(seven)
        closure = filter_from_chain(p, ["0", "1", "6"], 7)
        assert closure == upward_closure_oracle(seven, ["6"])
        for q in closure:  # upward closed
            for r in seven.elements:
                if seven.leq(q, r):
                    assert r in closure
        for a in closure:  # directed via the chain minimum
            for b in closure:
                assert any(seven.leq(r, a) and seven.leq(r, b) for r in closure)


class TestDensityReports:
    def test_whole_carrier_always_dense(self, seven):
        p = table_poset(seven)
        d = DenseSet("all", lambda q: True, lambda q: q)
        for n in range(1, 8):
            assert is_dense_on_truncation(p, d, n).dense

    def test_agrees_with_exhaustive_definition(self, seven):
        p = table_poset(seven)
        rng = random.Random(3)
        for _ in range(50):
            s = frozenset(e for e in seven.elements if rng.random() < 0.5)
            d = DenseSet("s", lambda q, s=s: q in s, lambda q: q)
            for n in range(1, 8):
                frag = seven.elements[:n]
                expected = all(
                    any(seven.leq(q, pp) and q in s for q in frag) for pp in frag)
                assert is_dense_on_truncation(p, d, n).dense is expected

    def test_counterexample_reported(self, seven):
        p = table_poset(seven)
        d = DenseSet("just6", lambda q: q == "6", lambda q: "6")
        report = is_dense_on_truncation(p, d, 7)
        assert not report.dense
        assert report.counterexample == "2"  # first element with no way into {6}
        assert report.fragment == 7

    def test_block_cut_is_inconclusive(self):
        # the fragment of 2000 ends inside an enumeration block, so no member
        # of L_3 below (6,) is listed; the extender finds one past the cut
        nat = nat_set()
        report = is_dense_on_truncation(coll_poset(nat), level_dense(nat, 3), 2000)
        assert report.dense is None
        assert report.undecided == (6,)
        assert report.counterexample is None
        assert report.fragment == 2000
        for frag in (1957, 2500):
            assert is_dense_on_truncation(
                coll_poset(nat), level_dense(nat, 3), frag).dense is True

    def test_failing_extender_gives_no_witness(self, seven):
        p = table_poset(seven)

        def refuse(q):
            raise BadExtender("no extension")

        for extend in (refuse, lambda q: "0", lambda q: "5"):
            # "0" is not below "2"; "5" is below it but not a member
            d = DenseSet("just6", lambda q: q == "6", extend)
            report = is_dense_on_truncation(p, d, 7)
            assert report.dense is False
            assert report.counterexample == "2"
            assert report.undecided is None


class TestBruteForce:
    def test_disjoint_cones_have_no_filter(self):
        antichain = FinitePoset(("a", "b", "c"), (0b001, 0b010, 0b100))
        result = brute_force_filter(antichain, [{"a"}, {"b"}, {"c"}])
        assert result is None

    def test_chain_filter(self):
        chain = FinitePoset(tuple("012"), (0b001, 0b011, 0b111))  # 2 <= 1 <= 0
        assert brute_force_filter(chain, [{"2"}]) == frozenset("012")

    def test_size_cap(self):
        big = FinitePoset(tuple(range(21)), tuple(1 << i for i in range(21)))
        with pytest.raises(OracleLimit):
            brute_force_filter(big, [])

    def test_filter_predicate(self, seven):
        assert is_filter(seven, {"0", "2", "5"})
        assert not is_filter(seven, set())
        assert not is_filter(seven, {"5"})           # not upward closed
        assert not is_filter(seven, {"0", "5", "6"})  # not directed

    def test_subset_outside_the_table_is_not_a_filter(self, seven):
        assert not is_filter(seven, {"x"})
        assert not is_filter(seven, {"0", "2", "5", "x"})


class TestEngineOracleAgreement:
    def test_random_posets(self):
        rng = random.Random(41)
        for _ in range(60):
            table = random_finite_poset(rng, rng.randint(2, 7))
            check_poset_laws(table_poset(table), len(table.elements))
            subsets = random_dense_sets(rng, table, rng.randint(1, 3))
            p = table_poset(table)
            start = p.root if p.root is not None else table.elements[0]
            run = rasiowa_sikorski(p, table_dense_sets(table, subsets),
                                   start, len(subsets))
            closure = filter_from_chain(p, run.chain, len(table.elements))
            assert is_filter(table, closure)
            assert all(closure & s for s in subsets)
            oracle = brute_force_filter(table, subsets)
            assert oracle is not None
            assert all(oracle & s for s in subsets)


def test_random_dense_sets_fall_back_to_the_whole_carrier():
    """An rng whose every coin says "leave it out" draws only empty sets,
    which are never dense, so every set is the whole carrier."""

    class Tails:
        def random(self):
            return 0.99

    table = random_finite_poset(random.Random(5), 4)
    assert random_dense_sets(Tails(), table, 3) == [frozenset(table.elements)] * 3


def test_random_dense_sets_read_no_row_per_draw_on_a_partial_order():
    """Each element of a partial order lies above a minimal one, so the
    minimal elements alone test a drawn mask: the down rows are read once,
    to find the rows that hold no minimal element, and never per draw."""
    reads = [0]

    class Row(int):
        def __and__(self, other):
            reads[0] += 1
            return int(self) & other

    table = random_finite_poset(random.Random(3), 8)
    object.__setattr__(table, "down", [Row(row) for row in table.down])
    assert len(random_dense_sets(random.Random(0), table, 3)) == 3
    assert reads[0] == len(table.down)


NAMES = st.text("ab <=\telm\n", max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(NAMES, max_size=5, unique=True), st.data())
def test_string_tables_match_their_index_tables(names, data):
    """A table reads its elements as opaque codes: over any distinct strings
    it relates, presents and filters as the same rows over 0..n-1 do."""
    n = len(names)
    rows = [1 << i | data.draw(st.integers(0, (1 << n) - 1)) for i in range(n)]
    named = closed_table(names, list(rows))
    index = closed_table(range(n), list(rows))
    assert named.up == index.up
    p, q = table_poset(named), table_poset(index)
    assert p.root == (None if q.root is None else names[q.root])
    for i, a in enumerate(names):
        assert p.above(a) == [names[j] for j in q.above(i)]
        for j, b in enumerate(names):
            assert named.leq(a, b) == index.leq(i, j)
    dense = data.draw(st.lists(st.sets(st.integers(0, n - 1)) if n else st.just(set()),
                               max_size=3))
    found = brute_force_filter(index, dense)
    assert brute_force_filter(named, [{names[i] for i in d} for d in dense]) == (
        None if found is None else frozenset(names[i] for i in found))


def test_random_dense_sets_draw_at_most_200_times():
    """The 200th draw is still taken when dense, and no 201st is made."""

    class Coins:
        calls = 0

        def random(self):
            # two coins per draw: every draw leaves both elements out but
            # the 200th, which takes "b", the least element
            self.calls += 1
            return 0.0 if self.calls == 400 else 0.99

    coins = Coins()
    table = FinitePoset(("a", "b"), (0b01, 0b11))  # b <= a
    assert random_dense_sets(coins, table, 2) == [frozenset("b"), frozenset("ab")]
    assert coins.calls == 400


class TestRowTables:
    """A table is its elements and one reflexive int row per element."""

    @pytest.mark.parametrize("up", [
        (0b01,),                                   # too few rows
        (0b01, 0b10, 0b100),                       # too many rows
        [0b01, 0b10],                              # rows in a list
        (0b01, "0b10"),                            # a row that is not an int
        (0b01, 2.0),
        (True, 0b10),                              # a bool is no row
        (0b01, -0b10),                             # a negative row
        (0b101, 0b10),                             # a bit past the elements
        (0b10, 0b10),                              # a row without its own bit
        frozenset({("a", "b"), ("b", "a")}),       # a pair set of the right size
    ])
    def test_malformed_rows_are_refused(self, up):
        with pytest.raises(ValueError, match="reflexive int rows"):
            FinitePoset(("a", "b"), up)

    def test_empty_pair_set_and_duplicate_elements_are_refused(self):
        with pytest.raises(ValueError):
            FinitePoset((), frozenset())
        with pytest.raises(ValueError, match="2 distinct elements"):
            FinitePoset(("a", "a"), (0b01, 0b10))
        with pytest.raises(ValueError):
            FinitePoset((1, True), (0b01, 0b10))  # equal codes

    def test_a_relation_that_is_not_transitive_is_refused(self):
        """a <= b and b <= c, but not a <= c."""
        with pytest.raises(NotAPartialOrder, match="not transitive at 'a' <= 'b'") as exc:
            FinitePoset(("a", "b", "c"), (0b011, 0b110, 0b100))
        assert exc.value.code == "not-a-partial-order"
        FinitePoset(("a", "b", "c"), (0b111, 0b110, 0b100))  # its closure is an order

    def test_a_relation_that_is_not_antisymmetric_is_refused(self):
        """a <= b and b <= a for a != b."""
        with pytest.raises(NotAPartialOrder, match="not antisymmetric at 'a'"):
            FinitePoset(("a", "b"), (0b11, 0b11))
        with pytest.raises(NotAPartialOrder, match="not antisymmetric at 'a'"):
            _closed_rows_table("abc", [0b011, 0b101, 0b001])  # a cycle closes to a preorder

    def test_fields_equality_and_hash_read_elements_and_rows(self):
        with pytest.raises(TypeError):
            FinitePoset(("a", "b"), (0b11, 0b10), [0b01, 0b11])
        a = FinitePoset(elements=("a", "b"), up=(0b11, 0b10))
        b = _closed_rows_table(["a", "b"], [0b11, 0b10])
        assert a == b and hash(a) == hash(b)
        assert a != FinitePoset(("a", "b"), (0b01, 0b10))
        assert a.down == [0b01, 0b11]

    def test_leq_reads_the_rows_and_adds_equality(self):
        t = FinitePoset(("a", 1, "b"), (0b111, 0b110, 0b100))
        assert t.leq("a", "b") and t.leq(1, "b") and t.leq(True, "b")
        assert not t.leq("b", "a") and not t.leq("b", "x") and not t.leq("x", "a")
        assert t.leq("x", "x") and t.leq([0], [0])
        with pytest.raises(TypeError):
            t.leq("x", [0])


class TestRunTraceJson:
    def test_schema(self, seven):
        p = table_poset(seven)
        ds = table_dense_sets(seven, [frozenset("56"), frozenset("156")])
        run = rasiowa_sikorski(p, ds, "0", 2)
        doc = run_trace_json(run)
        assert doc["poset"] == "finite"
        assert doc["start"] == "0"
        assert doc["steps"] == [
            {"i": 0, "condition": "5", "meets": [0]},
            {"i": 1, "condition": "5", "meets": [1]},
        ]


class TestGamma:
    def test_singleton_levels(self):
        g = GammaPresentation(
            "singletons",
            lambda n: FinitePreorder((n,), frozenset({(n, n)})))
        report = gamma_check(g, 6)
        assert report.ok
        assert report.size_profile == (1, 1, 1, 1, 1, 1)

    def test_empty_after_level_zero(self):
        def levels(n):
            if n == 0:
                return FinitePreorder(("a", "b"),
                                      frozenset({("a", "a"), ("b", "b")}))
            return FinitePreorder((), frozenset())

        report = gamma_check(GammaPresentation("one", levels), 5)
        assert report.ok
        assert report.size_profile == (2, 0, 0, 0, 0)

    @pytest.mark.parametrize("pair", [("z", "a"), ("a", "z")])
    def test_pair_outside_the_level_is_refused(self, pair):
        level = FinitePreorder(("a",), frozenset({("a", "a"), pair}))
        with pytest.raises(ValueError, match=re.escape(f"relates {pair!r} outside")):
            gamma_check(GammaPresentation("foreign", lambda n: level), 1)

    def test_non_transitive_triple_rejected(self):
        level = FinitePreorder(
            ("a", "b", "c"),
            frozenset({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}))
        g = GammaPresentation("bad", lambda n: level if n == 0 else
                              FinitePreorder((), frozenset()))
        report = gamma_check(g, 1)
        assert not report.ok
        assert report.violation.law == "not-a-preorder"
        assert report.violation.witness == ("a", "b", "c")

    def test_missing_reflexivity_rejected(self):
        level = FinitePreorder(("a",), frozenset())
        report = gamma_check(GammaPresentation("r", lambda n: level), 1)
        assert not report.ok
        assert report.violation.witness == ("a", "a", "a")

    def test_overlapping_levels_need_identification(self):
        level = FinitePreorder(("a",), frozenset({("a", "a")}))
        g = GammaPresentation("overlap", lambda n: level)
        assert not gamma_check(g, 2).ok
        glued = GammaPresentation("glued", lambda n: level, shared_codes=True)
        assert gamma_check(glued, 2).ok

    def test_pre_orders_allow_cycles(self):
        # pre-orders need no antisymmetry: a <= b <= a is fine
        level = FinitePreorder(
            ("a", "b"),
            frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
        report = gamma_check(GammaPresentation("cyc", lambda n: level,
                                               shared_codes=True), 1)
        assert report.ok

    def test_least_transitivity_witness(self):
        # a <= b <= c <= d with no composed pairs: (a, b, c) is the least
        # failing triple in element order, and so is (b, c, d) without a
        elems = ("a", "b", "c", "d")
        rel = {(x, x) for x in elems} | {("a", "b"), ("b", "c"), ("c", "d")}
        level = FinitePreorder(elems, frozenset(rel))
        report = gamma_check(GammaPresentation("chain", lambda n: level), 1)
        assert report.violation.witness == ("a", "b", "c")
        rel = {(x, y) for x, y in rel if "a" not in (x, y)}
        level = FinitePreorder(elems[1:], frozenset(rel))
        report = gamma_check(GammaPresentation("chain", lambda n: level), 1)
        assert report.violation.witness == ("b", "c", "d")

    def test_witness_independent_of_hash_seed(self):
        script = (
            "from forcelab.posets import FinitePreorder, GammaPresentation, gamma_check\n"
            "e = ('a', 'b', 'c', 'd')\n"
            "rel = frozenset({(x, x) for x in e} | {('a', 'b'), ('b', 'c'), ('c', 'd')})\n"
            "level = FinitePreorder(e, rel)\n"
            "print(gamma_check(GammaPresentation('g', lambda n: level), 1).violation)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = set()
        for seed in range(1, 6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outs.add(done.stdout)
        assert len(outs) == 1
        assert "witness=('a', 'b', 'c')" in outs.pop()

    def test_relation_outside_the_level_rejected(self):
        level = FinitePreorder(("a",), frozenset({("a", "a"), ("a", "z")}))
        with pytest.raises(ValueError):
            gamma_check(GammaPresentation("stray", lambda n: level), 1)
