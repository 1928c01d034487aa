"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import random
import time

import pytest

from forcelab.cli import main as cli_main
from forcelab.collapse import (
    InjSeq,
    coll_poset,
    generic_to_injection,
    level_dense,
    level_family,
    nat_set,
)
from forcelab.dctrees import (
    check_dc_witness,
    dc_witness,
    f_seq,
    fixture_functional,
    marked_set,
    marker_reduction,
    modified_functional,
    unmark,
)
from forcelab.levy import (
    check_transfinite_witness,
    levy_lift,
    standard_cofinal,
    transfinite_f_seq,
)
from forcelab.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    TransfiniteSeq,
    concat,
    omega_bijection,
    ord_add,
    parse_cnf,
)
from forcelab.posets import (
    brute_force_filter,
    filter_from_chain,
    is_dense_on_truncation,
    is_filter,
    random_dense_sets,
    random_finite_poset,
    rasiowa_sikorski,
    table_dense_sets,
    table_poset,
)
from forcelab.qtree import (
    check_lattice,
    coll_to_q,
    finite_subset_lattice,
    q_extends,
    q_into_lambda,
    q_to_coll,
)

NAT = nat_set()


def report(number: int, text: str) -> None:
    print(f"acceptance {number}: PASS — {text}")


@pytest.fixture(scope="module")
def iso_corpus():
    rng = random.Random(20260809)
    return [InjSeq(tuple(rng.sample(range(1000), rng.randint(0, 50))))
            for _ in range(10_000)]


def test_criterion_1_generic_engine_collapse():
    poset = coll_poset(NAT)
    start = time.perf_counter()
    run = rasiowa_sikorski(poset, level_family(NAT, 1000), (), 1000)
    injection = generic_to_injection(run)
    elapsed = time.perf_counter() - start
    assert len(injection.items) >= 1000
    assert len(set(injection.items)) == len(injection.items)  # exhaustive
    final = run.chain[-1]
    for i in range(1000):
        assert level_dense(NAT, i).member(final)
    assert elapsed < 2.0
    report(1, f"1000-level run gives an injective sequence of length "
              f"{len(injection.items)} in {elapsed:.2f}s")


def test_criterion_2_density_extender_exhaustive():
    poset = coll_poset(NAT)
    levels = [level_dense(NAT, i) for i in range(9)]
    cases = 0
    for length in range(6):
        for p in itertools.permutations(range(10), length):
            for i, d in enumerate(levels):
                q = d.extend(p)
                assert q[:len(p)] == p and len(q) >= len(p)   # q <= p
                assert len(set(q)) == len(q)                  # injective
                assert len(q) >= i                            # q in L_i
                cases += 1
    assert poset.leq(levels[3].extend((5,)), (5,))
    report(2, f"{cases} exhaustive extender cases, zero failures")


def test_criterion_3_isomorphism_roundtrips(iso_corpus):
    start = time.perf_counter()
    images, stages_of = [], []
    for f in iso_corpus:
        t = coll_to_q(f)
        assert q_to_coll(t).items == f.items
        # the image read by Q's definition: one set per item, each stage
        # holding the one before it and adding exactly that item
        stages, seen = t.stages, frozenset()
        assert len(stages) == len(f.items)
        for item, stage in zip(f.items, stages):
            assert type(stage) is frozenset and stage == seen | {item}
            seen = stage
        images.append(t)
        stages_of.append(stages)
    rng = random.Random(77)
    n = len(iso_corpus)
    for _ in range(10_000):
        i = rng.randrange(n)
        g, t_g = iso_corpus[i], images[i]
        if rng.random() < 0.5:
            cut = rng.randint(0, len(g.items))
            f = InjSeq(g.items[:cut])  # g genuinely extends f
            t_f, expected = coll_to_q(f), True
            f_stages = t_f.stages
        else:
            j = rng.randrange(n)
            f, t_f, expected = iso_corpus[j], images[j], None
            f_stages = stages_of[j]
        f_ext = (len(g.items) >= len(f.items)
                 and g.items[:len(f.items)] == f.items)
        if expected is not None:
            assert f_ext is expected
        # Q's order: the longer condition's stages begin with the shorter's
        stage_ext = stages_of[i][:len(f_stages)] == f_stages
        assert q_extends(t_g, t_f) is f_ext and stage_ext is f_ext
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"10^4 round trips and 10^4 extension pairs in {elapsed:.2f}s")


def test_criterion_4_lambda_witness(iso_corpus):
    lattice = finite_subset_lattice(NAT)
    for f in iso_corpus:
        stages = q_into_lambda(NAT, coll_to_q(f))
        assert all(lattice.lt(stages[j + 1], stages[j])
                   for j in range(len(stages) - 1))
    sample = [lattice.enum(k) for k in range(100)]
    check_lattice(lattice, sample)
    for s in sample:
        assert len(lattice.uppers(s)) == 2 ** len(s) - 2
        lower = lattice.has_lower(s)
        assert lattice.lt(lower, s)
    report(4, "10^4 subset-stage images land in the decreasing-sequence tree; "
              "lattice checks pass on 100 elements")


def test_criterion_5_choice_tree_and_forced_prefix():
    for name in ("seq", "evens", "bounded"):
        f = fixture_functional(NAT, name)
        witness = dc_witness(NAT, f, 500)
        assert len(witness) == 500
        assert check_dc_witness(f, witness)
    rng = random.Random(55)
    base = f_seq(NAT)
    for _ in range(100):
        t = tuple(rng.sample(range(40), rng.randint(0, 10)))
        forced = modified_functional(base, t)
        witness = dc_witness(NAT, forced, 12)
        assert witness[:len(t)] == t
        assert check_dc_witness(base, witness)
    report(5, "500-step witnesses for 3 fixtures; 100 forced prefixes kept")


def test_criterion_6_marker_reduction():
    product = marked_set(NAT)
    for name in ("const", "cycle2", "cycle3"):
        f = fixture_functional(NAT, name)
        lifted = marker_reduction(NAT, f)
        marked = dc_witness(product, lifted, 200)
        assert len(marked) == 200
        assert len(set(marked)) == 200  # injective pairs
        assert check_dc_witness(f, unmark(marked))
        assert check_dc_witness(lifted, marked)
    report(6, "3 repetition fixtures: 200-step marked witnesses project back")


def test_criterion_7_levy_lifting():
    f = transfinite_f_seq(NAT)
    for k in (2, 3):
        alpha = Ordinal.omega(k)
        cof = standard_cofinal(alpha)
        witness = levy_lift(cof, f)
        samples = witness.default_samples()
        assert {str(s) for s in samples} >= {"0", str(OMEGA)}
        assert check_transfinite_witness(f, witness, samples)
        sigma = ZERO  # block xi has the type of [stage(xi), stage(xi + 1))
        for xi, length in enumerate(witness.block_lengths(51)):
            assert sigma == cof.stage(xi)
            sigma = ord_add(sigma, length)
        assert sigma == cof.stage(51)
    report(7, "w*2 and w*3 lifts verified at boundaries, limits and "
              "mid-block points; block types match for xi <= 50")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(88)
    for _ in range(200):
        table = random_finite_poset(rng, rng.randint(2, 7))
        subsets = random_dense_sets(rng, table, rng.randint(1, 3))
        pres = table_poset(table)
        start = pres.root if pres.root is not None else table.elements[0]
        run = rasiowa_sikorski(pres, table_dense_sets(table, subsets),
                               start, len(subsets))
        closure = filter_from_chain(pres, run.chain, len(table.elements))
        oracle = brute_force_filter(table, subsets)
        assert oracle is not None
        assert is_filter(table, closure)
        for s in subsets:
            assert closure & s and oracle & s  # same dense sets met
        for s in subsets + [frozenset(table.elements)]:
            from forcelab.posets import DenseSet
            d = DenseSet("s", lambda q, s=s: q in s, lambda q: q)
            for n in range(1, len(table.elements) + 1):
                frag = table.elements[:n]
                expected = all(any(table.leq(q, p) and q in s for q in frag)
                               for p in frag)
                assert is_dense_on_truncation(pres, d, n).dense is expected
    report(8, "200 random posets: engine and brute-force oracle agree, "
              "density reports match the exhaustive definition")


def test_criterion_9_ordinals():
    rng = random.Random(99)

    def rand_ordinal():
        exps = sorted(rng.sample(range(4), rng.randint(0, 3)), reverse=True)
        return Ordinal(tuple((e, rng.randint(1, 6)) for e in exps))

    for _ in range(10_000):
        a, b, c = rand_ordinal(), rand_ordinal(), rand_ordinal()
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
    assert ord_add(ONE, OMEGA) == OMEGA
    assert ord_add(OMEGA, ONE) != OMEGA
    assert ord_add(OMEGA, ONE) == parse_cnf("w*1 + 1")

    for text in ("w*2", "w^2*1 + w*3 + 5"):
        bij = omega_bijection(parse_cnf(text))
        for n in range(1000):
            o = bij.backward(n)
            assert bij.forward(o) == n

    lengths = [OMEGA if n % 5 == 0 else Ordinal.from_int(n % 4 + 1)
               for n in range(60)]
    t = TransfiniteSeq(OMEGA, lambda p: TransfiniteSeq(
        lengths[p.to_int()] if p.to_int() < 60 else ONE,
        lambda q, n=p.to_int(): (n, str(q))))
    c = concat(t, limit_length=parse_cnf("w^2"))
    sigma = ZERO
    for xi in range(51):
        assert c.at(sigma) == (xi, "0")
        sigma = ord_add(sigma, lengths[xi])
    report(9, "10^4 associativity triples, absorption, bijection round "
              "trips, concatenation offsets for xi <= 50")


def test_criterion_10_cli_determinism(capsys):
    commands = [
        ["coll-run", "--set", "nat", "--n", "5"],
        ["coll-run", "--set", "evens", "--n", "6"],
        ["coll-run", "--set", "pairs", "--n", "4"],
        ["iso-roundtrip", "--len", "10", "--seed", "7"],
        ["dc-run", "--set", "nat", "--functional", "seq", "--n", "8"],
        ["dc-run", "--set", "nat", "--functional", "evens", "--n", "5"],
        ["marker-run", "--set", "nat", "--functional", "const", "--n", "6"],
        ["marker-run", "--set", "nat", "--functional", "cycle2", "--n", "6"],
        ["levy-run", "--alpha", "w*2"],
        ["levy-run", "--alpha", "w*3"],
        ["density-check", "--set", "nat", "--i", "3", "--frag", "200"],
        ["oracle-check", "--seed", "0", "--cases", "10"],
    ]
    for argv in commands:
        status1 = cli_main(argv)
        out1 = capsys.readouterr().out
        status2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert status1 == status2 == 0
        assert out1 == out2 and out1
        json.loads(out1)
    report(10, f"{len(commands)} documented commands byte-identical "
               "across repeated invocations")
