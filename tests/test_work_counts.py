"""Tier-1 regression: generic runs do linear work, counted in oracle calls.

A wrapped ``nat`` counts its ``index`` and ``enum`` calls, so most of these
tests need no clock.  A run that rescans its whole condition on every step
makes about n*n/2 such calls; the bounds below are linear in n.  A wrapped
``leq`` likewise counts the order tests of a fragment check.  Work done in
C, such as copying or comparing a whole condition on every step, makes no
oracle call, so one test pins the growth of wall time instead.
"""

import dataclasses
import gc
import random
import sys
import time
import tracemalloc

import pytest

from forcelab import collapse, dctrees, levy, ordinals, posets, qtree, tables
from forcelab.cli import RunConfig, run
from forcelab.collapse import CountableSet, InjSeq
from forcelab.dctrees import dc_witness, f_seq, fixture_functional
from forcelab.levy import (
    CofinalPresentation,
    check_transfinite_witness,
    levy_lift,
    standard_cofinal,
    transfinite_f_seq,
)
from forcelab.ordinals import Ordinal, TransfiniteSeq, omega_bijection, parse_cnf
from forcelab.posets import PosetPresentation, check_poset_laws, is_dense_on_truncation
from forcelab.qtree import LatticeOracle, check_lattice, finite_subset_lattice

N = 2000


def counting_nat():
    calls = {"index": 0, "enum": 0}

    def enum(n):
        calls["enum"] += 1
        return n

    def index(v):
        calls["index"] += 1
        return v if isinstance(v, int) and v >= 0 else None

    return CountableSet("nat", enum, index=index), calls


def test_coll_run_index_of_calls_are_linear(monkeypatch):
    x, calls = counting_nat()
    monkeypatch.setitem(collapse._BUILTINS, "nat", lambda: x)
    status, doc = run(RunConfig("coll-run", {"set": "nat", "n": N}))
    assert status == 0
    assert doc["items"] == list(range(N))
    assert calls["index"] <= 2 * N + 10


def test_dc_witness_f_seq_enum_calls_are_linear():
    x, calls = counting_nat()
    assert dc_witness(x, f_seq(x), N) == tuple(range(N))
    assert calls["enum"] <= 4 * N + 10
    assert calls["index"] <= 2 * N + 10


def test_warm_lift_query_makes_no_ladder_calls():
    """A lift query reads the value and checks it against its restriction;
    repeating it must not walk the ladder again."""
    base = standard_cofinal(parse_cnf("w*2"))
    calls = {"stage": 0}

    def stage(n):
        calls["stage"] += 1
        return base.stage(n)

    cof = CofinalPresentation(base.alpha, stage)
    f = transfinite_f_seq(collapse.nat_set())
    g = levy_lift(cof, f)
    pos = parse_cnf("w + 300")

    def query():
        return g.at(pos), check_transfinite_witness(f, g, [pos])

    first = query()
    cold = calls["stage"]
    assert first[1] is True and cold > 300
    assert query() == first
    assert calls["stage"] == cold


@pytest.mark.parametrize("alpha, deep, pos", [("w*3", "w*2 + 40", "w*2 + 30"),
                                              ("w^2", "w*9 + 12", "w*9 + 5")])
def test_warm_lift_query_locates_once(monkeypatch, alpha, deep, pos):
    """A value and its sample check read one position three times: the
    value, the restriction below it and the value again inside the check.
    Locating each read bisected the stages and subtracted the stage three
    times."""
    f = transfinite_f_seq(collapse.nat_set())
    g = levy_lift(standard_cofinal(parse_cnf(alpha)), f)
    g.at(parse_cnf(deep))
    subtractions = [0]
    sub = levy.ord_sub_left

    def counting_sub(a, b):
        subtractions[0] += 1
        return sub(a, b)

    monkeypatch.setattr(levy, "ord_sub_left", counting_sub)
    for _ in range(2):
        beta = parse_cnf(pos)  # equal positions, not the same object
        assert g.at(beta) is not None and check_transfinite_witness(f, g, [beta])
    assert subtractions[0] == 1


@pytest.mark.parametrize("i, dense, undecided", [(1, True, None), (3, None, (6,))])
def test_density_check_reads_cones_not_pairs(i, dense, undecided):
    """An all-pairs scan makes 1,999,001 (i=1) and 1,850,581 (i=3) calls."""
    x = collapse.nat_set()
    p = collapse.coll_poset(x)
    calls = [0]

    def leq(a, b):
        calls[0] += 1
        return p.leq(a, b)

    report = is_dense_on_truncation(dataclasses.replace(p, leq=leq),
                                    collapse.level_dense(x, i), N)
    assert (report.dense, report.undecided) == (dense, undecided)
    assert calls[0] <= 2


def counted_cones(p):
    """p with ``above`` and ``leq`` wrapped to count their calls."""
    calls = {"above": 0, "leq": 0}

    def above(q):
        calls["above"] += 1
        return p.above(q)

    def leq(a, b):
        calls["leq"] += 1
        return p.leq(a, b)

    return dataclasses.replace(p, above=None if p.above is None else above, leq=leq), calls


def test_density_union_skips_covered_members():
    """Taking the cone of every member calls ``above`` 2,499 times here:
    once per condition but the root."""
    x = collapse.nat_set()
    p, calls = counted_cones(collapse.coll_poset(x))
    d = collapse.level_dense(x, 1)
    members = sum(d.member(p.enum(k)) for k in range(2500))
    assert is_dense_on_truncation(p, d, 2500).dense is True
    assert calls["above"] <= 0.6 * members


def test_density_check_asks_member_only_of_uncovered_conditions():
    """Asking every condition makes 2,500 ``member`` calls here."""
    x = collapse.nat_set()
    d = collapse.level_dense(x, 1)
    calls = [0]

    def member(q):
        calls[0] += 1
        return d.member(q)

    n = 2500
    report = is_dense_on_truncation(collapse.coll_poset(x),
                                    dataclasses.replace(d, member=member), n)
    assert report.dense is True
    assert calls[0] <= n / 2


@pytest.mark.parametrize("i, n", [(1, 600), (3, 400)])
def test_density_union_without_a_cone_skips_covered_members(i, n):
    """A derived cone is n ``leq`` calls, so taking every member's costs
    members * n calls."""
    x = collapse.nat_set()
    p, calls = counted_cones(dataclasses.replace(collapse.coll_poset(x), above=None))
    d = collapse.level_dense(x, i)
    members = sum(d.member(p.enum(k)) for k in range(n))
    is_dense_on_truncation(p, d, n)
    assert calls["leq"] < members * n


def test_lattice_laws_visit_common_bounds_only():
    """Testing every sample element as a bound of every pair makes 2,259,204
    ``lt`` calls on this 100-element sample."""
    lattice = finite_subset_lattice(collapse.nat_set())
    calls = [0]

    def lt(s, t):
        calls[0] += 1
        return lattice.lt(s, t)

    counted = LatticeOracle(lattice.name, lattice.carrier, lt, lattice.meet, lattice.join,
                            lattice.uppers, lattice.has_lower, lattice.enum)
    check_lattice(counted, [lattice.enum(n) for n in range(100)])
    assert calls[0] <= 150_000


@pytest.mark.parametrize("size", [1, 7, 20])
def test_finite_poset_walks_its_rows_once(monkeypatch, size):
    """A ``FinitePoset`` checks the order laws and builds its columns in one
    pass of ``_bits`` over each row; transposing the rows first and checking
    them after made two passes per row."""
    rows = tables.random_finite_poset(random.Random(size), size).up
    passes, bits = [0], tables._bits

    def counting_bits(mask):
        passes[0] += 1
        return bits(mask)

    monkeypatch.setattr(tables, "_bits", counting_bits)
    table = tables.FinitePoset(tuple(range(size)), rows)
    assert passes[0] == size
    assert table.down == [sum(1 << i for i in range(size) if rows[i] >> j & 1)
                          for j in range(size)]


def test_above_contract_check_hashes_each_element_a_few_times():
    """A position dict of the fragment per element hashes n*n = 40,000 times."""
    hashes = [0]

    class Counted:
        def __init__(self, k):
            self.k = k

        def __hash__(self):
            hashes[0] += 1
            return hash(self.k)

    elems = [Counted(k) for k in range(200)]
    antichain = PosetPresentation("antichain", lambda c: True, lambda a, b: a is b,
                                  elems.__getitem__, above=lambda q: [q])
    check_poset_laws(antichain, len(elems))
    assert hashes[0] <= 4 * len(elems)


@pytest.mark.parametrize("command, params", [
    ("coll-run", {"set": "nat"}),
    ("dc-run", {"set": "nat", "functional": "seq"}),
    ("marker-run", {"set": "nat", "functional": "cycle3"}),
])
def test_run_time_grows_linearly(command, params):
    """Linear runs take about 4x as long at 4x the length; copying and
    comparing the whole condition on every step took 12x or more.  Each
    size is timed three times, interleaved, and the fastest time counts.
    The heap that earlier tests leave alive is frozen while the runs are
    timed, so a full collection does not walk it and charge the longer
    run for it."""
    best = {4000: float("inf"), 16000: float("inf")}
    gc.collect()
    gc.freeze()
    try:
        for _ in range(3):
            for n in best:
                start = time.perf_counter()
                status, _ = run(RunConfig(command, {**params, "n": n}))
                best[n] = min(best[n], time.perf_counter() - start)
                assert status == 0
    finally:
        gc.unfreeze()
    assert best[16000] / best[4000] < 8


def test_qtree_isomorphism_grows_linearly():
    """Stages built as one new frozenset each made a round trip 4.8x and
    4.7x slower per doubling from L = 250 to 1000 (0.93, 4.4 and 20.9 ms),
    ``q_extends`` on two equal images 5.8x and 3.0x, and ``coll_to_q``'s
    peak memory 3.9x and 4.0x (1.3, 5.3 and 20.8 MiB).  Hashing a fresh
    image through a view that hashed its stages took 7.6x and 4.3x (1.1,
    8.0 and 34.6 ms).  An image that is its checked sequence leaves at
    most 2.3x per doubling.  Timed as
    ``test_run_time_grows_linearly`` but fastest of seven, each a loop of
    200 calls; the tracemalloc peak repeats exactly."""
    images, best, peaks = {}, {}, {}
    for n in (250, 1000):
        f = InjSeq(tuple(range(10**6, 10**6 + n)))
        images[n] = qtree.coll_to_q(f), qtree.coll_to_q(InjSeq(tuple(f.items)))
        best[n] = {"roundtrip": float("inf"), "q_extends": float("inf"),
                   "hash": float("inf")}
        tracemalloc.start()
        try:
            qtree.coll_to_q(f)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    gc.collect()
    gc.freeze()
    try:
        for _ in range(7):
            for n, (t, u) in images.items():
                f = qtree.q_to_coll(t)
                start = time.perf_counter()
                for _ in range(200):
                    qtree.q_to_coll(qtree.coll_to_q(f))
                best[n]["roundtrip"] = min(best[n]["roundtrip"], time.perf_counter() - start)
                start = time.perf_counter()
                for _ in range(200):
                    qtree.q_extends(t, u)
                best[n]["q_extends"] = min(best[n]["q_extends"], time.perf_counter() - start)
                start = time.perf_counter()
                for _ in range(200):
                    hash(qtree.coll_to_q(f))
                best[n]["hash"] = min(best[n]["hash"], time.perf_counter() - start)
    finally:
        gc.unfreeze()
    for name in ("roundtrip", "q_extends", "hash"):
        assert best[1000][name] / best[250][name] < 2.3 ** 2, name
    assert peaks[1000] <= 2.3 ** 2 * peaks[250]


@pytest.mark.parametrize("n", [50, 100, 200])
def test_q_into_lambda_looks_each_code_up_once(n):
    """The lattice carrier asked the set about every item of every stage of
    an image of range(n): n(n+1)/2 index calls (1275, 5050 and 20100)."""
    x, calls = counting_nat()
    t = qtree.coll_to_q(InjSeq(tuple(range(n))))
    assert qtree.q_into_lambda(x, t) == tuple(t.stages)
    assert calls["index"] <= n


@pytest.mark.parametrize("n", [50, 100, 200])
def test_qseq_json_looks_each_code_up_once(n):
    """Sorting every stage by index made n(n+1)/2 index calls."""
    x, calls = counting_nat()
    t = qtree.coll_to_q(InjSeq(tuple(range(n))))
    assert qtree.qseq_json(x, t) == {"stages": [list(range(i + 1)) for i in range(n)]}
    assert calls["index"] <= n


def test_marker_run_walks_each_marker_at_most_twice(monkeypatch):
    """Rewalking the marked sequence on every call walks about n*n markers.
    The walk is the marker tracker's fold, so the markers it is handed are
    counted."""
    walked = [0]
    tracker = dctrees._marker_tracker

    def counting_tracker():
        marks = tracker()
        fold = marks.fold

        def counting_fold(state, suffix):
            walked[0] += len(suffix)
            return fold(state, suffix)

        marks.fold = counting_fold
        return marks

    monkeypatch.setattr(dctrees, "_marker_tracker", counting_tracker)
    status, doc = run(RunConfig("marker-run",
                                {"set": "nat", "functional": "cycle3", "n": N}))
    assert status == 0 and doc["passes_original"]
    assert doc["values"] == [i % 3 for i in range(N)]
    assert doc["markers"] == [i // 3 for i in range(N)]
    assert walked[0] <= 2 * N


@pytest.mark.parametrize("name, step", [("evens", 2), ("bounded", 1)])
def test_dc_witness_evens_bounded_enum_calls_are_linear(name, step):
    """Rescanning from 0 on every select makes about n*n/2 enum calls."""
    x, calls = counting_nat()
    assert dc_witness(x, fixture_functional(x, name), N) == tuple(range(0, step * N, step))
    assert calls["enum"] <= 4 * N + 10


@pytest.mark.parametrize("command, params", [
    ("coll-run", {"set": "nat"}),
    ("dc-run", {"set": "nat", "functional": "seq"}),
    ("marker-run", {"set": "nat", "functional": "cycle3"}),
])
def test_run_memory_grows_linearly(command, params):
    """Keeping every prefix tuple takes O(n^2) memory, 4x per doubling."""
    peaks = []
    for n in (5000, 10000):
        tracemalloc.start()
        try:
            status, _ = run(RunConfig(command, {**params, "n": n}))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert status == 0
    assert peaks[1] <= 2.5 * peaks[0]


def test_cold_lift_evaluates_each_ladder_stage_once():
    """A cold query needs the 303 stages up to w + 301; asking the ladder
    again for every block's length and start made 1,261 calls, and
    evaluating the checked stages again for the lift 355 in all."""
    base = standard_cofinal(parse_cnf("w*2"))
    calls = {"stage": 0}

    def stage(n):
        calls["stage"] += 1
        return base.stage(n)

    cof = CofinalPresentation(base.alpha, stage)
    f = transfinite_f_seq(collapse.nat_set())
    g = levy_lift(cof, f)
    probe = calls["stage"]  # stages 0 and 1, read when the lift is built
    pos = parse_cnf("w + 300")
    assert g.at(pos) == 601 and check_transfinite_witness(f, g, [pos])
    assert calls["stage"] - probe <= 303
    assert calls["stage"] <= 303


@pytest.mark.parametrize("alpha", ["w", "w*2", "w*7", "w^2"])
def test_levy_run_evaluates_each_ladder_stage_once(monkeypatch, alpha):
    """``levy-run`` reads stages 0 to 6, each once: 0 and 1 when its lift is
    built, 2 to 5 for its samples, 6 for its sixth block.  Checking stages
    0 to 50 when the lift was built asked the ladder 51 times; asking it
    again for the samples and blocks made 58 calls.  The document is
    unchanged."""
    calls = {"stage": 0}
    standard = levy.standard_cofinal

    def counted_cofinal(a):
        base = standard(a)

        def stage(n):
            calls["stage"] += 1
            return base.stage(n)

        return CofinalPresentation(base.alpha, stage)

    config = RunConfig("levy-run", {"set": "nat", "alpha": alpha})
    plain = run(config)
    monkeypatch.setattr(levy, "standard_cofinal", counted_cofinal)
    assert run(config) == plain
    assert calls["stage"] == 7


def test_f_seq_records_a_finite_sequence_with_one_index_of_per_code():
    """A finite sequence without a usage record is recorded by the index
    of each code, one call of the set's ``index`` each; asking ``contains``
    first made two for each code in the set, so on these 99 codes in the
    set and one outside it ``member`` made 200 calls and ``select`` 199."""
    x, index_calls = counting_nat()
    f = transfinite_f_seq(x)
    seq = TransfiniteSeq.from_items([*range(99), -1])  # -1 is outside the set
    assert f.member(seq, 99) and not f.member(seq, 98)
    index_calls["index"] = 0
    assert f.member(seq, 200)
    assert index_calls["index"] == 101
    index_calls["index"] = 0
    assert f.select(seq) == 99
    assert index_calls["index"] == 100


def test_goal_family_builds_in_constant_memory():
    """``level_family`` is a rule that makes goal i when it is read; a
    list of n goals, each a dataclass with two closures, took about 640
    bytes a goal (6.4 MB at n = 10,000)."""
    x = collapse.nat_set()
    tracemalloc.start()
    try:
        family = collapse.level_family(x, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) == 10**6 and family[-1].name == "len>=1000000"
    assert peak < 16 * 1024


def test_engine_run_memory_per_step():
    """A run keeps one ``Grown`` view per step and derives ``met`` from
    its chain; storing ``met`` as pairs took about 252 bytes a step."""
    n = 40000
    x = collapse.nat_set()
    gc.collect()
    tracemalloc.start()
    try:
        run = posets.rasiowa_sikorski(collapse.coll_poset(x), collapse.level_family(x, n), (), n)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(run.chain) == n + 1
    assert live / n <= 170


def test_first_repeat_compares_linearly():
    """n distinct codes and a copy of the last: the repeat is found in one
    pass; comparing the pairs in order made about n*n/2 ``==`` calls."""
    calls = [0]

    class Code:
        def __init__(self, v):
            self.v = v

        def __eq__(self, other):
            calls[0] += 1
            return self.v == other.v

        def __hash__(self):
            return hash(self.v)

    n = 2000
    items = [Code(v) for v in range(n)] + [Code(n - 1)]
    assert collapse.first_repeat(items) == (n - 1, n)
    assert calls[0] <= 2 * n


@pytest.mark.parametrize("cases, length", [(1, 0), (7, 1), (25, 40)])
def test_iso_roundtrip_checks_each_case_once(monkeypatch, cases, length):
    """Every injectivity check goes through ``first_repeat``; a round trip
    that checked its sequence again while building the image or reading it
    back would make two calls per case."""
    calls = [0]
    first_repeat = collapse.first_repeat

    def counted(items):
        calls[0] += 1
        return first_repeat(items)

    monkeypatch.setattr(collapse, "first_repeat", counted)
    status, doc = run(RunConfig("iso-roundtrip", {"seed": 3, "cases": cases, "len": length}))
    assert status == 0 and doc == {"ok": True, "cases": cases}
    assert calls[0] == cases


def test_cold_deep_lookup_grows_about_linearly():
    """Under w^2 the usage at block k lies over k layers; a lookup that
    walked them all made a cold value and its check at w*k + 30 about 11x
    slower from k = 80 to k = 320, where shifting over the run-free layers
    in one step leaves about 5x (the codes gain a bit per layer).  Timed
    as ``test_run_time_grows_linearly``: fastest of three, interleaved,
    with the heap frozen, lift construction included."""
    best = {80: float("inf"), 320: float("inf")}
    f = transfinite_f_seq(collapse.nat_set())
    gc.collect()
    gc.freeze()
    try:
        for _ in range(3):
            for k in best:
                pos = parse_cnf(f"w*{k} + 30")
                start = time.perf_counter()
                g = levy_lift(standard_cofinal(parse_cnf("w^2")), f)
                assert check_transfinite_witness(f, g, [pos])
                best[k] = min(best[k], time.perf_counter() - start)
                assert g.at(pos) == 61 * 2 ** k - 1
    finally:
        gc.unfreeze()
    assert best[320] / best[80] < 7


def test_cold_lift_memory_grows_linearly():
    """A usage that copies every consumed index grows 3.8x per doubling."""
    peaks = []
    for n in (2000, 4000):
        f = transfinite_f_seq(collapse.nat_set())
        g = levy_lift(standard_cofinal(parse_cnf("w*2")), f)
        tracemalloc.start()
        try:
            assert g.at(parse_cnf(f"w + {n}")) == 2 * n + 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


def test_cold_lift_blocks_build_no_checked_ordinals(monkeypatch):
    """A cold block's positions and lengths come from arithmetic, which
    builds its results unchecked, so the checked Ordinals of a cold query
    are those of its setup, the same at every depth; checking every
    Ordinal made 1,235 at n=150 and 2,285 at n=300, 7 per block.  A
    block's usage update maps each index to its rank once, and never back
    through ``_skip_taken``."""
    checked, skips, updating, updates = [0], [0], [0], [0]
    init, skip, with_explicit = (Ordinal.__init__, levy._skip_taken,
                                 levy.IndexUsage.with_explicit)

    def counting_init(self, *args, **kwargs):
        checked[0] += 1
        init(self, *args, **kwargs)

    def counting_skip(taken, n):
        skips[0] += updating[0] > 0
        return skip(taken, n)

    def tracked_with_explicit(self, indices):
        updates[0] += 1
        updating[0] += 1
        try:
            return with_explicit(self, indices)
        finally:
            updating[0] -= 1

    monkeypatch.setattr(Ordinal, "__init__", counting_init)
    monkeypatch.setattr(levy, "_skip_taken", counting_skip)
    monkeypatch.setattr(levy.IndexUsage, "with_explicit", tracked_with_explicit)

    def cold_query(n):
        start = checked[0]
        f = transfinite_f_seq(collapse.nat_set())
        g = levy_lift(standard_cofinal(parse_cnf("w*2")), f)
        pos = parse_cnf(f"w + {n}")
        assert g.at(pos) == 2 * n + 1 and check_transfinite_witness(f, g, [pos])
        return checked[0] - start

    assert cold_query(150) == cold_query(300)
    assert updates[0] >= 450 and skips[0] == 0


def python_calls(fn, *args):
    """``fn(*args)`` and the number of Python-level calls it made, itself
    included.  Garbage collection is off while counting, so no finalizer's
    calls are counted."""
    count = [0]

    def profile(frame, event, arg):
        if event == "call":
            count[0] += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, count[0]


def test_standard_ladder_stage_reads_in_two_frames():
    """A stage of ``standard_cofinal`` is its evaluator and one unchecked
    Ordinal.  Read through a ``TransfiniteSeq`` of length w at an
    ``Ordinal`` position, it took six frames."""
    for alpha, stage_300 in [("w", "300"), ("w*2", "w*1 + 299"), ("w*7", "w*6 + 294"),
                             ("w^2", "w*300")]:
        cof = standard_cofinal(parse_cnf(alpha))
        for n in (0, 1, 5, 300):
            value, frames = python_calls(cof.stage, n)
            assert frames <= 2
        assert str(value) == stage_300


def test_cold_lift_unit_block_python_calls():
    """A unit block of a cold lift under w*2 (its ladder stage, its select,
    index and usage, and its two ``member`` probes) makes at most 22
    Python-level calls, built in the lift's unit-block loop.  Built through
    the frozen ``__init__``s, ``from_items`` and three- and four-frame rank
    queries it made 64; built past them, with the stage read through a
    ``TransfiniteSeq`` of length w, 41; while the builder also reported
    the usage after its block and the lift checked that report against the
    block's indices, 36; through the builder call, ``ord_sub_left`` and
    ``_verify_block`` on every block, 31."""

    def calls(n):
        f = transfinite_f_seq(collapse.nat_set())
        g = levy_lift(standard_cofinal(parse_cnf("w*2")), f)
        pos = parse_cnf(f"w + {n}")
        (value, ok), count = python_calls(
            lambda: (g.at(pos), check_transfinite_witness(f, g, [pos])))
        assert value == 2 * n + 1 and ok
        return count

    assert (calls(300) - calls(150)) / 150 <= 22


def test_cold_lift_finite_block_python_calls():
    """A value of a long finite block (its select, its index and its two
    probes) makes 40 Python-level calls at any offset, as each probe's
    usage extends the one before it by one index.  Rebuilding the usage
    before each offset from the block's start made the probes quadratic:
    64.5 calls a value between blocks of 16 and 32 values, 88.5 between
    32 and 64."""

    def calls(length):
        f = transfinite_f_seq(collapse.nat_set())
        cof = CofinalPresentation(ordinals.OMEGA, lambda n: Ordinal.from_int(length * n))
        g = levy_lift(cof, f)
        value, count = python_calls(g.at, 0)
        assert value == 0
        return count

    assert (calls(32) - calls(16)) / 16 <= 40 and (calls(64) - calls(32)) / 32 <= 40


# Python-level calls per step of a prefix-tree run, (calls at n = 400 minus
# calls at n = 200) / 200 through the command handler, with its modules
# loaded by a first run; the parent of the change that cut them made 14 on
# coll-run nat, 20 on dc-run seq and evens, 22 on bounded, 16 on coll-run
# pairs, 27 on marker-run const and 33 on cycle2 and cycle3.
STEP_CALLS = [
    ("coll-run", "nat", None, 10),
    ("coll-run", "pairs", None, 15),
    ("dc-run", "nat", "seq", 16),
    ("dc-run", "nat", "evens", 19),
    ("dc-run", "nat", "bounded", 21),
    ("marker-run", "nat", "const", 26),
    ("marker-run", "nat", "cycle2", 24),
    ("marker-run", "nat", "cycle3", 32),
]


@pytest.mark.parametrize("command, xset, functional, most", STEP_CALLS)
def test_prefix_tree_step_python_calls(command, xset, functional, most):
    """A step runs the engine's ``leq`` and ``member``, the ``BadSelector``
    member check of a tree family and, on coll-run, the chain check of
    ``generic_to_injection``; the frames that checked nothing are gone:
    a view's ``__init__``, the comprehensions of codes and bases, the
    ``index_of`` frame under ``index_or_none``, ``MarkedElement.__init__``,
    a second draw of the code ``select`` named last and the cycle's draws.
    At that change the counts were 10, 12, 14, 14, 16, 16, 19 and 19."""

    def calls(n):
        params = {"set": xset, "n": n}
        if functional is not None:
            params["functional"] = functional
        (status, _doc), count = python_calls(run, RunConfig(command, params))
        assert status == 0
        return count

    calls(10)
    assert (calls(400) - calls(200)) / 200 <= most


@pytest.mark.parametrize("alpha", ["w*2", "w*3 + 4", "w^2", "w^2*2 + w*3 + 1", "w^3"])
def test_bijection_round_trip_builds_no_ordinal_by_arithmetic(monkeypatch, alpha):
    """A round trip n -> o -> n reads o's terms off its block's start, or
    off the finite tail's: no ``ord_add``, ``ord_sub_left`` or checked
    Ordinal, and three Python-level calls (``backward``, ``Ordinal._of``
    and ``forward``).  Through ``ord_add``/``ord_sub_left``, a coefficient
    dict and the tuple-pairing helpers, it made 14 to 18 past the tail;
    in the tail, through ``ord_add`` and ``ord_sub_left``, 10."""
    bij = omega_bijection(parse_cnf(alpha))
    arithmetic = [0]
    init, add, sub = Ordinal.__init__, ordinals.ord_add, ordinals.ord_sub_left

    def counting(fn):
        def wrapped(*args):
            arithmetic[0] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(Ordinal, "__init__", counting(init))
    monkeypatch.setattr(ordinals, "ord_add", counting(add))
    monkeypatch.setattr(ordinals, "ord_sub_left", counting(sub))
    fin_count = dict(bij.bound.terms).get(0, 0)
    ns = [*range(fin_count + 300), 10**6, 10**12, 10**30]

    def round_trips(ns):
        return [bij.forward(bij.backward(n)) for n in ns]

    back, calls = python_calls(round_trips, ns)
    assert back == ns
    assert arithmetic[0] == 0
    assert (calls - 2) / len(ns) <= 4  # less round_trips and its comprehension
    tail, tail_calls = python_calls(round_trips, range(fin_count))
    assert tail == list(range(fin_count)) and tail_calls - 2 <= 3 * fin_count


def test_bijection_setup_reads_the_terms_not_the_blocks():
    """Setup keeps one head and one first-block index per infinite term of
    alpha, so w*100000 sets up in far less than 1 MiB; one start tuple per
    block took 15.3 MiB."""
    alpha = parse_cnf("w*100000")
    tracemalloc.start()
    try:
        bij = omega_bijection(alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(bij.backward(99999 + 100000 * 7)) == "w*99999 + 7"
