"""The merged copies against the code they replaced.

* ``ordinals.concat`` has one evaluator over one offset list; the
  two-evaluator version is kept here as an oracle.
* ``marker_reduction`` folds markers incrementally, keyed by ``==`` and
  ``hash``: a run makes linearly many code comparisons, and codes that are
  equal but not identical share one count.
* ``coll_poset``, ``t_of_f`` and ``lambda_tree`` are one
  ``collapse.sequence_tree`` call each; their hand-built presentations are
  kept here as oracles.
* ``CountableSet`` codes compare by ``==`` alone: the set has no ``eq``
  field, and every sequence tree is ordered by ``extends`` with
  ``prefixes`` as its cones.
* ``perfbench/tracing.py`` wraps the library by name, so a rename that
  breaks it shows up here, not only in the benchmark's self-test.
"""

import dataclasses
import json
import operator
import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import cli, ordinals
from forcelab.collapse import (CountableSet, builtin_set, coll_poset, first_repeat,
                               prefix_enumeration, sequence_tree)
from forcelab.dctrees import (bounded_functional, dc_witness, evens_functional, f_seq,
                              fixture_functional, in_tree, marked_set, marker_reduction,
                              modified_functional, t_of_f)
from forcelab.errors import (ContractError, EmptyComponent, MissingLimitLength,
                             OrdinalOverflow)
from forcelab.ordinals import (OMEGA, ZERO, Ordinal, TransfiniteSeq, concat, ord_add,
                               ord_sub_left)
from forcelab.posets import Grown, PosetPresentation, extends, prefixes
from forcelab.qtree import LatticeOracle, finite_subset_lattice, lambda_tree

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# concat: one evaluator against the two it replaced
# ---------------------------------------------------------------------------

def concat_reference(t, limit_length=None):
    """Finite and infinite concatenation, each with its own evaluator."""

    def append_offset(sigmas):
        i = len(sigmas) - 1
        comp = t.at(i)
        if comp.length.is_zero():
            raise EmptyComponent(f"component {i} has length 0")
        sigmas.append(ord_add(sigmas[-1], comp.length))

    def offsets(upto):
        sigmas = [ZERO]
        for _ in range(upto):
            append_offset(sigmas)
        return sigmas

    tau = t.length
    if tau.is_finite():
        n = tau.to_int()
        sigmas = offsets(n)
        total = sigmas[-1]
        if limit_length is not None and limit_length != total:
            raise OrdinalOverflow(
                f"declared length {limit_length} but components sum to {total}")
        components = [t.at(i) for i in range(n)]

        def eval_finite(pos):
            i = bisect_right(sigmas, pos) - 1
            return components[i].at(ord_sub_left(sigmas[i], pos))

        return TransfiniteSeq(total, eval_finite)

    if tau != OMEGA:
        raise OrdinalOverflow(f"outer length {tau} unsupported (finite or w only)")
    if limit_length is None:
        raise MissingLimitLength("infinite concatenation needs a declared total length")
    if not limit_length.is_limit():
        raise OrdinalOverflow(
            f"declared length {limit_length} of an infinite concatenation must be a limit")
    sigma_cache = offsets(ordinals._PROBE_BLOCKS)
    for s in sigma_cache[1:]:
        if not s < limit_length:
            raise OrdinalOverflow(
                f"block offset {s} reaches declared length {limit_length}")

    def eval_infinite(pos):
        while not pos < sigma_cache[-1]:
            if len(sigma_cache) > ordinals._SCAN_CAP + 1:
                raise OrdinalOverflow(
                    f"position {pos} not reached after {ordinals._SCAN_CAP} blocks")
            append_offset(sigma_cache)
        i = bisect_right(sigma_cache, pos) - 1
        return t.at(i).at(ord_sub_left(sigma_cache[i], pos))

    return TransfiniteSeq(limit_length, eval_infinite)


def ordinal(a, b):
    """w*a + b."""
    return ord_add(Ordinal.omega(a) if a else ZERO, Ordinal.from_int(b))


def component(i, length):
    return TransfiniteSeq(length, lambda p: (i, p))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ContractError, IndexError) as exc:  # type and text must agree too
        return type(exc).__name__, str(exc)


# a scan cap small enough to reach, read by both evaluators
SMALL_CAP = 40
LENGTHS = st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda ab: ordinal(*ab))
DECLARED = st.sampled_from([None, OMEGA, Ordinal.omega(2), Ordinal.omega_power(2),
                            Ordinal.omega_power(3), ordinal(1, 1), ordinal(0, 4)])


def probe_positions(sigmas):
    """Positions on both sides of every offset, and a few past the last."""
    out = []
    for s in sigmas:
        out += [s, ord_add(s, Ordinal.from_int(1)), ord_add(s, Ordinal.from_int(2))]
        if s.is_successor():
            out.append(s.pred())
    return out + [ord_add(sigmas[-1], OMEGA), Ordinal.omega_power(2),
                  ord_add(Ordinal.omega_power(2), Ordinal.from_int(1))]


def compare_concat(t, declared, probe_offsets):
    fast, slow = outcome(concat, t, declared), outcome(concat_reference, t, declared)
    assert fast[0] == slow[0]
    if fast[0] != "ok":
        assert fast == slow
        return
    assert fast[1].length == slow[1].length
    for pos in probe_positions(probe_offsets):
        assert outcome(fast[1].at, pos) == outcome(slow[1].at, pos), pos


class TestConcat:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(LENGTHS, max_size=6), DECLARED)
    def test_finite_outer_matches_reference(self, lengths, declared):
        t = TransfiniteSeq.from_items([component(i, l) for i, l in enumerate(lengths)])
        sigmas = [ZERO]
        for l in lengths:
            sigmas.append(ord_add(sigmas[-1], l))
        compare_concat(t, declared, sigmas)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(LENGTHS, min_size=1, max_size=4), LENGTHS, DECLARED)
    def test_omega_outer_matches_reference(self, pattern, first, declared):
        # component 0 has its own length, then the pattern repeats
        def length(i):
            return first if i == 0 else pattern[(i - 1) % len(pattern)]

        t = TransfiniteSeq(OMEGA, lambda p: component(p.to_int(), length(p.to_int())))
        sigmas = [ZERO]
        for i in range(12):
            sigmas.append(ord_add(sigmas[-1], length(i)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ordinals, "_SCAN_CAP", SMALL_CAP)
            compare_concat(t, declared, sigmas)

    def test_scan_cap_is_kept(self, monkeypatch):
        # blocks of length 1 never reach w, whatever length is declared
        monkeypatch.setattr(ordinals, "_SCAN_CAP", SMALL_CAP)
        t = TransfiniteSeq(OMEGA, lambda p: component(p.to_int(), Ordinal.from_int(1)))
        c, ref = concat(t, Ordinal.omega(2)), concat_reference(t, Ordinal.omega(2))
        with pytest.raises(OrdinalOverflow, match="not reached after 40 blocks"):
            c.at(OMEGA)
        assert c.at(40) == (40, ZERO)
        for pos in (40, 41, OMEGA):
            assert outcome(c.at, pos) == outcome(ref.at, pos)

    def test_outer_length_beyond_omega_is_refused(self):
        t = TransfiniteSeq(ordinal(1, 1), lambda p: component(0, Ordinal.from_int(1)))
        assert outcome(concat, t, OMEGA) == outcome(concat_reference, t, OMEGA)
        assert outcome(concat, t)[0] == "OrdinalOverflow"


# ---------------------------------------------------------------------------
# the marker fold compares codes by ==
# ---------------------------------------------------------------------------

class Counted:
    """A code that counts the ``==`` tests made on it; ``enum`` makes a new
    object on every call, so no test is settled by identity."""

    calls = 0
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        Counted.calls += 1
        return type(other) is Counted and self.n == other.n

    def __hash__(self):
        return hash(self.n)


COUNTED = CountableSet("counted", Counted,
                       index=lambda v: v.n if type(v) is Counted and v.n >= 0 else None)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_marker_run_makes_linearly_many_code_comparisons(n):
    """About 5n at n = 50, 100, 200; rewalking the sequence on every call,
    as the marker path once did under a custom equality, is cubic."""
    Counted.calls = 0
    x = COUNTED
    w = dc_witness(marked_set(x), marker_reduction(x, fixture_functional(x, "cycle3")), n)
    assert [m.base.n for m in w] == [i % 3 for i in range(n)]
    assert [m.marker for m in w] == [i // 3 for i in range(n)]
    assert Counted.calls <= 6 * n


def test_equal_codes_share_one_count():
    """Codes that are equal but not identical share one count."""
    g = marker_reduction(COUNTED, fixture_functional(COUNTED, "const"))
    u = ()
    for _ in range(4):
        m = g.select(u)
        assert (m.base.n, m.marker) == (0, len(u))
        u += (type(m)(Counted(0), len(u)),)
        assert g.member(u[:-1], u[-1])
    assert g.select(u).marker == 4


def test_functional_sees_a_grown_view_of_the_bases():
    seen = []
    const = fixture_functional(COUNTED, "const")
    f = type(const)("probe", lambda t, v: seen.append(t) or const.member(t, v),
                    const.select)
    w = dc_witness(marked_set(COUNTED), marker_reduction(COUNTED, f), 5)
    assert [m.marker for m in w] == [0, 1, 2, 3, 4]
    assert seen and all(type(t) is Grown for t in seen)


# ---------------------------------------------------------------------------
# the three sequence trees against their hand-built presentations
# ---------------------------------------------------------------------------

def coll_poset_reference(x):
    def carrier(t):
        return (isinstance(t, tuple) and all(x.contains(c) for c in t)
                and first_repeat(t) is None)

    return PosetPresentation(
        name=f"Coll(w,{x.name})", carrier=carrier, leq=extends,
        enum=prefix_enumeration(x, lambda prefix, c: c not in prefix),
        root=(), above=prefixes)


def t_of_f_reference(x, f):
    return PosetPresentation(
        name=f"T({f.name})", carrier=lambda t: isinstance(t, tuple) and in_tree(f, t),
        leq=extends, enum=prefix_enumeration(x, lambda prefix, c: f.member(prefix, c)),
        root=(), above=prefixes)


def lambda_tree_reference(l):
    def carrier(s):
        if not isinstance(s, tuple):
            return False
        if not all(l.carrier(v) for v in s):
            return False
        return all(l.lt(s[j + 1], s[j]) for j in range(len(s) - 1))

    enum = prefix_enumeration(CountableSet(l.name, l.enum),
                              lambda prefix, c: l.lt(c, prefix[-1]) if prefix else True)
    return PosetPresentation(name=f"tree({l.name})", carrier=carrier, leq=extends,
                             enum=enum, root=(), above=prefixes)


NAT = builtin_set("nat")
SUBSETS = finite_subset_lattice(NAT)
# codes that are strings, not ints
DECIMALS = CountableSet("decimals", str,
                        index=lambda v: int(v) if type(v) is str and v.isdigit()
                        and str(int(v)) == v else None)

TREES = {
    "coll-nat": (lambda: coll_poset(NAT), lambda: coll_poset_reference(NAT)),
    "coll-pairs": (lambda: coll_poset(builtin_set("pairs")),
                   lambda: coll_poset_reference(builtin_set("pairs"))),
    "coll-evens": (lambda: coll_poset(builtin_set("evens")),
                   lambda: coll_poset_reference(builtin_set("evens"))),
    "coll-decimals": (lambda: coll_poset(DECIMALS), lambda: coll_poset_reference(DECIMALS)),
    "tf-seq": (lambda: t_of_f(NAT, f_seq(NAT)), lambda: t_of_f_reference(NAT, f_seq(NAT))),
    "tf-evens": (lambda: t_of_f(NAT, evens_functional(NAT)),
                 lambda: t_of_f_reference(NAT, evens_functional(NAT))),
    "tf-bounded": (lambda: t_of_f(NAT, bounded_functional(NAT)),
                   lambda: t_of_f_reference(NAT, bounded_functional(NAT))),
    "lambda-subsets": (lambda: lambda_tree(SUBSETS), lambda: lambda_tree_reference(SUBSETS)),
}


def perturbed(t):
    """Near misses of a condition: as a list, reversed, with a repeat or a stranger."""
    out = [list(t), t[::-1], t + t[-1:], t + ("x",), t + (-1,)]
    return out + [t[:-1]] if t else out


@pytest.mark.parametrize("tree", TREES)
def test_tree_matches_hand_built_presentation(tree):
    build, build_reference = TREES[tree]
    p, ref = build(), build_reference()
    frag = [ref.enum(i) for i in range(300)]
    assert [p.enum(i) for i in range(300)] == frag
    assert p.name == ref.name and p.root == ref.root == ()
    assert p.above is ref.above
    for t in frag:
        for s in [t] + perturbed(t):
            assert p.carrier(s) == ref.carrier(s), s
    for g in frag[:80] + frag[-20:]:
        for f in frag[:80] + prefixes(g) + perturbed(g):
            assert p.leq(g, f) == ref.leq(g, f), (g, f)


def test_lattice_without_enumeration_keeps_its_error():
    l = LatticeOracle("bare", SUBSETS.carrier, SUBSETS.lt, SUBSETS.meet, SUBSETS.join,
                      SUBSETS.uppers, SUBSETS.has_lower)
    p = lambda_tree(l)
    with pytest.raises(ValueError, match="^lattice bare carries no enumeration$"):
        p.enum(0)
    assert p.carrier((frozenset({0}), frozenset({0, 1}))) and not p.carrier([])


def test_sequence_tree_defaults_to_the_prefix_order():
    p = sequence_tree("t", lambda t: True, lambda n: (n,))
    assert p.leq is extends and p.above is prefixes and p.root == ()
    assert p.carrier(()) and not p.carrier([]) and p.enum(3) == (3,)


def test_countable_set_has_no_eq():
    with pytest.raises(TypeError):
        CountableSet("x", NAT.enum, eq=operator.eq)
    assert [f.name for f in dataclasses.fields(CountableSet)] == ["name", "enum", "index"]


SEQUENCE_TREES = {
    "coll-nat": lambda: coll_poset(NAT),
    "coll-evens": lambda: coll_poset(builtin_set("evens")),
    "coll-pairs": lambda: coll_poset(builtin_set("pairs")),
    "t_of_f": lambda: t_of_f(NAT, f_seq(NAT)),
    "lambda_tree": lambda: lambda_tree(SUBSETS),
}


@pytest.mark.parametrize("tree", SEQUENCE_TREES)
def test_every_sequence_tree_is_ordered_by_extends(tree):
    p = SEQUENCE_TREES[tree]()
    assert p.leq is extends and p.above is prefixes


@pytest.mark.parametrize("s", [[3], (3,)])
def test_forced_steps_are_found_on_lists_and_tuples(s):
    g = modified_functional(f_seq(NAT), [3, 1, 2])
    assert g.select(s) == 1
    assert g.member(s, 1) and not g.member(s, 0)
    assert g.select(list(s) + [1, 2]) == 0  # past t, f_seq decides


# ---------------------------------------------------------------------------
# the benchmark's tracer still installs on the library it wraps by name
# ---------------------------------------------------------------------------

ONE_OF_EACH = [
    ["coll-run", "--set", "evens", "--n", "5"],
    ["iso-roundtrip", "--len", "6", "--cases", "3", "--seed", "1"],
    ["dc-run", "--set", "nat", "--functional", "bounded", "--n", "6"],
    ["marker-run", "--set", "pairs", "--functional", "cycle3", "--n", "9"],
    ["levy-run", "--alpha", "w*2"],
    ["density-check", "--set", "nat", "--i", "2", "--frag", "40"],
    ["oracle-check", "--seed", "2", "--cases", "3", "--size", "5"],
]

RUN_ALL = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[2])
import forcelab, forcelab.cli
if sys.argv[1] == "traced":
    import tracing
    tracing.Tracer().install(forcelab)
results = []
for argv in json.loads(sys.argv[3]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = forcelab.cli.main(argv)
    results.append([status, out.getvalue()])
print(json.dumps(results))
"""


def test_tracer_installs_and_keeps_cli_stdout():
    assert sorted(argv[0] for argv in ONE_OF_EACH) == sorted(cli._COMMANDS)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    docs = {}
    for mode in ("plain", "traced"):
        done = subprocess.run(
            [sys.executable, "-c", RUN_ALL, mode, str(ROOT / "perfbench"),
             json.dumps(ONE_OF_EACH)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        docs[mode] = json.loads(done.stdout)
    assert [status for status, _ in docs["plain"]] == [0] * len(ONE_OF_EACH)
    assert docs["traced"] == docs["plain"]
