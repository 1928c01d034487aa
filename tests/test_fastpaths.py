"""Differential tests: each fast path against the slow reference it replaced.

The references are kept here, verbatim in behaviour, as test oracles only.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import (
    builtin_set,
    coll_poset,
    extends,
    fresh_bound,
    level_dense,
    level_family,
)
from forcelab.dctrees import bounded_functional, evens_functional, f_seq
from forcelab.errors import BadSelector
from forcelab.posets import DenseSet, rasiowa_sikorski

SETS = ("nat", "evens", "pairs")


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def extends_reference(g, f):
    if len(g) < len(f):
        return False
    return all(g[i] == f[i] for i in range(len(f)))


def level_family_reference(x, n):
    """The family whose extenders call fresh_bound on every step."""
    out = []
    for i in range(n):
        target = i + 1

        def extend(p, target=target):
            need = target - len(p)
            if need <= 0:
                return p
            b = fresh_bound(x, p)
            return p + tuple(x.enum(b + j) for j in range(need))

        out.append(DenseSet(f"len>={target}", lambda f, target=target: len(f) >= target,
                            extend))
    return out


def level_dense_extend_reference(x, i, p):
    b = fresh_bound(x, p)
    return p + tuple(x.enum(b + j) for j in range(i))


def f_seq_select_reference(x, t):
    used = set(t)
    i = 0
    while x.enum(i) in used:
        i += 1
    return x.enum(i)


def f_seq_member_reference(x, t, v):
    return x.contains(v) and not any(v == c for c in t)


def evens_select_reference(x, t):
    i = 0
    while x.enum(2 * i) in t:
        i += 1
    return x.enum(2 * i)


def bounded_select_reference(x, t):
    for i in range(2 * len(t) + 1):
        if x.enum(i) not in t:
            return x.enum(i)
    raise BadSelector(f"no unused code of index <= {2 * len(t)}")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small = st.integers(0, 6)
short_seqs = st.lists(small, max_size=8).map(tuple)


@st.composite
def related_pairs(draw):
    """(g, f) where g often end-extends f or nearly does."""
    f = draw(short_seqs)
    kind = draw(st.sampled_from(["extend", "equal", "mutate", "free"]))
    if kind == "extend":
        g = f + draw(short_seqs)
    elif kind == "equal":
        g = tuple(f)
    elif kind == "mutate" and f:
        k = draw(st.integers(0, len(f) - 1))
        g = f[:k] + (draw(small),) + f[k + 1:] + draw(short_seqs)
    else:
        g = draw(short_seqs)
    return g, f


def injective_codes(x, max_index=30, max_size=12):
    return st.lists(st.integers(0, max_index), unique=True, max_size=max_size).map(
        lambda idx: tuple(x.enum(i) for i in idx))


# ---------------------------------------------------------------------------
# extends
# ---------------------------------------------------------------------------

class TestExtends:
    @given(related_pairs())
    def test_operator_eq_matches_elementwise(self, gf):
        g, f = gf
        assert extends(g, f) == extends_reference(g, f)

    @given(st.sampled_from(SETS), related_pairs())
    def test_coll_poset_leq_matches_elementwise(self, name, gf):
        g, f = gf
        assert coll_poset(builtin_set(name)).leq(g, f) == extends_reference(g, f)


# ---------------------------------------------------------------------------
# the fresh-bound cache of level_family and level_dense
# ---------------------------------------------------------------------------

class TestFreshBoundCache:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SETS), st.integers(0, 40), st.data())
    def test_engine_run_matches_reference(self, name, n, data):
        x = builtin_set(name)
        start = data.draw(injective_codes(x))
        poset = coll_poset(x)
        fast = rasiowa_sikorski(poset, level_family(x, n + len(start)), start, n)
        slow = rasiowa_sikorski(poset, level_family_reference(x, n + len(start)),
                                start, n)
        assert fast == slow

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SETS), st.data())
    def test_interleaved_extenders_match_reference(self, name, data):
        """Feed the shared extenders older, equal-but-not-identical and fresh inputs."""
        x = builtin_set(name)
        fast = level_family(x, 30)
        slow = level_family_reference(x, 30)
        pool = [()]
        for _ in range(data.draw(st.integers(1, 25))):
            source = data.draw(st.sampled_from(["last", "older", "copy", "fresh"]))
            if source == "last":
                p = pool[-1]
            elif source == "older":
                p = data.draw(st.sampled_from(pool))
            elif source == "copy":
                p = tuple(list(pool[-1]))
            else:
                p = data.draw(injective_codes(x))
            i = data.draw(st.integers(0, 29))
            q = fast[i].extend(p)
            assert q == slow[i].extend(p)
            pool.append(q)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SETS), st.integers(0, 5), st.data())
    def test_level_dense_matches_reference(self, name, i, data):
        x = builtin_set(name)
        d = level_dense(x, i)
        p = data.draw(injective_codes(x))
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                p = data.draw(injective_codes(x))
            q = d.extend(p)
            assert q == level_dense_extend_reference(x, i, p)
            p = q


# ---------------------------------------------------------------------------
# choice functionals
# ---------------------------------------------------------------------------

# Moves of a walk over select inputs: grow by select's own answer or by any
# code, shrink to a prefix, branch off at a position, or probe with a list.
walk_moves = st.lists(st.one_of(
    st.tuples(st.just("grow")),
    st.tuples(st.just("code"), st.integers(0, 25)),
    st.tuples(st.just("shrink"), st.integers(0, 30)),
    st.tuples(st.just("branch"), st.integers(0, 30), st.integers(0, 25)),
    st.tuples(st.just("list")),
), min_size=1, max_size=40)


class TestFunctionals:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SETS), walk_moves)
    def test_f_seq_select_matches_scan_from_zero(self, name, moves):
        x = builtin_set(name)
        fs = f_seq(x)
        t: tuple = ()
        for move in moves:
            if move[0] == "grow":
                t = t + (fs.select(t),)
            elif move[0] == "code":
                t = t + (x.enum(move[1]),)
            elif move[0] == "shrink":
                t = t[:move[1] % (len(t) + 1)]
            elif move[0] == "branch" and t:
                k = move[1] % len(t)
                t = t[:k] + (x.enum(move[2]),)
            probe = list(t) if move[0] == "list" else t
            assert fs.select(probe) == f_seq_select_reference(x, t)

    def test_f_seq_select_does_not_trust_a_mutated_list(self):
        fs = f_seq(builtin_set("nat"))
        t = [0, 1, 2, 3]
        assert fs.select(t) == 4
        t[:] = [5]
        assert fs.select(t) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SETS), st.data())
    def test_f_seq_member_matches_reference(self, name, data):
        x = builtin_set(name)
        t = data.draw(injective_codes(x))
        v = x.enum(data.draw(st.integers(0, 35)))
        assert f_seq(x).member(t, v) == f_seq_member_reference(x, t, v)
        assert f_seq(x).member(t, "not-a-code") is False

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SETS), st.data())
    def test_evens_select_matches_tuple_scan(self, name, data):
        x = builtin_set(name)
        t = data.draw(injective_codes(x, max_index=40, max_size=20))
        assert evens_functional(x).select(t) == evens_select_reference(x, t)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SETS), st.data())
    def test_bounded_select_matches_tuple_scan(self, name, data):
        x = builtin_set(name)
        t = data.draw(st.lists(st.integers(0, 12), max_size=14).map(
            lambda idx: tuple(x.enum(i) for i in idx)))
        try:
            expected = bounded_select_reference(x, t)
        except BadSelector:
            try:
                bounded_functional(x).select(t)
            except BadSelector:
                return
            raise AssertionError("fast select found a code the reference did not")
        assert bounded_functional(x).select(t) == expected
