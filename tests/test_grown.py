"""Property tests: ``posets.Grown`` views read exactly like plain tuples.

A random walk keeps a list of (view, tuple) pairs.  Each step grows one of
them, the newest (the tip of its buffer) or an older one (a branch), or
starts from a plain tuple, and then every pair, old ones included, must
still read like its tuple: growing a branch must never change the entries
of an older view on the same buffer.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import nat_set
from forcelab.dctrees import check_dc_witness, f_seq, in_tree, modified_functional
from forcelab.posets import Grown, SuffixFold, _jsonable, extends, grow

CODES = st.one_of(st.integers(-3, 6), st.tuples(st.integers(0, 3), st.integers(0, 3)))
STEPS = st.lists(st.tuples(st.sampled_from(["tip", "branch", "tuple"]),
                           st.integers(0, 50), st.lists(CODES, max_size=4)),
                 min_size=1, max_size=25)


def assert_reads_like(view, old):
    assert isinstance(view, Grown) and isinstance(old, tuple)
    assert len(view) == len(old) and bool(view) == bool(old)
    assert view == old and old == view and not (view != old) and not (old != view)
    assert hash(view) == hash(old) and repr(view) == repr(old)
    assert tuple(view) == old and list(view) == list(old)
    assert list(reversed(view)) == list(reversed(old))
    assert json.dumps(_jsonable(view)) == json.dumps(_jsonable(old))
    for i in range(-len(old) - 2, len(old) + 2):
        if -len(old) <= i < len(old):
            assert view[i] == old[i]
        else:
            with pytest.raises(IndexError):
                view[i]
    for c in set(old) | set(view.buf) | {99, (9, 9)}:  # entries past n are not in the view
        assert (c in view) == (c in old)
        assert view.count(c) == old.count(c)
    assert view + (7,) == old + (7,) and (7,) + view == (7,) + old


@settings(max_examples=200, deadline=None)
@given(STEPS, st.data())
def test_random_walk_matches_tuples(steps, data):
    pairs = [(grow((), ()), ())]
    for kind, pick, values in steps:
        if kind == "tuple":
            base, old = tuple(values), tuple(values)
        elif kind == "tip":
            base, old = pairs[-1]
        else:
            base, old = pairs[pick % len(pairs)]
        at_tip = type(base) is Grown and base.n == len(base.buf)
        view = grow(base, values)
        assert view.buf is base.buf if at_tip else all(view.buf is not v.buf for v, _ in pairs)
        pairs.append((view, old + tuple(values)))
        for v, t in pairs:
            assert_reads_like(v, t)
    view, old = data.draw(st.sampled_from(pairs))
    bound = len(old) + 2
    for _ in range(10):
        a, b = data.draw(st.integers(-bound, bound)), data.draw(st.integers(-bound, bound))
        step = data.draw(st.sampled_from([None, 1, 2, 3, -1, -2]))
        piece = view[a:b:step]
        assert type(piece) is tuple and piece == old[a:b:step]
    for v, t in pairs:
        assert (view == v) == (old == t) and (v == view) == (t == old)
        assert (view == t) == (old == t)
        assert extends(view, v) == extends(old, t) == extends(view, t) == extends(old, v)
        assert extends(v, view) == extends(t, old)


def test_views_differ_from_other_types():
    view = grow((), (1, 2))
    assert view != [1, 2] and view != "ab" and view != None  # noqa: E711
    assert view != grow((), (1, 2, 3)) and view != grow((), (2, 1))
    assert grow(view, ()) == view and grow((), ()) == ()
    with pytest.raises(TypeError):
        view + [3]
    with pytest.raises(TypeError):
        [3] + view


def test_same_buffer_extension_is_read_off_the_lengths():
    """Two views of one buffer are compared by length, never entry by entry."""
    class Loud:
        def __eq__(self, other):
            raise AssertionError("entries compared")

        __hash__ = object.__hash__

    short = grow((), [Loud(), Loud()])
    long = grow(short, [Loud()])
    assert extends(long, short) and extends(long, long) and not extends(short, long)
    assert short == short and long != short


def test_fold_keeps_views_and_resumes_from_them():
    folded = []
    fold = SuffixFold(lambda: 0, lambda total, suffix: folded.append(tuple(suffix)) or
                      total + sum(suffix))
    t = grow((), (1, 2))
    assert fold.fold_state(t) == 3
    u = grow(t, (4,))
    assert fold.fold_state(u) == 7 and fold.fold_state(u) == 7
    assert fold.fold_state(grow(t, (5,))) == 8  # a branch of t is not an extension of u
    assert folded == [(1, 2), (4,), (1, 2, 5)]


def test_in_tree_hands_f_views_of_the_restrictions():
    x = nat_set()
    assert check_dc_witness(f_seq(x), range(5000))
    assert not check_dc_witness(f_seq(x), (0, 1, 0))
    seen = []
    f = type(f_seq(x))("probe", lambda s, v: seen.append((s, v)) or True, lambda s: 0)
    assert in_tree(f, (3, 1, 4))
    assert seen == [((), 3), ((3,), 1), ((3, 1), 4)]
    assert all(type(s) is Grown for s, _ in seen)


@pytest.mark.parametrize("s, expected", [((), 4), ((4,), 2), ((4, 2), 7), ((9,), None),
                                         ((4, 9), None), ((4, 2, 7), None), ((4, 2, 7, 1), None)])
def test_forced_steps_on_views_and_lists(s, expected):
    ft = modified_functional(f_seq(nat_set()), (4, 2, 7))
    for form in (tuple(s), list(s), grow((), s), grow((), s), tuple(s)):
        if expected is None:
            assert ft.select(form) == f_seq(nat_set()).select(tuple(s))
        else:
            assert ft.select(form) == expected
            assert ft.member(form, expected) and not ft.member(form, 8)


def test_views_of_one_buffer_are_unchanged_by_later_growth():
    t = grow((), (1,))
    u = grow(t, (2,))
    b = grow(t, (3,))            # a branch: copies, leaves u alone
    w = grow(u, (4,))            # the tip: appends in place
    assert (t, u, b, w) == ((1,), (1, 2), (1, 3), (1, 2, 4))
    assert w.buf is u.buf is t.buf and b.buf is not t.buf
    assert t[:] == (1,) and type(t[:]) is tuple
