"""Property tests: a ``coll_to_q`` image reads exactly like its frozenset
copy.

Each example builds images of a few injective sequences: two prefixes of
one sequence, an unrelated sequence, and the image rebuilt from a read-back
(a second image of the same sequence).  An image's stages are a tuple, and
every stage it gives, by index, iteration or slice, is a frozenset; every
image is compared
with ``QSeq(tuple(map(frozenset, t.stages)))``, the same stages read through
the checked path when the ``QSeq`` is built, under the qtree functions that
read stages.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import InjSeq, nat_set
from forcelab.errors import NotAQSeq, NotInjective
from forcelab.qtree import (
    QSeq,
    coll_to_q,
    q_extends,
    q_into_lambda,
    q_to_coll,
    qseq_json,
)

NAT = nat_set()
CODES = st.lists(st.integers(0, 20), unique=True, max_size=6)


def frozen(t):
    return QSeq(tuple(map(frozenset, t.stages)))


def outcome(fn, *args):
    """What fn(*args) returns, or the message and details of its NotAQSeq."""
    try:
        return fn(*args)
    except NotAQSeq as exc:
        return str(exc), exc.details


@st.composite
def images(draw):
    base = draw(CODES)
    i, j = sorted(draw(st.lists(st.integers(0, len(base)), min_size=2, max_size=2)))
    ts = [coll_to_q(InjSeq(tuple(base[:i]))), coll_to_q(InjSeq(tuple(base[:j]))),
          coll_to_q(InjSeq(tuple(draw(CODES))))]
    ts.append(coll_to_q(q_to_coll(ts[1])))
    return ts


@settings(max_examples=150, deadline=None)
@given(images())
def test_images_read_like_their_frozenset_copies(ts):
    for t in ts:
        copy = frozen(t)
        assert type(t.stages) is tuple
        assert t.stages == copy.stages and copy.stages == t.stages and t == copy
        assert t.stages != list(copy.stages) and list(copy.stages) != t.stages
        other = tuple(s | {-1} for s in copy.stages)  # same length, other contents
        if other:
            assert t.stages != other and other != t.stages
        assert hash(t.stages) == hash(copy.stages) and hash(t) == hash(copy)
        assert repr(t.stages) == repr(copy.stages)
        assert len(t.stages) == len(copy.stages)
        for k in range(-len(copy.stages), len(copy.stages)):
            assert type(t.stages[k]) is frozenset and t.stages[k] == copy.stages[k]
        assert all(type(s) is frozenset for s in t.stages)
        assert t.stages[1:-1] == copy.stages[1:-1] and t.stages[::2] == copy.stages[::2]
        assert all(type(s) is frozenset for s in t.stages[1:-1] + t.stages[::2])
        with pytest.raises(IndexError):
            t.stages[len(copy.stages)]
        assert type(copy.stages) is tuple and q_to_coll(t) == q_to_coll(copy)
        assert q_into_lambda(NAT, t) == q_into_lambda(NAT, copy)
        assert qseq_json(NAT, t) == qseq_json(NAT, copy)
    for g, f in itertools.product(ts, repeat=2):
        expect = q_extends(frozen(g), frozen(f))
        assert q_extends(g, f) is expect
        assert q_extends(g, frozen(f)) is expect and q_extends(frozen(g), f) is expect


STAGE_LISTS = st.lists(st.frozensets(st.integers(0, 5), max_size=4), max_size=6)


@settings(max_examples=300, deadline=None)
@given(STAGE_LISTS)
def test_views_of_other_tuples_take_the_checked_path(stages):
    """Stages read off other images, one image each, raise what the same
    frozensets raise; stages that pass build the image of their items."""
    views = tuple(coll_to_q(InjSeq(s)).stages[-1] if s else s for s in stages)
    t = outcome(QSeq, stages)
    assert outcome(QSeq, views) == t
    if isinstance(t, QSeq):
        image = coll_to_q(InjSeq(q_to_coll(t).items))
        assert type(t.stages) is tuple
        assert t == image and image == t and hash(t) == hash(image)


@settings(max_examples=200, deadline=None)
@given(CODES, st.sampled_from((tuple, list)))
def test_checked_stages_equal_the_image_of_their_items(codes, kind):
    t = QSeq(kind(frozenset(codes[:i + 1]) for i in range(len(codes))))
    image = coll_to_q(InjSeq(codes))
    assert type(t.stages) is tuple
    assert t == image and image == t and hash(t) == hash(image)
    assert q_to_coll(t) == q_to_coll(image) == InjSeq(codes)


def test_a_repeated_item_is_rejected_when_built():
    with pytest.raises(NotInjective, match="positions 0 and 2 repeat 1"):
        InjSeq((1, 2, 1))
    with pytest.raises(NotInjective, match="positions 1 and 3 repeat 7"):
        InjSeq([4, 7, 5, 7])
    with pytest.raises(NotAQSeq, match="stage 1 adds 0 elements, not 1"):
        QSeq((frozenset({1}), frozenset({1})))


def test_images_compare_without_hashing_their_items():
    """``q_extends`` on two images compares their items tuples; comparing
    their stages as sets would look each item up, hashing it."""
    hashes = [0]

    class Code:
        def __hash__(self):
            hashes[0] += 1
            return id(self)

    codes = [Code() for _ in range(6)]
    t, u = coll_to_q(InjSeq(tuple(codes))), coll_to_q(InjSeq(tuple(codes[:4])))
    hashes[0] = 0
    assert q_extends(t, u) and not q_extends(u, t) and q_extends(t, t)
    assert hashes[0] == 0
