"""Membership in every countable set the package builds, against a
reference decision written here.

Codes are drawn from ints (negatives included), bools, floats, strings,
None, tuples and nested tuples of these, and ``MarkedElement``s over such
bases and markers.  On each set, ``contains`` must equal the reference; a
member's index is an ``int`` that ``enum`` maps back to it; ``index_of``
refuses a non-member with ``ValueError``; and the collapse carrier, the
fresh-code functional and the Lévy functional agree with ``contains``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import coll_poset, evens_set, nat_set, pairs_set
from forcelab.dctrees import MarkedElement, f_seq, marked_set
from forcelab.levy import transfinite_f_seq
from forcelab.ordinals import TransfiniteSeq


def is_nat(c):
    return type(c) is int and c >= 0


def is_even(c):
    return is_nat(c) and c % 2 == 0


def is_pair(c):
    return type(c) is tuple and len(c) == 2 and all(map(is_nat, c))


def marked(base_ok):
    return lambda c: type(c) is MarkedElement and is_nat(c.marker) and base_ok(c.base)


def _checked(x):
    return (x, coll_poset(x).carrier, f_seq(x).member, transfinite_f_seq(x).member)


SETS = {
    "nat": (_checked(nat_set()), is_nat),
    "evens": (_checked(evens_set()), is_even),
    "pairs": (_checked(pairs_set()), is_pair),
    "nat*w": (_checked(marked_set(nat_set())), marked(is_nat)),
    "pairs*w": (_checked(marked_set(pairs_set())), marked(is_pair)),
}
EMPTY = TransfiniteSeq.from_items([])

SCALARS = st.one_of(st.integers(-3, 40), st.integers(), st.booleans(), st.floats(),
                    st.text(max_size=3), st.none())
CODES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.tuples(inner, inner), st.lists(inner, max_size=3).map(tuple),
                            st.builds(MarkedElement, inner, inner)),
    max_leaves=6)
# members of each set, which the draws above seldom hit
NATS = st.integers(0, 10**6)
PAIRS = st.tuples(NATS, NATS)
MEMBERS = st.one_of(NATS, PAIRS, st.builds(MarkedElement, NATS | PAIRS, NATS))


@settings(max_examples=300, deadline=None)
@given(CODES | MEMBERS)
def test_membership_agrees_with_the_reference(code):
    for name, ((x, carrier, fresh, transfinite), reference) in SETS.items():
        want = reference(code)
        assert x.contains(code) is want, name
        if want:
            i = x.index_of(code)
            assert type(i) is int and x.enum(i) == code, name
        else:
            with pytest.raises(ValueError):
                x.index_of(code)
        assert carrier((code,)) is want, name
        assert fresh((), code) is want, name
        assert transfinite(EMPTY, code) is want, name
