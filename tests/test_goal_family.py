"""The engine's goal family as a rule: ``length_levels`` makes goal i when read.

``level_family`` and ``tree_level_family`` return a read-only ``Sequence``
whose goal i is a ``DenseSet`` for length >= i+1, made on access.  These
tests pin the sequence protocol, goal-by-goal agreement with the list
family of ``test_fastpaths.level_family_reference``, the
``dataclasses.replace`` route that rewraps a goal's extender, the names in
``BadExtender`` messages, and the engine's one read of ``ds[i]`` per step.
"""

import collections.abc
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab.collapse import builtin_set, coll_poset, length_levels, level_family, nat_set
from forcelab.dctrees import f_seq, t_of_f, tree_level_family
from forcelab.errors import BadExtender
from forcelab.posets import DenseSet, rasiowa_sikorski
from test_fastpaths import injective_codes, level_family_reference

NAT = nat_set()

FAMILIES = {
    "level_family": lambda n: level_family(NAT, n),
    "tree_level_family": lambda n: tree_level_family(f_seq(NAT), n),
}


@pytest.mark.parametrize("make", FAMILIES.values(), ids=FAMILIES)
class TestSequenceProtocol:
    def test_len_and_type(self, make):
        for n in (0, 1, 7):
            family = make(n)
            assert len(family) == n
            assert isinstance(family, collections.abc.Sequence)

    def test_positive_and_negative_indices(self, make):
        family = make(7)
        for i in range(7):
            assert isinstance(family[i], DenseSet)
            assert family[i].name == f"len>={i + 1}"
            assert family[i - 7].name == family[i].name
        assert not hasattr(family[0], "no_such_field")

    @pytest.mark.parametrize("i", [7, 8, 100, -8, -9, -100])
    def test_index_error_past_either_end(self, make, i):
        with pytest.raises(IndexError):
            make(7)[i]

    def test_empty_family_has_no_goal(self, make):
        for i in (0, -1):
            with pytest.raises(IndexError):
                make(0)[i]

    def test_iteration(self, make):
        family = make(5)
        assert [d.name for d in family] == [f"len>={t}" for t in range(1, 6)]
        assert [d.name for d in reversed(family)] == [f"len>={t}" for t in range(5, 0, -1)]
        assert list(make(0)) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["nat", "evens", "pairs"]), st.data())
def test_agrees_with_reference_goal_by_goal(name, data):
    """Each goal, read by a positive or a negative index, has the
    reference goal's name, membership and extension."""
    x = builtin_set(name)
    n = data.draw(st.integers(1, 12))
    fast, slow = level_family(x, n), level_family_reference(x, n)
    for _ in range(data.draw(st.integers(1, 10))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.sampled_from([i, i - n]))
        p = data.draw(injective_codes(x))
        assert fast[j].name == slow[i].name
        assert fast[j].member(p) == slow[i].member(p)
        assert fast[j].extend(p) == slow[i].extend(p)


def test_replaced_extender_runs_through_the_engine():
    """``dataclasses.replace(goal, extend=...)`` gives a working goal whose
    extender is the new one; the benchmark's tracer rewraps goals so."""
    calls = []

    def wrapped(d):
        def extend(q):
            calls.append(d.name)
            return d.extend(q)
        return dataclasses.replace(d, extend=extend)

    for poset, make in [(coll_poset(NAT), FAMILIES["level_family"]),
                        (t_of_f(NAT, f_seq(NAT)), FAMILIES["tree_level_family"])]:
        calls.clear()
        family = [wrapped(d) for d in make(40)]
        assert [d.name for d in family] == [f"len>={t}" for t in range(1, 41)]
        run = rasiowa_sikorski(poset, family, (), 40)
        assert calls == [f"len>={t}" for t in range(1, 41)]
        assert run == rasiowa_sikorski(poset, make(40), (), 40)


@pytest.mark.parametrize("start, append, message", [
    ((), lambda p, k: p, "extender len>=1 output not a member"),
    ((1,), lambda p, k: (7,) + tuple(p), "extender len>=1 output not below its input"),
])
def test_bad_extender_names_its_goal(start, append, message):
    with pytest.raises(BadExtender, match=message) as err:
        rasiowa_sikorski(coll_poset(NAT), length_levels(3, append), start, 3)
    assert err.value.details == {"index": 0}


def test_bad_extender_names_a_later_goal():
    """The message names the goal of the step that failed."""
    def append(p, k):
        return p if len(p) >= 2 else p + tuple(range(len(p), len(p) + k))

    with pytest.raises(BadExtender, match="extender len>=3 output not a member"):
        rasiowa_sikorski(coll_poset(NAT), length_levels(5, append), (), 5)


class CountingFamily(collections.abc.Sequence):
    def __init__(self, family):
        self.family = family
        self.reads = 0

    def __len__(self):
        return len(self.family)

    def __getitem__(self, i):
        self.reads += 1
        return self.family[i]


@pytest.mark.parametrize("n", [0, 1, 50])
def test_engine_reads_each_goal_once(n):
    """Step i reads ds[i] once and uses that goal for extend and member;
    reading it again for each call made 2n reads."""
    family = CountingFamily(level_family(NAT, n))
    run = rasiowa_sikorski(coll_poset(NAT), family, (), n)
    assert family.reads == n
    assert run.chain[-1] == tuple(range(n))
