"""The lazy prefix enumeration against the block builder it replaced.

``block_builder_enumeration`` is the earlier ``collapse.prefix_enumeration``
verbatim: it builds each block whole before returning any of it.  The lazy
walk must list the same tuples in the same order, stop as soon as the
asked-for item is listed, and survive a predicate that raises.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import collapse
from forcelab.collapse import (CountableSet, coll_poset, nat_set, pairs_set,
                               prefix_enumeration)
from forcelab.dctrees import bounded_functional, evens_functional, t_of_f
from forcelab.errors import EnumerationDepthCap
from forcelab.posets import check_poset_laws
from forcelab.qtree import finite_subset_lattice, lambda_tree

_ENUM_DEPTH_CAP = 1000


def block_builder_enumeration(x, extends_ok):
    items: list[tuple] = [()]
    built = [0]  # codes covered by the blocks in ``items``

    def block(k: int) -> list[tuple]:
        codes = [x.enum(i) for i in range(k)]
        out: list[tuple] = []
        level: list[tuple[tuple[int, ...], tuple]] = [((), ())]
        while level:
            longer = []
            for idx, prefix in level:
                for i in range(k):
                    if i not in idx and extends_ok(prefix, codes[i]):
                        longer.append((idx + (i,), prefix + (codes[i],)))
            out.extend(t for idx, t in longer if k - 1 in idx)
            level = longer
        return out

    def enum(n: int) -> tuple:
        while len(items) <= n:
            k = built[0] + 1
            if k > _ENUM_DEPTH_CAP:
                raise EnumerationDepthCap(
                    f"enumeration needs more than {_ENUM_DEPTH_CAP} codes; "
                    "carrier may be finite")
            items.extend(block(k))
            built[0] = k
        return items[n]

    return enum


NAT = nat_set()
SETS = {"nat": NAT, "pairs": pairs_set()}
BOUNDARIES = (65, 326, 1957, 13_700)


def _coll_ok(prefix, c):
    return c not in prefix


@lru_cache(maxsize=None)
def coll_oracle(name: str) -> tuple:
    enum = block_builder_enumeration(SETS[name], _coll_ok)
    return tuple(enum(n) for n in range(BOUNDARIES[-1] + 3))


def _lattice_ok(lat):
    return lambda prefix, c: lat.lt(c, prefix[-1]) if prefix else True


def _trees():
    """name -> (fresh lazy enumeration, block-builder enumeration)."""
    lat = finite_subset_lattice(NAT)
    trees = {}
    for name, build in (("evens", evens_functional), ("bounded", bounded_functional)):
        f = build(NAT)
        trees[f"T({name})"] = (lambda f=f: t_of_f(NAT, f).enum,
                               block_builder_enumeration(NAT, f.member))
    trees["lattice"] = (lambda: lambda_tree(lat).enum,
                        block_builder_enumeration(CountableSet(lat.name, lat.enum),
                                                  _lattice_ok(lat)))
    return trees


TREES = _trees()


@lru_cache(maxsize=None)
def tree_oracle(name: str) -> tuple:
    enum = TREES[name][1]
    return tuple(enum(n) for n in range(2000))


class TestSameOrderAsTheBlockBuilder:
    @pytest.mark.parametrize("name", sorted(SETS))
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_fresh_cut_near_each_boundary(self, name, boundary):
        oracle = coll_oracle(name)
        for n in range(boundary - 2, boundary + 3):
            assert coll_poset(SETS[name]).enum(n) == oracle[n], n

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_one_walk_lists_the_whole_prefix(self, name):
        enum = coll_poset(SETS[name]).enum
        assert tuple(enum(n) for n in range(BOUNDARIES[-1] + 3)) == coll_oracle(name)

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_first_2000_in_order(self, name):
        enum = TREES[name][0]()
        assert tuple(enum(n) for n in range(2000)) == tree_oracle(name)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(TREES)),
           st.lists(st.integers(0, 1999), min_size=1, max_size=40))
    def test_first_2000_in_random_order(self, name, queries):
        enum = TREES[name][0]()
        oracle = tree_oracle(name)
        for n in queries:
            assert enum(n) == oracle[n], n


class TestRetryAfterARaise:
    @pytest.mark.parametrize("fail_at", [1, 2, 7, 50, 300, 2000, 2372])
    def test_predicate_that_raises_once(self, fail_at):
        calls = [0]

        def flaky(prefix, c):
            calls[0] += 1
            if calls[0] == fail_at:
                raise RuntimeError("flaky predicate")
            return True

        enum = prefix_enumeration(NAT, flaky)
        with pytest.raises(RuntimeError, match="flaky"):
            enum(1957)
        untouched = prefix_enumeration(NAT, lambda prefix, c: True)
        assert [enum(n) for n in range(2000)] == [untouched(n) for n in range(2000)]

    @pytest.mark.parametrize("fail_at", [0, 3, 6])
    def test_enumeration_that_raises_once(self, fail_at):
        seen = set()

        def enum_once(i):
            if i == fail_at and i not in seen:
                seen.add(i)
                raise RuntimeError("flaky enum")
            return i

        enum = prefix_enumeration(CountableSet("flaky", enum_once), _coll_ok)
        with pytest.raises(RuntimeError, match="flaky"):
            enum(1957)
        assert [enum(n) for n in range(2000)] == list(coll_oracle("nat")[:2000])

    def test_depth_cap_raises_on_every_call(self, monkeypatch):
        monkeypatch.setattr(collapse, "_ENUM_DEPTH_CAP", 4)
        enum = prefix_enumeration(NAT, lambda prefix, c: not prefix)
        assert [enum(n) for n in range(5)] == [(), (0,), (1,), (2,), (3,)]
        for _ in range(3):
            with pytest.raises(EnumerationDepthCap):
                enum(5)
        assert enum(4) == (3,)


def test_first_1958_tuples_take_at_most_2400_predicate_calls():
    calls = [0]

    def counting(prefix, c):
        calls[0] += 1
        return True

    enum = prefix_enumeration(NAT, counting)
    assert enum(1957) == (6,)
    assert calls[0] <= 2400  # 2,372; the block builder made 16,064


def test_repeating_enum_breaks_the_distinct_codes_contract():
    # every code at three indices: coll enumerates the tuple (0,) once per
    # index of 0, and the law check names the repeat
    thrice = CountableSet("nat-thrice", lambda n: n // 3, index=NAT.index)
    with pytest.raises(AssertionError,
                       match=r"^leq not antisymmetric on \(0,\), \(0,\)$"):
        check_poset_laws(coll_poset(thrice), 120)


class TestNegativeIndices:
    """An enumeration is defined on the naturals only.  A negative n read
    the item lists from the end: ``enum(-1)`` gave whichever tuple the walk
    had listed last, and the subset lattice's ``enum(-1)`` was the empty
    set, outside its carrier."""

    @pytest.mark.parametrize("make", [
        lambda: coll_poset(nat_set()).enum,
        lambda: coll_poset(pairs_set()).enum,
        lambda: t_of_f(nat_set(), evens_functional(nat_set())).enum,
        lambda: finite_subset_lattice(nat_set()).enum,
    ])
    @pytest.mark.parametrize("n", [-1, -2, -31])
    def test_refused_fresh_and_after_a_walk(self, make, n):
        enum = make()
        with pytest.raises(ValueError, match="negative enumeration index"):
            enum(n)
        listed = [enum(k) for k in range(31)]
        with pytest.raises(ValueError, match="negative enumeration index"):
            enum(n)
        assert [enum(k) for k in range(31)] == listed

    def test_prefix_enumeration_refuses_before_walking(self):
        calls = [0]

        def counting(prefix, code):
            calls[0] += 1
            return True

        enum = prefix_enumeration(NAT, counting)
        with pytest.raises(ValueError, match="negative enumeration index -1"):
            enum(-1)
        assert calls[0] == 0
        assert enum(0) == ()
