"""The one resumable suffix fold and the three sequence-tree oracles built on it.

``posets.SuffixFold`` is checked against its contract with a fold that
records what it was given.  Its users are checked by counting ``index_of``
calls on a wrapped ``nat``, and the fresh-code functionals on a set whose
codes are decimal strings, not ints.
"""

import pytest

from forcelab import collapse
from forcelab.cli import RunConfig, run
from forcelab.collapse import CountableSet, level_dense
from forcelab.dctrees import (bounded_functional, evens_functional, f_seq,
                              tree_level_family)
from forcelab.posets import SuffixFold


def recording_fold():
    """A SuffixFold whose state is the list of elements folded so far.

    ``seen`` lists the suffixes the fold was given; an element "bad" makes
    it raise after the elements before it were appended in place.
    """
    seen = []

    def fold(state, suffix):
        seen.append(tuple(suffix))
        for c in suffix:
            if c == "bad":
                raise ValueError("bad element")
            state.append(c)
        return state

    return SuffixFold(list, fold), seen


class TestContract:
    def test_same_tuple_costs_nothing(self):
        fs, seen = recording_fold()
        t = (1, 2, 3)
        first = fs.fold_state(t)
        assert first == [1, 2, 3] and seen == [(1, 2, 3)]
        assert fs.fold_state(t) is first and seen == [(1, 2, 3)]

    def test_extension_folds_only_the_suffix(self):
        fs, seen = recording_fold()
        fs.fold_state((1, 2))
        assert fs.fold_state((1, 2, 3, 4)) == [1, 2, 3, 4]
        assert seen == [(1, 2), (3, 4)]

    def test_branch_folds_from_start(self):
        fs, seen = recording_fold()
        fs.fold_state((1, 2, 3))
        assert fs.fold_state((1, 5)) == [1, 5]
        assert fs.fold_state((1, 5, 6)) == [1, 5, 6]
        assert seen == [(1, 2, 3), (1, 5), (6,)]

    def test_a_list_is_folded_but_never_kept(self):
        fs, seen = recording_fold()
        u = [1, 2]
        assert fs.fold_state(u) == [1, 2]
        u.append(3)
        assert fs.fold_state(u) == [1, 2, 3]
        assert fs.fold_state((1, 2, 3, 4)) == [1, 2, 3, 4]
        assert seen == [(1, 2), (1, 2, 3), (1, 2, 3, 4)]

    def test_a_raise_keeps_nothing_stale(self):
        fs, _ = recording_fold()
        fs.fold_state((1,))
        with pytest.raises(ValueError):
            fs.fold_state((1, 2, "bad"))
        assert fs.fold_state((1,)) == [1]
        assert fs.fold_state((1, 4)) == [1, 4]

    def test_a_raise_keeps_nothing_stale_for_the_shared_empty_tuple(self):
        fs, _ = recording_fold()
        assert fs.fold_state(()) == []
        with pytest.raises(ValueError):
            fs.fold_state((7, "bad"))
        assert fs.fold_state(tuple([])) == []

    def test_keep_records_a_built_tuple(self):
        fs, seen = recording_fold()
        t = (1, 2)
        fs.keep(t, ["kept"])
        assert fs.fold_state(t) == ["kept"] and seen == []
        assert fs.fold_state(t + (3,)) == ["kept", 3] and seen == [(3,)]
        fs.keep([9], ["list"])
        assert fs.fold_state([9]) == [9]


def counting_nat():
    calls = [0]

    def index(v):
        calls[0] += 1
        return v if isinstance(v, int) and v >= 0 else None

    return CountableSet("nat", lambda n: n, index=index), calls


@pytest.mark.parametrize("i", [1, 3])
def test_level_extender_scans_only_new_codes(i):
    """Fed its own output, the extender knows the fresh bound; fed an
    extension of it, it reads the index of each new code once."""
    x, calls = counting_nat()
    extend = level_dense(x, i).extend
    p = extend((4, 1))
    assert calls[0] == 2
    q = extend(p)
    assert calls[0] == 2
    suffix = (40, 17, 23)
    r = extend(q + suffix)
    assert calls[0] == 2 + len(suffix)
    assert r == q + suffix + tuple(range(41, 41 + i))


def test_coll_run_makes_no_index_of_calls(monkeypatch):
    x, calls = counting_nat()
    monkeypatch.setitem(collapse._BUILTINS, "nat", lambda: x)
    status, doc = run(RunConfig("coll-run", {"set": "nat", "n": 2000}))
    assert status == 0 and doc["items"] == list(range(2000))
    assert calls[0] == 0


def _decimal_index(v):
    return int(v) if type(v) is str and v.isdigit() and str(int(v)) == v else None


# code n is the string str(n); the int n is no code of this set
DECIMALS = CountableSet("decimals", str, index=_decimal_index)


@pytest.mark.parametrize("build", [f_seq, evens_functional, bounded_functional])
def test_member_compares_used_codes_by_equality(build):
    f = build(DECIMALS)
    assert not f.member(("0",), "0") and not f.member(("0", "2"), "2")
    assert f.member(("0",), "2") and f.member(["0"], "2")
    assert not f.member(("0",), 2) and not f.member(("0",), "02")
    assert f.select(("0",)) == ("2" if build is evens_functional else "1")


@pytest.mark.parametrize("build", [f_seq, evens_functional, bounded_functional])
def test_select_skips_used_codes(build):
    f = build(DECIMALS)
    step = 2 if build is evens_functional else 1
    assert f.select(("0",)) == str(step)
    assert f.select(("0", str(step))) == str(2 * step)
    assert tree_level_family(f, 3)[2].extend(("0",)) == ("0", str(step), str(2 * step))


class NoIteration:
    """A sequence that answers ``in`` and ``len`` by itself and refuses to
    be iterated."""

    def __init__(self, items):
        self.items = set(items)

    def __contains__(self, v):
        return v in self.items

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        raise AssertionError("iterated")


@pytest.mark.parametrize("build", [f_seq, evens_functional, bounded_functional])
def test_member_tests_a_non_tuple_with_in(build):
    """Folding a sequence that is never kept would build a set from it: for
    a range that turns an O(1) ``in`` into O(len)."""
    f = build(collapse.nat_set())
    t = NoIteration({0, 1, 2})
    assert not f.member(t, 2)
    assert f.member(t, 4)
