"""The built-in sets' codes: ints and pairs of ints, never bools, and only
at non-negative indices; and the JSON form of codes and runs."""

from __future__ import annotations

import sys

import pytest

from forcelab import dctrees, posets
from forcelab.collapse import (InjSeq, builtin_set, coll_poset, evens_set, inj_seq_json,
                               injection_to_generic, level_family, nat_set,
                               pairs_set)
from forcelab.posets import Grown, _jsonable, grow


class TestBoolIsNotACode:
    def test_nat(self):
        assert not nat_set().contains(True)
        assert not nat_set().contains(False)
        with pytest.raises(ValueError):
            nat_set().index_of(True)

    def test_evens(self):
        assert not evens_set().contains(False)
        assert not evens_set().contains(True)

    def test_pairs(self):
        assert not pairs_set().contains((True, 0))
        assert not pairs_set().contains((0, False))
        assert pairs_set().contains((0, 0))

    def test_coll_carrier(self):
        assert not coll_poset(nat_set()).carrier((True, 2))
        assert coll_poset(nat_set()).carrier((1, 2))

    def test_ints_are_still_codes(self):
        assert nat_set().index_of(5) == 5
        assert evens_set().index_of(10) == 5
        assert pairs_set().index_of(pairs_set().enum(17)) == 17


class TestNegativeEnumIndex:
    @pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
    @pytest.mark.parametrize("n", [-1, -3])
    def test_refused_by_name(self, name, n):
        with pytest.raises(ValueError, match=f"^negative enumeration index {n}$"):
            builtin_set(name).enum(n)

    @pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
    def test_zero_and_up_unchanged(self, name):
        x = builtin_set(name)
        assert [x.index_of(x.enum(i)) for i in range(50)] == list(range(50))
        assert x.enum(0) == {"nat": 0, "evens": 0, "pairs": (0, 0)}[name]


class TestMet:
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_engine_meets_goal_i_at_position_i_plus_1(self, n):
        x = nat_set()
        run = posets.rasiowa_sikorski(coll_poset(x), level_family(x, n), (), n)
        assert run.met == tuple((i, i + 1) for i in range(n))

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_injection_meets_goal_i_at_position_i_plus_1(self, n):
        run = injection_to_generic(nat_set(), lambda i: i, n)
        assert run.met == tuple((i, i + 1) for i in range(n))

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    @pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
    def test_injection_run_is_the_engine_run(self, name, n):
        x = builtin_set(name)
        inj = injection_to_generic(x, [x.enum(i) for i in range(n)], n)
        run = posets.rasiowa_sikorski(coll_poset(x), level_family(x, n), (), n)
        assert inj == run and hash(inj) == hash(run)
        assert inj.met == run.met == tuple((i, i + 1) for i in range(n))
        assert posets.run_trace_json(inj) == posets.run_trace_json(run)

    def test_a_run_stores_only_its_poset_and_chain(self):
        run = posets.GenericRun(poset="Coll(w,nat)", chain=((), (0,)))
        assert run == posets.GenericRun("Coll(w,nat)", ((), (0,)))
        with pytest.raises(TypeError):
            posets.GenericRun("Coll(w,nat)", ((), (0,)), ((0, 1),))


class TestJsonable:
    @pytest.mark.parametrize("code, expected", [
        ((), []), ((3, 1, 4), [3, 1, 4]), (("a", None, True, 1.5), ["a", None, True, 1.5]),
        (((0, 1), (2, 0)), [[0, 1], [2, 0]]), ((1, (2, (3,))), [1, [2, [3]]]),
        (frozenset({3, 1}), [1, 3]), ((frozenset({(1, 2), (0, 5)}),), [[[0, 5], [1, 2]]]),
        (7, 7), ("s", "s"),
    ])
    def test_forms(self, code, expected):
        assert _jsonable(code) == expected

    def test_grown_view_is_a_fresh_list(self):
        view = grow(grow((5,), [6]), [7])
        assert type(view) is Grown
        out = _jsonable(view)
        assert out == [5, 6, 7] and type(out) is list and out is not view.buf
        assert _jsonable(Grown(view.buf, 2)) == [5, 6]

    @pytest.mark.parametrize("make_doc", [
        lambda: inj_seq_json(nat_set(), InjSeq(range(2000))),
        lambda: dctrees.witness_json(dctrees.f_seq(nat_set()), tuple(range(2000))),
    ])
    def test_one_jsonable_call_for_a_sequence_of_scalars(self, make_doc):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is _jsonable.__code__:
                calls[0] += 1

        sys.setprofile(profile)
        try:
            doc = make_doc()
        finally:
            sys.setprofile(None)
        assert calls[0] == 1
        assert list(doc.values())[-1] == list(range(2000))

    def test_pairs_items_are_lists(self):
        x = pairs_set()
        doc = inj_seq_json(x, InjSeq([x.enum(i) for i in range(5)]))
        assert doc == {"set": "pairs", "items": [list(x.enum(i)) for i in range(5)]}
