"""One rule for a failed lookup in a countable set.

``CountableSet.index_or_none`` is the set's ``index`` with a ``ValueError``
read as None, the two answers ``index_of`` turns into its ``ValueError``.
``contains``, the Lévy functional and the fresh-code functionals ask it,
and it calls ``index`` directly, one frame per lookup, so a counting
``index`` sees every lookup.  Every set carries ``index``, so a lookup is
always decided.
"""


import ast
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import cli, collapse
from forcelab.collapse import CountableSet, evens_set, nat_set, pairs_set

SRC = Path(__file__).resolve().parents[1] / "src" / "forcelab"


class TestIndexOrNone:
    @pytest.mark.parametrize("code", [-1, "3", None, (1, 2), 2.5])
    def test_none_where_index_refuses(self, code):
        x = nat_set()
        with pytest.raises(ValueError):
            x.index_of(code)
        assert x.index_or_none(code) is None

    @pytest.mark.parametrize("error", [TypeError, KeyError, RuntimeError])
    def test_other_errors_of_index_propagate(self, error):
        def index(v):
            raise error("broken index")

        x = CountableSet("broken", lambda n: n, index=index)
        with pytest.raises(error):
            x.index_or_none(3)
        with pytest.raises(error):
            x.contains(3)

    def test_calls_index_once_per_lookup(self):
        seen = []
        nat = nat_set()
        x = CountableSet("nat", nat.enum, index=lambda code: seen.append(code) or nat.index(code))
        assert x.index_or_none(4) == 4 and x.index_or_none(-4) is None
        assert x.contains(5) and not x.contains(-5)
        assert seen == [4, -4, 5, -5]

    def test_a_value_error_of_index_reads_as_none(self):
        def index(v):
            raise ValueError("not listed")

        x = CountableSet("refusing", lambda n: n, index=index)
        assert x.index_or_none(3) is None and not x.contains(3)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["nat", "evens", "pairs"]),
           st.one_of(st.integers(-5, 80),
                     st.tuples(st.integers(-2, 9), st.integers(-2, 9)),
                     st.booleans(), st.none(), st.text(max_size=3),
                     st.floats(allow_nan=False)))
    def test_contains_is_index_or_none_is_not_none(self, name, code):
        x = {"nat": nat_set, "evens": evens_set, "pairs": pairs_set}[name]()
        i = x.index_or_none(code)
        assert x.contains(code) == (i is not None)
        if i is not None:
            assert x.enum(i) == code


def test_a_set_cannot_be_built_without_its_inverse():
    with pytest.raises(TypeError):
        CountableSet("s", lambda n: n)


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
    return bool(names & {"ValueError", "Exception", "BaseException"})


def test_the_rule_is_written_once():
    """``index_or_none`` is the only handler in ``src/`` of a lookup's
    ``ValueError``: no other ``try`` that calls ``index_of`` or ``index``
    catches it."""
    handlers = []

    def visit(node, module, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Try):
            called = {n.func.attr for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
            if called & {"index_of", "index"} and any(map(_catches_value_error, node.handlers)):
                handlers.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert handlers == [("collapse.py", "index_or_none")]


@pytest.mark.parametrize("functional", ["seq", "evens", "bounded"])
@pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
def test_dc_run_asks_once_per_member_call(monkeypatch, functional, name):
    """``dc-run --n 300`` checks each selected code with one ``member``
    call, which asks x's ``index`` once; ``evens`` and ``bounded`` asked
    twice (600)."""
    calls = [0]
    builtin = collapse.builtin_set

    def counting(set_name):
        x = builtin(set_name)

        def index(code):
            calls[0] += 1
            return x.index(code)

        return CountableSet(x.name, x.enum, index)

    monkeypatch.setattr(collapse, "builtin_set", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["dc-run", "--set", name, "--functional", functional,
                           "--n", "300"])
    assert status == 0
    assert calls[0] == 300
