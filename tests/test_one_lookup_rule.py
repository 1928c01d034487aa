"""One rule for a failed lookup in a countable set.

``CountableSet.index_or_none`` is ``index_of`` with ``ValueError`` (a set
with ``index`` that does not list the code) and ``IndexScanCap`` (a set
without one whose scan gave up) read as None.  ``contains``, the Lévy
functional and the fresh-code functionals ask it, and it calls through
``index_of``, so a wrapped or patched ``index_of`` still sees every lookup.
"""

import ast
import contextlib
import io
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import cli, collapse
from forcelab.collapse import CountableSet, evens_set, nat_set, pairs_set
from forcelab.errors import IndexScanCap

SRC = Path(__file__).resolve().parents[1] / "src" / "forcelab"


def scan_nat():
    return CountableSet("nat-scan", lambda n: n)


class TestIndexOrNone:
    @pytest.mark.parametrize("code", [-1, "3", None, (1, 2), 2.5])
    def test_none_where_index_refuses(self, code):
        x = nat_set()
        with pytest.raises(ValueError):
            x.index_of(code)
        assert x.index_or_none(code) is None

    def test_none_where_the_scan_gives_up(self, monkeypatch):
        monkeypatch.setattr(collapse, "_INDEX_SCAN_CAP", 5)
        x = scan_nat()
        with pytest.raises(IndexScanCap):
            x.index_of(7)
        assert x.index_or_none(7) is None
        assert x.index_or_none(4) == 4

    @pytest.mark.parametrize("error", [TypeError, KeyError, RuntimeError])
    def test_other_errors_of_index_propagate(self, error):
        def index(v):
            raise error("broken index")

        x = CountableSet("broken", lambda n: n, index=index)
        with pytest.raises(error):
            x.index_or_none(3)
        with pytest.raises(error):
            x.contains(3)

    def test_other_errors_of_a_scan_propagate(self):
        def enum(n):
            if n == 3:
                raise RuntimeError("broken enum")
            return n

        x = CountableSet("broken-scan", enum)
        assert x.index_or_none(2) == 2
        with pytest.raises(RuntimeError):
            x.index_or_none(5)

    def test_calls_through_index_of(self, monkeypatch):
        seen = []
        lookup = CountableSet.index_of

        def recording(self, code):
            seen.append(code)
            return lookup(self, code)

        monkeypatch.setattr(CountableSet, "index_of", recording)
        x = nat_set()
        assert x.index_or_none(4) == 4 and x.index_or_none(-4) is None
        assert x.contains(5) and not x.contains(-5)
        assert seen == [4, -4, 5, -5]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["nat", "evens", "pairs", "scan"]),
           st.one_of(st.integers(-5, 80),
                     st.tuples(st.integers(-2, 9), st.integers(-2, 9)),
                     st.booleans(), st.none(), st.text(max_size=3),
                     st.floats(allow_nan=False)))
    def test_contains_is_index_or_none_is_not_none(self, name, code):
        x = {"nat": nat_set, "evens": evens_set, "pairs": pairs_set,
             "scan": scan_nat}[name]()
        with mock.patch.object(collapse, "_INDEX_SCAN_CAP", 60):
            i = x.index_or_none(code)
            assert x.contains(code) == (i is not None)
        if i is not None:
            assert x.enum(i) == code


def test_the_rule_is_written_once():
    """Only ``index_or_none`` catches a failed lookup by both errors."""
    catchers = []

    def visit(node, module, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.ExceptHandler) and node.type is not None
                and "IndexScanCap" in ast.unparse(node.type)):
            catchers.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert catchers == [("collapse.py", "index_or_none")]
    assert "IndexScanCap" not in (SRC / "levy.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("functional", ["seq", "evens", "bounded"])
@pytest.mark.parametrize("name", ["nat", "evens", "pairs"])
def test_dc_run_asks_once_per_member_call(monkeypatch, functional, name):
    """``dc-run --n 300`` checks each selected code with one ``member``
    call, which asks x once; ``evens`` and ``bounded`` asked twice (600)."""
    calls = [0]
    lookup = CountableSet.index_of

    def counting(self, code):
        calls[0] += 1
        return lookup(self, code)

    monkeypatch.setattr(CountableSet, "index_of", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["dc-run", "--set", name, "--functional", functional,
                           "--n", "300"])
    assert status == 0
    assert calls[0] == 300
