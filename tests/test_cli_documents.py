"""CLI documents are written as ``json.dumps(doc, indent=2, sort_keys=True)``.

``cli`` writes each document through its own emitter; the stdlib indent
path is the oracle here and nowhere else.  ``tests/golden/cli_outputs.txt``
was written by the stdlib path before the emitter existed; ``python
tests/test_cli_documents.py`` rewrites it from the code on ``sys.path``,
for a deliberate change of output only.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.txt"

GOLDEN_ARGV = [
    ["coll-run"],
    ["coll-run", "--set", "nat", "--n", "0"],
    ["coll-run", "--set", "nat", "--n", "60"],
    ["coll-run", "--set", "evens", "--n", "30"],
    ["coll-run", "--set", "pairs", "--n", "30"],
    ["dc-run"],
    ["dc-run", "--set", "nat", "--functional", "seq", "--n", "25"],
    ["dc-run", "--set", "evens", "--functional", "evens", "--n", "15"],
    ["dc-run", "--set", "pairs", "--functional", "bounded", "--n", "15"],
    ["dc-run", "--set", "nat", "--functional", "const", "--n", "3"],
    ["marker-run"],
    ["marker-run", "--set", "evens", "--functional", "cycle2", "--n", "12"],
    ["marker-run", "--set", "pairs", "--functional", "cycle3", "--n", "9"],
    ["density-check"],
    ["density-check", "--set", "nat", "--i", "3", "--frag", "2000"],
    ["iso-roundtrip"],
    ["iso-roundtrip", "--len", "10", "--seed", "7", "--cases", "40"],
    ["oracle-check"],
    ["oracle-check", "--seed", "3", "--cases", "10"],
    ["levy-run", "--alpha", "w*1 + 1"],
    ["coll-run", "--set", "reals", "--n", "3"],
]


def stdout_of(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def cli_outputs_text() -> str:
    out = []
    for argv in GOLDEN_ARGV:
        status, text = stdout_of(argv)
        out.append(f"# {' '.join(argv)} exit {status}\n{text}")
    return "".join(out)


def stdlib_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_cli_stdout_is_golden():
    assert cli_outputs_text() == GOLDEN.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the emitter against the stdlib indent path
# ---------------------------------------------------------------------------

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10**60, 10**60) | st.floats()
           | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, 5e-324])
           | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é☃𝄞", "a\u2028b"]))
KEYS = st.text(max_size=6) | st.sampled_from(['"q"', "\n", "é", "", "a b"])
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=6)),
    max_leaves=40)
ROW_TEXT = st.sampled_from(["]", "[", "],", "],\n  [", "]]", ""]) | st.text(max_size=4)
ROWS = st.lists(st.lists(SCALARS | ROW_TEXT, min_size=1, max_size=4)
                | st.tuples(st.integers(), st.integers()), min_size=1, max_size=8)


class TestEmitter:
    @settings(max_examples=400, deadline=None)
    @given(DOCUMENTS)
    def test_bytes_equal_the_stdlib(self, doc):
        assert cli._dumps(doc) == stdlib_text(doc)

    @settings(max_examples=200, deadline=None)
    @given(ROWS, st.integers(0, 3))
    def test_rows_of_scalars_equal_the_stdlib(self, rows, depth):
        doc = rows
        for _ in range(depth):
            doc = {"k": doc, "n": 1}
        assert cli._dumps(doc) == stdlib_text(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), [[1], []], [[], [1]], [["]", "["], ["],"]], [(1, 2), [3]],
        [[1, [2]], [3]], [[0, 0], [1, 0], [0, 1]], {"items": [[0, 0], (1, 0)]}, {"a": []}, {"a": {}}, [[], {}, ()], {"a": [[[]]]},
        {"n": True, "m": 1, "f": False, "z": 0}, [True, 1, False, 0, 1.0],
        {"big": 10**200, "neg": -10**40}, [math.nan, math.inf, -math.inf, 1e16, 0.1],
        {"é": "☃", "\x00": "\x1f", '"': "\\"}, {"b": 1, "a": 2, "B": 3, "": 4},
        [{"k": [1, (2, 3)]}, ({"k": None},)], {"deep": [[[[[[[[[[0]]]]]]]]]]},
    ])
    def test_edge_documents(self, doc):
        assert cli._dumps(doc) == stdlib_text(doc)

    @pytest.mark.parametrize("doc", [
        {"a": object()}, {"a": [1, object()]}, {"a": [[1], {1, 2}]},
        [frozenset()], {"a": {"b": b"bytes"}}, object(),
    ])
    def test_unsupported_values_raise_the_stdlib_type_error(self, doc):
        with pytest.raises(TypeError) as ours:
            cli._dumps(doc)
        with pytest.raises(TypeError) as theirs:
            stdlib_text(doc)
        assert str(ours.value) == str(theirs.value)

    def test_python_calls_do_not_grow_with_a_list_of_scalars(self, monkeypatch, capsys):
        """A list of ints is one C encoder call: writing 10,000 of them
        makes the same Python-level calls as writing 10.

        The cyclic collector is off while the calls are counted: a
        collection that a write happens to trigger runs the finalizers and
        weakref callbacks of whatever garbage earlier tests left, Python
        code that the write did not call."""
        def calls_to_write(n):
            doc = {"items": list(range(n)), "set": "nat"}
            monkeypatch.setattr(cli, "run", lambda cfg: (0, doc))
            calls = collections.Counter()

            def profile(frame, event, arg):
                if event == "call":
                    code = frame.f_code
                    calls[code.co_filename, code.co_firstlineno, code.co_name] += 1

            collecting = gc.isenabled()
            gc.collect()
            gc.disable()
            sys.setprofile(profile)
            try:
                cli.main(["coll-run"])
            finally:
                sys.setprofile(None)
                if collecting:
                    gc.enable()
            assert capsys.readouterr().out == stdlib_text(doc)
            return calls

        calls_to_write(10)  # builds the parser and the encoders once
        small, large = calls_to_write(10), calls_to_write(10_000)
        assert large == small
        assert sum(small.values()) < 100


# ---------------------------------------------------------------------------
# every command's document
# ---------------------------------------------------------------------------

def _sweep_argv() -> list[list[str]]:
    argvs = []
    for xset in ("nat", "evens", "pairs"):
        for n in ("0", "1", "12"):
            argvs.append(["coll-run", "--set", xset, "--n", n])
            for functional in ("seq", "evens", "bounded"):
                argvs.append(["dc-run", "--set", xset, "--functional", functional, "--n", n])
            for functional in ("const", "cycle2", "cycle3", "seq"):
                argvs.append(["marker-run", "--set", xset, "--functional", functional,
                              "--n", n])
        for alpha in ("w*2", "w^2", "w*1 + 1", "3"):
            argvs.append(["levy-run", "--set", xset, "--alpha", alpha])
        for i, frag in (("1", "20"), ("3", "200"), ("3", "2000")):
            argvs.append(["density-check", "--set", xset, "--i", i, "--frag", frag])
    return argvs + [
        ["iso-roundtrip", "--len", "30", "--cases", "15", "--seed", "4"],
        ["oracle-check", "--seed", "5", "--cases", "6"],
        ["coll-run", "--set", "reals"], ["coll-run", "--n", "-1"],
        ["dc-run", "--functional", "const"], ["levy-run", "--alpha", "w*é"],
        ["oracle-check", "--size", "99"],
    ]


@pytest.mark.parametrize("argv", _sweep_argv(), ids=" ".join)
def test_stdout_is_the_stdlib_text_of_the_document(argv):
    expected_status, doc = cli.run(cli.build_config(argv))
    status, text = stdout_of(argv)
    assert (status, text) == (expected_status, stdlib_text(doc))


def test_out_file_holds_the_stdout_bytes(tmp_path):
    argv = ["coll-run", "--set", "pairs", "--n", "20"]
    path = tmp_path / "doc.json"
    assert stdout_of([*argv, "--out", str(path)]) == (0, "")
    assert path.read_bytes() == stdout_of(argv)[1].encode("utf-8")


def test_out_error_document_is_the_stdlib_text(tmp_path):
    status, text = stdout_of(["coll-run", "--out", str(tmp_path)])
    assert status == 2
    doc = json.loads(text)
    assert doc["error"] == "bad-config"
    assert text == stdlib_text(doc)


# ---------------------------------------------------------------------------
# one json.dumps call per document, as perfbench's tracing proxy counts them
# ---------------------------------------------------------------------------

class _CountingJson:
    """Stands in for the ``json`` module inside ``forcelab.cli``."""

    def __init__(self):
        self.calls = 0

    def dumps(self, *args, **kwargs):
        self.calls += 1
        return json.dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


@pytest.mark.parametrize("argv", [
    ["coll-run", "--set", "pairs", "--n", "30"],
    ["marker-run", "--n", "20"],
    ["density-check", "--i", "3", "--frag", "2000"],
    ["levy-run", "--alpha", "w*1 + 1"],
    ["coll-run", "--set", "reals"],
])
def test_one_dumps_call_per_document(argv, monkeypatch):
    proxy = _CountingJson()
    monkeypatch.setattr(cli, "json", proxy)
    status, text = stdout_of(argv)
    assert proxy.calls == 1
    assert text == stdlib_text(json.loads(text))


def test_an_unwritable_out_formats_two_documents(tmp_path, monkeypatch):
    """The document it could not write, then the error it prints."""
    proxy = _CountingJson()
    monkeypatch.setattr(cli, "json", proxy)
    assert stdout_of(["coll-run", "--out", str(tmp_path)])[0] == 2
    assert proxy.calls == 2


if __name__ == "__main__":
    GOLDEN.write_text(cli_outputs_text(), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
