"""The cached argument parser, the named error of the enumeration depth cap,
and no named error that nothing raises."""

import ast
import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from forcelab import cli, collapse, errors
from forcelab.collapse import nat_set, prefix_enumeration
from forcelab.errors import ContractError, EnumerationDepthCap

ARGVS = [
    ["coll-run", "--set", "nat", "--n", "5"],
    ["coll-run", "--n", "7", "--out", "x.json"],
    ["dc-run", "--set", "pairs", "--functional", "evens", "--n", "3"],
    ["marker-run", "--functional", "cycle3"],
    ["levy-run", "--alpha", "w*2"],
    ["density-check", "--i", "3", "--frag", "200"],
    ["oracle-check", "--seed", "3", "--cases", "4", "--size", "9"],
    ["iso-roundtrip", "--len", "4"],
    # bad argv: argparse exits 2
    [],
    ["no-such-command"],
    ["coll-run", "--n", "five"],
    ["coll-run", "--frag", "3"],
    ["dc-run", "--n"],
    ["--help-me"],
]


def parse(argv):
    """build_config's RunConfig, or the exit code argparse raised."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_config(argv)
        except SystemExit as exc:
            return ("exit", exc.code)


class TestParserCache:
    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_many_calls_match_a_fresh_parser(self):
        expected = []
        for argv in ARGVS:
            cli._parser.cache_clear()
            expected.append(parse(argv))
        assert expected[0] == cli.RunConfig("coll-run", {"set": "nat", "n": 5})
        assert expected[1].output_path == "x.json"
        assert expected[-1] == ("exit", 2)
        rng = random.Random(7)
        order = list(range(len(ARGVS))) * 4
        rng.shuffle(order)
        for k in order:
            assert parse(ARGVS[k]) == expected[k]


def main_doc(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, json.loads(buf.getvalue())


class TestEnumerationDepthCap:
    def test_finite_family_raises_named_error(self):
        enum = prefix_enumeration(nat_set(), lambda prefix, c: False)
        assert enum(0) == ()
        with pytest.raises(EnumerationDepthCap) as err:
            enum(1)
        assert err.value.code == "enumeration-depth-cap"
        assert isinstance(err.value, ContractError)

    def test_cli_exit_1_with_code(self, monkeypatch):
        """A fragment of 200 needs block 5 of the nat enumeration."""
        monkeypatch.setattr(collapse, "_ENUM_DEPTH_CAP", 4)
        status, doc = main_doc(["density-check", "--i", "1", "--frag", "200"])
        assert (status, doc["error"]) == (1, "enumeration-depth-cap")
        status, doc = main_doc(["density-check", "--i", "1", "--frag", "65"])
        assert (status, doc["dense"]) == (0, True)


def test_every_named_error_is_raised():
    """Each ``ContractError`` subclass in ``errors.py`` is named by a
    ``raise`` in ``src/forcelab``, so no error code is dead."""
    raised = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "forcelab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rsplit(".", 1)[-1])
    named = {c.__name__ for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.ContractError)
             and c is not errors.ContractError}
    assert "NotInjective" in named and sorted(named - raised) == []
