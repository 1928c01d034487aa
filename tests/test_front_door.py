"""The argv reader against argparse, help, the named error of the enumeration
depth cap, and no named error that nothing raises."""

import argparse
import ast
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import cli, collapse, errors
from forcelab.collapse import nat_set, prefix_enumeration
from forcelab.errors import ContractError, EnumerationDepthCap
from test_cli_fuzz import argvs

ROOT = Path(__file__).resolve().parent.parent

ARGVS = [
    ["coll-run", "--set", "nat", "--n", "5"],
    ["coll-run", "--n", "7", "--out", "x.json"],
    ["dc-run", "--set", "pairs", "--functional", "evens", "--n", "3"],
    ["marker-run", "--functional", "cycle3"],
    ["levy-run", "--alpha", "w*2"],
    ["density-check", "--i", "3", "--frag", "200"],
    ["oracle-check", "--seed", "3", "--cases", "4", "--size", "9"],
    ["iso-roundtrip", "--len", "4"],
    # bad argv: exit 2
    [],
    ["no-such-command"],
    ["coll-run", "--n", "five"],
    ["coll-run", "--frag", "3"],
    ["dc-run", "--n"],
    ["--help-me"],
]


# ---------------------------------------------------------------------------
# the oracle: the argparse parser that cli.build_config replaced
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs about a millisecond, most of an in-process run of a
    small command; ``parse_args`` keeps no state between calls.
    """
    parser = argparse.ArgumentParser(
        prog="forcelab",
        description="Run forcing-poset constructions and emit JSON traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, defaults) in cli._COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", dest="output_path", default=None)
        for flag, default in defaults.items():
            p.add_argument(f"--{flag}", type=type(default), default=None)
    return parser


_get_values = argparse.ArgumentParser._get_values


def _dashes_as_a_value(self, action, arg_strings):
    """argparse's values, with its [] for ``--flag=--`` mapped to "--".

    argparse drops the first "--" of a flag's strings; only "=--" hands a
    flag the strings ["--"], and so only "=--" gave [].  Given ["--", "--"],
    argparse converts "--" as the flag's value at the flag's turn: an int
    flag refuses it there, before any later help flag is read.
    """
    if arg_strings == ["--"] and action.option_strings:
        arg_strings = ["--", "--"]
    return _get_values(self, action, arg_strings)


def outcome(reader, argv):
    """``reader(argv)``: its result, or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return reader(list(argv))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def oracle(argv):
    """argparse's RunConfig for argv, as ``build_config`` built it from the
    namespace, or argparse's exit."""
    with mock.patch.object(argparse.ArgumentParser, "_get_values", _dashes_as_a_value):
        ns = _parser().parse_args(argv)
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "output_path") and v is not None}
    return cli.RunConfig(ns.command, params, ns.output_path)


def settled(result):
    """An outcome without its output: a RunConfig, or ("exit", code)."""
    return result if isinstance(result, cli.RunConfig) else result[:2]


def parse(argv):
    """build_config's RunConfig, or ("exit", code)."""
    return settled(outcome(cli.build_config, argv))


def agree(argv):
    """Both parsers' settled outcomes; build_config keeps the exit contract:
    help on stdout at exit 0, one line on stderr and nothing on stdout at 2."""
    got = outcome(cli.build_config, argv)
    if not isinstance(got, cli.RunConfig):
        _, code, out, err = got
        assert (code, bool(out), err.count("\n")) in ((0, True, 0), (2, False, 1)), got
    return settled(got), settled(outcome(oracle, argv))


FLAGS = sorted({"help", "out"} | {f for _, spec in cli._COMMANDS.values() for f in spec})
_prefix = st.sampled_from(FLAGS).flatmap(
    lambda f: st.integers(1, len(f)).map(lambda n: "--" + f[:n]))
_value = st.sampled_from(["nat", "evens", "seq", "w*2", "3", "0", "-5", "-1.5", "-1e3",
                          "- 1", "a b", "-x y", "", "--", "-", "x", "+3", " 3 ", "1_0",
                          "٣", "-٣", "-5\n", "h", "-h", "--h", "x.json"])
_token = st.one_of(
    _prefix, _value,
    st.tuples(_prefix, _value).map("=".join),
    st.sampled_from(["-h", "--h", "--he", "--hel", "--help", "-hh", "-hx", "-h=",
                     "-h=h", "-hh=h", "--help=", "--help=x", "--he=--", "--", "--=x",
                     "-", "-x", "--x", "--n 5", "---n", "--out", "--out=--"]))


@st.composite
def wild_argvs(draw):
    """A command (or not), then tokens from the flag vocabulary and noise."""
    head = draw(st.sampled_from([*cli._COMMANDS, "", "x", "-h", "--help", "--he",
                                 "--n", "--", "-", "-5", "-hx"]))
    return [head, *draw(st.lists(_token, max_size=8))]


class TestArgparseOracle:
    @settings(max_examples=2500, deadline=None)
    @given(st.one_of(argvs(), wild_argvs()))
    def test_parses_as_argparse(self, argv):
        got, want = agree(argv)
        if argv[0] in cli._COMMANDS:
            assert got == want
        else:
            assert not isinstance(got, cli.RunConfig)
            assert not isinstance(want, cli.RunConfig)

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["-hh"], ["coll-run", "--fr"],
        ["oracle-check", "--s", "1"], ["oracle-check", "-h", "--s", "1"],
        ["oracle-check", "--se", "1", "--si", "9"], ["density-check", "--fr", "9"],
        ["coll-run", "--o", "x", "--n", "3", "--n", "4"], ["coll-run", "--n", "-5"],
        ["coll-run", "--set", "-1.5"], ["coll-run", "--set", "-1e3"],
        ["coll-run", "--set", "- 1"], ["coll-run", "--set=--n"], ["coll-run", "--set="],
        ["coll-run", "--n", "5", "--"], ["coll-run", "--", "-h"], ["coll-run", "-"],
        ["coll-run", "--n", "--", "5"], ["coll-run", "--bogus", "-h"],
        ["coll-run", "--n", "x", "-h"], ["coll-run", "-h", "--n", "x"],
        ["coll-run", "--n", "-h"], ["coll-run", "-hx"], ["coll-run", "-hh=h"],
        ["coll-run", "--help=x"], ["coll-run", "--=x"], ["coll-run", "--n=--", "-h"],
        ["coll-run", "--set=--", "-h"], ["coll-run", "--out=--"],
        ["coll-run", "--n", "٣"], ["coll-run", "--n", " +3 "], ["coll-run", "--n", "1_0"],
    ], ids=repr)
    def test_edges_parse_as_argparse(self, argv):
        got, want = agree(argv)
        assert got == want

    @pytest.mark.parametrize("argv", [["--x", "-h"], ["--n", "coll-run", "-h"]],
                             ids=repr)
    def test_only_help_is_read_before_a_command(self, argv):
        """argparse sets an unknown flag before the command aside and goes
        on to a later help flag; the reader refuses it."""
        assert agree(argv) == (("exit", 2), ("exit", 0))

    def test_out_equals_dashes_writes_a_file_named_dashes(self, tmp_path, monkeypatch):
        assert parse(["coll-run", "--set=--", "--out=--"]) == cli.RunConfig(
            "coll-run", {"set": "--"}, "--")
        assert parse(["coll-run", "--n=--"]) == ("exit", 2)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["coll-run", "--out=--"]) == 0
        assert json.loads((tmp_path / "--").read_text())["set"] == "nat"


class TestParserHasNoState:
    def test_many_calls_match_argparse_in_any_order(self):
        expected = [settled(outcome(oracle, argv)) for argv in ARGVS]
        assert expected[0] == cli.RunConfig("coll-run", {"set": "nat", "n": 5})
        assert expected[1].output_path == "x.json"
        assert expected[-1] == ("exit", 2)
        rng = random.Random(7)
        order = list(range(len(ARGVS))) * 4
        rng.shuffle(order)
        for k in order:
            assert parse(ARGVS[k]) == expected[k]


class TestHelp:
    @pytest.mark.parametrize("argv, names", [
        (["-h"], list(cli._COMMANDS)),
        (["--help"], list(cli._COMMANDS)),
        (["coll-run", "--he"], ["--out", "--set", "--n"]),
        (["oracle-check", "-h", "--bogus"], ["--out", "--seed", "--cases", "--size"]),
    ])
    def test_help_prints_usage_and_exits_0(self, argv, names):
        code, out, err = outcome(cli.main, argv)[1:]
        assert (code, err) == (0, "")
        assert out.startswith("usage: forcelab ")
        assert all(name in out for name in names)

    def test_python_m_forcelab_help(self):
        done = subprocess.run([sys.executable, "-m", "forcelab", "--help"],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: forcelab {")
        assert all(name in done.stdout for name in cli._COMMANDS)


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
        assert "more than 1000 codes" in str(err.value)  # the cap README names
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
