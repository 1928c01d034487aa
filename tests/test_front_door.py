"""The cached argument parser and the named errors of the two internal caps."""

import contextlib
import io
import json
import random

import pytest

from forcelab import cli, collapse
from forcelab.collapse import CountableSet, nat_set, prefix_enumeration
from forcelab.errors import ContractError, EnumerationDepthCap, IndexScanCap

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


def index_less_nat():
    return CountableSet("nat", lambda n: n)


class TestIndexScanCap:
    def test_index_of_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(collapse, "_INDEX_SCAN_CAP", 50)
        squares = CountableSet("squares", lambda n: n * n)
        assert squares.index_of(49 * 49) == 49
        with pytest.raises(IndexScanCap) as err:
            squares.index_of(50 * 50)
        assert err.value.code == "index-scan-cap"
        assert isinstance(err.value, ContractError)
        assert not isinstance(err.value, ValueError)

    def test_fresh_bound_does_not_read_the_cap_as_an_answer(self, monkeypatch):
        monkeypatch.setattr(collapse, "_INDEX_SCAN_CAP", 5)
        with pytest.raises(IndexScanCap):
            collapse.fresh_bound(index_less_nat(), (2, 6))
        assert collapse.fresh_bound(index_less_nat(), (2, 4)) == 5

    def test_cli_exit_1_with_code(self, monkeypatch):
        """The extender of an undecided condition needs the index of code 6."""
        monkeypatch.setattr(collapse, "_INDEX_SCAN_CAP", 5)
        monkeypatch.setitem(collapse._BUILTINS, "nat", index_less_nat)
        status, doc = main_doc(["density-check", "--i", "3", "--frag", "2000"])
        assert (status, doc["error"]) == (1, "index-scan-cap")
        monkeypatch.setattr(collapse, "_INDEX_SCAN_CAP", 100_000)
        status, doc = main_doc(["density-check", "--i", "3", "--frag", "2000"])
        assert (status, doc["undecided"]) == (0, [6])


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
