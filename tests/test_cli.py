import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forcelab import cli, posets
from forcelab.cli import RunConfig, build_config, main, run

DOCUMENTED = [
    ["coll-run", "--set", "nat", "--n", "5"],
    ["coll-run", "--set", "evens", "--n", "8"],
    ["coll-run", "--set", "pairs", "--n", "4"],
    ["iso-roundtrip", "--len", "10", "--seed", "7"],
    ["dc-run", "--set", "nat", "--functional", "evens", "--n", "6"],
    ["marker-run", "--set", "nat", "--functional", "const", "--n", "5"],
    ["marker-run", "--set", "nat", "--functional", "cycle3", "--n", "9"],
    ["levy-run", "--alpha", "w*2"],
    ["levy-run", "--alpha", "w*3", "--set", "nat"],
    ["density-check", "--set", "nat", "--i", "3", "--frag", "200"],
    ["oracle-check", "--seed", "3", "--cases", "10"],
]


def invoke(argv, capsys):
    status = main(argv)
    return status, capsys.readouterr().out


class TestCommands:
    def test_coll_run_injection(self, capsys):
        status, out = invoke(["coll-run", "--set", "nat", "--n", "5"], capsys)
        assert status == 0
        assert json.loads(out) == {"set": "nat", "items": [0, 1, 2, 3, 4]}

    def test_iso_roundtrip_documented_example(self, capsys):
        status, out = invoke(["iso-roundtrip", "--len", "10", "--seed", "7"],
                             capsys)
        assert status == 0
        assert json.loads(out) == {"ok": True, "cases": 10}

    def test_density_check_documented_example(self, capsys):
        status, out = invoke(
            ["density-check", "--set", "nat", "--i", "3", "--frag", "200"],
            capsys)
        assert status == 0
        assert json.loads(out) == {"dense": True, "fragment": 200}

    def test_density_check_block_cut_is_inconclusive(self, capsys):
        status, out = invoke(
            ["density-check", "--set", "nat", "--i", "3", "--frag", "2000"],
            capsys)
        assert status == 0
        assert json.loads(out) == {"dense": None, "inconclusive": True,
                                   "undecided": [6], "fragment": 2000}

    def test_dc_run(self, capsys):
        status, out = invoke(
            ["dc-run", "--set", "nat", "--functional", "seq", "--n", "4"], capsys)
        assert status == 0
        doc = json.loads(out)
        assert doc["values"] == [0, 1, 2, 3]
        assert doc["length"] == 4

    def test_marker_run(self, capsys):
        status, out = invoke(
            ["marker-run", "--set", "nat", "--functional", "const", "--n", "4"],
            capsys)
        assert status == 0
        doc = json.loads(out)
        assert doc["values"] == [0, 0, 0, 0]
        assert doc["markers"] == [0, 1, 2, 3]
        assert doc["passes_original"] is True

    def test_levy_run(self, capsys):
        status, out = invoke(["levy-run", "--alpha", "w*2"], capsys)
        assert status == 0
        doc = json.loads(out)
        assert doc["alpha"] == "w*2"
        assert doc["blocks"][0] == {"xi": 0, "gamma": "w*1"}
        assert all(s["ok"] for s in doc["samples"])

    def test_oracle_check(self, capsys):
        status, out = invoke(["oracle-check", "--seed", "1", "--cases", "6"],
                             capsys)
        assert status == 0
        doc = json.loads(out)
        assert doc["ok"] is True and doc["cases"] == 6

    @pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: " ".join(a))
    def test_determinism_byte_identical(self, argv, capsys):
        status1, out1 = invoke(argv, capsys)
        status2, out2 = invoke(argv, capsys)
        assert status1 == status2 == 0
        assert out1 == out2
        assert out1.endswith("\n")


@pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: " ".join(a))
def test_stdout_identical_across_processes_and_hash_seeds(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "forcelab.cli", *argv],
                              env=env, capture_output=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].endswith(b"\n")


class TestErrors:
    def test_unknown_set_is_bad_config(self, capsys):
        status, out = invoke(["coll-run", "--set", "reals", "--n", "3"], capsys)
        assert status == 2
        assert json.loads(out)["error"] == "bad-config"

    def test_contract_violation_is_exit_1(self, capsys):
        status, out = invoke(["levy-run", "--alpha", "w*1 + 1"], capsys)
        assert status == 1
        doc = json.loads(out)
        assert doc["error"] == "bad-cofinal"
        assert "detail" in doc

    def test_repeating_functional_in_dc_run(self, capsys):
        status, out = invoke(
            ["dc-run", "--set", "nat", "--functional", "const", "--n", "3"],
            capsys)
        assert status == 2
        assert json.loads(out)["error"] == "bad-config"

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_config(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_key_rejected(self):
        status, doc = run(RunConfig("coll-run", {"set": "nat", "mood": 3}))
        assert status == 2
        assert doc["error"] == "bad-config"

    def test_unknown_command_in_config(self):
        status, doc = run(RunConfig("no-such"))
        assert status == 2


class TestConfig:
    def test_defaults_applied(self):
        status, doc = run(RunConfig("iso-roundtrip"))
        assert status == 0
        assert doc == {"ok": True, "cases": 10}

    def test_seed_changes_cases_not_determinism(self):
        a = run(RunConfig("oracle-check", {"seed": 0, "cases": 5}))
        b = run(RunConfig("oracle-check", {"seed": 0, "cases": 5}))
        assert a == b

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        status = main(["coll-run", "--set", "nat", "--n", "3",
                       "--out", str(out_file)])
        assert status == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_file.read_text()) == {"set": "nat",
                                                    "items": [0, 1, 2]}


NEGATIVE = [
    ["coll-run", "--n", "-1"],
    ["dc-run", "--n", "-2"],
    ["density-check", "--frag", "-5"],
    ["density-check", "--i", "-2"],
    ["iso-roundtrip", "--len", "-1"],
    ["iso-roundtrip", "--cases", "-3"],
    ["oracle-check", "--size", "-1"],
    ["iso-roundtrip", "--cases", "0"],
    ["oracle-check", "--cases", "0"],
    ["density-check", "--frag", "0"],
    ["oracle-check", "--size", "1"],
    ["iso-roundtrip", "--len", "1001"],
    ["iso-roundtrip", "--len", "2000"],
    ["oracle-check", "--size", "21"],
]


class TestValidation:
    @pytest.mark.parametrize("argv", NEGATIVE, ids=lambda a: " ".join(a))
    def test_negative_size_is_bad_config(self, argv, capsys):
        status, out = invoke(argv, capsys)
        assert status == 2
        doc = json.loads(out)
        assert doc["error"] == "bad-config"
        assert argv[1].lstrip("-") in doc["detail"]

    def test_fragment_past_its_bound_is_refused_unrun(self, monkeypatch, capsys):
        """The bound keeps a check to about 1 GiB; it admits README's 100000."""
        def never(*args):
            raise AssertionError("the density check ran")

        monkeypatch.setattr(posets, "is_dense_on_truncation", never)
        hi = cli._BOUNDS["frag"][1]
        assert hi >= 100_000
        status, out = invoke(["density-check", "--frag", str(hi + 1)], capsys)
        assert status == 2
        doc = json.loads(out)
        assert doc["error"] == "bad-config"
        assert doc["detail"] == f"frag must be in [1, {hi}], got {hi + 1}"

    @pytest.mark.parametrize("command,flag", [("coll-run", "n"), ("dc-run", "n"),
                                              ("marker-run", "n"), ("density-check", "i")])
    def test_size_past_its_bound_is_refused_unrun(self, monkeypatch, capsys, command, flag):
        """A run of 1,000,000 steps or a level of 2,000,000 stays within
        about 1 GiB; both admit every README and benchmark size."""
        def never(params):
            raise AssertionError(f"{command} ran")

        monkeypatch.setitem(cli._COMMANDS, command, (never, cli._COMMANDS[command][1]))
        hi = cli._BOUNDS[flag][1]
        assert hi >= 20_000
        status, out = invoke([command, f"--{flag}", str(hi + 1)], capsys)
        assert status == 2
        assert json.loads(out) == {"error": "bad-config",
                                   "detail": f"{flag} must be in [0, {hi}], got {hi + 1}"}
        with pytest.raises(AssertionError, match="ran"):
            invoke([command, f"--{flag}", str(hi)], capsys)

    def test_zero_sizes_still_run(self, capsys):
        status, out = invoke(["coll-run", "--n", "0"], capsys)
        assert status == 0
        assert json.loads(out) == {"set": "nat", "items": []}

    def test_unwritable_output_is_bad_config(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.json"
        status, out = invoke(["coll-run", "--n", "3", "--out", str(target)], capsys)
        assert status == 2
        assert json.loads(out)["error"] == "bad-config"
        assert not target.exists()
