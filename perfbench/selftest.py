"""Self-test of the benchmark at smoke size (one round per pass).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the benchmark emits,
with the same units; that density-check answers get the right verdicts;
that every workload runs with and without tracing and prints a well-formed
result line; and that one seed gives the same op list and the same op
outputs on two runs, and again with tracing on.  Takes about two minutes on
a 2-CPU machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _result(cmd: list[str]) -> tuple[list[str], dict]:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env=run._env())
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_benchmark_json(spec: dict) -> None:
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == dict(run.END_TO_END), declared
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == dict(tracing.PER_LAYER), declared


def check_run(spec: dict, workload: str, trace: int) -> None:
    section = "per_layer" if trace else "end_to_end"
    _, res = _result([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["attempted"] >= 1
    assert 0 <= res["failed"] <= res["attempted"]
    emitted = {name: m["unit"] for name, m in res["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec[section]}, emitted
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def check_density_verdicts() -> None:
    """Verdicts on synthetic density-check documents.

    Every length level is dense: "dense": true and an inconclusive answer
    are right, "dense": false with the fragment's real first uncovered
    tuple is a failure, and anything else is wrong.
    """
    oracle = workloads.FragmentOracle()

    def verdict(i: int, frag: int, doc: dict) -> str:
        op = workloads.Op("density-check", ("density-check", "--set", "nat", "--i",
                                            str(i), "--frag", str(frag)), frag)
        return workloads.check_cli(op, 0, doc, oracle)

    ok, failed, wrong = workloads.OK, workloads.FAILED, workloads.WRONG
    # A cut that leaves (6,) without an extension of length 3 ...
    assert oracle.first_uncovered(3, 2000) == (6,)
    cases = [
        ({"dense": False, "counterexample": [6], "fragment": 2000}, failed),
        ({"dense": False, "counterexample": [5], "fragment": 2000}, wrong),
        ({"dense": False, "fragment": 2000}, wrong),
        ({"dense": True, "fragment": 2000}, ok),
        ({"dense": None, "fragment": 2000}, ok),
        ({"dense": "inconclusive", "fragment": 2000}, ok),
        ({"inconclusive": True, "fragment": 2000}, ok),
        ({"dense": True, "fragment": 1999}, wrong),
        ({"dense": 1, "fragment": 2000}, wrong),
    ]
    for doc, expected in cases:
        assert verdict(3, 2000, doc) == expected, (doc, expected)
    # ... and one with every tuple extended.
    assert oracle.first_uncovered(1, 100) is None
    cases = [
        ({"dense": True, "fragment": 100}, ok),
        ({"dense": None, "fragment": 100}, ok),
        ({"dense": False, "counterexample": [0], "fragment": 100}, wrong),
    ]
    for doc, expected in cases:
        assert verdict(1, 100, doc) == expected, (doc, expected)


def check_determinism(workload: str) -> None:
    assert workloads.plan_ops(workload, 3, 2) == workloads.plan_ops(workload, 3, 2)
    assert workloads.plan_ops(workload, 3, 2) != workloads.plan_ops(workload, 4, 2)
    expected = [[op.kind, list(op.args)] for op in workloads.plan_ops(workload, 3, 1)]
    digests = set()
    for traced in ("0", "0", "1"):
        _, res = _result([sys.executable, "perfbench/worker.py", str(ROOT),
                          workload, "3", "1", "1", traced])
        assert [[rec[0], rec[1]] for rec in res["ops"]] == expected
        digests.add(res["outputs_sha256"])
    assert len(digests) == 1, digests


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(spec)
    check_density_verdicts()
    for workload in workloads.WORKLOADS:
        check_determinism(workload)
        for trace in (0, 1):
            check_run(spec, workload, trace)
        print(f"selftest {workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
