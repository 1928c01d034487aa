"""The forcelab benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next operation starts
when the previous one returns, as for a batch caller that waits for each
JSON document.  A pass is a fixed plan of ops sized to take ``--seconds``
of op time at the speed of the commit that defined the benchmark.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one plan untraced and then traced (each sized for half the time) and
reports the per-layer metrics and the tracing overhead.  Every pass runs in
a fresh interpreter (``worker.py``), so peak RSS belongs to that pass alone.
Times are scaled to a reference speed of the host (``speed.py``).
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up spawns are split between the start and the end of a run, so that
# their median does not rest on one spell of a shared host.
SETUP_SPAWNS = 15
# Every child process must end before this many seconds into the run.
DEADLINE_S = 170
_START = time.monotonic()
# The set-up child times the reference loop after its op and reports the
# timings on standard error.
_SETUP_CODE = """import sys
from forcelab.cli import main
status = main(sys.argv[1:])
from speed import time_reference
print(*(time_reference() for _ in range(3)), file=sys.stderr)
sys.exit(status)
"""

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mib", "MiB"), ("ok_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _time_left() -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - _START))


def setup_times(workload: str, count: int, warm: bool = False) -> list[float]:
    """Scaled times of fresh interpreters that import forcelab and run the
    workload's smallest op; with ``warm``, one untimed spawn goes first.

    A spawn's wall time, less the child's own reference timings, is scaled
    by the median of those timings."""
    argv = [sys.executable, "-c", _SETUP_CODE, *workloads.SETUP_ARGV[workload]]
    env = {**_env(), "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(HERE)))}
    times = []
    for i in range(count + warm):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=_time_left())
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or not json.loads(proc.stdout):
            raise BenchError(f"set-up op failed: {proc.stderr.strip()[-500:]}")
        refs = [float(x) for x in proc.stderr.split()]
        if i >= warm:
            times.append(speed.scaled(dt - sum(refs), statistics.median(refs)))
    return times


def run_worker(workload: str, seed: int, seconds: float, sweeps: int,
               traced: bool) -> dict:
    """A pass of ``sweeps`` sweeps sized for ``seconds`` of op time in all,
    in a fresh interpreter."""
    rounds = workloads.rounds_for(workload, seconds, sweeps)
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload,
           str(seed), str(rounds), str(sweeps), "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=_time_left())
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.  The
    plain order statistic jumps when the ops next to its rank trade places;
    on ``fragment`` the p90 rank sits where adjacent density-checks differ
    threefold, and there this estimate spreads far less between runs.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule inside each of the n rank intervals
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(seconds: list[float], ok: int) -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms from per-op latencies."""
    return {"ops_per_s": ok / sum(seconds), "op_p50_ms": quantile(seconds, 0.5) * 1e3,
            "op_p90_ms": quantile(seconds, 0.9) * 1e3}


def end_to_end(result: dict, setup_s: float) -> dict:
    ops = result["ops"]
    ok = sum(1 for rec in ops if rec[4] == workloads.OK)
    values = {
        "setup_s": setup_s,
        **latency_metrics([rec[3] for rec in ops], ok),
        "peak_rss_mib": result["rss_mib"],
        "ok_frac": ok / len(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def env_record(args) -> dict:
    """Interpreter, machine, source revision and run parameters."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _summary(result: dict) -> tuple[int, int, int]:
    verdicts = [rec[4] for rec in result["ops"]]
    return (len(verdicts), sum(v != workloads.OK for v in verdicts),
            sum(v == workloads.WRONG for v in verdicts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forcelab" / "cli.py").is_file():
        print(f"forcelab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        env = env_record(args)
        if args.trace:
            untraced = run_worker(args.workload, args.seed, args.seconds / 2, 1, False)
            traced = run_worker(args.workload, args.seed, args.seconds / 2, 1, True)
            passes = [untraced, traced]
            metrics = tracing.layer_metrics(traced, untraced)
        else:
            spawns = setup_times(args.workload, SETUP_SPAWNS // 2 + 1, warm=True)
            result = run_worker(args.workload, args.seed, args.seconds,
                                workloads.SWEEPS[args.workload], False)
            spawns += setup_times(args.workload, SETUP_SPAWNS // 2)
            setup_s = statistics.median(spawns)
            passes = [result]
            metrics = end_to_end(result, setup_s)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = failed = wrong = 0
    for res in passes:
        a, f, w = _summary(res)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    print("env " + json.dumps(env, sort_keys=True))
    for res in passes:
        print(f"pass rounds={res['rounds']} ops={len(res['ops'])} "
              f"outputs_sha256={res['outputs_sha256']}")
    if not args.trace:
        n = len(passes[0]["ops"])
        p90 = metrics["op_p90_ms"]["value"] / 1e3
        beyond = sum(1 for rec in passes[0]["ops"] if rec[3] > p90)
        print(f"samples ops={n} beyond_p90={beyond} setup_spawns={len(spawns)}")
        ok = sum(1 for rec in passes[0]["ops"] if rec[4] == workloads.OK)
        wall = latency_metrics(passes[0]["wall_s"], ok)
        print(f"unscaled wall clock: reference loop median "
              f"{passes[0]['reference_s'] * 1e3:.4g} ms, "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':28s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops; {wrong} contradicted their check)")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
