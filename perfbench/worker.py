"""Run one timed pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED ROUNDS SWEEPS TRACED

Imports forcelab from ROOT/src and runs an untimed warm-up plan.  Then each
of SWEEPS sweeps runs the same plan of ROUNDS rounds.  Only the op itself
is timed; checks run between ops.  With TRACED=1 the layer wrappers of
``tracing`` are installed after the warm-up.  The last line of standard
output is one JSON object describing the pass.

The reference loop of ``speed`` is timed before and after every op
execution, and the execution's wall time is scaled by the mean of the two
reference timings that bracket it.  An op's latency is the median of its
scaled executions.  The unscaled fastest wall times are kept alongside.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads
from speed import time_reference
from workloads import WRONG, FragmentOracle, LiftSession, Op


class Runner:
    """Executes ops against the imported library and keeps the live lift."""

    def __init__(self, forcelab):
        self.fl = forcelab
        self.oracle = FragmentOracle()
        self.lift = None      # (g, f) of the live lift
        self.session = None   # LiftSession of the live lift

    def run(self, op: Op) -> tuple[float, str, str]:
        """Execute and check one op; return (seconds, verdict, output text).

        Only the execution is timed.  An op that raises is a wrong op.
        """
        if op.kind == "lift-cold" and self.lift is not None:
            # Untimed: the old lift is freed before the new one is built, so
            # two lifts never share the peak.
            self.lift = self.session = None
            gc.collect()
        t0 = time.perf_counter()
        try:
            out = self._execute(op)
        except Exception as exc:
            return time.perf_counter() - t0, WRONG, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        # Untimed: no op pays for, or keeps in memory, an earlier op's cycles.
        gc.collect()
        if op.kind in ("lift-cold", "lift-warm"):
            value, ok = out
            return dt, self.session.check(op.args[1], value, ok), f"{value} {ok}"
        if op.kind == "bijection":
            return dt, workloads.check_bijection(*out), repr(out)
        status, text = out
        try:
            doc = json.loads(text)
        except ValueError:
            return dt, WRONG, text
        return dt, workloads.check_cli(op, status, doc, self.oracle), text

    def _execute(self, op: Op):
        fl = self.fl
        if op.kind in ("lift-cold", "lift-warm"):
            alpha, pos = op.args
            if op.kind == "lift-cold":
                f = fl.levy.transfinite_f_seq(fl.collapse.nat_set())
                cof = fl.levy.standard_cofinal(fl.ordinals.parse_cnf(alpha))
                self.lift = (fl.levy.levy_lift(cof, f), f)
                self.session = LiftSession(alpha)
            g, f = self.lift
            beta = fl.ordinals.parse_cnf(pos)
            return g.at(beta), fl.levy.check_transfinite_witness(f, g, [beta])
        if op.kind == "bijection":
            return self._bijection(op)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                status = fl.cli.main(list(op.args))
            except SystemExit as exc:  # argparse rejected the argv
                status = exc.code if isinstance(exc.code, int) else 2
        return status, buf.getvalue()

    def _bijection(self, op: Op):
        """Round trips n -> o -> n from a seeded start, and o -> n -> o."""
        ordinals = self.fl.ordinals
        alpha, start, ord_seed = op.args
        a = ordinals.parse_cnf(alpha)
        b = ordinals.omega_bijection(a)
        from_n = []
        for n in range(start, start + op.size):
            o = b.backward(n)
            from_n.append((n, str(o), b.forward(o)))
        from_o = [(str(o), str(b.backward(b.forward(o))))
                  for o in _ordinals_below(ordinals, a, random.Random(ord_seed),
                                           op.size // 4)]
        return from_n, from_o


def _ordinals_below(ordinals, a, rng, count):
    """Random ordinals below w^e <= a, where e is a's leading exponent."""
    top = a.terms[0][0]
    out = []
    for _ in range(count):
        exps = sorted((e for e in range(top) if rng.random() < 0.7), reverse=True)
        out.append(ordinals.Ordinal(tuple((e, rng.randint(1, 10**4)) for e in exps)))
    return out


def main(argv: list[str]) -> int:
    root, workload, seed, rounds, sweeps, traced = argv
    seed, rounds, sweeps, traced = int(seed), int(rounds), int(sweeps), traced == "1"
    sys.path.insert(0, str(Path(root) / "src"))
    t0 = time.perf_counter()
    import forcelab
    import forcelab.cli
    import_s = time.perf_counter() - t0

    runner = Runner(forcelab)
    if workload == "fragment":
        runner.oracle.fragment(workloads.MAX_FRAG)  # same memory in every pass
    # In a fresh interpreter the first seconds of a stream run measurably
    # slower than the rest.
    for op in workloads.warmup_ops(workload, seed):
        runner.run(op)

    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(forcelab)

    plan = workloads.plan_ops(workload, seed, rounds)
    records = []
    outputs = []
    refs = []        # reference timings, one before each execution and one at the end
    executions = []  # (op index, wall seconds)
    for sweep in range(sweeps):
        for j, op in enumerate(plan):
            refs.append(time_reference())
            before = tracer.fit_snapshot() if tracer else None
            dt, verdict, text = runner.run(op)
            executions.append((j, dt))
            out = hashlib.sha256(text.encode()).hexdigest()
            if sweep == 0:
                rec = [op.kind, list(op.args), op.size, None, verdict]
                if tracer:
                    rec.append(tracer.fit_delta(before))
                records.append(rec)
                outputs.append(out)
            elif verdict != records[j][4] or out != outputs[j]:
                records[j][4] = WRONG  # a replay must reproduce the first answer

    refs.append(time_reference())
    scaled = [[] for _ in plan]
    wall = [math.inf] * len(plan)
    for i, (j, dt) in enumerate(executions):
        scaled[j].append(speed.scaled(dt, (refs[i] + refs[i + 1]) / 2))
        wall[j] = min(wall[j], dt)
    for rec, times in zip(records, scaled):
        rec[3] = statistics.median(times)

    digest = hashlib.sha256()
    for op, out in zip(plan, outputs):
        digest.update(f"{op.kind} {op.args} {out}\n".encode())
    result = {
        "import_s": import_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "ops": records,
        "wall_s": wall,
        "reference_s": statistics.median(refs),
        "outputs_sha256": digest.hexdigest(),
    }
    if tracer:
        result["spans"] = tracer.stats()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
