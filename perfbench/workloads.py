"""Seeded workloads for the forcelab benchmark, and independent output checks.

A pass of a workload is a fixed plan of rounds.  Every round holds the same
operation kinds; over the pass, each kind's sizes are a stratified sample
of its range (one log-uniform draw in each of as many equal strata as there
are rounds, in seeded order), so two seeds give passes of nearly the same
cost.  Only the generated argv lists and positions reach the program.

The checks here recompute every expected output in benchmark code; none of
them calls a forcelab verifier.  A check returns one of three verdicts:

* ``OK`` - the output is right;
* ``FAILED`` - the output matches what the program documents but is a wrong
  answer for the user (``density-check`` printing ``"dense": false`` about a
  length level, all of which are dense, with a counterexample the fragment
  really has; ``"dense": true`` and an inconclusive answer are both OK);
* ``WRONG`` - the output contradicts the program's own contract.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

OK, FAILED, WRONG = "ok", "failed", "wrong"

WORKLOADS = ("chain", "fragment", "ladder")

# Rounds per second of op time at the commit that defined this benchmark
# (Python 3.11, 2-CPU Xeon host).  A pass is the fixed number of rounds
# that fills its share of --seconds at that speed, so faster code finishes
# the same work sooner.
ROUNDS_PER_S = {"chain": 1.2, "fragment": 2.5, "ladder": 1.2}

# Timed sweeps per pass: each sweep replays the whole plan and an op's
# latency is the median of its executions.  A sweep needs at least 100 ops for the p90, so the
# slower a workload's ops, the fewer sweeps fit into a run.
SWEEPS = {"chain": 3, "fragment": 3, "ladder": 6}

WARMUP_S = 3.0

# The smallest operation of each workload, run by a fresh interpreter to
# measure set-up time.
SETUP_ARGV = {
    "chain": ["coll-run", "--set", "nat", "--n", "100"],
    "fragment": ["density-check", "--set", "nat", "--i", "1", "--frag", "100"],
    "ladder": ["levy-run", "--set", "nat", "--alpha", "w*2"],
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind`` is a CLI command name, or ``lift-cold``, ``lift-warm`` or
    ``bijection`` for the library calls of the ladder workload.  ``args`` is
    the argv for CLI kinds and a tuple of CNF strings and integers
    otherwise.  ``size`` is the input size that scaling fits use.
    """

    kind: str
    args: tuple
    size: int = 0


def rounds_for(workload: str, seconds: float, sweeps: int) -> int:
    """Rounds of a plan that ``sweeps`` sweeps run in ``seconds`` of op time."""
    return max(1, round(seconds / sweeps * ROUNDS_PER_S[workload]))


def _units(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [0, 1), in seeded order."""
    us = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(us)
    return us


def _log_sizes(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """Log-uniform sizes, one draw in the middle half of each of n equal
    strata, in seeded order.  Costs grow quadratically or faster with size,
    so a draw anywhere in a stratum would move the ops around the p90 by a
    third from seed to seed."""
    us = [(j + 0.25 + 0.5 * rng.random()) / n for j in range(n)]
    rng.shuffle(us)
    return [round(lo * (hi / lo) ** u) for u in us]


def _pin_top(sizes: list, top) -> list:
    """Make the largest draw exactly ``top``, so that the pass's largest op,
    which sets its peak memory, is the same for every seed."""
    sizes[sizes.index(max(sizes))] = top
    return sizes


def _int_sizes(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    return [lo + min(int(u * (hi - lo + 1)), hi - lo) for u in _units(rng, n)]


def _balanced(rng: random.Random, choices: tuple, n: int) -> list:
    """n choices, each as often as n allows, in seeded order."""
    out = [choices[j % len(choices)] for j in range(n)]
    rng.shuffle(out)
    return out


def _cli(*argv) -> tuple:
    return tuple(str(a) for a in argv)


def _chain_plan(rng: random.Random, rounds: int) -> list[list[Op]]:
    # pairs costs about four times nat at the same n; evens and bounded are
    # cubic in n.  The ranges keep every op within a few seconds.  The cheap
    # kinds come twice a round, so that a short sweep still holds 100 ops.
    kinds = []
    for xset, hi in (("nat", 3000), ("pairs", 1000)):
        kinds.append([Op("coll-run", _cli("coll-run", "--set", xset, "--n", n), n)
                      for n in _pin_top(_log_sizes(rng, 100, hi, rounds), hi)])
    for functional, lo, hi, per_round in (("seq", 100, 2000, 1), ("evens", 50, 300, 2),
                                          ("bounded", 50, 300, 2)):
        sizes = _log_sizes(rng, lo, hi, per_round * rounds)
        for k in range(per_round):
            kinds.append([Op("dc-run", _cli("dc-run", "--set", "nat", "--functional",
                                            functional, "--n", n), n)
                          for n in sizes[k::per_round]])
    markers = _balanced(rng, ("const", "cycle2", "cycle3"), 2 * rounds)
    sizes = _log_sizes(rng, 50, 600, 2 * rounds)
    ops = [Op("marker-run", _cli("marker-run", "--set", "nat", "--functional",
                                 functional, "--n", n), n)
           for functional, n in zip(markers, sizes)]
    kinds += [ops[0::2], ops[1::2]]
    return [[[op] for op in row] for row in zip(*kinds)]


MAX_FRAG = 2500


def _fragment_plan(rng: random.Random, rounds: int) -> list[list[Op]]:
    # Sizes are not aligned to enumeration blocks: a cut just past a block
    # boundary is the known false "not dense" answer, and it must show.
    # Level and set are fixed by the size stratum (level cycles 1..4, every
    # fifth stratum uses pairs), so every seed puts the same mix of level
    # and set at each size and only the cut inside the stratum varies.
    density = [(round(100 * (MAX_FRAG / 100) ** ((j + rng.random()) / rounds)),
                1 + j % 4, "pairs" if j % 5 == 2 else "nat")
               for j in range(rounds)]
    rng.shuffle(density)
    # Likewise the cases stratum fixes the other size: iso-roundtrip lengths
    # and oracle-check table sizes are spread over their ranges by a fixed
    # pairing, so the cost mix around the median op is the same for every
    # seed.
    n = 2 * rounds
    iso = [(round(10 * 20 ** ((j + rng.random()) / n)), 5 + j * 31 % 76) for j in range(n)]
    oracle = [(round(5 * 8 ** ((j + rng.random()) / n)), 4 + j * 3 % 7) for j in range(n)]
    rng.shuffle(iso)
    rng.shuffle(oracle)
    plan = []
    for r, (frag, i, xset) in enumerate(density):
        unit = [Op("density-check", _cli("density-check", "--set", xset, "--i", i,
                                         "--frag", frag), frag)]
        for cases, length in iso[2 * r:2 * r + 2]:
            unit.append(Op("iso-roundtrip", _cli(
                "iso-roundtrip", "--len", length, "--cases", cases,
                "--seed", rng.randrange(10**6)), cases))
        for cases, size in oracle[2 * r:2 * r + 2]:
            unit.append(Op("oracle-check", _cli(
                "oracle-check", "--seed", rng.randrange(10**6), "--cases", cases,
                "--size", size), cases))
        plan.append([[op] for op in unit])
    return plan


# Cold positions per ladder: CNF head, finite offset range.  At seed each
# cold query costs roughly 40-200 ms; under w^2 the cost doubles with every
# extra block, so the head there is w*8 or w*9.
_COLD = {"w*2": ("w*1", 150, 300), "w*3": ("w*2", 100, 250),
         "w*5": ("w*4", 60, 120), "w^2": (None, 0, 30)}
_SESSIONS = 2
_WARM_PER_COLD = 3
_BIJECTION_ALPHAS = ("w*2", "w*3+4", "w^2", "w^2*2+w*3+1", "w^3")


def _ladder_plan(rng: random.Random, rounds: int) -> list[list[Op]]:
    """Per ladder and round one levy-run and two lift sessions; two
    bijection batches per round.

    A session is a cold query (fresh lift, deep position) followed by warm
    queries on the same live lift: first the cold position again, then
    nearby positions below it.  A fifth of the ops are cold, so p90 falls
    among cold queries and p50 among warm ones.
    """
    n = rounds * _SESSIONS
    per_alpha = {}
    for alpha, (head, lo, hi) in _COLD.items():
        heads = [head] * n if head else _balanced(rng, ("w*8", "w*9"), n)
        per_alpha[alpha] = _pin_top(list(zip(heads, _int_sizes(rng, lo, hi, n))),
                                    (head or "w*9", hi))
    plan = []
    for r in range(rounds):
        units = []
        for alpha, cold in per_alpha.items():
            for head, offset in cold[r * _SESSIONS:(r + 1) * _SESSIONS]:
                blocks = int(head.split("*")[1])  # size: ladder blocks below the head
                pos = f"{head}+{offset}" if offset else head
                session = [Op("lift-cold", (alpha, pos), blocks),
                           Op("lift-warm", (alpha, pos), blocks)]
                for _ in range(_WARM_PER_COLD - 1):
                    near = max(0, offset - rng.randint(1, 20))
                    session.append(Op("lift-warm",
                                      (alpha, f"{head}+{near}" if near else head), blocks))
                units.append(session)
            units.append([Op("levy-run", _cli("levy-run", "--set", "nat",
                                              "--alpha", alpha))])
        for _ in range(2):
            alpha = rng.choice(_BIJECTION_ALPHAS)
            units.append([Op("bijection", (alpha, rng.randrange(10**6),
                                           rng.randrange(10**6)), 200)])
        plan.append(units)
    return plan


_PLANS = {"chain": _chain_plan, "fragment": _fragment_plan, "ladder": _ladder_plan}


def plan_ops(workload: str, seed: int, rounds: int, tag: str = "pass") -> list[Op]:
    """The ops of a plan of ``rounds`` rounds, in the order they run.

    Units (a lift session, or a single op) keep their order inside; the
    units of a round are shuffled.  ``tag`` names independent plans of one
    seed, such as the warm-up.
    """
    rng = random.Random(f"{workload}/{seed}/{tag}")
    ops = []
    for units in _PLANS[workload](rng, rounds):
        rng.shuffle(units)
        ops.extend(op for unit in units for op in unit)
    return ops


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """An untimed plan of about WARMUP_S seconds, distinct from the pass."""
    return plan_ops(workload, seed, max(1, round(WARMUP_S * ROUNDS_PER_S[workload])),
                    tag="warmup")


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def unpair(z: int) -> tuple[int, int]:
    """Inverse of the diagonal pairing (x, y) -> (x+y)(x+y+1)/2 + y."""
    s = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def _code(xset: str, k: int):
    return list(unpair(k)) if xset == "pairs" else k


def _json_tuple(xset: str, t: tuple) -> list:
    return [_code(xset, k) for k in t]


class FragmentOracle:
    """Reference enumeration of injective index tuples, grown on demand.

    Block k lists the injective tuples over indices 0..k-1 that use k-1, by
    length and then lexicographically; the fragment is the first n tuples.
    """

    def __init__(self):
        self._items: list[tuple] = [()]
        self._k = 0

    def fragment(self, n: int) -> list[tuple]:
        while len(self._items) < n:
            self._k += 1
            k = self._k
            for length in range(1, k + 1):
                self._items.extend(t for t in itertools.permutations(range(k), length)
                                   if k - 1 in t)
        return self._items[:n]

    def first_uncovered(self, i: int, n: int):
        """The first tuple of the fragment with no extension of length >= i in it."""
        frag = self.fragment(n)
        covered = set()
        for m in frag:
            if len(m) >= i:
                covered.update(m[:j] for j in range(len(m) + 1))
        for q in frag:
            if q not in covered:
                return q
        return None


def _inconclusive(doc: dict) -> bool:
    return (doc.get("inconclusive") is True or doc.get("dense") is None
            or doc.get("dense") == "inconclusive")


def _flag(args: tuple, name: str) -> str:
    return args[args.index(name) + 1]


def check_cli(op: Op, status: int, doc: dict, oracle: FragmentOracle) -> str:
    """Verdict on one CLI document, recomputed from the op's own argv."""
    if status != 0:
        return WRONG
    args = op.args
    if op.kind == "coll-run":
        xset, n = _flag(args, "--set"), int(_flag(args, "--n"))
        ok = doc == {"set": xset, "items": [_code(xset, k) for k in range(n)]}
    elif op.kind == "dc-run":
        functional, n = _flag(args, "--functional"), int(_flag(args, "--n"))
        step = 2 if functional == "evens" else 1
        ok = doc.get("length") == n and doc.get("values") == [step * k for k in range(n)]
    elif op.kind == "marker-run":
        functional, n = _flag(args, "--functional"), int(_flag(args, "--n"))
        period = {"const": 1, "cycle2": 2, "cycle3": 3}[functional]
        ok = (doc.get("length") == n
              and doc.get("values") == [k % period for k in range(n)]
              and doc.get("markers") == [k // period for k in range(n)]
              and doc.get("passes_original") is True)
    elif op.kind == "density-check":
        xset = _flag(args, "--set")
        i, frag = int(_flag(args, "--i")), int(_flag(args, "--frag"))
        if doc.get("fragment") != frag:
            return WRONG
        dense = doc.get("dense")
        if dense is False:
            # Every length level is dense, so "not dense" is a wrong answer
            # for the user.  It is a failure when the fragment really lacks an
            # extension of the reported counterexample, and wrong otherwise.
            missing = oracle.first_uncovered(i, frag)
            agrees = (missing is not None
                      and doc.get("counterexample") == _json_tuple(xset, missing))
            return FAILED if agrees else WRONG
        # "dense": true is the right answer; an inconclusive one (no boolean,
        # or an explicit flag) admits that the fragment cannot decide.
        return OK if dense is True or _inconclusive(doc) else WRONG
    elif op.kind == "iso-roundtrip":
        ok = doc == {"ok": True, "cases": int(_flag(args, "--cases"))}
    elif op.kind == "oracle-check":
        cases = int(_flag(args, "--cases"))
        ok = doc == {"ok": True, "cases": cases, "agreements": cases}
    elif op.kind == "levy-run":
        samples = doc.get("samples") or []
        ok = (len(doc.get("blocks", ())) == 6 and len(samples) > 0
              and all(s.get("ok") is True for s in samples))
    else:
        raise ValueError(f"no check for {op.kind}")
    return OK if ok else WRONG


class LiftSession:
    """Values seen on one live lift: distinct positions, distinct values."""

    def __init__(self, alpha: str):
        self.alpha = alpha
        self.values: dict[str, int] = {}

    def check(self, pos: str, value, ok) -> str:
        if ok is not True or not (isinstance(value, int) and value >= 0):
            return WRONG
        seen = self.values.get(pos)
        if seen is not None:
            return OK if seen == value else WRONG
        if value in self.values.values():
            return WRONG
        self.values[pos] = value
        return OK


def check_bijection(from_n: list, from_o: list) -> str:
    """Round trips n -> o -> n and o -> n -> o, with distinct images of n."""
    if any(n != back for n, _, back in from_n):
        return WRONG
    if len({o for _, o, _ in from_n}) != len(from_n):
        return WRONG
    if any(o != back for o, back in from_o):
        return WRONG
    return OK
