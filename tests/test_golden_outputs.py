"""Golden outputs of the Lévy lifts and the ordinal bijection.

The files under ``tests/golden/`` were written by the code before the
unchecked ``Ordinal._of`` constructor and the one-pass
``IndexUsage.with_explicit``; each test rebuilds its text and compares it
byte for byte.  ``python tests/test_golden_outputs.py`` rewrites the files
from the code on ``sys.path``, for a deliberate change of output only.

- ``levy_run.txt``: ``levy-run --set nat`` stdout for w*2, w*3, w*5, w^2.
- ``cold_values.txt``: the value of a fresh lift at the deepest cold
  position of each ladder of the ``ladder`` benchmark, and its check.
- ``bijection.txt``: ``omega_bijection`` round trips n -> o -> n from three
  starts and o -> n -> o on seeded random ordinals, for the ordinals the
  ``ladder`` benchmark uses.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

from forcelab import cli
from forcelab.collapse import nat_set
from forcelab.levy import (
    check_transfinite_witness,
    levy_lift,
    standard_cofinal,
    transfinite_f_seq,
)
from forcelab.ordinals import Ordinal, omega_bijection, parse_cnf

GOLDEN = Path(__file__).resolve().parent / "golden"

LADDERS = ("w*2", "w*3", "w*5", "w^2")
COLD = (("w*2", "w*1+300"), ("w*2", "w*1"), ("w*3", "w*2+250"),
        ("w*5", "w*4+120"), ("w^2", "w*9+30"), ("w^2", "w*8"))
BIJECTION_ALPHAS = ("w*2", "w*3+4", "w^2", "w^2*2+w*3+1", "w^3")
STARTS = (0, 123_456, 999_950)
PER_START = 50
RANDOM_ORDINALS = 50


def levy_run_text() -> str:
    out = []
    for alpha in LADDERS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["levy-run", "--set", "nat", "--alpha", alpha])
        out.append(f"# {alpha} exit {status}\n{buf.getvalue()}")
    return "".join(out)


def cold_values_text() -> str:
    lines = []
    for alpha, pos in COLD:
        f = transfinite_f_seq(nat_set())
        g = levy_lift(standard_cofinal(parse_cnf(alpha)), f)
        beta = parse_cnf(pos)
        lines.append(f"{alpha} {pos} {g.at(beta)} {check_transfinite_witness(f, g, [beta])}\n")
    return "".join(lines)


def _ordinals_below(a: Ordinal, rng: random.Random, count: int) -> list[Ordinal]:
    """Random ordinals below w^e <= a, e the leading exponent of a."""
    top = a.terms[0][0]
    out = []
    for _ in range(count):
        exps = sorted((e for e in range(top) if rng.random() < 0.7), reverse=True)
        out.append(Ordinal(tuple((e, rng.randint(1, 10**4)) for e in exps)))
    return out


def bijection_text() -> str:
    lines = []
    for k, alpha in enumerate(BIJECTION_ALPHAS):
        a = parse_cnf(alpha)
        b = omega_bijection(a)
        for start in STARTS:
            for n in range(start, start + PER_START):
                o = b.backward(n)
                lines.append(f"{alpha} n {n} {o} {b.forward(o)}\n")
        for o in _ordinals_below(a, random.Random(k), RANDOM_ORDINALS):
            n = b.forward(o)
            lines.append(f"{alpha} o {o} {n} {b.backward(n)}\n")
    return "".join(lines)


FILES = {"levy_run.txt": levy_run_text, "cold_values.txt": cold_values_text,
         "bijection.txt": bijection_text}


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_levy_run_stdout_is_golden():
    assert levy_run_text() == _golden("levy_run.txt")


def test_cold_values_are_golden():
    assert cold_values_text() == _golden("cold_values.txt")


def test_bijection_round_trips_are_golden():
    assert bijection_text() == _golden("bijection.txt")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in FILES.items():
        (GOLDEN / name).write_text(make(), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
