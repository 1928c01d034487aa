"""Mutation testing with the standard library: one small edit at a time.

Each mutant changes one site of a module by one of four operators:

- ``compare``: swap a comparison for its negation (``<`` and ``>=``,
  ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
- ``boolop``: swap ``and`` and ``or``;
- ``const``: add 1 to an int constant;
- ``binop``: swap an arithmetic or bit operator, augmented assignments too.

The sites are numbered in the module's syntax tree; a mutant is the tree
with one site changed, written back out by ``ast.unparse`` (so without
comments).  Type annotations are not mutated.  The unmutated tree, written
out the same way, must pass the tests first.  A mutant survives when the
tests still pass on it.  A run that takes three times as long as the
unmutated one (and at least 60 s) is stopped and counted as a timeout;
each run may use 2 GiB of address space, and starts with no Hypothesis
example database.  Usage::

    python tools/mutate.py src/forcelab/posets.py --from FinitePoset \\
        tests/test_posets.py tests/test_merged_paths.py

runs each mutant of posets.py from ``FinitePoset`` to the end against the
two test files, in a copy of the repository, and lists the survivors.
``--list`` only lists the mutants; ``--only 3,17`` runs the numbered ones.
With no test files the whole suite runs.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Queue

_SWAPS = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
_TEXT = {
    ast.Lt: "<", ast.GtE: ">=", ast.LtE: "<=", ast.Gt: ">", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
    ast.IsNot: "is not", ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-",
    ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/", ast.Mod: "%", ast.Pow: "**",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
}


@dataclass(frozen=True)
class Mutant:
    line: int
    operator: str
    old: str
    new: str
    source: str


class _Sites(ast.NodeVisitor):
    """Number the sites in visiting order, and change the one numbered target."""

    def __init__(self, target: int = -1):
        self.target, self.found = target, []

    def site(self, node, operator: str, old: str, new: str) -> bool:
        self.found.append((node.lineno, operator, old, new))
        return len(self.found) - 1 == self.target

    def swap(self, node, operator: str, suffix: str = ""):
        op = type(node.op)
        if op in _SWAPS and self.site(node, operator, _TEXT[op] + suffix,
                                      _TEXT[_SWAPS[op]] + suffix):
            node.op = _SWAPS[op]()
        self.generic_visit(node)

    def visit_Compare(self, node):
        for k, op in enumerate(map(type, node.ops)):
            if self.site(node, "compare", _TEXT[op], _TEXT[_SWAPS[op]]):
                node.ops[k] = _SWAPS[op]()
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        self.swap(node, "boolop")

    def visit_BinOp(self, node):
        self.swap(node, "binop")

    def visit_AugAssign(self, node):
        self.swap(node, "binop", "=")

    def visit_Constant(self, node):
        if type(node.value) is int and self.site(node, "const", str(node.value),
                                                 str(node.value + 1)):
            node.value += 1

    def visit_arg(self, node):
        pass  # an annotation only

    def visit_AnnAssign(self, node):
        for child in (node.target, node.value):
            if child is not None:
                self.visit(child)

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef


def mutants(source: str, start: str | None = None) -> list[Mutant]:
    """Every mutant of source, in visiting order, from the top-level
    definition named start (its decorators included) to the end, or of the
    whole text."""
    tree = ast.parse(source)
    first = 1
    if start is not None:
        named = [n for n in tree.body if getattr(n, "name", None) == start]
        if len(named) != 1:
            raise ValueError(f"no single top-level definition named {start!r}")
        node = named[0]
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    sites = _Sites()
    sites.visit(tree)
    out = []
    for k, (line, operator, old, new) in enumerate(sites.found):
        if line >= first:
            tree = ast.parse(source)
            _Sites(k).visit(tree)
            out.append(Mutant(line, operator, old, new, ast.unparse(tree)))
    return out


# A mutant may loop and grow, so each test run caps its own address space
# (in the child: a preexec_fn is unsafe while other threads run).
_PYTEST = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
           "import pytest; sys.exit(pytest.main(sys.argv[1:]))")


def _run_tests(work: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    began = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", _PYTEST, "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
        verdict = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        verdict = "timeout"
    finally:
        # an example saved on one run would be replayed first on the next
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    return verdict, time.perf_counter() - began


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="the source file to mutate, under the repository")
    ap.add_argument("tests", nargs="*", help="test files to run (default: all)")
    ap.add_argument("--from", dest="start", help="first top-level definition to mutate")
    ap.add_argument("--only", help="comma-separated mutant numbers to run")
    ap.add_argument("--list", action="store_true", help="list the mutants and stop")
    ap.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    args = ap.parse_intermixed_args(argv)

    module = Path(args.module).resolve()
    repo = Path(__file__).resolve().parents[1]
    original = module.read_text()
    found = list(enumerate(mutants(original, args.start)))
    if args.only:
        keep = {int(k) for k in args.only.split(",")}
        found = [(k, m) for k, m in found if k in keep]
    name = module.name
    if args.list:
        for k, m in found:
            print(f"{k:4d} {name}:{m.line} {m.operator} {m.old!r} -> {m.new!r}")
        return 0

    scratch = Path(tempfile.mkdtemp(prefix="mutate-"))
    works: Queue = Queue()
    target = module.relative_to(repo)
    try:
        for j in range(max(1, args.jobs)):
            work = scratch / str(j)
            shutil.copytree(repo, work, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
            (work / target).write_text(ast.unparse(ast.parse(original)))
            works.put(work)
        baseline, took = _run_tests(scratch / "0", args.tests, None)
        if baseline != "survived":
            print("the tests fail on the unmutated code", file=sys.stderr)
            return 2
        limit = max(60.0, 3 * took)

        def run(item) -> str:
            k, m = item
            work = works.get()
            try:
                (work / target).write_text(m.source)
                verdict, secs = _run_tests(work, args.tests, limit)
            finally:
                works.put(work)
            print(f"{k:4d} {verdict:8s} {name}:{m.line} {m.operator} {m.old!r} -> {m.new!r}"
                  f" ({secs:.1f} s)", flush=True)
            return verdict

        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            verdicts = list(pool.map(run, found))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    survivors = [str(k) for (k, _), v in zip(found, verdicts) if v == "survived"]
    print(f"{len(found)} mutants, {len(survivors)} survived: "
          + (",".join(survivors) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
