"""Lint: every parameter of a named function in the library is read.

A parameter that the body never reads is an option nobody can use.  The
check skips ``self``, ``cls``, names that start with ``_`` (kept to match
a call shape on purpose) and lambdas.  A read in a nested function or
lambda counts, since the closure reads it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "forcelab"
MODULES = sorted(SRC.glob("*.py"))


def parameters(fn):
    args = fn.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [a.arg for a in named
            if a is not None and a.arg not in ("self", "cls") and not a.arg.startswith("_")]


def unread_parameters(tree):
    """(line, function, parameter) for each parameter its body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in parameters(node):
                if name not in read:
                    yield node.lineno, node.name, name


def test_the_lint_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, _c, *args, d, **kw):\n"
                     "    g = lambda: a\n"
                     "    return kw[d]\n"
                     "class K:\n"
                     "    def m(self, e):\n"
                     "        pass\n")
    assert sorted(unread_parameters(tree)) == [(1, "f", "args"), (1, "f", "b"),
                                               (5, "m", "e")]


def test_every_parameter_is_read():
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unread += [(path.name, *hit) for hit in unread_parameters(tree)]
    assert unread == []
