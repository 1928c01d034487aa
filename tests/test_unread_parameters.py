"""Lints: every parameter of a named function in the library is read, and
every public definition of the library is exported or read by the library.

A parameter that the body never reads is an option nobody can use.  The
check skips ``self``, ``cls``, names that start with ``_`` (kept to match
a call shape on purpose) and lambdas.  A read in a nested function or
lambda counts, since the closure reads it.

A public module-level ``def`` or ``class`` that the package does not
export and no module reads is code that only tests run.  A read is a name
loaded anywhere in the library, an attribute of that name, or an import of
it from another module.
"""

import ast
import pathlib

from forcelab import _EXPORTS

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


# Public definitions that nothing reads yet, kept for what they will serve.
UNREAD_KEPT = {
    "run_trace_json",  # the "generic run trace" JSON schema, for a --trace option
    "qseq_json",       # the "subset stages" JSON schema, for a --trace option
    "q_extends",       # the paper's order on Q, which criterion 3 compares with Coll's
    "check_lattice",   # the lattice law check that criterion 4 runs
}


def unreached_definitions(trees, exports):
    """(module, name) for each public module-level def or class of the
    modules (a dict of module name to tree) that is not among the module's
    exports (an ``_EXPORTS`` dict) and that no module reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    for module, tree in trees.items():
        exported = set(exports.get(module, "").split())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in exported | read):
                yield module, node.name


def test_the_lint_sees_an_unreached_definition():
    trees = {
        "posets": ast.parse("def leq(): pass\n"
                            "def called(): pass\n"
                            "def unread(): pass\n"
                            "def _private(): pass\n"
                            "class Table:\n"
                            "    def method(self): pass\n"
                            "def f():\n"
                            "    return called()\n"),
        "qtree": ast.parse("from .posets import f\n"
                           "from . import posets\n"
                           "g = posets.Table\n"
                           "class Lone: pass\n"),
    }
    exports = {"posets": "leq"}
    assert sorted(unreached_definitions(trees, exports)) == [("posets", "unread"),
                                                             ("qtree", "Lone")]
    # without the module that imports f and reads posets.Table
    assert sorted(unreached_definitions({"posets": trees["posets"]}, exports)) == [
        ("posets", "Table"), ("posets", "f"), ("posets", "unread")]


def test_no_library_code_only_tests_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    unread = {name for _, name in unreached_definitions(trees, _EXPORTS)}
    assert sorted(unread - UNREAD_KEPT) == []
    assert sorted(UNREAD_KEPT - unread) == [], "a kept name gained a reader: unlist it"
