"""Lints: every parameter of a named function in the library is read,
every public definition of the library is exported or read by the library,
and every public member of a library class is read by the library.

A parameter that the body never reads is an option nobody can use.  The
check skips ``self``, ``cls``, names that start with ``_`` (kept to match
a call shape on purpose) and lambdas.  A read in a nested function or
lambda counts, since the closure reads it.

A public module-level ``def`` or ``class`` that the package does not
export and no module reads is code that only tests run.  A read is a name
loaded anywhere in the library, an attribute of that name read off a
library module (``levy.x``), or an import of it from another module; an
attribute read off any other value names a member, not a definition.
``posets`` forwards the names of ``tables`` (PEP 562), so a name the
package exports from ``posets`` that ``posets`` forwards is exported from
``tables``, where it is defined.

A public method, property or class attribute of a library class is read
when some library module reads an attribute of that name.  An override of
a method or attribute of a base class (``json.JSONEncoder.iterencode``, an
error's ``code``) is read wherever the base's is, so it is skipped.  The
annotated fields of a dataclass are the data its values carry to whoever
receives them (``gamma_check``'s report, ``omega_bijection``'s two maps),
so they are not members here.
"""

import ast
import importlib
import pathlib

from forcelab import _EXPORTS, posets

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
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
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
                            "def method(): pass\n"
                            "def _private(): pass\n"
                            "class Table:\n"
                            "    def method(self): pass\n"
                            "def f(t):\n"
                            "    return called(), t.method()\n"),
        "qtree": ast.parse("from .posets import f\n"
                           "from . import posets\n"
                           "g = posets.Table\n"
                           "class Lone: pass\n"),
    }
    exports = {"posets": "leq"}
    # t.method() reads the member Table.method, not the function method
    assert sorted(unreached_definitions(trees, exports)) == [
        ("posets", "method"), ("posets", "unread"), ("qtree", "Lone")]
    # without the module that imports f and reads posets.Table
    assert sorted(unreached_definitions({"posets": trees["posets"]}, exports)) == [
        ("posets", "Table"), ("posets", "f"), ("posets", "method"), ("posets", "unread")]


def test_no_library_code_only_tests_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    forwarded = posets._TABLE_NAMES & set(_EXPORTS["posets"].split())
    exports = {**_EXPORTS, "tables": " ".join(sorted(forwarded))}
    unread = {name for _, name in unreached_definitions(trees, exports)}
    assert sorted(unread - UNREAD_KEPT) == []
    assert sorted(UNREAD_KEPT - unread) == [], "a kept name gained a reader: unlist it"


# Public class members that nothing in the library reads, kept for what
# they mean.
UNREAD_MEMBERS_KEPT = {
    # the dense sets the run met, as the paper states a run; the criteria tests read it
    ("posets", "GenericRun", "met"),
    # succ's inverse, with which tests step back from a successor length or offset
    ("ordinals", "Ordinal", "pred"),
    # w^e*c, the public constructor of a power beside omega(c); tests build powers with it
    ("ordinals", "Ordinal", "omega_power"),
    # the finite sequence of given items, which transfinite_f_seq records by index
    ("ordinals", "TransfiniteSeq", "from_items"),
}


def class_members(tree):
    """(class, member) for each public method, property and unannotated
    class attribute of the module's top-level classes."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((cls.name, name) for name in names if not name.startswith("_"))


def unread_members(trees, inherited):
    """(module, class, member) for each public member of a class of the
    modules (a dict of module name to tree) that no module reads as an
    attribute; ``inherited(module, class, member)`` says whether a base
    class defines the member."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for module, tree in trees.items():
        for cls, name in class_members(tree):
            if name not in read and not inherited(module, cls, name):
                yield module, cls, name


def defined_by_a_base(module, cls, name):
    """Whether a base class of the library class defines the member."""
    klass = getattr(importlib.import_module(f"forcelab.{module}"), cls)
    return any(name in vars(base) for base in klass.__mro__[1:])


def test_the_lint_sees_an_unread_member():
    trees = {
        "posets": ast.parse("import json\n"
                            "class Table:\n"
                            "    rows: tuple\n"
                            "    unread_field: int = 0\n"
                            "    size = 3\n"
                            "    unread_size = 4\n"
                            "    def up(self): pass\n"
                            "    def lone(self): pass\n"
                            "    def _private(self): pass\n"
                            "    def __len__(self): pass\n"
                            "    @property\n"
                            "    def width(self): pass\n"
                            "class Encoder(json.JSONEncoder):\n"
                            "    def iterencode(self, o): pass\n"),
        "qtree": ast.parse("def f(t):\n"
                           "    t.rows = t.up()\n"
                           "    return t.size\n"),
    }
    overrides = {("posets", "Encoder", "iterencode")}
    found = sorted(unread_members(trees, lambda *member: member in overrides))
    assert found == [("posets", "Table", "lone"), ("posets", "Table", "unread_size"),
                     ("posets", "Table", "width")]


def test_no_class_member_only_tests_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    unread = set(unread_members(trees, defined_by_a_base))
    assert sorted(unread - UNREAD_MEMBERS_KEPT) == []
    assert sorted(UNREAD_MEMBERS_KEPT - unread) == [], "a kept member gained a reader: unlist it"
