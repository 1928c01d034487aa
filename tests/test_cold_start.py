"""A fresh process loads only the modules its command runs, and never argparse.

``forcelab`` resolves its re-exported names and submodules on first access
(PEP 562), and each CLI handler imports the modules beyond ``collapse``,
``posets``, ``records`` and ``errors`` that it alone needs.  ``posets``
loads ``tables`` when one of its names is first read there, and the value
types are plain classes, apart from the few dataclasses the benchmark's
tracer needs.  The pins here read ``sys.modules`` in a fresh interpreter;
none of them reads a clock.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import runpy
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import forcelab
from forcelab import posets, tables
from forcelab.collapse import CountableSet, nat_set
from forcelab.levy import IndexUsage, transfinite_f_seq
from test_readme_commands import command_lines

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
SETUP_ARGV = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["SETUP_ARGV"]

# The parent namespace: each re-exported name under its home module.
EXPORTS = {
    "collapse": ["CountableSet", "InjSeq", "builtin_set", "coll_poset",
                 "generic_to_injection", "injection_to_generic", "level_dense",
                 "level_family", "nat_set"],
    "dctrees": ["ChoiceFunctional", "check_dc_witness", "dc_witness", "f_seq",
                "marked_set", "marker_reduction", "modified_functional", "t_of_f",
                "unmark"],
    "errors": ["ContractError"],
    "levy": ["CofinalPresentation", "check_transfinite_witness", "levy_lift",
             "standard_cofinal", "transfinite_f_seq"],
    "ordinals": ["OMEGA", "ZERO", "Ordinal", "OrdinalsBelow", "TransfiniteSeq",
                 "concat", "omega_bijection", "ord_add", "parse_cnf", "ssup"],
    "posets": ["DenseSet", "GenericRun", "PosetPresentation", "brute_force_filter",
               "filter_from_chain", "gamma_check", "is_dense_on_truncation",
               "rasiowa_sikorski"],
    "qtree": ["LatticeOracle", "QSeq", "coll_to_q", "finite_subset_lattice",
              "lambda_tree", "q_into_lambda", "q_to_coll"],
}
NAMES = [name for names in EXPORTS.values() for name in names]

BASE = {"cli", "collapse", "errors", "posets", "records"}
ALLOWED = {
    "coll-run": BASE,
    "density-check": BASE,
    "oracle-check": BASE | {"tables"},
    "iso-roundtrip": BASE | {"qtree", "tables"},
    "dc-run": BASE | {"dctrees"},
    "marker-run": BASE | {"dctrees", "ordinals"},
    "levy-run": BASE | {"levy", "ordinals"},
}

# The finite tables are read by the oracle and by qtree's lattice check alone.
LOADS_TABLES = {"oracle-check", "iso-roundtrip"}

# The value types that stay dataclasses: perfbench/tracing.py rewraps them
# with ``dataclasses.replace``.  Every other value type is a plain class.
TRACER_DATACLASSES = ("PosetPresentation", "DenseSet", "ChoiceFunctional",
                      "TransfiniteFunctional", "OmegaBijection")

LOADED_AFTER = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is not None:
    from forcelab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
else:
    import forcelab
modules = [m for name, m in list(sys.modules.items()) if name.startswith("forcelab.")]
print(json.dumps([sorted(m.__name__.split(".", 1)[1] for m in modules),
                  "argparse" in sys.modules,
                  sorted(c.__name__ for m in modules for c in vars(m).values()
                         if isinstance(c, type) and c.__module__ == m.__name__
                         and "__dataclass_fields__" in vars(c))]))
"""


def loaded_after(argv) -> tuple[set[str], bool, list[str]]:
    """The forcelab submodules a fresh interpreter holds after running argv
    in-process (after a bare ``import forcelab`` when argv is None), whether
    it holds ``argparse``, and the dataclasses those submodules define."""
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER, json.dumps(argv)],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    modules, argparse_loaded, dataclass_names = json.loads(done.stdout)
    return set(modules), argparse_loaded, dataclass_names


def test_bare_import_loads_no_submodule():
    assert loaded_after(None) == (set(), False, [])


@pytest.mark.parametrize("argv", [shlex.split(line, comments=True)[1:]
                                  for line in command_lines()]
                         + list(SETUP_ARGV.values()), ids=" ".join)
def test_command_loads_only_its_modules(argv):
    modules, argparse_loaded, dataclass_names = loaded_after(argv)
    assert modules <= ALLOWED[argv[0]]
    assert ("tables" in modules) == (argv[0] in LOADS_TABLES)
    assert not argparse_loaded
    assert set(dataclass_names) <= set(TRACER_DATACLASSES)


def test_only_the_tracers_value_types_are_dataclasses():
    modules = [importlib.import_module(f"forcelab.{path.stem}")
               for path in sorted((ROOT / "src" / "forcelab").glob("[!_]*.py"))]
    defined = [c.__name__ for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__
               and "__dataclass_fields__" in vars(c)]
    assert sorted(defined) == sorted(TRACER_DATACLASSES)


# ---------------------------------------------------------------------------
# the finite tables behind posets
# ---------------------------------------------------------------------------

# The names perfbench/tracing.py wraps on posets; it replaces each in
# ``vars(posets)``, so each must be stored there once read.
TRACED_ON_POSETS = ("rasiowa_sikorski", "is_dense_on_truncation", "brute_force_filter",
                    "is_filter", "random_finite_poset", "random_dense_sets", "table_poset",
                    "table_dense_sets", "filter_from_chain")


@pytest.mark.parametrize("name", TRACED_ON_POSETS)
def test_traced_names_resolve_and_are_stored_on_posets(name):
    value = getattr(posets, name)
    assert callable(value) and vars(posets)[name] is value
    if name in posets._TABLE_NAMES:
        assert value is getattr(tables, name)


def test_posets_forwards_every_definition_of_tables():
    tree = ast.parse((ROOT / "src" / "forcelab" / "tables.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert posets._TABLE_NAMES == defined
    with pytest.raises(AttributeError, match="no_such_name"):
        posets.no_such_name


# ---------------------------------------------------------------------------
# the package namespace
# ---------------------------------------------------------------------------


def test_all_is_the_parent_namespace():
    assert len(NAMES) == 49
    assert forcelab.__all__ == sorted(NAMES + list(EXPORTS))
    assert set(forcelab.__all__) <= set(dir(forcelab))


@pytest.mark.parametrize("mod", [*EXPORTS, "cli"])
def test_submodules_resolve(mod):
    assert getattr(forcelab, mod) is sys.modules[f"forcelab.{mod}"]


def test_names_are_their_home_modules_attributes():
    for mod, names in EXPORTS.items():
        home = getattr(forcelab, mod)
        for name in names:
            assert getattr(forcelab, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from forcelab import *", ns)
    assert set(ns) - {"__builtins__"} == set(forcelab.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        forcelab.no_such_name
    assert not hasattr(forcelab, "_no_such_private")


SAME_AFTER_TRACING = """
import json, sys
sys.path.insert(0, sys.argv[1])
import forcelab, tracing
exports = json.loads(sys.argv[2])
names = [n for ns in exports.values() for n in ns]
for name in names[::2]:  # some names resolved before the tracer wraps them
    getattr(forcelab, name)
tracing.Tracer().install(forcelab)
for mod, ns in exports.items():
    for name in ns:
        assert getattr(forcelab, name) is getattr(getattr(forcelab, mod), name), name
assert all(hasattr(getattr(forcelab, name), "__wrapped__")  # the tracer did wrap
           for name in ("coll_poset", "generic_to_injection"))
print("ok")
"""


def test_names_stay_their_home_modules_attributes_after_tracing():
    done = subprocess.run(
        [sys.executable, "-c", SAME_AFTER_TRACING, str(ROOT / "perfbench"),
         json.dumps(EXPORTS)],
        env=ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "ok\n"


# ---------------------------------------------------------------------------
# python -m forcelab
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["coll-run", "--set", "evens", "--n", "4"],
                                  ["coll-run", "--n", "-1"],
                                  ["no-such-command"]])
def test_python_m_forcelab_is_the_cli(argv):
    runs = [subprocess.run([sys.executable, "-m", module, *argv], env=ENV,
                           capture_output=True, text=True, timeout=60)
            for module in ("forcelab", "forcelab.cli")]
    plain, cli = runs
    assert (plain.stdout, plain.stderr, plain.returncode) == (
        cli.stdout, cli.stderr, cli.returncode)


# ---------------------------------------------------------------------------
# one index lookup per transfinite_f_seq membership test
# ---------------------------------------------------------------------------


def test_member_looks_each_value_up_once():
    """One call of the set's ``index`` per value."""
    calls = []
    nat = nat_set()
    x = CountableSet("nat", nat.enum, index=lambda code: calls.append(code) or nat.index(code))
    seq = types.SimpleNamespace(usage=IndexUsage().with_explicit([1, 3]))
    f = transfinite_f_seq(x)
    for v, want in [(2, True), (3, False), (-1, False)]:
        calls.clear()
        assert f.member(seq, v) is want, v
        assert calls == [v]
