"""Per-layer tracing of forcelab from outside the library.

``Tracer.install`` replaces public functions, the methods the layers call
each other through, and the callables held by the presentations that public
constructors return, with wrappers that record spans.  A function is
replaced at every module attribute that holds it, because modules import
each other's functions by name (``dctrees.rasiowa_sikorski``,
``levy.ord_add``, ``qtree.prefix_enumeration``).  No value the library
compares by identity is replaced: ``CountableSet.eq`` stays ``operator.eq``,
so the fast paths keyed on ``x.eq is operator.eq`` still run.

Spans nest on one stack.  A span's self time is its duration minus the time
of the wrapped calls made inside it.  Counting wrappers record calls only
and add no span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time

from workloads import OK

# (name, unit) of every per-layer metric, in report order.  Per-op values
# are totals over the traced pass divided by its number of ops.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.parse_s", "s/op"), ("cli.json_s", "s/op"),
    ("posets.engine_steps", "steps/op"), ("posets.engine_self_s", "s/op"),
    ("posets.engine_exponent", "slope"), ("posets.density_self_s", "s/op"),
    ("posets.density_exponent", "slope"), ("posets.oracle_s", "s/op"),
    ("posets.filter_checks", "calls/op"), ("posets.table_s", "s/op"),
    ("posets.closure_s", "s/op"),
    ("collapse.leq_calls", "calls/op"), ("collapse.leq_s", "s/op"),
    ("collapse.leq_true_frac", "ratio"), ("collapse.extend_calls", "calls/op"),
    ("collapse.extend_s", "s/op"), ("collapse.index_of_calls", "calls/op"),
    ("collapse.index_of_s", "s/op"), ("collapse.injection_s", "s/op"),
    ("collapse.enum_calls", "calls/op"), ("collapse.enum_s", "s/op"),
    ("qtree.roundtrips", "calls/op"), ("qtree.coll_to_q_s", "s/op"),
    ("qtree.q_to_coll_s", "s/op"),
    ("dctrees.select_calls", "calls/op"), ("dctrees.select_s", "s/op"),
    ("dctrees.member_calls", "calls/op"), ("dctrees.member_s", "s/op"),
    ("dctrees.select_exponent", "slope"), ("dctrees.marker_s", "s/op"),
    ("dctrees.check_s", "s/op"),
    ("levy.lifts", "calls/op"), ("levy.blocks_built", "calls/op"),
    ("levy.block_s", "s/op"), ("levy.cold_growth", "x/block"),
    ("levy.usage_probes", "calls/op"), ("levy.layer_lookups", "calls/op"),
    ("levy.probes_per_query", "ratio"), ("levy.query_s", "s/op"),
    ("levy.locate_calls", "calls/op"), ("levy.locate_s", "s/op"),
    ("levy.member_s", "s/op"), ("levy.select_s", "s/op"),
    ("ordinals.add_calls", "calls/op"), ("ordinals.sub_left_calls", "calls/op"),
    ("ordinals.arith_s", "s/op"), ("ordinals.bijection_s", "s/op"),
    ("trace.ops_per_s_untraced", "op/s"), ("trace.ops_per_s_traced", "op/s"),
    ("trace.slowdown", "ratio"),
)

# Spans whose per-op inclusive time feeds the scaling fits.
FIT_SPANS = ("posets.engine", "posets.density", "dctrees.select")

_MODULES = ("cli", "collapse", "dctrees", "levy", "ordinals", "posets", "qtree")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``forcelab.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Span and call statistics: name -> [calls, inclusive s, self s, extra]."""

    def __init__(self):
        self._stack = [0.0]   # per open span: time covered by its children
        self._stats: dict[str, list] = {}

    def _entry(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0.0, 0.0, 0])

    def span(self, name: str, fn, extra=None):
        """Wrap fn in a span; ``extra(result)`` adds to the span's extra count."""
        st = self._entry(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                stack[-1] += dt
            if extra is not None:
                st[3] += extra(result)
            return result

        return traced

    def count(self, name: str, fn):
        st = self._entry(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        return counted

    def stats(self) -> dict:
        return {name: list(v) for name, v in self._stats.items()}

    def fit_snapshot(self) -> list:
        return [self._entry(name)[1] for name in FIT_SPANS]

    def fit_delta(self, before: list) -> list:
        return [now - then for now, then in zip(self.fit_snapshot(), before)]

    def install(self, forcelab) -> None:
        """Wrap the layers of an imported forcelab package in place."""
        mods = [forcelab] + [getattr(forcelab, m) for m in _MODULES]
        cli, collapse, dctrees, levy, ordinals, posets, qtree = mods[1:]
        replace = dataclasses.replace
        span, count = self.span, self.count

        def everywhere(orig, new):
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)

        def wrap_fn(mod, attr, wrapper, *args):
            orig = getattr(mod, attr)
            everywhere(orig, wrapper(*args, orig) if args else wrapper(orig))

        def wrap_result(mod, attr, transform):
            orig = getattr(mod, attr)
            everywhere(orig, functools.wraps(orig)(
                lambda *a, **k: transform(orig(*a, **k))))

        def wrap_method(cls, attr, wrapper, name):
            setattr(cls, attr, wrapper(name, vars(cls)[attr]))

        # cli: argument parsing and JSON writing
        wrap_fn(cli, "build_config", span, "cli.parse")
        cli.json = _JsonProxy(span("cli.json", json.dumps))

        # posets: engine, fragment density, finite-table oracle
        wrap_fn(posets, "rasiowa_sikorski",
                lambda fn: span("posets.engine", fn, lambda run: len(run.chain) - 1))
        wrap_fn(posets, "is_dense_on_truncation", span, "posets.density")
        wrap_fn(posets, "brute_force_filter", span, "posets.oracle")
        wrap_fn(posets, "is_filter", count, "posets.filter_check")
        for attr in ("random_finite_poset", "random_dense_sets", "table_poset",
                     "table_dense_sets"):
            wrap_fn(posets, attr, span, "posets.table")
        wrap_fn(posets, "filter_from_chain", span, "posets.closure")

        # collapse: end-extension order, extenders, index lookups, enumeration
        def traced_leq(p):
            return replace(p, leq=span("collapse.leq", p.leq, bool))

        def traced_extend(d):
            return replace(d, extend=span("collapse.extend", d.extend))

        wrap_result(collapse, "prefix_enumeration",
                    lambda enum: span("collapse.enum", enum))
        wrap_result(collapse, "coll_poset", traced_leq)
        wrap_result(dctrees, "t_of_f", traced_leq)
        wrap_result(collapse, "level_dense", traced_extend)
        wrap_result(collapse, "level_family", lambda ds: [traced_extend(d) for d in ds])
        wrap_result(dctrees, "tree_level_family",
                    lambda ds: [traced_extend(d) for d in ds])
        wrap_method(collapse.CountableSet, "index_of", span, "collapse.index_of")
        wrap_fn(collapse, "generic_to_injection", span, "collapse.injection")

        # qtree: the two directions of the isomorphism
        wrap_fn(qtree, "coll_to_q", span, "qtree.coll_to_q")
        wrap_fn(qtree, "q_to_coll", span, "qtree.q_to_coll")

        # dctrees: choice functionals, the marker reduction, witness checks
        def traced_functional(f):
            return replace(f, member=span("dctrees.member", f.member),
                           select=span("dctrees.select", f.select))

        for attr in ("f_seq", "evens_functional", "bounded_functional",
                     "const_functional", "cycle_functional"):
            wrap_result(dctrees, attr, traced_functional)
        wrap_result(dctrees, "marker_reduction", lambda g: replace(
            g, member=span("dctrees.marker", g.member),
            select=span("dctrees.marker", g.select)))
        wrap_fn(dctrees, "check_dc_witness", span, "dctrees.check")

        # levy: lifts, block builds, index bookkeeping, queries
        wrap_fn(levy, "levy_lift", count, "levy.lift")
        wrap_result(levy, "standard_block_builder",
                    lambda build: span("levy.block", build))
        wrap_result(levy, "transfinite_f_seq", lambda f: replace(
            f, member=span("levy.member", f.member),
            select=span("levy.select", f.select)))
        wrap_method(levy.IndexUsage, "contains", count, "levy.usage_probe")
        wrap_method(levy.OmegaLayer, "contains", count, "levy.layer_lookup")
        wrap_method(levy.OmegaLayer, "nth_index", count, "levy.layer_lookup")
        wrap_method(levy.LiftedWitness, "at", span, "levy.query")
        wrap_method(levy.LiftedWitness, "locate", span, "levy.locate")

        # ordinals: CNF arithmetic and the bijection with the naturals
        wrap_fn(ordinals, "ord_add", span, "ordinals.add")
        wrap_fn(ordinals, "ord_sub_left", span, "ordinals.sub_left")
        build = span("ordinals.bijection", ordinals.omega_bijection)

        def traced_bijection(a):
            b = build(a)
            return replace(b, forward=span("ordinals.bijection", b.forward),
                           backward=span("ordinals.bijection", b.backward))

        everywhere(ordinals.omega_bijection,
                   functools.wraps(ordinals.omega_bijection)(traced_bijection))


def _slope(xs: list, ys: list, log_x: bool = True) -> float:
    """Least-squares slope of ln y against ln x (or x); 0.0 without two points."""
    pts = [((math.log(x) if log_x else x), math.log(y))
           for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def ops_per_s(result: dict) -> float:
    """Correct ops per second of operation time in one worker pass."""
    ops = result["ops"]
    busy = sum(rec[3] for rec in ops)
    return sum(1 for rec in ops if rec[4] == OK) / busy if busy else 0.0


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from a traced pass and an untraced pass of one plan."""
    stats = traced["spans"]
    ops = traced["ops"]
    n = len(ops)

    def calls(*names):
        return sum(stats.get(k, (0,))[0] for k in names) / n

    def self_s(*names):
        return sum(stats.get(k, (0, 0.0, 0.0))[2] for k in names) / n

    def fit(kind, column, keep=lambda args: True):
        sel = [rec for rec in ops if rec[0] == kind and keep(rec[1])]
        return _slope([rec[2] for rec in sel], [rec[5][column] for rec in sel])

    leq = stats.get("collapse.leq", [0, 0.0, 0.0, 0])
    queries = stats.get("levy.query", [0])[0]
    cold = [rec for rec in ops if rec[0] == "lift-cold" and rec[1][0] == "w^2"]
    growth = _slope([rec[2] for rec in cold], [rec[3] for rec in cold], log_x=False)
    fast, slow = ops_per_s(untraced), ops_per_s(traced)
    values = {
        "cli.import_s": traced["import_s"],
        "cli.parse_s": self_s("cli.parse"),
        "cli.json_s": self_s("cli.json"),
        "posets.engine_steps": stats.get("posets.engine", [0, 0, 0, 0])[3] / n,
        "posets.engine_self_s": self_s("posets.engine"),
        "posets.engine_exponent": fit("coll-run", 0, lambda a: "nat" in a),
        "posets.density_self_s": self_s("posets.density"),
        "posets.density_exponent": fit("density-check", 1),
        "posets.oracle_s": self_s("posets.oracle"),
        "posets.filter_checks": calls("posets.filter_check"),
        "posets.table_s": self_s("posets.table"),
        "posets.closure_s": self_s("posets.closure"),
        "collapse.leq_calls": calls("collapse.leq"),
        "collapse.leq_s": self_s("collapse.leq"),
        "collapse.leq_true_frac": leq[3] / leq[0] if leq[0] else 0.0,
        "collapse.extend_calls": calls("collapse.extend"),
        "collapse.extend_s": self_s("collapse.extend"),
        "collapse.index_of_calls": calls("collapse.index_of"),
        "collapse.index_of_s": self_s("collapse.index_of"),
        "collapse.injection_s": self_s("collapse.injection"),
        "collapse.enum_calls": calls("collapse.enum"),
        "collapse.enum_s": self_s("collapse.enum"),
        "qtree.roundtrips": calls("qtree.coll_to_q"),
        "qtree.coll_to_q_s": self_s("qtree.coll_to_q"),
        "qtree.q_to_coll_s": self_s("qtree.q_to_coll"),
        "dctrees.select_calls": calls("dctrees.select"),
        "dctrees.select_s": self_s("dctrees.select"),
        "dctrees.member_calls": calls("dctrees.member"),
        "dctrees.member_s": self_s("dctrees.member"),
        "dctrees.select_exponent": fit(
            "dc-run", 2, lambda a: "evens" in a or "bounded" in a),
        "dctrees.marker_s": self_s("dctrees.marker"),
        "dctrees.check_s": self_s("dctrees.check"),
        "levy.lifts": calls("levy.lift"),
        "levy.blocks_built": calls("levy.block"),
        "levy.block_s": self_s("levy.block"),
        "levy.cold_growth": math.exp(growth) if growth else 0.0,
        "levy.usage_probes": calls("levy.usage_probe"),
        "levy.layer_lookups": calls("levy.layer_lookup"),
        "levy.probes_per_query": (stats.get("levy.usage_probe", [0])[0] / queries
                                  if queries else 0.0),
        "levy.query_s": self_s("levy.query"),
        "levy.locate_calls": calls("levy.locate"),
        "levy.locate_s": self_s("levy.locate"),
        "levy.member_s": self_s("levy.member"),
        "levy.select_s": self_s("levy.select"),
        "ordinals.add_calls": calls("ordinals.add"),
        "ordinals.sub_left_calls": calls("ordinals.sub_left"),
        "ordinals.arith_s": self_s("ordinals.add", "ordinals.sub_left"),
        "ordinals.bijection_s": self_s("ordinals.bijection"),
        "trace.ops_per_s_untraced": fast,
        "trace.ops_per_s_traced": slow,
        "trace.slowdown": fast / slow if slow else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
