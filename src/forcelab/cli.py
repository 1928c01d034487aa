"""Command-line front door: run constructions and checks, emit JSON traces.

Every run is deterministic given its flags (seeded randomness, no clocks),
so identical invocations produce byte-identical output.  Exit codes:
0 success, 1 named contract violation (the code appears in the JSON),
2 bad configuration or argv (read as by argparse 3.11; ``--flag=--`` is "--").
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

# Each handler imports the modules beyond these that it alone needs, so a
# fresh process loads only what its command runs.
from . import collapse, posets
from .errors import ContractError
from .records import Record


class RunConfig(Record):
    """A command, its parameters and the file to write its document to (None: stdout)."""

    __slots__ = ("command", "params", "output_path")
    command: str
    params: dict
    output_path: Optional[str]

    def __init__(self, command: str, params: Optional[dict] = None,
                 output_path: Optional[str] = None):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "params", {} if params is None else params)
        object.__setattr__(self, "output_path", output_path)


# Inclusive (least, greatest) value of each size, count and level; None is
# unbounded.  Zero cases or an empty fragment would report a vacuous
# success, a table needs two elements and the brute-force oracle refuses
# more than posets._ORACLE_CAP, and iso-roundtrip samples its sequences
# from range(1000).  The other bounds keep a run within about 1 GiB and a
# minute: a fragment of 2,000,000 conditions peaks at 0.6 GiB, a run of
# 1,000,000 steps (marker-run over pairs, the largest) at 0.5 GiB in 17 s,
# and both caps of density-check at once at 0.7 GiB.  Cases cost only time.
_BOUNDS = {"n": (0, 1_000_000), "i": (0, 2_000_000), "frag": (1, 2_000_000),
           "cases": (1, None), "size": (2, posets._ORACLE_CAP), "len": (0, 1000)}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a config to its module operation; return (exit status, document)."""
    if cfg.command not in _COMMANDS:
        return 2, {"error": "bad-config",
                   "detail": f"unknown command {cfg.command!r}"}
    handler, spec = _COMMANDS[cfg.command]
    unknown = set(cfg.params) - set(spec)
    if unknown:
        return 2, {"error": "bad-config",
                   "detail": f"unknown keys {sorted(unknown)}"}
    for key, value in cfg.params.items():
        # a library caller's config may hold a value of any type
        if type(value) is not type(spec[key]):
            return 2, {"error": "bad-config",
                       "detail": f"{key} must be {type(spec[key]).__name__}, got {value!r}"}
    params = {**spec, **cfg.params}
    try:
        for key, (lo, hi) in _BOUNDS.items():
            value = params.get(key, lo)
            if value < lo or (hi is not None and value > hi):
                bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
                return 2, {"error": "bad-config",
                           "detail": f"{key} must be {bound}, got {value}"}
        doc = handler(params)
        return 0, doc
    except ContractError as exc:
        return 1, {"error": exc.code, "detail": str(exc)}
    except (KeyError, ValueError) as exc:
        return 2, {"error": "bad-config", "detail": str(exc)}


def _cmd_coll_run(params: dict) -> dict:
    x = collapse.builtin_set(params["set"])
    n = params["n"]
    poset = collapse.coll_poset(x)
    run_ = posets.rasiowa_sikorski(poset, collapse.level_family(x, n), (), n)
    inj = collapse.generic_to_injection(run_)
    return collapse.inj_seq_json(x, inj)


def _cmd_iso_roundtrip(params: dict) -> dict:
    from . import qtree
    rng = random.Random(params["seed"])
    cases = params["cases"]
    max_len = params["len"]
    ok = True
    for _ in range(cases):
        items = tuple(rng.sample(range(1000), rng.randint(0, max_len)))
        back = qtree.q_to_coll(qtree.coll_to_q(collapse.InjSeq(items)))
        ok = ok and back.items == items
    return {"ok": ok, "cases": cases}


def _cmd_dc_run(params: dict) -> dict:
    from . import dctrees
    x = collapse.builtin_set(params["set"])
    f = dctrees.fixture_functional(x, params["functional"])
    if not f.injective_mode:
        raise ValueError(f"functional {f.name} allows repetition; use marker-run")
    witness = dctrees.dc_witness(x, f, params["n"])
    return dctrees.witness_json(f, witness)


def _cmd_marker_run(params: dict) -> dict:
    from . import dctrees
    x = collapse.builtin_set(params["set"])
    f = dctrees.fixture_functional(x, params["functional"])
    g = dctrees.marker_reduction(x, f)
    marked = dctrees.dc_witness(dctrees.marked_set(x), g, params["n"])
    witness = dctrees.unmark(marked)
    doc = dctrees.witness_json(g, witness, markers=[m.marker for m in marked])
    doc["passes_original"] = dctrees.check_dc_witness(f, witness)
    return doc


def _cmd_levy_run(params: dict) -> dict:
    from . import levy
    from .ordinals import parse_cnf
    x = collapse.builtin_set(params["set"])
    cof = levy.standard_cofinal(parse_cnf(params["alpha"]))
    f = levy.transfinite_f_seq(x)
    g = levy.levy_lift(cof, f)
    return levy.run_report_json(cof, f, g, blocks=6, samples=g.default_samples())


def _cmd_density_check(params: dict) -> dict:
    x = collapse.builtin_set(params["set"])
    report = posets.is_dense_on_truncation(
        collapse.coll_poset(x),
        collapse.level_dense(x, params["i"]),
        params["frag"])
    doc = {"dense": report.dense, "fragment": report.fragment}
    if report.dense is None:
        doc["inconclusive"] = True
        doc["undecided"] = posets._jsonable(report.undecided)
    elif not report.dense:
        doc["counterexample"] = posets._jsonable(report.counterexample)
    return doc


def _cmd_oracle_check(params: dict) -> dict:
    rng = random.Random(params["seed"])
    cases = params["cases"]
    size_cap = params["size"]
    agreements = 0
    for _ in range(cases):
        table = posets.random_finite_poset(rng, rng.randint(2, size_cap))
        subsets = posets.random_dense_sets(rng, table, rng.randint(1, 3))
        pres = posets.table_poset(table)
        start = pres.root if pres.root is not None else table.elements[0]
        run_ = posets.rasiowa_sikorski(pres, posets.table_dense_sets(table, subsets),
                                       start, len(subsets))
        closure = posets.filter_from_chain(pres, run_.chain, len(table.elements))
        oracle = posets.brute_force_filter(table, subsets)
        if (posets.is_filter(table, closure)
                and all(closure & s for s in subsets)
                and oracle is not None):
            agreements += 1
    return {"ok": agreements == cases, "cases": cases, "agreements": agreements}


# Each command's handler and its parameters with their defaults; a flag
# parses to the type of its default.
_COMMANDS = {
    "coll-run": (_cmd_coll_run, {"set": "nat", "n": 5}),
    "iso-roundtrip": (_cmd_iso_roundtrip, {"len": 10, "cases": 10, "seed": 0}),
    "dc-run": (_cmd_dc_run, {"set": "nat", "functional": "seq", "n": 10}),
    "marker-run": (_cmd_marker_run, {"set": "nat", "functional": "const", "n": 10}),
    "levy-run": (_cmd_levy_run, {"set": "nat", "alpha": "w*2"}),
    "density-check": (_cmd_density_check, {"set": "nat", "i": 3, "frag": 200}),
    "oracle-check": (_cmd_oracle_check, {"seed": 0, "cases": 20, "size": 7}),
}


def _option(token: str, flags: dict) -> Optional[tuple]:
    """How argparse reads ``token``: None for a value, else (flag or None if
    unknown, text after "=" or None).  An ambiguous prefix raises ValueError."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "h":  # -h, -hh... and -h=h... are help; help refuses other text
        rest = token[2:].removeprefix("=")
        return "help", rest if rest.strip("h") or token == "-h=" else None
    if token[1] == "-":
        name, eq, value = token[2:].partition("=")
        found = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(found) > 1:
            raise ValueError(f"ambiguous option {token!r}: --{', --'.join(found)}")
        if found:
            return found[0], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, None)


def build_config(argv: list[str]) -> RunConfig:
    """``argv`` as argparse read it; before a command, only help is read."""
    command = argv[0] if argv else None
    known = command in _COMMANDS
    flags = {"help": None, "out": "", **_COMMANDS[command][1]} if known else {"help": None}
    tokens = argv[1:] if known else argv[:1]
    end = tokens.index("--") if "--" in tokens else len(tokens)  # no flag from "--" on
    values, extra = {}, list(tokens[end:])
    try:
        pairs = iter(zip(tokens, [_option(t, flags) for t in tokens[:end]]))
        for token, option in pairs:
            flag, value = option or (None, None)
            if flag == "help":
                if value is not None:
                    raise ValueError(f"help takes no value, got {value!r}")
                print("usage: forcelab", command if known else "{%s}" % ",".join(_COMMANDS),
                      "[-h]", *[f"[--{f} {f.upper()}]" for f in flags if f != "help"])
                raise SystemExit(0)
            if flag is None:
                extra.append(token)
                continue
            if value is None:  # the next token, if it is a value
                value, option = next(pairs, ("", ()))
                if option is not None:
                    raise ValueError(f"--{flag} needs a value")
            values[flag] = type(flags[flag])(value)
        if extra or not known:
            raise ValueError(f"unrecognized {extra}" if known else f"no command in {argv[:1]}")
    except ValueError as exc:
        sys.stderr.write(f"forcelab: error: {exc}\n")
        raise SystemExit(2) from None
    return RunConfig(command, values, values.pop("out", None))


@functools.lru_cache(maxsize=None)
def _c_encoder(level: int):
    """The C encoder for a value at depth ``level``: container members are
    separated as ``indent=2`` separates them at that depth, keys sorted."""
    # (markers, default, encoder, indent, key_separator, item_separator,
    #  sort_keys, skipkeys, allow_nan): no circular check, documents are trees
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", ",\n" + "  " * (level + 1), True, False, True)


def _emit(o, level: int) -> str:
    """``o`` as ``json.dumps(o, indent=2, sort_keys=True)`` writes it at depth ``level``.

    A container whose members are all plain scalars is one call to the C
    encoder, wrapped in its depth's brackets and padding, and so is a list
    of non-empty rows of scalars, such as ``pairs`` codes: the encoder's
    separators hold the only raw newlines it writes, and only the end of a
    row puts "]" before one, so the rows' own brackets are re-padded by
    one ``replace``.  Other containers that hold containers are walked
    here.  Documents are trees whose dicts have ``str`` keys, as every CLI
    document is.  A value ``json`` cannot write raises its ``TypeError``.
    """
    if isinstance(o, dict):
        members, brackets = o.values(), "{}"
    elif isinstance(o, (list, tuple)):
        members, brackets = o, "[]"
    else:
        return "".join(_c_encoder(level)(o, 0))
    if not o:
        return brackets
    inner = "\n" + "  " * (level + 1)
    if posets._JSON_SCALARS.issuperset(map(type, members)):
        body = "".join(_c_encoder(level)(o, 0))[1:-1]
    elif brackets == "{}":
        body = ("," + inner).join([encode_basestring_ascii(k) + ": " + _emit(v, level + 1)
                                   for k, v in sorted(o.items())])
    elif posets._scalar_rows(o) and all(o):
        row = inner + "  "
        rows = "".join(_c_encoder(level + 1)(o, 0))[2:-2]
        body = ("[" + row + rows.replace("]," + row + "[", inner + "]," + inner + "[" + row)
                + inner + "]")
    else:
        body = ("," + inner).join([_emit(v, level + 1) for v in o])
    return brackets[0] + inner + body + inner[:-2] + brackets[1]


class _Encoder(json.JSONEncoder):
    """Writes ``indent=2, sort_keys=True`` output through ``_emit``, whatever
    options it is given; ``_dumps`` passes exactly those."""

    def iterencode(self, o, _one_shot=False):
        return (_emit(o, 0),)


def _dumps(doc: dict) -> str:
    """A document's text: one ``json.dumps`` call, so a wrapped ``json``
    module sees every document written."""
    return json.dumps(doc, cls=_Encoder, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    cfg = build_config(sys.argv[1:] if argv is None else argv)
    status, doc = run(cfg)
    text = _dumps(doc)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stdout.write(_dumps({"error": "bad-config",
                                     "detail": f"cannot write the output: {exc}"}))
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
