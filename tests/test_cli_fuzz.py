"""The front door under generated argv: a right answer or a named refusal.

Every command of ``cli._COMMANDS`` is run in-process on argv drawn flag by
flag from the type of the flag's default: bound edges, negatives, small
sizes, non-numeric text for ints, valid and junk ``--alpha`` strings,
unknown flags and unknown commands.  ``--out`` is left out, since it writes
a file, and so are prefixes of ``--help``, which prints help.  Each outcome
must be one of:

* argparse's own rejection: exit 2 and nothing on stdout;
* exit 0 with one JSON document that names no error and claims no success
  over zero cases or an empty fragment;
* exit 1 with the code of an ``errors.ContractError`` subclass;
* exit 2 with ``bad-config``.

A second run of the same argv prints the same bytes.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcelab import cli, errors
from forcelab.ordinals import Ordinal, format_cnf


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


CONTRACT_CODES = {c.code for c in _subclasses(errors.ContractError)}

# The largest value drawn inside each size's range, so that a case runs in
# milliseconds; the bounds themselves come from ``cli._BOUNDS``.
_SMALL = {"n": 40, "i": 8, "frag": 300, "cases": 4, "size": 20, "len": 40}

JUNK_INTS = ["", "x", "1.5", "0x3", "1e3", "nan", "- 1", "3 ", "+3", "1_0", "٣", "--"]


def _int_values(flag):
    if flag == "seed":
        return st.integers(-10**20, 10**20).map(str)
    lo, hi = cli._BOUNDS[flag]
    edges = [lo - 1, lo, lo + 1] + ([hi, hi + 1] if hi is not None and hi <= 1000 else [])
    return st.one_of(st.sampled_from(edges).map(str),
                     st.integers(-3, _SMALL[flag]).map(str),
                     st.sampled_from(JUNK_INTS))


_junk_text = st.text(alphabet="w^*+0123456789 -abé", max_size=8)


@st.composite
def _cnf(draw):
    """A valid CNF string below w^4; most of these are not limits."""
    exps = sorted(draw(st.sets(st.integers(0, 3), max_size=3)), reverse=True)
    return format_cnf(Ordinal(tuple((e, draw(st.integers(1, 12))) for e in exps)))


_STRINGS = {
    "set": st.one_of(st.sampled_from(["nat", "evens", "pairs", "--"]), _junk_text),
    "functional": st.one_of(
        st.sampled_from(["seq", "evens", "bounded", "const", "cycle2", "cycle3"]),
        _junk_text),
    "alpha": st.one_of(
        st.sampled_from(["w*2", "w*3", "w^2", "w", "w*1", "w*0", "0", "5", "w+1",
                         "w*2+1", "w^2*2", "w^3", "w*1000000", "", " w*2 ", "w+w", "--"]),
        _cnf(), _junk_text),
}

UNKNOWN_FLAGS = ["--bogus", "--nn", "--sets", "--x", "--n", "--i", "--alpha", "--seed",
                 "--size", "--len", "--frag", "--cases", "--functional"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    defaults = cli._COMMANDS[command][1]
    pairs = []
    for flag, default in defaults.items():
        if draw(st.booleans()):
            values = _int_values(flag) if isinstance(default, int) else _STRINGS[flag]
            pairs.append((f"--{flag}", draw(values)))
    if draw(st.sampled_from(range(10))) == 0:
        pairs.append((draw(st.sampled_from(UNKNOWN_FLAGS)), draw(_junk_text)))
    argv = [command]
    for flag, value in draw(st.permutations(pairs)):
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.sampled_from(range(20))) == 0:
        argv[0] = draw(st.sampled_from(["coll", "", "levy", "--n", "help"]))
    return argv


def outcome(argv):
    """(exit status, stdout, whether argparse refused the argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), out.getvalue(), False
        except SystemExit as exc:
            return exc.code, out.getvalue(), True


def check_outcome(argv):
    status, text, refused = outcome(argv)
    if refused:
        assert (status, text) == (2, "")
    else:
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if status == 0:
            assert "error" not in doc
            if doc.get("ok") is True:
                assert doc["cases"] >= 1
                assert doc.get("agreements", doc["cases"]) == doc["cases"]
            if doc.get("dense") is True:
                assert doc["fragment"] >= 1
        elif status == 1:
            assert doc["error"] in CONTRACT_CODES
        else:
            assert status == 2 and doc["error"] == "bad-config"
    assert outcome(argv) == (status, text, refused)
    return status, text


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_generated_argv_answers_or_refuses_by_name(argv):
    check_outcome(argv)


@pytest.mark.parametrize("argv, status", [
    (["levy-run", "--alpha", "w^3"], 1),
    (["levy-run", "--alpha", "w+w"], 2),
    (["levy-run", "--alpha", ""], 2),
    (["marker-run", "--set", "odd"], 2),
    (["coll-run", "--n", "0"], 0),
])
def test_edges_answer_as_the_fuzz_expects(argv, status):
    assert check_outcome(argv)[0] == status


@pytest.mark.parametrize("argv", [
    ["coll-run", "--n=--"],
    ["density-check", "--frag=--"],
    ["dc-run", "--set=--"],
    ["levy-run", "--alpha=--"],
])
def test_an_empty_list_from_argparse_is_bad_config(argv):
    """argparse drops a "--" value given with "=" and hands the handler an
    empty list, which raised a raw ``TypeError`` or ``AttributeError``."""
    status, text = check_outcome(argv)
    assert status == 2
    assert json.loads(text)["detail"].endswith("got []")


@pytest.mark.parametrize("params", [{"n": "5"}, {"n": 5.0}, {"n": True}, {"set": None}])
def test_run_refuses_values_of_another_type(params):
    status, doc = cli.run(cli.RunConfig("coll-run", params))
    assert status == 2 and doc["error"] == "bad-config"
