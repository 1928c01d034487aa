"""Smoke test of tools/mutate.py: each operator's mutant of a small source."""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tools_mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = sys.modules.setdefault(_spec.name, importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(mutate)

SOURCE = '''\
def kept(x: 1 < 2 = 0) -> 3 | 4:  # only the default is a site
    y: 5 + 6 = x
    return y


def f(a, b):
    """The body holds one site per operator."""
    if (a in range(b) or  # or
            a is None):
        return (a < b) and a + 3 | b
    b ^= a
    return b
'''

# f with each site changed, in the order the sites are numbered
EXPECTED = [
    (8, "boolop", "or", "and", lambda a, b: b ^ a),
    (8, "compare", "in", "not in", lambda a, b: (a < b) and a + 3 | b if a not in range(b)
     else b ^ a),
    (9, "compare", "is", "is not", lambda a, b: (a < b) and a + 3 | b),
    (10, "boolop", "and", "or", lambda a, b: (a < b) or a + 3 | b if a in range(b) else b ^ a),
    (10, "compare", "<", ">=", lambda a, b: (a >= b) and a + 3 | b if a in range(b) else b ^ a),
    (10, "binop", "|", "&", lambda a, b: (a < b) and a + 3 & b if a in range(b) else b ^ a),
    (10, "binop", "+", "-", lambda a, b: (a < b) and a - 3 | b if a in range(b) else b ^ a),
    (10, "const", "3", "4", lambda a, b: (a < b) and a + 4 | b if a in range(b) else b ^ a),
    (11, "binop", "^=", "|=", lambda a, b: (a < b) and a + 3 | b if a in range(b) else b | a),
]
CASES = [(a, b) for a in (0, 1, 2, 5) for b in (0, 1, 3, 6)]


def load(source, name):
    space = {}
    exec(source, space)
    return space[name]


def test_each_operator_changes_one_site():
    found = mutate.mutants(SOURCE, "f")
    assert [(m.line, m.operator, m.old, m.new) for m in found] == [e[:4] for e in EXPECTED]
    original = load(SOURCE, "f")
    for m, (*_, expected) in zip(found, EXPECTED):
        f = load(m.source, "f")
        assert [f(a, b) for a, b in CASES] == [expected(a, b) for a, b in CASES], m
        assert any(f(a, b) != original(a, b) for a, b in CASES), m


def test_annotations_whole_text_and_a_missing_start():
    kept = mutate.mutants(SOURCE, "kept")
    assert [(m.line, m.operator, m.old, m.new) for m in kept[:1]] == [(1, "const", "0", "1")]
    assert load(kept[0].source, "kept")() == 1
    assert len(kept) == len(mutate.mutants(SOURCE)) == 1 + len(EXPECTED)
    # operands over a backslash continuation
    values = [load(m.source + "\ndef get():\n    return x\n", "get")()
              for m in mutate.mutants("x = -1 \\\n    << 2\n")]
    assert values == [-1 >> 2, -2 << 2, -1 << 3]
    with pytest.raises(ValueError, match="named 'absent'"):
        mutate.mutants(SOURCE, "absent")
