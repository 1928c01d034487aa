"""Countable forcing posets, dense-set families, and a generic-filter engine,
with the effective witness constructions they support: collapse-style
injections, subset-stage trees, dependent-choice trees, marker reductions,
and transfinite concatenation along cofinal ladders.

The package namespace is lazy (PEP 562): importing ``forcelab`` loads no
submodule, and each name below loads its home module on first access, so
a command pays only for the modules it runs.
"""

import importlib

# Each re-exported name under its home module.
_EXPORTS = {
    "collapse": """CountableSet InjSeq builtin_set coll_poset generic_to_injection
                   injection_to_generic level_dense level_family nat_set""",
    "dctrees": """ChoiceFunctional check_dc_witness dc_witness f_seq marked_set
                  marker_reduction modified_functional t_of_f unmark""",
    "errors": "ContractError",
    "levy": """CofinalPresentation check_transfinite_witness levy_lift
               standard_cofinal transfinite_f_seq""",
    "ordinals": """OMEGA ZERO Ordinal OrdinalsBelow TransfiniteSeq concat
                   omega_bijection ord_add parse_cnf ssup""",
    "posets": """DenseSet GenericRun PosetPresentation brute_force_filter
                 filter_from_chain gamma_check is_dense_on_truncation
                 rasiowa_sikorski""",
    "qtree": """LatticeOracle QSeq coll_to_q finite_subset_lattice lambda_tree
                q_into_lambda q_to_coll""",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
