"""Connected (l,u)-partition solvers for vertex-weighted cactus graphs.

Importing the package loads none of its modules.  A public name loads its
home module on first access (PEP 562), and whenever a module of the
package is loaded, by whatever import, its public names are bound here
at once, as a plain ``from .module import name`` would bind them.
"""

import sys

# home module -> the public names it defines
_HOMES = {
    "backtrack": ("AnnotatedRun", "annotate", "reconstruct"),
    "dp_core": ("ProblemParams", "decide_p_partition", "trivially_infeasible"),
    "errors": ("errors",),
    "generate": ("gen_random_cactus",),
    "graph_model": (
        "CactusGraph", "Partition", "canonicalize_partition", "edge_key", "validate_cactus",
    ),
    "interval_dp": ("decide_p_partition_poly", "interval_subtree_sets", "merge"),
    "oracle": (
        "PartitionCatalog", "enumerate_all", "oracle_capacity", "oracle_decide", "oracle_max",
        "oracle_maxmin", "oracle_min", "oracle_min_cost", "oracle_minmax",
    ),
    "tree_rep": ("CactusTree", "CycleRecord", "build_tree"),
    "variants": (
        "capacity_partition", "max_partition", "maxmin_partition", "min_cost_partition",
        "min_partition", "minmax_partition",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


class _Package(type(sys)):
    """The package's module type.  The import system sets every loaded
    submodule as an attribute of its package; here that also binds the
    submodule's public names, so code that swaps a module's functions
    for wrappers and back (a tracer, a monkeypatch) finds the package's
    names bound from the moment the module loads, and restores them too."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for public in _HOMES.get(name, ()):
            super().__setattr__(public, value if public == name else getattr(value, public))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    """Load the home module of a public name that is not bound yet."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    setattr(sys.modules[__name__], module, import_module(f".{module}", __name__))
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
