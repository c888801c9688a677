"""Trust equilibria for competitive search on a star graph.

n searchers race from the hub of a (k+1)-ray star to a treasure at the end of
one ray, guided by a shared pointer that is right with probability p. Each
searcher picks how often to trust the pointer; first arrivers split the
prize. The package solves for the unique symmetric-equilibrium trust,
reproduces the standard curves, and cross-checks every closed form against a
turn-by-turn series and Monte Carlo play.

Names resolve on first use: `import starsearch` loads none of the modules
below, and `starsearch.solve_equilibrium`, `starsearch.model` or
`from starsearch import *` imports the modules that the names come from.
"""

from importlib import import_module

__version__ = "0.1.0"

# The modules whose public names the package re-exports, each listing them
# once in its own __all__; each imports only modules before it here.
_MODULES = ("model", "equilibrium", "simulate", "verify")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    modules = map(__getattr__, _MODULES)  # imported in turn, up to the owner
    if name == "__all__":
        return sorted(public for module in modules for public in module.__all__)
    owner = next((module for module in modules if name in module.__all__), None)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(owner, name)
