"""Trust equilibria for competitive search on a star graph.

n searchers race from the hub of a (k+1)-ray star to a treasure at the end of
one ray, guided by a shared pointer that is right with probability p. Each
searcher picks how often to trust the pointer; first arrivers split the
prize. The package solves for the unique symmetric-equilibrium trust,
reproduces the standard curves, and cross-checks every closed form against a
turn-by-turn series and Monte Carlo play.
"""

from . import equilibrium, model, simulate, verify
from .equilibrium import *  # noqa: F403
from .model import *  # noqa: F403
from .simulate import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# Each module lists its public names once; the package re-exports them all.
__all__ = sorted(
    equilibrium.__all__ + model.__all__ + simulate.__all__ + verify.__all__
)
