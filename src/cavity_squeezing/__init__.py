"""Quadrature squeezing of a driven cavity mode coupled to one atom.

A single two-level atom in a lossy cavity, driven on resonance by
coherent light, squeezes the emitted field: one quadrature of the
effective mode drops below the vacuum level, by at most a factor of two.
This package evaluates the closed-form steady-state statistics of that
system and of the superposed mode of two identical copies, integrates
the transient moment equations, and checks everything against an
independent master-equation solve on a truncated Hilbert space.

The package exports exactly what each module lists in its ``__all__``.
``oracle`` is the only module that imports scipy; it and its names load
on first use, so everything else runs on numpy alone.
"""

import importlib

from . import dynamics, params, single_mode, superposed, sweeps
from .params import *  # noqa: F401,F403
from .single_mode import *  # noqa: F401,F403
from .superposed import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .sweeps import *  # noqa: F401,F403

__version__ = "0.1.0"

# ``oracle.__all__``, served by ``__getattr__`` below (PEP 562).
_ORACLE_NAMES = (
    "DimensionCap", "SingularSystem", "HilbertConfig", "CavityAtomOperators",
    "DensityMatrix", "OracleReport", "build_operators", "hamiltonian_matrix",
    "liouvillian_matrix", "steady_density", "standard_quadrature_variances",
    "compare_with_closed_form", "cutoff_converged", "decoupled_cavity_steady",
    "decoupled_benchmark", "evolve_density",
)

__all__ = [
    *params.__all__,
    *single_mode.__all__,
    *superposed.__all__,
    *dynamics.__all__,
    *_ORACLE_NAMES,
    *sweeps.__all__,
    "__version__",
]


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        # Not ``from . import oracle``: that asks this function for "oracle"
        # again before the submodule is bound, and recurses.
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
