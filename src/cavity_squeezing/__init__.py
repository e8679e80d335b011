"""Quadrature squeezing of a driven cavity mode coupled to one atom.

A single two-level atom in a lossy cavity, driven on resonance by
coherent light, squeezes the emitted field: one quadrature of the
effective mode drops below the vacuum level, by at most a factor of two.
This package evaluates the closed-form steady-state statistics of that
system and of the superposed mode of two identical copies, integrates
the transient moment equations, and checks everything against an
independent master-equation solve on a truncated Hilbert space.

The package exports exactly what each module lists in its ``__all__``.
``oracle`` is the only module that uses scipy, and it imports scipy inside
its sparse steps, so importing the package, and everything but an oracle
solve, runs on numpy alone.
"""

from . import dynamics, oracle, params, single_mode, superposed, sweeps
from .params import *  # noqa: F401,F403
from .single_mode import *  # noqa: F401,F403
from .superposed import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .sweeps import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *params.__all__,
    *single_mode.__all__,
    *superposed.__all__,
    *dynamics.__all__,
    *oracle.__all__,
    *sweeps.__all__,
    "__version__",
]
