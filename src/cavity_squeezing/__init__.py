"""Quadrature squeezing of a driven cavity mode coupled to one atom.

A single two-level atom in a lossy cavity, driven on resonance by
coherent light, squeezes the emitted field: one quadrature of the
effective mode drops below the vacuum level, by at most a factor of two.
This package evaluates the closed-form steady-state statistics of that
system and of the superposed mode of two identical copies, integrates
the transient moment equations, and checks everything against an
independent master-equation solve on a truncated Hilbert space.

The package exports exactly what each module lists in its ``__all__``, and
imports a module when one of its names is first asked for (PEP 562), so
``import cavity_squeezing`` loads no submodule and ``__all__`` loads all six.
The CLI's subcommands likewise load only what they run: ``steady`` loads
``params`` and ``single_mode``, ``superpose`` adds ``superposed``,
``dynamics`` loads ``params`` and ``dynamics`` (and ``sweeps`` when it writes
CSV), ``figures`` the closed forms and ``sweeps``, and ``oracle`` the closed
forms and ``oracle``.  ``oracle`` is the only module that uses scipy, and it
imports scipy inside its solves: every solve is banded and loads the ``scipy``
package and LAPACK's extension module alone, never ``scipy.sparse`` or
``scipy.linalg``.  Everything but an oracle solve runs on numpy alone.
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("params", "single_mode", "superposed", "dynamics", "oracle", "sweeps")


def __getattr__(name: str):
    """A submodule, ``__all__`` or an exported name, imported on first use."""
    if importlib.util.find_spec(f".{name}", __name__):
        return importlib.import_module(f".{name}", __name__)
    modules = [importlib.import_module(f".{m}", __name__) for m in _MODULES]
    if name == "__all__":
        value = [*(n for module in modules for n in module.__all__), "__version__"]
    else:
        for module in modules:
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
