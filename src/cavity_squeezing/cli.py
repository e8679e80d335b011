"""Command-line interface.

Subcommands
-----------
steady
    Closed-form steady-state statistics of one driven system.
superpose
    Closed-form statistics of the superposed mode of two identical systems.
dynamics
    Integrate the atomic moment equations; emits a time-series CSV.
oracle
    Solve the truncated master equation and compare with the closed forms.
figures
    Write the standard sweep datasets (fig2/fig3/fig4/identities) plus a
    summary JSON.

Parameters come from flags and from a JSON config file given with
``--config``, whose entries are parsed exactly like flags (flags on the
command line win).  The driving amplitude may be given
directly (``--epsilon``) or as the product of ``--lambda`` and
``--beta``.

Exit codes: 0 success; 2 invalid configuration, an unwritable output path or
a size that cannot be allocated; 3 numerical failure (non-convergence, unstable
step, singular solve); 4 Hilbert-space dimension cap exceeded.

JSON output renders floats with 17 significant digits (enough to
round-trip a double exactly) and complex numbers as ``{"re":…,"im":…}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace
from json.encoder import encode_basestring_ascii

# Each subcommand imports the modules it runs when it runs, so a cold start loads
# only those: ``steady`` loads ``single_mode``, and ``figures`` no ``oracle``.
from .params import (_DIM_CAP, DimensionCap, NonConvergence, SingularSystem, StepTooLarge,
                     SystemParams, _require_finite)

__all__ = ["main", "build_parser"]


class ConfigError(ValueError):
    """A missing, inconsistent or unusable configuration value."""


# ---------------------------------------------------------------------------
# serialisation


def _dump_json(obj, indent: int = 0) -> str:
    # Keys and strings are escaped as json.dumps escapes a str.
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ConfigError(f"cannot serialise non-finite value {obj!r}")
        return "%.17g" % obj
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        brackets, items = "{}", [
            (encode_basestring_ascii(key) if isinstance(key, str) else json.dumps(key))
            + ": " + _dump_json(value, indent + 1) for key, value in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [_dump_json(value, indent + 1) for value in obj]
    elif isinstance(obj, str):
        return encode_basestring_ascii(obj)
    elif obj is None:
        return "null"
    elif isinstance(obj, bool):
        return "true" if obj else "false"
    elif isinstance(obj, int):
        return int.__repr__(obj)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    if not items:
        return brackets
    inner, outer = "\n" + "  " * (indent + 1), "\n" + "  " * indent
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


def render_json(obj) -> str:
    """Deterministic JSON with doubles at full precision."""
    return _dump_json(obj) + "\n"


def _flatten(payload: dict):
    """Leaf ``(name, value)`` pairs in order; complex ``z`` gives ``z_re``, ``z_im``."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _flatten(value)
        elif isinstance(value, complex):
            yield f"{key}_re", value.real
            yield f"{key}_im", value.imag
        else:
            yield key, value


def _render(payload: dict, fmt: str) -> str:
    """The payload as JSON, or as a one-row CSV of its flattened leaves, each value
    ``"%.12e" % v`` as ``sweeps._write_csv`` writes it."""
    if fmt == "json":
        return render_json(payload)
    header, values = zip(*_flatten(payload))
    return ",".join(header) + "\n" + ",".join("%.12e" % v for v in values) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# configuration


# Config keys are option dests; these two are also accepted under their flag name.
_CONFIG_KEY_MAP = {"lambda": "lam", "format": "fmt"}
_EPSILON_REL_TOL = 1e-12


def _config_argv(path: str, dests: set[str]) -> list[str]:
    """The entries of the JSON config file at ``path`` as ``--flag=value`` tokens.

    ``dests`` are the subcommand's option dests; a null value counts as not given.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = {dest: "--" + dest.replace("_", "-") for dest in dests}
    for name, dest in _CONFIG_KEY_MAP.items():
        flags[name] = flags[dest] = "--" + name
    tokens = []
    for key, value in loaded.items():
        if key not in flags:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, (list, dict)):
            raise ConfigError(f"config key {key!r} must hold a single value")
        if value is not None:
            tokens.append(f"{flags[key]}={value}")
    return tokens


def _resolve_epsilon(args: argparse.Namespace) -> float:
    """The drive: ``--epsilon``, or the product of ``--lambda`` and ``--beta``.

    A factor must be finite; when both factors and ``--epsilon`` are
    given, the product must agree with ``--epsilon`` to 1e-12 (relative).
    """
    epsilon, lam, beta = args.epsilon, args.lam, args.beta
    for name, value in (("lam", lam), ("beta", beta)):
        if value is not None:
            _require_finite(name, value)
    product = None if lam is None or beta is None else lam * beta
    if epsilon is None and product is None:
        raise ConfigError("epsilon is required (give --epsilon, or --lambda and --beta)")
    if epsilon is not None and product is not None and (
            abs(product - epsilon) > _EPSILON_REL_TOL * max(abs(epsilon), abs(product))):
        raise ConfigError(f"epsilon={epsilon} inconsistent with lam*beta={product}")
    return product if epsilon is None else epsilon


def _resolve_rates(g, kappa, gamma_c, epsilon: float = 0.0) -> SystemParams:
    """The checked parameters, with the rates from ``kappa`` and ``g`` or ``gamma_c``."""
    if kappa is None:
        raise ConfigError("kappa is required")
    if g is not None:
        return SystemParams(g=g, kappa=kappa, epsilon=epsilon, gamma_c=gamma_c)
    if gamma_c is not None:
        return SystemParams.from_gamma_c(gamma_c, kappa, epsilon)
    raise ConfigError("one of --g or --gamma-c is required")


def _resolve_params(args: argparse.Namespace) -> SystemParams:
    return _resolve_rates(args.g, args.kappa, args.gamma_c, _resolve_epsilon(args))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_steady(args: argparse.Namespace) -> int:
    from .single_mode import single_mode_stats, steady_atom

    params = _resolve_params(args)
    payload = {
        "params": asdict(params),
        "atom": asdict(steady_atom(params)),
        "stats": asdict(single_mode_stats(params)),
    }
    _emit(_render(payload, args.fmt), args.out)
    return 0


def _cmd_superpose(args: argparse.Namespace) -> int:
    from .superposed import superposed_squeezing, superposed_stats

    params = _resolve_params(args)
    stats = asdict(superposed_stats(params))
    moments = {name: stats.pop(name) for name in ("c_mean", "c_sq")}
    stats["sum"] = superposed_squeezing(params)[2]
    payload = {"params": asdict(params), "stats": {**stats, **moments}}
    _emit(_render(payload, args.fmt), args.out)
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    from .dynamics import (EXCITED_STATE, GROUND_STATE, default_integrator_config,
                           stream_trajectory)

    params = _resolve_params(args)
    given = {name: getattr(args, name) for name in ("dt", "t_max", "steady_tol")
             if getattr(args, name) is not None}
    config = replace(default_integrator_config(params), **given)
    initial = EXCITED_STATE if args.initial == "excited" else GROUND_STATE
    if args.fmt == "csv":
        stream_trajectory(initial, params, config, args.out or sys.stdout)
    else:
        n_steps, final = stream_trajectory(initial, params, config)
        payload = {
            "params": asdict(params),
            "converged": True,
            "t_final": n_steps * config.dt,
            "n_steps": n_steps,
            "final": asdict(final),
        }
        _emit(render_json(payload), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import (HilbertConfig, compare_with_closed_form, cutoff_converged,
                         decoupled_benchmark)

    if args.fmt == "csv":
        raise ConfigError("oracle reports are JSON only")
    if args.g == 0.0:
        # Decoupled limit: the atom drops out, benchmark the bare cavity.
        if args.n_cut is not None or args.gamma_c is not None:
            raise ConfigError("--n-cut and --gamma-c have no meaning at g = 0")
        if args.kappa is None:
            raise ConfigError("kappa is required")
        report = decoupled_benchmark(_resolve_epsilon(args), args.kappa, dim_cap=args.dim_cap)
        _emit(render_json(report), args.out)
        return 0
    params = _resolve_params(args)
    if args.n_cut is not None:
        report = compare_with_closed_form(params, HilbertConfig(args.n_cut, args.dim_cap))
    else:
        _, report = cutoff_converged(params, dim_cap=args.dim_cap)
    _emit(render_json(report.to_dict()), args.out)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .sweeps import SweepSpec, write_figure_files

    # The default grid's rates stand in for the rates that are not given.
    gamma_c = 0.4 if args.g is None and args.gamma_c is None else args.gamma_c
    rates = _resolve_rates(args.g, 0.8 if args.kappa is None else args.kappa, gamma_c)
    spec = SweepSpec(eps_min=args.eps_min, eps_max=args.eps_max, n_points=args.n_points,
                     gamma_c=rates.gamma_c, kappa=rates.kappa)
    os.makedirs(args.out_dir, exist_ok=True)
    summary = write_figure_files(spec, args.out_dir)
    text = render_json(summary)
    _emit(text, os.path.join(args.out_dir, "summary.json"))
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser & entry point


def _add_common(parser: argparse.ArgumentParser, unread: str = "") -> None:
    # ``unread`` ends the help of the drive and format options a subcommand ignores.
    parser.add_argument("--gamma-c", type=float, dest="gamma_c",
                        help="stimulated-emission decay constant 4*g**2/kappa")
    parser.add_argument("--g", type=float, help="atom-field coupling rate")
    parser.add_argument("--kappa", type=float, help="cavity decay rate")
    parser.add_argument("--epsilon", type=float, help="driving amplitude" + unread)
    parser.add_argument("--lambda", type=float, dest="lam",
                        help="photon flux amplitude (epsilon = lambda*beta)" + unread)
    parser.add_argument("--beta", type=float, help="input coupling amplitude" + unread)
    parser.add_argument("--config", help="JSON file with fallback values")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt", default="json",
                        help="output format (default json; dynamics defaults to csv)"
                             + unread)


def build_parser() -> argparse.ArgumentParser:
    """A new parser; :func:`main` runs ``_cmd_<command>`` on what it parses."""
    parser = argparse.ArgumentParser(
        prog="cavity-squeezing",
        description="Quadrature squeezing of a driven atom-cavity system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="closed-form steady-state statistics")
    _add_common(p)

    p = sub.add_parser("superpose", help="superposed-mode statistics")
    _add_common(p)

    p = sub.add_parser("dynamics", help="integrate the atomic moment equations")
    _add_common(p)
    p.add_argument("--dt", type=float, help="integrator step")
    p.add_argument("--t-max", type=float, dest="t_max", help="integration horizon")
    p.add_argument("--steady-tol", type=float, dest="steady_tol",
                   help="derivative norm declaring steady state")
    p.add_argument("--initial", choices=("ground", "excited"),
                   default="ground", help="initial atomic state (default ground)")
    p.set_defaults(fmt="csv")

    p = sub.add_parser("oracle", help="master-equation cross-check")
    _add_common(p)
    p.add_argument("--n-cut", type=int, dest="n_cut",
                   help="fixed Fock cutoff (default: double from 16 until a rung passes)")
    p.add_argument("--dim-cap", type=int, dest="dim_cap", default=_DIM_CAP,
                   help="maximum Hilbert-space dimension (default %(default)d)")

    p = sub.add_parser("figures", help="write the standard sweep datasets")
    _add_common(p, unread="; ignored here, accepted for shared config files")
    p.add_argument("--eps-min", type=float, dest="eps_min", default=0.0, help="grid start")
    p.add_argument("--eps-max", type=float, dest="eps_max", default=0.8, help="grid end")
    p.add_argument("--n-points", type=int, dest="n_points", default=401, help="grid size")
    p.add_argument("--out-dir", dest="out_dir", default=".", help="output directory")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built by the first main call, not at import, and then reused: parsing leaves
    # the parser unchanged, and building it costs more than a closed-form subcommand.
    return build_parser()


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``.  When ``argv[0]`` names a subcommand, that subcommand's
    parser reads the rest, as ``parse_args`` would hand it on, without the top-level pass,
    which runs a prefix search on every option string; any other command line is help or an
    error, and goes through ``parse_args``."""
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    command = commands[argv[0]]
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(parser, argv)
    try:
        if args.config:
            # argv[0] is the subcommand (the top-level parser has no options).
            # Argparse keeps the last value it sees, so the user's flags win; the
            # ``--flag=value`` form keeps a config value starting with ``-`` intact.
            tokens = _config_argv(args.config, set(vars(args)) - {"command"})
            args = _parse(parser, [*argv[:1], *tokens, *argv[1:]])
        # Looked up at call time, so a handler rebound on the module is the one run.
        return globals()[f"_cmd_{args.command}"](args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, StepTooLarge, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DimensionCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
