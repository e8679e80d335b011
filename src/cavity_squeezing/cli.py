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

Parameters come from flags, falling back to a JSON config file given
with ``--config`` (flags win).  The driving amplitude may be given
directly (``--epsilon``) or as the product of ``--lambda`` and
``--beta``.

Exit codes: 0 success; 2 configuration or validation error; 3 numerical
failure (non-convergence, unstable step, singular solve); 4 Hilbert-space
dimension cap exceeded.

JSON output renders floats with 17 significant digits (enough to
round-trip a double exactly) and complex numbers as ``{"re":…,"im":…}``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict

from .dynamics import (
    EXCITED_STATE,
    GROUND_STATE,
    IntegratorConfig,
    NonConvergence,
    StepTooLarge,
    default_integrator_config,
    integrate,
)
from .oracle import (
    DimensionCap,
    HilbertConfig,
    SingularSystem,
    compare_with_closed_form,
    cutoff_converged,
    decoupled_benchmark,
)
from .params import SystemParams
from .single_mode import single_mode_stats, steady_atom
from .superposed import superposed_squeezing, superposed_stats
from .sweeps import SweepSpec, write_figure_files

__all__ = ["main", "build_parser"]


class ConfigError(ValueError):
    """A missing, inconsistent or unusable configuration value."""


# ---------------------------------------------------------------------------
# serialisation


def _dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(key)}: {_dump_json(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ConfigError(f"cannot serialise non-finite value {obj!r}")
        return "%.17g" % obj
    raise TypeError(f"cannot serialise {type(obj).__name__}")


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
    """The payload as JSON, or as a one-row CSV of its flattened leaves."""
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


_CONFIG_KEY_MAP = {"lambda": "lam", "format": "fmt"}


def _apply_config(args: argparse.Namespace, known_dests: set[str]) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in loaded.items():
        dest = _CONFIG_KEY_MAP.get(key, key)
        if dest not in known_dests:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, (list, dict)):
            raise ConfigError(f"config key {key!r} must hold a single value")
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def _resolve_epsilon(args: argparse.Namespace) -> float:
    if args.epsilon is not None:
        return args.epsilon
    if args.lam is not None and args.beta is not None:
        return args.lam * args.beta
    raise ConfigError("epsilon is required (give --epsilon, or --lambda and --beta)")


def _resolve_params(args: argparse.Namespace) -> SystemParams:
    if args.kappa is None:
        raise ConfigError("kappa is required")
    epsilon = _resolve_epsilon(args)
    if args.g is not None:
        return SystemParams(
            g=args.g,
            kappa=args.kappa,
            epsilon=epsilon,
            lam=args.lam,
            beta=args.beta,
            gamma_c=args.gamma_c,
        )
    if args.gamma_c is not None:
        return SystemParams.from_gamma_c(
            args.gamma_c, args.kappa, epsilon, lam=args.lam, beta=args.beta
        )
    raise ConfigError("one of --g or --gamma-c is required")


def _params_section(params: SystemParams) -> dict:
    return {
        "g": params.g,
        "kappa": params.kappa,
        "epsilon": params.epsilon,
        "gamma_c": params.gamma_c,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_steady(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    payload = {
        "params": _params_section(params),
        "atom": asdict(steady_atom(params)),
        "stats": asdict(single_mode_stats(params)),
    }
    _emit(_render(payload, args.fmt or "json"), args.out)
    return 0


def _cmd_superpose(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    stats = asdict(superposed_stats(params))
    moments = {name: stats.pop(name) for name in ("c_mean", "c_sq")}
    stats["sum"] = superposed_squeezing(params)[2]
    payload = {"params": _params_section(params), "stats": {**stats, **moments}}
    _emit(_render(payload, args.fmt or "json"), args.out)
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    defaults = default_integrator_config(params)
    config = IntegratorConfig(
        dt=args.dt if args.dt is not None else defaults.dt,
        t_max=args.t_max if args.t_max is not None else defaults.t_max,
        steady_tol=(
            args.steady_tol if args.steady_tol is not None else defaults.steady_tol
        ),
    )
    choice = args.initial if args.initial is not None else "ground"
    if choice not in ("ground", "excited"):
        raise ConfigError(f"initial must be 'ground' or 'excited', got {choice!r}")
    initial = EXCITED_STATE if choice == "excited" else GROUND_STATE
    series = integrate(initial, params, config)
    if (args.fmt or "csv") == "csv":
        if args.out:
            series.to_csv(args.out)
        else:
            series.to_csv(sys.stdout)
    else:
        payload = {
            "params": _params_section(params),
            "converged": series.converged,
            "t_final": float(series.t[-1]),
            "n_steps": int(len(series.t) - 1),
            "final": asdict(series.final_state()),
        }
        _emit(render_json(payload), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.fmt == "csv":
        raise ConfigError("oracle reports are JSON only")
    # Only limits the user gave are passed on; the rest keep the library defaults.
    tol = {} if args.tol is None else {"tol": args.tol}
    cap = {} if args.dim_cap is None else {"dim_cap": args.dim_cap}
    if args.g is not None and args.g == 0.0:
        # Decoupled limit: the atom drops out, benchmark the bare cavity.
        if args.kappa is None:
            raise ConfigError("kappa is required")
        report = decoupled_benchmark(_resolve_epsilon(args), args.kappa, **tol, **cap)
        _emit(render_json(report), args.out)
        return 0
    params = _resolve_params(args)
    if args.n_cut is not None:
        report = compare_with_closed_form(params, HilbertConfig(args.n_cut, **cap))
    else:
        _, report = cutoff_converged(params, **tol, **cap)
    _emit(render_json(report.to_dict()), args.out)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    gamma_c = args.gamma_c
    if gamma_c is None and args.g is not None and args.kappa is not None:
        gamma_c = SystemParams(g=args.g, kappa=args.kappa, epsilon=0.0).gamma_c
    spec = SweepSpec(
        eps_min=args.eps_min if args.eps_min is not None else 0.0,
        eps_max=args.eps_max if args.eps_max is not None else 0.8,
        n_points=args.n_points if args.n_points is not None else 401,
        gamma_c=gamma_c if gamma_c is not None else 0.4,
        kappa=args.kappa if args.kappa is not None else 0.8,
    )
    out_dir = args.out_dir if args.out_dir is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    summary = write_figure_files(spec, out_dir)
    text = render_json(summary)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser & entry point


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma-c", type=float, dest="gamma_c",
                        help="stimulated-emission decay constant 4*g**2/kappa")
    parser.add_argument("--g", type=float, help="atom-field coupling rate")
    parser.add_argument("--kappa", type=float, help="cavity decay rate")
    parser.add_argument("--epsilon", type=float, help="driving amplitude")
    parser.add_argument("--lambda", type=float, dest="lam",
                        help="photon flux amplitude (epsilon = lambda*beta)")
    parser.add_argument("--beta", type=float, help="input coupling amplitude")
    parser.add_argument("--config", help="JSON file with fallback values")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt",
                        help="output format (default json; dynamics defaults to csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-squeezing",
        description="Quadrature squeezing of a driven atom-cavity system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="closed-form steady-state statistics")
    _add_common(p)
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("superpose", help="superposed-mode statistics")
    _add_common(p)
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("dynamics", help="integrate the atomic moment equations")
    _add_common(p)
    p.add_argument("--dt", type=float, help="integrator step")
    p.add_argument("--t-max", type=float, dest="t_max", help="integration horizon")
    p.add_argument("--steady-tol", type=float, dest="steady_tol",
                   help="derivative norm declaring steady state")
    p.add_argument("--initial", choices=("ground", "excited"),
                   help="initial atomic state (default ground)")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("oracle", help="master-equation cross-check")
    _add_common(p)
    ladder = inspect.signature(cutoff_converged).parameters
    p.add_argument("--n-cut", type=int, dest="n_cut",
                   help="fixed Fock cutoff (default: double until converged)")
    p.add_argument("--tol", type=float,
                   help="cutoff convergence tolerance on the photon number "
                        f"(default {ladder['tol'].default:g})")
    p.add_argument("--dim-cap", type=int, dest="dim_cap",
                   help="maximum Hilbert-space dimension "
                        f"(default {ladder['dim_cap'].default})")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("figures", help="write the standard sweep datasets")
    _add_common(p)
    p.add_argument("--eps-min", type=float, dest="eps_min", help="grid start")
    p.add_argument("--eps-max", type=float, dest="eps_max", help="grid end")
    p.add_argument("--n-points", type=int, dest="n_points", help="grid size")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    known = set(vars(args)) - {"command", "func"}
    try:
        _apply_config(args, known)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
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
