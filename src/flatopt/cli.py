"""Command-line front end.

Subcommands: run (execute a config file), quadratic-report (per-curvature
regime table as CSV), align (gradient-Gram coverage curves), dynamics-check
(flow-discretization consistency suite), version.

Exit statuses: 0 success, 2 usage, 3 config or I/O error, 4 numerical
error, 10 diverged-by-design; ``main`` maps every error to its status.
"""

from __future__ import annotations

import argparse
import functools
import numbers
import sys

import numpy as np

from . import __version__
from .dynamics import (AdemamixFlowConfig, DynamicsState, FlowParams,
                       ademamix_ode_residual, nesterov_forms_trace, rk4_flow,
                       semi_implicit_step)
from .harness import ConfigError, parse_config, parse_list, run_experiment
from .landscapes import MlpSpec, alignment_experiment
from .linalg import check_number
from .quadratic import QuadraticSpec, analyze_mode, simulate_recurrence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
EXIT_DIVERGED = 10


def _number(flag: str, interval: str = "(-inf, inf)", read=float):
    """argparse type of flag: read(raw), int or float, under check_number."""
    kind = numbers.Integral if read is int else numbers.Real

    def number(raw: str):
        value = read(raw)
        try:
            return check_number(flag[2:].replace("-", "_"), value, kind, interval)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    number.__name__ = read.__name__  # argparse's "invalid int value: '2.5'"
    return number


def _k_grid(raw: str) -> list:
    """argparse type: a non-empty list of integers under the config list rule."""
    try:
        sizes = list(parse_list(raw, int))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err
    if not sizes:
        raise argparse.ArgumentTypeError("needs at least one subspace size")
    return sizes


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(prog="flatopt",
                                     description="flat-direction optimizer experiments")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to a config file")

    p_q = sub.add_parser("quadratic-report",
                         help="per-curvature damping-regime table as CSV")
    for flag in ("--alpha", "--beta", "--eta", "--lambda-min", "--lambda-max"):
        p_q.add_argument(flag, type=_number(flag), required=True)
    p_q.add_argument("--points", type=_number("--points", "[1, inf)", int), required=True)

    p_a = sub.add_parser("align", help="gradient-Gram coverage curves for an MLP config",
                         description="Reads only the config's landscape and seed; "
                                     "trains with adamw at constant lr 1e-3.")
    p_a.add_argument("--config", required=True)
    p_a.add_argument("--train-steps", type=_number("--train-steps", "[0, inf)", int), default=100)
    p_a.add_argument("--d-s", type=_number("--d-s", "[1, inf)", int), default=4)
    p_a.add_argument("--k-grid", type=_k_grid, default="4,8,16",
                     help="comma-separated subspace sizes, each >= --d-s")

    sub.add_parser("dynamics-check", help="flow and discretization consistency suite")
    sub.add_parser("version", help="print the version")
    return parser


def _load_config(path: str):
    """The parsed config file, read as UTF-8 with or without a byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8: {err}") from None
    return parse_config(text)


def _cmd_run(args) -> int:
    summary = run_experiment(_load_config(args.config))
    if summary["status"] == "diverged":
        print(summary["message"])
        return EXIT_DIVERGED
    print(f"ok steps={summary['steps_completed']} final_loss={summary['final_loss']:.17g}")
    return EXIT_OK


def _cmd_quadratic_report(args) -> int:
    rows = ["lambda,T,D,discriminant,regime,dominant_modulus"]
    for lam in np.linspace(args.lambda_min, args.lambda_max, args.points):
        r = analyze_mode(float(lam), args.alpha, args.beta, args.eta)
        rows.append(f"{r.lam:.17g},{r.T:.17g},{r.D:.17g},{r.discriminant:.17g},"
                    f"{r.regime},{r.dominant_modulus:.17g}")
    print("\n".join(rows))  # all or nothing: a mode that fails prints no partial table
    return EXIT_OK


def _cmd_align(args) -> int:
    config = _load_config(args.config)
    if not isinstance(config.landscape, MlpSpec):
        raise ConfigError("align requires landscape.kind = mlp")
    curves = alignment_experiment(config.landscape, config.seed, args.train_steps,
                                  args.d_s, args.k_grid)
    print("block,side,k,coverage")
    for block in sorted(curves):
        for side in ("row", "col"):
            for k, cov in curves[block][side]:
                print(f"{block},{side},{k},{cov:.17g}")
    return EXIT_OK


def _cmd_dynamics_check(args) -> int:
    checks = []

    quad = QuadraticSpec(np.array([4.0, 1.0]), np.zeros(2))
    _, _, gap = nesterov_forms_trace(quad, 0.1, 0.01, 100)
    checks.append(("nesterov_forms_gap", gap, 1e-10))

    residual = ademamix_ode_residual(QuadraticSpec(np.array([1.0]), np.array([0.0])),
                                     AdemamixFlowConfig(0.1, 1e-3, 2.0, 0.05),
                                     np.linspace(0.0, 10.0, 101))
    checks.append(("ademamix_ode_residual", residual, 1e-8))

    params = FlowParams(alpha=0.2, beta=0.0, eta=0.05)
    state = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
    s = state
    for _ in range(25):
        s = semi_implicit_step(s, quad, params, 1.0)
    sim = simulate_recurrence(quad, params.alpha, params.beta, params.eta, state.w, state.m, 25)
    exact = float(np.abs(s.w - sim.trajectory[-1]).max() + np.abs(s.m - sim.momentum).max())
    checks.append(("semi_implicit_h1_gap", exact, 0.0))

    ref = rk4_flow(state, quad, params, 1.0)
    errs, hs = [], []
    for k in range(3, 7):
        h = 1.0 / 2 ** k
        cur = DynamicsState(state.w.copy(), state.m.copy())
        for _ in range(2 ** k):
            cur = semi_implicit_step(cur, quad, params, h)
        errs.append(float(np.abs(cur.w - ref.w).max() + np.abs(cur.m - ref.m).max()))
        hs.append(h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    checks.append(("discretization_order_slope", slope, (0.8, 1.2)))

    ok = True
    print("check,value,bound,status")
    for name, value, bound in checks:
        if isinstance(bound, tuple):
            passed = bound[0] <= value <= bound[1]
            bound_text = f"[{bound[0]};{bound[1]}]"
        else:
            passed = value <= bound
            bound_text = f"{bound:.17g}"
        ok = ok and passed
        print(f"{name},{value:.17g},{bound_text},{'pass' if passed else 'fail'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_version(args) -> int:
    print(__version__)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "quadratic-report": _cmd_quadratic_report,
             "align": _cmd_align, "dynamics-check": _cmd_dynamics_check,
             "version": _cmd_version}


def main(argv=None) -> int:
    """Dispatch one subcommand; the only place an error becomes an exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.command == "align" and min(args.k_grid) < args.d_s:
            parser.error(f"every --k-grid size must be >= --d-s {args.d_s}, got {args.k_grid}")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
