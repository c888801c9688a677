"""Command-line front end.

Data goes to stdout (CSV for curves and sweeps, JSON for reports),
diagnostics to stderr. Reals are printed with 17 significant digits so that
every value parses back to the exact double, and identical invocations
produce byte-identical output. Exit codes: 0 on success, 1 when verification
fails or the solver reports an internal error, 2 for invalid parameters.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .equilibrium import (
    SolverError,
    reliability_curve,
    residual_curve,
    solve_equilibrium,
    sweep_k,
    sweep_n,
)
from .model import GameParams, TrustProfile, single_searcher_optimal_trust
from .simulate import DEFAULT_MAX_TURNS, SimulationConfig, estimate_payoff
from .verify import best_response_scan

__all__ = ["dispatch", "main"]

_LOG_SWEEP_POINTS = 50


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _print_csv(header: str, points) -> None:
    rows = "".join(f"{x:.17g},{y:.17g}\n" for x, y in points)
    sys.stdout.write(f"{header}\n{rows}")


def _print_curve(curve) -> None:
    _print_csv(f"{curve.abscissa_name},{curve.ordinate_name}", curve.points)


def _json_field(key: str, value) -> str:
    if value is None:
        return f'"{key}": null'
    if isinstance(value, bool):
        return f'"{key}": {"true" if value else "false"}'
    if isinstance(value, int):
        return f'"{key}": {value}'
    if isinstance(value, float):
        if value != value:  # NaN has no JSON spelling
            return f'"{key}": null'
        return f'"{key}": {_fmt(value)}'
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{key}": "{escaped}"'


def _print_json(pairs: list[tuple[str, object]]) -> None:
    body = ", ".join(_json_field(k, v) for k, v in pairs)
    print("{" + body + "}")


def _cmd_solve(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    sol = solve_equilibrium(params, q_tol=args.tol)
    fields = [
        ("q_bar", sol.q_bar),
        ("residual", sol.residual),
        ("e_residual", sol.e_residual),
        ("iterations", sol.iterations),
        ("bracket_lo", sol.bracket_lo),
        ("bracket_hi", sol.bracket_hi),
    ]
    if args.format == "csv":
        print(",".join(key for key, _ in fields))
        print(",".join(_fmt(v) if isinstance(v, float) else str(v) for _, v in fields))
    else:
        _print_json(fields)
    return 0


def _cmd_curve_e(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    _print_curve(residual_curve(params, args.q_min, args.q_max, args.steps))
    return 0


def _cmd_curve_f(args) -> int:
    _print_curve(reliability_curve(args.n, args.k, args.q_min, args.q_max, args.steps))
    return 0


def _cmd_sweep_n(args) -> int:
    # Name a bad argument before building the grid from it.
    GameParams(args.n_from, args.k, args.p)
    GameParams(args.n_to, args.k, args.p)
    if args.n_to < args.n_from:
        raise ValueError("--n-to must not be below --n-from")
    if args.log:
        points = min(_LOG_SWEEP_POINTS, args.n_to - args.n_from + 1)
        grid = np.unique(
            np.rint(np.geomspace(args.n_from, args.n_to, num=points)).astype(int)
        )
        values = [int(v) for v in grid]
    else:
        values = list(range(args.n_from, args.n_to + 1))
    _print_curve(sweep_n(args.k, args.p, values))
    return 0


def _cmd_sweep_k(args) -> int:
    if args.k_to < args.k_from:
        raise ValueError("--k-to must not be below --k-from")
    GameParams(args.n, args.k_to, args.p)  # name a bad --k-to before the range
    _print_curve(sweep_k(args.n, args.p, range(args.k_from, args.k_to + 1)))
    return 0


def _cmd_simulate(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    r = args.q if args.r is None else args.r
    config = SimulationConfig(
        params=params,
        profile=TrustProfile(args.q, r),
        rounds=args.rounds,
        seed=args.seed,
        max_turns=args.max_turns,
    )
    report = estimate_payoff(config)
    _print_json(
        [
            ("rounds_completed", report.rounds_completed),
            ("capped_rounds", report.capped_rounds),
            ("focal_mean_payoff", report.focal_mean_payoff),
            ("focal_std_error", report.focal_std_error),
            ("mean_finish_turn", report.mean_finish_turn),
            ("seed_echo", report.seed_echo),
            ("warning", report.warning),
        ]
    )
    return 0


def _cmd_best_response(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    scan = best_response_scan(params, args.q, r_steps=args.steps)
    _print_csv("r,payoff", scan.grid)
    print(
        f"argmax_r={_fmt(scan.argmax_r)} max_payoff={_fmt(scan.max_payoff)}",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    # Imported here: no other subcommand needs the acceptance suite.
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  criterion {result.number:2d}  {result.name}: {result.detail}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_single_searcher(args) -> int:
    print(_fmt(single_searcher_optimal_trust(args.p, args.k)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsearch",
        description="Trust equilibria for competitive search on a star graph "
        "with an unreliable direction pointer.",
        epilog="example: starsearch solve --n 5 --k 3 --p 0.5",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve for the equilibrium trust")
    solve.add_argument("--n", type=int, required=True, help="searchers (e.g. 5)")
    solve.add_argument("--k", type=int, required=True, help="non-treasure rays (e.g. 3)")
    solve.add_argument("--p", type=float, required=True, help="pointer reliability")
    solve.add_argument("--tol", type=float, default=1e-12, help="bracket tolerance")
    solve.add_argument("--format", choices=("csv", "json"), default="json")
    solve.set_defaults(handler=_cmd_solve)

    curve_e = sub.add_parser("curve-e", help="sample the equilibrium residual")
    curve_e.add_argument("--n", type=int, required=True)
    curve_e.add_argument("--k", type=int, required=True)
    curve_e.add_argument("--p", type=float, required=True)
    curve_e.add_argument("--q-min", type=float, required=True)
    curve_e.add_argument("--q-max", type=float, required=True)
    curve_e.add_argument("--steps", type=int, required=True)
    curve_e.set_defaults(handler=_cmd_curve_e)

    curve_f = sub.add_parser("curve-f", help="sample the trust-to-reliability map")
    curve_f.add_argument("--n", type=int, required=True)
    curve_f.add_argument("--k", type=int, required=True)
    curve_f.add_argument("--q-min", type=float, required=True)
    curve_f.add_argument("--q-max", type=float, required=True)
    curve_f.add_argument("--steps", type=int, required=True)
    curve_f.set_defaults(handler=_cmd_curve_f)

    sweep_n_cmd = sub.add_parser("sweep-n", help="equilibrium trust by population")
    sweep_n_cmd.add_argument("--k", type=int, required=True)
    sweep_n_cmd.add_argument("--p", type=float, required=True)
    sweep_n_cmd.add_argument("--n-from", type=int, required=True)
    sweep_n_cmd.add_argument("--n-to", type=int, required=True)
    sweep_n_cmd.add_argument(
        "--log", action="store_true", help="log-spaced n values instead of every n"
    )
    sweep_n_cmd.set_defaults(handler=_cmd_sweep_n)

    sweep_k_cmd = sub.add_parser("sweep-k", help="equilibrium trust by ray count")
    sweep_k_cmd.add_argument("--n", type=int, required=True)
    sweep_k_cmd.add_argument("--p", type=float, required=True)
    sweep_k_cmd.add_argument("--k-from", type=int, required=True)
    sweep_k_cmd.add_argument("--k-to", type=int, required=True)
    sweep_k_cmd.set_defaults(handler=_cmd_sweep_k)

    simulate = sub.add_parser("simulate", help="Monte Carlo payoff estimate")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--k", type=int, required=True)
    simulate.add_argument("--p", type=float, required=True)
    simulate.add_argument("--q", type=float, required=True, help="population trust")
    simulate.add_argument(
        "--r", type=float, default=None, help="focal trust (defaults to --q)"
    )
    simulate.add_argument("--rounds", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--max-turns", type=int, default=DEFAULT_MAX_TURNS)
    simulate.set_defaults(handler=_cmd_simulate)

    best = sub.add_parser("best-response", help="scan deviations against fixed trust")
    best.add_argument("--n", type=int, required=True)
    best.add_argument("--k", type=int, required=True)
    best.add_argument("--p", type=float, required=True)
    best.add_argument("--q", type=float, required=True)
    best.add_argument("--steps", type=int, default=2001)
    best.set_defaults(handler=_cmd_best_response)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument(
        "--quick", action="store_true", help="smaller grids and Monte Carlo sizes"
    )
    verify.set_defaults(handler=_cmd_verify)

    single = sub.add_parser(
        "single-searcher", help="optimal trust of a lone searcher (baseline)"
    )
    single.add_argument("--p", type=float, required=True)
    single.add_argument("--k", type=int, required=True)
    single.set_defaults(handler=_cmd_single_searcher)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SolverError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
