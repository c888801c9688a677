"""Command-line front end.

Data goes to stdout (CSV for curves and sweeps, JSON for reports),
diagnostics to stderr. Integers are printed exactly and reals with 17
significant digits, so that every value parses back to the exact number, and
identical invocations produce byte-identical output. Exit codes: 0 on
success, 1 when verification fails, 2 for invalid parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .equilibrium import (
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
# sweep-n and sweep-k solve and print this many values at a time, never the range.
_SWEEP_CHUNK = 1 << 16

# Options that several subcommands take, each declared once: flag -> (type, help).
_SHARED = {
    "--n": (int, "searchers (e.g. 5)"),
    "--k": (int, "non-treasure rays (e.g. 3)"),
    "--p": (float, "pointer reliability"),
    "--q": (float, "population trust"),
    "--q-min": (float, "lowest trust sampled"),
    "--q-max": (float, "highest trust sampled"),
    "--steps": (int, "grid points, both ends included"),
}


def _fmt(x: int | float) -> str:
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


def _print_csv(header: str | None, points) -> None:
    rows = "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in points)
    sys.stdout.write(rows if header is None else f"{header}\n{rows}")


def _print_curve(curve, header: bool = True) -> None:
    names = f"{curve.abscissa_name},{curve.ordinate_name}"
    _print_csv(names if header else None, curve.points)


def _print_sweep(sweep, fixed: int, p: float, lo: int, hi: int) -> None:
    """Print sweep(fixed, p, lo..hi), solving _SWEEP_CHUNK values at a time."""
    for start in range(lo, hi + 1, _SWEEP_CHUNK):
        values = range(start, min(start + _SWEEP_CHUNK, hi + 1))
        _print_curve(sweep(fixed, p, values), header=start == lo)


def _json_field(key: str, value) -> str:
    if value is None or value != value:  # NaN has no JSON spelling
        return f'"{key}": null'
    if isinstance(value, (int, float)):
        return f'"{key}": {_fmt(value)}'
    escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{key}": "{escaped}"'


def _print_json(fields: dict[str, object]) -> None:
    print("{" + ", ".join(_json_field(k, v) for k, v in fields.items()) + "}")


def _cmd_solve(args) -> int:
    sol = solve_equilibrium(GameParams(args.n, args.k, args.p))
    fields = dataclasses.asdict(sol)
    if args.format == "csv":
        print(",".join(fields))
        print(",".join(map(_fmt, fields.values())))
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
    lo, hi = args.n_from, args.n_to
    # Name a bad argument before building the grid from it.
    GameParams(lo, args.k, args.p)
    GameParams(hi, args.k, args.p)
    if hi < lo:
        raise ValueError("--n-to must not be below --n-from")
    if not args.log:
        _print_sweep(sweep_n, args.k, args.p, lo, hi)
        return 0
    import numpy as np

    # Spaced in floats, as the ends may not fit a numpy integer, and
    # clamped, as a rounded end may fall outside the range.
    points = min(_LOG_SWEEP_POINTS, hi - lo + 1)
    grid = np.geomspace(float(lo), float(hi), num=points)
    values = sorted({min(max(round(v), lo), hi) for v in grid.tolist()})
    _print_curve(sweep_n(args.k, args.p, values))
    return 0


def _cmd_sweep_k(args) -> int:
    if args.k_to < args.k_from:
        raise ValueError("--k-to must not be below --k-from")
    # Name a bad argument before building the range from it.
    GameParams(args.n, args.k_to, args.p)
    GameParams(args.n, args.k_from, args.p)
    _print_sweep(sweep_k, args.n, args.p, args.k_from, args.k_to)
    return 0


def _cmd_simulate(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    profile = TrustProfile(args.q, args.q if args.r is None else args.r)
    config = SimulationConfig(params, profile, args.rounds, args.seed, args.max_turns)
    _print_json(dataclasses.asdict(estimate_payoff(config)))
    return 0


def _cmd_best_response(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    scan = best_response_scan(params, args.q, r_steps=args.steps)
    _print_csv("r,payoff", scan.grid)
    summary = f"argmax_r={_fmt(scan.argmax_r)} max_payoff={_fmt(scan.max_payoff)}"
    print(summary, file=sys.stderr)
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

    # A subcommand names the shared options it takes; each is required
    # unless given a default here.
    def command(name, summary, handler, shared="", **defaults):
        cmd = sub.add_parser(name, help=summary)
        for flag in shared.split():
            kind, text = _SHARED[flag]
            dest = flag[2:].replace("-", "_")
            cmd.add_argument(flag, type=kind, help=text, required=dest not in defaults,
                             default=defaults.get(dest))
        cmd.set_defaults(handler=handler)
        return cmd

    solve = command("solve", "solve for the equilibrium trust", _cmd_solve,
                    "--n --k --p")
    solve.add_argument("--format", choices=("csv", "json"), default="json",
                       help="output format")
    command("curve-e", "sample the equilibrium residual", _cmd_curve_e,
            "--n --k --p --q-min --q-max --steps")
    command("curve-f", "sample the trust-to-reliability map", _cmd_curve_f,
            "--n --k --q-min --q-max --steps")
    by_n = command("sweep-n", "equilibrium trust by population", _cmd_sweep_n,
                   "--k --p")
    by_n.add_argument("--n-from", type=int, required=True, help="smallest n")
    by_n.add_argument("--n-to", type=int, required=True, help="largest n")
    by_n.add_argument("--log", action="store_true",
                      help="log-spaced n values instead of every n")
    by_k = command("sweep-k", "equilibrium trust by ray count", _cmd_sweep_k,
                   "--n --p")
    by_k.add_argument("--k-from", type=int, required=True, help="smallest k")
    by_k.add_argument("--k-to", type=int, required=True, help="largest k")
    simulate = command("simulate", "Monte Carlo payoff estimate", _cmd_simulate,
                       "--n --k --p --q")
    simulate.add_argument("--r", type=float, help="focal trust (defaults to --q)")
    simulate.add_argument("--rounds", type=int, required=True, help="rounds played")
    simulate.add_argument("--seed", type=int, required=True,
                          help="random seed, 0 to 2**64-1")
    simulate.add_argument("--max-turns", type=int, default=DEFAULT_MAX_TURNS,
                          help="turns before a round is capped and scores 0")
    command("best-response", "scan deviations against fixed trust",
            _cmd_best_response, "--n --k --p --q --steps", steps=2001)
    verify = command("verify", "run the acceptance suite", _cmd_verify)
    verify.add_argument("--quick", action="store_true",
                        help="smaller grids and Monte Carlo sizes")
    command("single-searcher", "optimal trust of a lone searcher (baseline)",
            _cmd_single_searcher, "--p --k")
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
