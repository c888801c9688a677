"""Command-line front end.

Data goes to stdout (CSV for curves and sweeps, JSON for reports),
diagnostics to stderr. Integers are printed exactly and reals with 17
significant digits, so that every value parses back to the exact number, and
identical invocations produce byte-identical output. Exit codes: 0 on
success, 1 when verification fails or stdout is closed early, 2 for invalid
parameters.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .equilibrium import (
    _q_bars,
    _reliability_sampler,
    _residual_sampler,
    solve_equilibrium,
)
from .model import GameParams, TrustProfile, single_searcher_optimal_trust

__all__ = ["dispatch", "main"]

_LOG_SWEEP_POINTS = 50
# Sweeps of at least _ARRAY_MIN points and curves of at least _CURVE_MIN run
# on numpy arrays, and smaller ones point by point on the math kernels,
# without importing numpy. Measured on a 2-CPU Xeon host (Python 3.11,
# numpy 2.4): a process pays 0.1-0.15 s to import numpy, and with that
# counted, lanes overtake scalar solves at about 3,500 (consecutive k) to
# 10,000 (consecutive n) points, and array curves, which save about 2 us a
# point, overtake the math kernels at 75,000 to 80,000.
_ARRAY_MIN = 1 << 13
_CURVE_MIN = 80_000
# Sweeps and curves compute and print this many rows at a time, never the
# whole range or grid.
_CHUNK = 1 << 16

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


def _print_samples(steps: int, sample) -> None:
    """Print a curve's sampler _CHUNK rows at a time, on the route its whole
    steps decide, so the bytes do not depend on the chunks."""
    arrays = steps >= _CURVE_MIN
    for start in range(0, steps, _CHUNK):
        curve = sample(start, min(start + _CHUNK, steps), arrays)
        _print_csv(f"q,{curve.ordinate_name}" if start == 0 else None, curve.points)


def _print_sweep(name: str, values, fixed: int, p: float) -> None:
    """Print q_bar against name, n or k, for the increasing values, whose
    ends the caller has validated, solving _CHUNK of them at a time."""
    sys.stdout.write(f"{name},q_bar\n")
    values = iter(values)
    while chunk := list(itertools.islice(values, _CHUNK)):
        _print_csv(None, zip(chunk, _q_bars(name, chunk, fixed, p, _ARRAY_MIN)))


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
    _print_json(sol._asdict())
    return 0


def _cmd_curve_e(args) -> int:
    params = GameParams(args.n, args.k, args.p)
    sample = _residual_sampler(params, args.q_min, args.q_max, args.steps)
    _print_samples(args.steps, sample)
    return 0


def _cmd_curve_f(args) -> int:
    sample = _reliability_sampler(args.n, args.k, args.q_min, args.q_max, args.steps)
    _print_samples(args.steps, sample)
    return 0


def _cmd_sweep_n(args) -> int:
    lo, hi = args.n_from, args.n_to
    # Name a bad argument before building the grid from it.
    GameParams(lo, args.k, args.p)
    GameParams(hi, args.k, args.p)
    if hi < lo:
        raise ValueError("--n-to must not be below --n-from")
    values = range(lo, hi + 1)
    if args.log:
        values = _log_grid(lo, hi, min(_LOG_SWEEP_POINTS, hi - lo + 1))
    _print_sweep("n", values, args.k, args.p)
    return 0


def _log_grid(lo: int, hi: int, points: int) -> list[int]:
    """The distinct n of round(10 ** (log10(lo) + i * step)) for i from 0 to
    points - 1, step = (log10(hi) - log10(lo)) / (points - 1), with the ends
    exactly lo and hi and the inner n clamped to the range: those of
    numpy.geomspace(lo, hi, points), rounded, wherever numpy's and math's
    log10 and pow round alike (see the README)."""
    ns = {lo, hi}
    if points > 2:
        log_lo = math.log10(lo)
        step = (math.log10(hi) - log_lo) / (points - 1)
        for i in range(1, points - 1):
            try:
                ns.add(min(max(round(10 ** (log_lo + i * step)), lo), hi))
            except OverflowError:  # past the largest double, so past hi
                pass
    return sorted(ns)


def _cmd_sweep_k(args) -> int:
    if args.k_to < args.k_from:
        raise ValueError("--k-to must not be below --k-from")
    # Name a bad argument before building the range from it.
    GameParams(args.n, args.k_to, args.p)
    GameParams(args.n, args.k_from, args.p)
    _print_sweep("k", range(args.k_from, args.k_to + 1), args.n, args.p)
    return 0


def _cmd_simulate(args) -> int:
    # Imported here, so that no other subcommand loads the simulator.
    from .simulate import SimulationConfig, estimate_payoff

    params = GameParams(args.n, args.k, args.p)
    profile = TrustProfile(args.q, args.q if args.r is None else args.r)
    config = SimulationConfig(params, profile, args.rounds, args.seed)
    _print_json(estimate_payoff(config)._asdict())
    return 0


def _cmd_best_response(args) -> int:
    # Imported here, so that no other subcommand but verify loads the verifier.
    from .verify import best_response_scan

    params = GameParams(args.n, args.k, args.p)
    scan = best_response_scan(params, args.q)
    _print_csv("r,payoff", scan.grid)
    summary = f"argmax_r={_fmt(scan.argmax_r)} max_payoff={_fmt(scan.max_payoff)}"
    print(summary, file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    # Imported here: no other subcommand needs the acceptance suite.
    from .acceptance import run_all

    results = run_all()
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

    # A subcommand names the shared options it takes, each of them required.
    def command(name, summary, handler, shared=""):
        cmd = sub.add_parser(name, help=summary)
        for flag in shared.split():
            kind, text = _SHARED[flag]
            cmd.add_argument(flag, type=kind, help=text, required=True)
        cmd.set_defaults(handler=handler)
        return cmd

    command("solve", "solve for the equilibrium trust", _cmd_solve, "--n --k --p")
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
    command("best-response", "scan deviations against fixed trust",
            _cmd_best_response, "--n --k --p --q")
    command("verify", "run the acceptance suite", _cmd_verify)
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
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early, as by head: no traceback
        # Python's recipe: stdout goes to devnull, so the flush at exit passes.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
