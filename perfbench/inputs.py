"""Seeded inputs for the three benchmark workloads.

Everything the package sees comes from here, drawn from a numpy Generator
seeded with the workload seed, so one seed always gives the same inputs.
Draws that set how much work an input costs (a solve's population, a Monte
Carlo round's finish turn and pointer reliability, the series' trust) are
stratified: each stratum has a fixed target and the seed only jitters
around it, or, for the solves, draws one n per slice of its range. Runs with
different seeds then do comparable amounts of work and their timings can be
compared, while the parameter values themselves still change with the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# solve-sweep: one sweep_n over every n from 2 upward, scattered solves whose
# latency percentiles are taken per pass (1000 samples put exactly ten beyond
# p99), sweep_k over the full k range, and curve sampling.
SWEEP_N_COUNT = 2000
SCATTERED_SOLVES = 1000
SWEEP_K_CALLS = 10
CURVE_CALLS = 5
CURVE_STEPS = 400

# oracles: rounds per Monte Carlo call in each regime, the (n, k, expected
# finish turn) strata of the short regime, the (side, n, k, p, expected
# finish turn) strata of the long regime, and the (decade of q, n) strata of
# the series. A round's cost grows with its finish turn; a long call's cost
# also with its longest round, which p sets through the slow branch's share;
# and a series' cost grows with 1/(n q).
SHORT_ROUNDS = 1 << 16
LONG_ROUNDS = 1 << 15
SHORT_STRATA = ((3, 1, 1.15), (4, 2, 1.25), (6, 3, 1.3), (2, 1, 1.35),
                (5, 2, 1.15), (3, 2, 1.4), (8, 2, 1.1), (2, 1, 1.25))
SHORT_CANDIDATES = 64
LONG_STRATA = (("low", 2, 1, 0.7, 150.0), ("high", 2, 2, 0.6, 200.0),
               ("low", 3, 3, 0.5, 250.0), ("high", 3, 2, 0.65, 300.0))
SERIES_STRATA = ((3, 3), (4, 2), (5, 2), (6, 2))

# cli-session: rounds of each simulate process and steps of each curve.
CLI_SIMULATE_ROUNDS = 20_000
CLI_CURVE_STEPS = 200


def _valid_p(rng: np.random.Generator, k: int, margin: float) -> float:
    floor = 1.0 / (k + 1)
    return floor + (1.0 - floor) * float(rng.uniform(margin, 1.0 - margin))


def _log_uniform_int(rng: np.random.Generator, lo: float, hi: float) -> int:
    return max(2, int(round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def _jitter(rng: np.random.Generator, spread: float) -> float:
    """A factor exp(U(-spread, spread)) around 1."""
    return math.exp(float(rng.uniform(-spread, spread)))


def expected_turns(n: int, k: int, p: float, q: float, r: float) -> float:
    """Mean finish turn of a round, from the per-turn no-landing chance.

    A benchmark-side formula used only to pick inputs: per pointer branch
    the round lasts Geometric(1 - s) turns with s = (1 - f)(1 - o)^(n - 1).
    """
    total = 0.0
    for weight, f, o in ((p, r, q), (1.0 - p, (1.0 - r) / k, (1.0 - q) / k)):
        total += weight / (1.0 - (1.0 - f) * (1.0 - o) ** (n - 1))
    return total


@dataclass(frozen=True)
class SolveSweepInputs:
    sweep_n_values: tuple[int, ...]
    scattered: tuple[tuple[int, int, float], ...]
    sweep_k: tuple[tuple[int, float, tuple[int, ...]], ...]
    residual_curves: tuple[tuple[int, int, float, float, float, int], ...]
    reliability_curves: tuple[tuple[int, int, float, float, int], ...]


@dataclass(frozen=True)
class McCase:
    n: int
    k: int
    p: float
    q: float
    r: float
    rounds: int
    seed: int


@dataclass(frozen=True)
class OraclesInputs:
    short: tuple[McCase, ...]
    long: tuple[McCase, ...]
    series: tuple[tuple[int, int, float, float, float], ...]


@dataclass(frozen=True)
class CliInputs:
    commands: tuple[tuple[str, ...], ...]


def solve_sweep(seed: int) -> SolveSweepInputs:
    rng = np.random.default_rng([seed, 1])
    # n is log-uniform on [2, 1e6], drawn one per equal slice of log n: a
    # solve's cost depends on n (the power kernel changes route at 1024), so
    # a fixed share of small n keeps the latency percentiles comparable
    # between seeds.
    slices = (np.arange(SCATTERED_SOLVES) + rng.random(SCATTERED_SOLVES)) / SCATTERED_SOLVES
    log_n = math.log(2) + slices * (math.log(1e6) - math.log(2))
    scattered = []
    for n in rng.permutation(np.exp(log_n)):
        k = int(rng.integers(1, 11))
        scattered.append((max(2, int(round(n))), k, _valid_p(rng, k, 0.02)))
    # p above 1/2 keeps every k from 1 upward valid.
    sweep_k = tuple(
        (_log_uniform_int(rng, 2, 1e4), 0.5 + 0.5 * float(rng.uniform(0.02, 0.98)),
         tuple(range(1, 11)))
        for _ in range(SWEEP_K_CALLS)
    )
    residual_curves = []
    reliability_curves = []
    for _ in range(CURVE_CALLS):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(1, 11))
        lo, hi = 1.0 / (k + 1) + 1e-6, 1.0 - 1e-6
        residual_curves.append((n, k, _valid_p(rng, k, 0.02), lo, hi, CURVE_STEPS))
        n = int(rng.integers(2, 101))
        k = int(rng.integers(1, 11))
        lo, hi = 1.0 / (k + 1) + 1e-6, 1.0 - 1e-6
        reliability_curves.append((n, k, lo, hi, CURVE_STEPS))
    return SolveSweepInputs(
        sweep_n_values=tuple(range(2, 2 + SWEEP_N_COUNT)),
        scattered=tuple(scattered),
        sweep_k=sweep_k,
        residual_curves=tuple(residual_curves),
        reliability_curves=tuple(reliability_curves),
    )


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 63))


def _short_case(rng: np.random.Generator, n: int, k: int, turns: float) -> McCase:
    """Of a fixed number of interior-trust draws, the one whose mean finish
    turn is closest to the target."""
    draws = [(_valid_p(rng, k, 0.05), float(rng.uniform(0.3, 0.85)),
              float(rng.uniform(0.2, 0.9))) for _ in range(SHORT_CANDIDATES)]
    p, q, r = min(draws, key=lambda d: abs(expected_turns(n, k, *d) - turns))
    return McCase(n, k, p, q, r, SHORT_ROUNDS, _mc_seed(rng))


def _long_case(rng: np.random.Generator, side: str, n: int, k: int, p: float,
               turns: float) -> McCase:
    """Trusts eps from 0 or 1 with eps set so the mean finish turn hits a target."""
    p += float(rng.uniform(-0.01, 0.01))
    ratio = _jitter(rng, 0.2)
    target = turns * _jitter(rng, 0.03)

    def trusts(eps: float) -> tuple[float, float]:
        if side == "low":
            return eps, eps * ratio
        return 1.0 - eps, 1.0 - eps * ratio

    lo, hi = math.log(1e-7), math.log(0.05)  # turns fall as eps grows
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if expected_turns(n, k, p, *trusts(math.exp(mid))) > target:
            lo = mid
        else:
            hi = mid
    q, r = trusts(math.exp(hi))
    return McCase(n, k, p, q, r, LONG_ROUNDS, _mc_seed(rng))


def oracles(seed: int) -> OraclesInputs:
    rng = np.random.default_rng([seed, 2])
    short = tuple(_short_case(rng, *stratum) for stratum in SHORT_STRATA)
    long = tuple(_long_case(rng, *stratum) for stratum in LONG_STRATA)
    series = []
    for decade, n in SERIES_STRATA:
        k = int(rng.integers(1, 6))
        q = 10.0 ** -decade * _jitter(rng, 0.03)
        series.append((n, k, _valid_p(rng, k, 0.05), q, q * _jitter(rng, 0.03)))
    return OraclesInputs(short=short, long=long, series=tuple(series))


def _f(x: float) -> str:
    return repr(float(x))


def cli_session(seed: int) -> CliInputs:
    """Two seeded argv lists for each short subcommand, in a seeded order."""
    rng = np.random.default_rng([seed, 3])
    commands = []
    for _ in range(2):
        n = _log_uniform_int(rng, 2, 1e6)
        k = int(rng.integers(1, 11))
        commands.append(("solve", "--n", str(n), "--k", str(k), "--p", _f(_valid_p(rng, k, 0.02))))
        k = int(rng.integers(1, 11))
        commands.append(("sweep-n", "--k", str(k), "--p", _f(_valid_p(rng, k, 0.02)),
                         "--n-from", "2", "--n-to", str(_log_uniform_int(rng, 100, 1e5)),
                         "--log"))
        commands.append(("sweep-k", "--n", str(_log_uniform_int(rng, 2, 1e4)),
                         "--p", _f(0.5 + 0.5 * float(rng.uniform(0.02, 0.98))),
                         "--k-from", "1", "--k-to", str(int(rng.integers(2, 11)))))
        k = int(rng.integers(1, 11))
        commands.append(("best-response", "--n", str(int(rng.integers(2, 101))), "--k", str(k),
                         "--p", _f(_valid_p(rng, k, 0.02)),
                         "--q", _f(float(rng.uniform(0.05, 0.95)))))
        k = int(rng.integers(1, 6))
        commands.append(("simulate", "--n", str(int(rng.integers(2, 11))), "--k", str(k),
                         "--p", _f(_valid_p(rng, k, 0.05)),
                         "--q", _f(float(rng.uniform(0.2, 0.85))),
                         "--r", _f(float(rng.uniform(0.05, 0.95))),
                         "--rounds", str(CLI_SIMULATE_ROUNDS),
                         "--seed", str(_mc_seed(rng))))
        k = int(rng.integers(1, 11))
        commands.append(("single-searcher", "--p", _f(_valid_p(rng, k, 0.02)), "--k", str(k)))
        k = int(rng.integers(1, 11))
        commands.append(("curve-e", "--n", str(int(rng.integers(2, 101))), "--k", str(k),
                         "--p", _f(_valid_p(rng, k, 0.02)),
                         "--q-min", _f(1.0 / (k + 1) + 1e-6), "--q-max", _f(1.0 - 1e-6),
                         "--steps", str(CLI_CURVE_STEPS)))
        k = int(rng.integers(1, 11))
        commands.append(("curve-f", "--n", str(int(rng.integers(2, 101))), "--k", str(k),
                         "--q-min", _f(1.0 / (k + 1) + 1e-6), "--q-max", _f(1.0 - 1e-6),
                         "--steps", str(CLI_CURVE_STEPS)))
    order = rng.permutation(len(commands))
    return CliInputs(commands=tuple(commands[i] for i in order))
