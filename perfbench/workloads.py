"""The three benchmark workloads: set-up, timed passes and output checks.

Each workload is a closed loop with one caller in this process: the next call
goes out only when the previous one has returned. A pass is the workload's
fixed unit of work; a run repeats passes until its time is up and reports
medians over them. Checks run between passes, outside every timed region,
and call the package's functions as they were before any tracing wrapper
was installed, so they add neither time nor spans to what is measured.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import starsearch.acceptance  # noqa: F401  (tracing needs every layer loaded)
import starsearch.cli
import starsearch.equilibrium
import starsearch.model
import starsearch.simulate
import starsearch.verify  # noqa: F401
from starsearch.model import expected_payoff as closed_form_payoff
from starsearch.model import reliability_from_trust as reliability_map

import inputs
import spans

SETUP_REPEATS = 15
SOLVE_RESIDUAL_TOL = 1e-10  # criterion 3's solver residual bound
Z_LIMIT = 4.0  # criterion 6's Monte Carlo bound
SERIES_TOL = 1e-10  # criterion 6's series bound
# A cli-session block: whole cycles of the command list, so every block times
# the same mix and number of processes (96) and each argv repeats, so
# byte-identity is checked.
CLI_CYCLES = 6
TRACED_CLI_CYCLES = 5
PROCESS_TIMEOUT_S = 150

# Speed readings: iterations of the reading loop, and its median time on the
# host the baseline in baseline.json was recorded on. That time sets the unit
# of every reported end-to-end time: seconds on a machine running at that
# speed.
SPEED_LOOP = 200
REFERENCE_LOOP_S = 4.0e-3
READ_INTERVAL_S = 0.1

clock = time.perf_counter


class Checks:
    """Operations attempted and the ones whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Speed:
    """How fast the machine ran, read just before and after each timed call.

    On a shared host the same code can run 30% slower from one second to
    the next. A fixed loop of small numpy draws, shaped like the simulator's
    per-turn step but calling no package code, slows down with it; of the
    loops tried, it followed the package's own timings most closely. Its
    time read around a call, against REFERENCE_LOOP_S, says how much slower
    than the reference the machine ran during that call, and every reported
    end-to-end time is scaled by such a factor.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        # (seconds as measured, factor) of every timed call, for the result file.
        self.calls: list[tuple[float, float]] = []
        self._rng = np.random.default_rng(0)
        self._weights = self._rng.random(256)

    def read(self) -> float:
        """CPU seconds of one pass of the loop; a preempted reading still counts right."""
        rng, weights = self._rng, self._weights
        t0 = time.thread_time()
        for _ in range(SPEED_LOOP):
            hits = rng.random(weights.size) < weights
            rng.binomial(2, weights[np.nonzero(hits)[0]])
        elapsed = time.thread_time() - t0
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn, *args):
        """(fn(*args), seconds as measured, factor to the reference speed)."""
        before = self.read()
        t0 = clock()
        result = fn(*args)
        elapsed = clock() - t0
        after = self.read()
        factor = 2.0 * REFERENCE_LOOP_S / (before + after)
        self.calls.append((elapsed, factor))
        return result, elapsed, factor

    def pass_at_reference(self, run_pass) -> dict[str, float]:
        """run_pass()'s metrics at the reference speed.

        One factor scales the whole pass: the median of the factors of the
        calls it timed. Times are multiplied by it and ops_per_s divided. The
        two readings around one call are noisy (one reading differs from the
        next by about 6%, with spikes), and a call of a second has no reading
        inside it; scaled by its own factor, the series time on oracles
        spread by 0.11 from seed to seed, and by 0.06 with the pass's median.
        """
        first = len(self.calls)
        metrics = run_pass()
        factor = statistics.median(f for _, f in self.calls[first:])
        return {key: value / factor if key == "ops_per_s" else value * factor
                for key, value in metrics.items()}

    def timed_process(self, argv: list[str]):
        """Like timed(run_process, argv), for a child that runs for seconds.

        Two readings cannot tell how fast the machine ran during a long
        child, so this process also reads while it waits, once per
        READ_INTERVAL_S. Run pinned to the child's CPU (see run.py), each
        reading briefly takes that CPU from the child and sees the speed the
        child gets; the readings' CPU time is taken off the child's time.
        """
        readings = []
        t0 = clock()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            while True:
                try:
                    stdout, stderr = proc.communicate(timeout=READ_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    if clock() - t0 > PROCESS_TIMEOUT_S:
                        proc.kill()
                        stdout, stderr = proc.communicate()
                        break
                    readings.append(self.read())
        elapsed = clock() - t0 - sum(readings)
        readings.append(self.read())
        done = subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)
        factor = REFERENCE_LOOP_S / statistics.mean(readings)
        self.calls.append((elapsed, factor))
        return done, elapsed, factor

    def factor(self) -> float:
        """Factor to the reference speed from every reading so far."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)


def tail(samples: list[float]) -> float:
    """Highest order statistic with at least ten samples above it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def tail_percentile(count: int) -> float:
    return 100.0 * max(0, count - 10) / count


def median_of(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def repeat_passes(run_pass, deadline: float) -> list[dict]:
    """Passes until the deadline, at least one: the metrics of each."""
    passes = []
    while not passes or clock() < deadline:
        passes.append(run_pass())
    return passes


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    """One child process, waited for; a hung child is killed at the timeout."""
    try:
        return subprocess.run(argv, capture_output=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(argv, -9, exc.stdout or b"", exc.stderr or b"")


def fresh_import(module: str, checks: Checks) -> None:
    proc = run_process([sys.executable, "-c", f"import {module}"])
    checks.add(proc.returncode == 0, f"fresh process could not import {module}")


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def alternate(run_pass, deadline: float, tracer: spans.Tracer):
    """Untraced and traced passes in turn until the deadline, at least one each."""
    untraced, traced = [], []
    while not traced or clock() < deadline:
        untraced.append(run_pass())
        tracer.install()
        try:
            traced.append(run_pass())
        finally:
            tracer.uninstall()
    return untraced, traced


def overhead(layers: dict, untraced: list[dict], traced: list[dict]) -> dict:
    """Tracing overhead: traced against untraced wall_s of the same pass."""
    plain = statistics.median(p["wall_s"] for p in untraced)
    with_spans = statistics.median(p["wall_s"] for p in traced)
    layers["trace.overhead_ratio"] = with_spans / plain
    return {"untraced_wall_s": plain, "traced_wall_s": with_spans,
            "untraced_passes": len(untraced), "traced_passes": len(traced)}


class InProcess:
    """A workload whose fixed work is one in-process pass, run_pass(inp),
    which returns the pass's end-to-end metrics as measured."""

    def __init__(self, checks: Checks, speed: Speed) -> None:
        self.checks = checks
        self.speed = speed

    def _pass(self, inp) -> dict[str, float]:
        return self.speed.pass_at_reference(lambda: self.run_pass(inp))

    def measure(self, inp, deadline: float) -> tuple[dict, dict]:
        passes = repeat_passes(lambda: self._pass(inp), deadline)
        return median_of(passes), {"passes": len(passes), "per_pass": passes}

    def measure_traced(self, inp, deadline: float, tracer: spans.Tracer) -> tuple[dict, dict]:
        untraced, traced = alternate(lambda: self._pass(inp), deadline, tracer)
        layers = spans.per_layer_metrics(tracer, len(traced))
        return layers, overhead(layers, untraced, traced)


class SolveSweep(InProcess):
    """Equilibrium solves: one op is one solve_equilibrium call."""

    name = "solve-sweep"
    make_inputs = staticmethod(inputs.solve_sweep)
    # Workload-specific names printed next to the metrics, as (metric, scale).
    aliases = {"solves_per_s": ("ops_per_s", 1.0), "solve_p50_us": ("typical_us", 1.0),
               "solve_tail_us": ("tail_us", 1.0), "sweep_n_s": ("heavy_s", 1.0)}

    def _solve_ok(self, n: int, k: int, p: float, q_bar: float) -> bool:
        return q_bar > p and abs(reliability_map(n, k, q_bar) - p) <= SOLVE_RESIDUAL_TOL

    def _check_sweep(self, curve, fixed, axis: str, p: float) -> None:
        for x, q_bar in curve.points:
            n, k = (int(x), fixed) if axis == "n" else (fixed, int(x))
            self.checks.add(self._solve_ok(n, k, p, q_bar),
                            f"sweep point n={n} k={k} p={p!r}: q_bar={q_bar!r}")

    @staticmethod
    def _scattered(params_list) -> tuple[list, list[int]]:
        solve = starsearch.equilibrium.solve_equilibrium
        solutions, latencies = [], []
        for params in params_list:
            t0 = time.perf_counter_ns()
            solutions.append(solve(params))
            latencies.append(time.perf_counter_ns() - t0)
        return solutions, latencies

    @staticmethod
    def _sweeps_k(inp) -> list:
        return [starsearch.equilibrium.sweep_k(n, p, ks) for n, p, ks in inp.sweep_k]

    @staticmethod
    def _curves(inp) -> tuple[list, list]:
        eq, model = starsearch.equilibrium, starsearch.model
        residuals = [eq.residual_curve(model.GameParams(n, k, p), lo, hi, steps)
                     for n, k, p, lo, hi, steps in inp.residual_curves]
        reliabilities = [eq.reliability_curve(*args) for args in inp.reliability_curves]
        return residuals, reliabilities

    def _check(self, inp, solutions, sweep, sweeps_k, residuals, reliabilities) -> None:
        for (n, k, p), sol in zip(inp.scattered, solutions):
            self.checks.add(self._solve_ok(n, k, p, sol.q_bar),
                            f"solve n={n} k={k} p={p!r}: q_bar={sol.q_bar!r}")
        self.checks.add(sweep.xs == tuple(map(float, inp.sweep_n_values)), "sweep_n abscissae")
        self._check_sweep(sweep, 3, "n", 0.5)
        for (n, p, _), curve in zip(inp.sweep_k, sweeps_k):
            self._check_sweep(curve, n, "k", p)
        for (n, k, p, *_), curve in zip(inp.residual_curves, residuals):
            signs = [y > 0.0 for y in curve.ys if y != 0.0]
            crossings = sum(a != b for a, b in zip(signs, signs[1:]))
            self.checks.add(crossings == 1,
                            f"residual curve n={n} k={k} p={p!r}: {crossings} crossings")
        for (n, k, *_), curve in zip(inp.reliability_curves, reliabilities):
            ys = curve.ys
            ok = all(b > a for a, b in zip(ys, ys[1:])) and 1.0 / (k + 1) < ys[0] and ys[-1] < 1.0
            self.checks.add(ok, f"reliability curve n={n} k={k} not increasing inside its range")

    def run_pass(self, inp) -> dict[str, float]:
        timed = self.speed.timed
        params = [starsearch.model.GameParams(n, k, p) for n, k, p in inp.scattered]
        (solutions, latencies), scattered_s, _ = timed(self._scattered, params)
        sweep, sweep_n_s, _ = timed(starsearch.equilibrium.sweep_n, 3, 0.5, inp.sweep_n_values)
        sweeps_k, sweep_k_s, _ = timed(self._sweeps_k, inp)
        (residuals, reliabilities), curves_s, _ = timed(self._curves, inp)
        self._check(inp, solutions, sweep, sweeps_k, residuals, reliabilities)

        solves = len(solutions) + len(sweep.points) + sum(len(c.points) for c in sweeps_k)
        return {
            "wall_s": scattered_s + sweep_n_s + sweep_k_s + curves_s,
            "ops_per_s": solves / (sum(latencies) * 1e-9 + sweep_n_s + sweep_k_s),
            "typical_us": statistics.median(latencies) * 1e-3,
            "tail_us": tail(latencies) * 1e-3,
            "heavy_s": sweep_n_s,
        }

    def warm_up(self, inp) -> None:
        eq, model = starsearch.equilibrium, starsearch.model
        for n, k, p in inp.scattered[:100]:
            sol = eq.solve_equilibrium(model.GameParams(n, k, p))
            self.checks.add(self._solve_ok(n, k, p, sol.q_bar), f"warm-up solve n={n} k={k}")
        self._check_sweep(eq.sweep_n(3, 0.5, inp.sweep_n_values[:100]), 3, "n", 0.5)

    def measure(self, inp, deadline: float) -> tuple[dict, dict]:
        metrics, info = super().measure(inp, deadline)
        count = len(inp.scattered)
        info["tail"] = (f"p{tail_percentile(count):g} of {count} solves per pass, "
                        f"median over {info['passes']} passes")
        return metrics, info


class Oracles(InProcess):
    """Independent oracles: one op is one Monte Carlo round."""

    name = "oracles"
    make_inputs = staticmethod(inputs.oracles)
    aliases = {"mc_short_ns_per_round": ("typical_us", 1e3),
               "mc_long_ns_per_round": ("tail_us", 1e3),
               "mc_rounds_per_s": ("ops_per_s", 1.0), "series_s": ("heavy_s", 1.0)}

    def __init__(self, checks: Checks, speed: Speed) -> None:
        super().__init__(checks, speed)
        self.first: dict[tuple, object] = {}

    @staticmethod
    def _config(case):
        model, sim = starsearch.model, starsearch.simulate
        return sim.SimulationConfig(model.GameParams(case.n, case.k, case.p),
                                    model.TrustProfile(case.q, case.r),
                                    rounds=case.rounds, seed=case.seed)

    def _check_mc(self, case, report) -> None:
        model = starsearch.model
        exact = closed_form_payoff(model.GameParams(case.n, case.k, case.p),
                                   model.TrustProfile(case.q, case.r))
        z = abs(report.focal_mean_payoff - exact) / report.focal_std_error
        same = self.first.setdefault(case, report) == report
        self.checks.add(z < Z_LIMIT and report.capped_rounds == 0 and same,
                        f"Monte Carlo {case}: |z|={z:.2f} capped={report.capped_rounds} "
                        f"repeatable={same}")

    def _check_series(self, params, profile, value) -> None:
        gap = abs(value - closed_form_payoff(params, profile))
        same = self.first.setdefault((params, profile), value) == value
        self.checks.add(gap <= SERIES_TOL and same,
                        f"series {params} {profile}: gap {gap:.3e} repeatable={same}")

    def _timed_mc(self, cases) -> float:
        """Seconds of one estimate_payoff per case."""
        total = 0.0
        for case in cases:
            report, seconds, _ = self.speed.timed(
                starsearch.simulate.estimate_payoff, self._config(case))
            self._check_mc(case, report)
            total += seconds
        return total

    def run_pass(self, inp) -> dict[str, float]:
        model = starsearch.model
        short_s = self._timed_mc(inp.short)
        long_s = self._timed_mc(inp.long)
        series_s = 0.0
        for n, k, p, q, r in inp.series:
            params, profile = model.GameParams(n, k, p), model.TrustProfile(q, r)
            value, seconds, _ = self.speed.timed(
                starsearch.simulate.series_payoff, params, profile)
            self._check_series(params, profile, value)
            series_s += seconds
        short_rounds = sum(c.rounds for c in inp.short)
        long_rounds = sum(c.rounds for c in inp.long)
        return {
            "wall_s": short_s + long_s + series_s,
            "ops_per_s": (short_rounds + long_rounds) / (short_s + long_s),
            "typical_us": short_s / short_rounds * 1e6,
            "tail_us": long_s / long_rounds * 1e6,
            "heavy_s": series_s,
        }

    def warm_up(self, inp) -> None:
        model, sim = starsearch.model, starsearch.simulate
        self._check_mc(inp.short[0], sim.estimate_payoff(self._config(inp.short[0])))
        n, k, p, _, _ = inp.series[0]
        params, profile = model.GameParams(n, k, p), model.TrustProfile(0.3, 0.4)
        self._check_series(params, profile, sim.series_payoff(params, profile))

CLI_SUBCOMMANDS = ("solve", "sweep-n", "sweep-k", "best-response", "simulate",
                   "single-searcher", "curve-e", "curve-f")
# Only cli-session starts CLI processes; the other workloads report these as 0.
CLI_PROCESS_METRICS = ("cli.import_s", *(f"cli.{sub}.process_ms" for sub in CLI_SUBCOMMANDS))


class CliSession:
    """What a user runs: one op is one short CLI process."""

    name = "cli-session"
    make_inputs = staticmethod(inputs.cli_session)
    aliases = {"verify_s": ("heavy_s", 1.0), "cli_call_p50_ms": ("typical_us", 1e-3),
               "cli_call_tail_ms": ("tail_us", 1e-3), "cli_calls_per_s": ("ops_per_s", 1.0)}

    def __init__(self, checks: Checks, speed: Speed) -> None:
        self.checks = checks
        self.speed = speed
        self.first_stdout: dict[tuple[str, ...], bytes] = {}

    @staticmethod
    def _argv(args) -> list[str]:
        return [sys.executable, "-m", "starsearch", *args]

    def _check_output(self, args, code: int, stdout: bytes) -> None:
        """Exit 0, and stdout byte-identical to the first run of the same argv."""
        same = self.first_stdout.setdefault(tuple(args), stdout) == stdout
        self.checks.add(code == 0 and same,
                        f"starsearch {' '.join(args)}: exit {code}, same stdout {same}")

    def _check_verify(self, code: int, stdout: str) -> None:
        lines = stdout.splitlines()
        failing = [line for line in lines if not line.startswith("PASS")]
        self.checks.add(code == 0 and bool(lines) and not failing,
                        f"verify exit {code}: {failing[:3]}")

    def warm_up(self, inp) -> None:
        args = inp.commands[0]
        proc = run_process(self._argv(args))
        self._check_output(args, proc.returncode, proc.stdout)

    def _block(self, commands) -> dict[str, float]:
        """CLI_CYCLES cycles of the command list, one process at a time;
        wall_s sums the median time of each argv.

        A block lasts about 15 s, long enough for the machine's speed to
        change, so each process is scaled by its own factor and not, as an
        in-process pass is, by the block's median factor: the latter spread
        tail_us by 0.11 from seed to seed, against 0.04.
        """
        by_argv: defaultdict[tuple, list[float]] = defaultdict(list)
        calls: list[float] = []
        for _ in range(CLI_CYCLES):
            for args in commands:
                proc, seconds, factor = self.speed.timed(run_process, self._argv(args))
                self._check_output(args, proc.returncode, proc.stdout)
                by_argv[args].append(seconds * factor)
                calls.append(seconds * factor)
        return {
            "wall_s": sum(statistics.median(times) for times in by_argv.values()),
            "ops_per_s": len(calls) / sum(calls),
            "typical_us": statistics.median(calls) * 1e6,
            "tail_us": tail(calls) * 1e6,
        }

    def measure(self, inp, deadline: float) -> tuple[dict, dict]:
        proc, seconds, factor = self.speed.timed_process(self._argv(["verify"]))
        verify_s = seconds * factor
        self._check_verify(proc.returncode, proc.stdout.decode(errors="replace"))
        blocks = repeat_passes(lambda: self._block(inp.commands), deadline)
        metrics = median_of(blocks)
        metrics["wall_s"] += verify_s
        metrics["heavy_s"] = verify_s
        calls = CLI_CYCLES * len(inp.commands)
        info = {"blocks": len(blocks), "per_block": blocks,
                "tail": (f"p{tail_percentile(calls):.1f} of {calls} CLI processes per block, "
                         f"median over {len(blocks)} blocks")}
        return metrics, info

    def _dispatch(self, args) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = starsearch.cli.dispatch(list(args))
        return clock() - t0, code, out.getvalue()

    def _cycle(self, inp) -> dict[str, float]:
        total = 0.0
        for args in inp.commands:
            elapsed, code, stdout = self._dispatch(args)
            self._check_output(args, code, stdout.encode())
            total += elapsed
        return {"wall_s": total}

    def measure_traced(self, inp, deadline: float, tracer: spans.Tracer) -> tuple[dict, dict]:
        imports = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            fresh_import("starsearch.cli", self.checks)
            imports.append(clock() - t0)
        process_ms: defaultdict[str, list[float]] = defaultdict(list)
        nonzero = 0
        for args in inp.commands:
            t0 = clock()
            proc = run_process(self._argv(args))
            process_ms[args[0]].append((clock() - t0) * 1e3)
            self._check_output(args, proc.returncode, proc.stdout)
            nonzero += proc.returncode != 0
        tracer.install()
        try:
            _, code, stdout = self._dispatch(["verify"])
        finally:
            tracer.uninstall()
        self._check_verify(code, stdout)
        untraced, traced = [], []
        for _ in range(TRACED_CLI_CYCLES):
            untraced.append(self._cycle(inp))
            tracer.install()
            try:
                traced.append(self._cycle(inp))
            finally:
                tracer.uninstall()
        layers = spans.per_layer_metrics(tracer, passes=1)
        layers["cli.import_s"] = statistics.median(imports)
        layers["cli.nonzero_exits"] += nonzero
        for sub in CLI_SUBCOMMANDS:
            layers[f"cli.{sub}.process_ms"] = statistics.mean(process_ms[sub])
        info = overhead(layers, untraced, traced)
        info["traced_unit"] = (f"one in-process verify plus {TRACED_CLI_CYCLES} "
                               "in-process cycles of the command list")
        return layers, info


WORKLOADS = {w.name: w for w in (SolveSweep, Oracles, CliSession)}


def run(workload: str, seed: int, seconds: int, traced: bool):
    """Set up, measure and check one workload.

    Returns (metrics, info, checks, tracer); tracer is None for an untraced
    run. Untraced end-to-end times are at the reference machine speed; the
    seconds as measured and the factor of each timed call are kept in
    info["timed_calls"]. Per-layer times are as measured.
    """
    checks = Checks()
    speed = Speed()
    bench = WORKLOADS[workload](checks, speed)

    def set_up():
        fresh_import("starsearch", checks)
        inp = bench.make_inputs(seed)
        bench.warm_up(inp)
        return inp

    setups = [speed.timed(set_up) for _ in range(1 if traced else SETUP_REPEATS)]
    inp = setups[-1][0]
    deadline = clock() + seconds
    if traced:
        tracer = spans.Tracer()
        metrics, info = bench.measure_traced(inp, deadline, tracer)
        for key in CLI_PROCESS_METRICS:
            metrics.setdefault(key, 0.0)
        return metrics, info, checks, tracer
    metrics, info = bench.measure(inp, deadline)
    metrics["setup_s"] = statistics.median(s * f for _, s, f in setups)
    metrics["peak_rss_mb"] = peak_rss_mb(with_children=workload == "cli-session")
    info = dict(
        setup=f"median of {len(setups)} set-ups",
        speed_readings=len(speed.samples),
        median_speed_factor=speed.factor(),
        speed_samples=speed.samples,
        timed_calls=speed.calls,
        aliases={alias: metrics[key] * scale for alias, (key, scale) in bench.aliases.items()},
        **info,
    )
    return metrics, info, checks, None
