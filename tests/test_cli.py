import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starsearch.cli import _log_grid, _print_csv, dispatch
from starsearch.equilibrium import (
    EquilibriumSolution,
    _reliability_sampler,
    solve_equilibrium,
)
from starsearch.model import GameParams, equilibrium_residual, reliability_from_trust
from starsearch.simulate import SimulationReport

HUGE = "1" + "0" * 400  # an integer past the largest double
# At this reliability, math and numpy give the solver's sign function other
# signs at (n, k) = (3, 9), so a scalar solve ends one cell above a lane.
SPLIT_P = "0.7169403197093437"
# At (n, k) = (4, 67214) and this reliability, a lane ends one cell below a
# scalar solve.
LOW_LANE_P = "0.6179153146021227"
# Child interpreters import the package from this checkout.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
SUBCOMMANDS = (
    "solve", "curve-e", "curve-f", "sweep-n", "sweep-k", "simulate",
    "best-response", "verify", "single-searcher",
)


def run_cli(capsys, *args):
    code = dispatch(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def print_curve(curve):
    """Print a whole curve as the CLI prints its rows."""
    _print_csv(f"{curve.abscissa_name},{curve.ordinate_name}", curve.points)


def print_solved_sweep(name, values, fixed, p):
    """Print a sweep of n or k, as the CLI prints it, from one
    solve_equilibrium per point."""
    def q_bar(value):
        n, k = (value, fixed) if name == "n" else (fixed, value)
        return solve_equilibrium(GameParams(n, k, p)).q_bar

    _print_csv(f"{name},q_bar", [(value, q_bar(value)) for value in values])


def capped_child(argv):
    """A child `python -m starsearch` with pipes for stdout and stderr and
    its address space capped at 1 GiB, so a command that builds its whole
    range fails instead of exhausting the host."""
    return subprocess.Popen(
        [sys.executable, "-m", "starsearch", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2),
    )


def child_head(argv, lines):
    """The first lines of a capped child's stdout; a timer kills a child
    that does not print them within a minute."""
    proc = capped_child(argv)
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    try:
        return [proc.stdout.readline() for _ in range(lines)]
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


# solve's exact stdout on each evaluation path of the solver: probes in the
# loop, the first probe alone, none (p's grid point is the one below 1.0),
# the point where math and numpy disagree, and k far above n.
GOLDEN_SOLVE = [
    (["--n", "5", "--k", "3", "--p", "0.5"],  # 5 evaluations
     '{"q_bar": 0.53047771850663139, '
     '"residual": 2.9420910152566648e-14, '
     '"e_residual": 5.0237591864288333e-15, "iterations": 5, '
     '"bracket_lo": 0.5304777185065177, '
     '"bracket_hi": 0.53047771850663139}\n'),
    (["--n", "5000", "--k", "4", "--p", "0.6"],  # 1 evaluation
     '{"q_bar": 0.60000000000002274, '
     '"residual": 2.2759572004815709e-14, '
     '"e_residual": 5.6898930012039273e-15, "iterations": 1, '
     '"bracket_lo": 0.59999999999990905, '
     '"bracket_hi": 0.60000000000002274}\n'),
    (["--n", "2", "--k", "1", "--p", "0.9999999999999999"],  # 0 evaluations
     '{"q_bar": 1, "residual": 1.1102230246251565e-16, '
     '"e_residual": 0, "iterations": 0, '
     '"bracket_lo": 0.99999999999988631, "bracket_hi": 1}\n'),
    (["--n", "3", "--k", "9", "--p", SPLIT_P],  # 6 evaluations
     '{"q_bar": 0.78327583273915025, '
     '"residual": 1.2745360322696797e-13, '
     '"e_residual": 7.2836701947576188e-16, "iterations": 6, '
     '"bracket_lo": 0.78327583273903656, '
     '"bracket_hi": 0.78327583273915025}\n'),
    (["--n", "2", "--k", "100000000000000000000", "--p", "1e-10"],  # 3 evaluations
     '{"q_bar": 1.000000000050103e-10, '
     '"residual": 1.0300983565699423e-23, '
     '"e_residual": 2.0588625835345156e-73, "iterations": 3, '
     '"bracket_lo": 1.0000000000499707e-10, '
     '"bracket_hi": 1.000000000050103e-10}\n'),
]


# The SHA-256 of the exact stdout, its line count and the exact stderr of
# the other commands on the math route: curves, which take it at every size,
# and the best-response scan. The curves are the rows where numpy would print
# other digits (see test_in_process_dispatch_prints_what_a_child_process_prints).
GOLDEN_MATH = [
    (["curve-e", "--n", "3", "--k", "3", "--p", "0.2777374022969217",
      "--q-min", "0.250001", "--q-max", "0.999999", "--steps", "51"],
     "9dfc65580dd16d869205f2deda1d3b1d1ef473b704d564751ad6a3060a986abd", 52, ""),
    (["curve-f", "--n", "26", "--k", "9",
      "--q-min", "0.100001", "--q-max", "0.999999", "--steps", "51"],
     "584299010d77201a1c8959440fb28cdd3798634e0a946aa5e456ba96944223a1", 52, ""),
    (["best-response", "--n", "5", "--k", "3", "--p", "0.5", "--q", "0.53"],
     "37ba37cbb34c1839eb03b61e06a46261995e4ac73e62257c72ee1c2ee53e4037", 2002,
     "argmax_r=0.53249999999999997 max_payoff=0.20000041201638041\n"),
]


class TestSolve:
    @pytest.mark.parametrize("argv,expected", GOLDEN_SOLVE,
                             ids=["loop", "first-probe", "none", "split", "huge-k"])
    def test_output_bytes(self, capsys, argv, expected):
        assert run_cli(capsys, "solve", *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv,digest,lines,err", GOLDEN_MATH,
                             ids=["curve-e", "curve-f", "best-response"])
    def test_math_route_output_bytes(self, capsys, argv, digest, lines, err):
        code, out, got_err = run_cli(capsys, *argv)
        assert (code, got_err, out.count("\n")) == (0, err, lines)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "5", "--k", "3", "--p", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["q_bar"] == pytest.approx(0.53, abs=0.005)
        assert set(payload) == {
            "q_bar", "residual", "e_residual", "iterations", "bracket_lo", "bracket_hi",
        }

    def test_invalid_reliability_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "5", "--k", "3", "--p", "0.2")
        assert code == 2
        assert out == ""
        assert "p must exceed 1/(k+1)" in err

    def test_fields_follow_the_record(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--n", "5", "--k", "3", "--p", "0.5")
        assert list(json.loads(out)) == list(EquilibriumSolution._fields)

    @pytest.mark.parametrize("argv,name", [
        (["--n", HUGE, "--k", "1"], "n"), (["--n", "2", "--k", HUGE], "k"),
    ])
    def test_count_beyond_the_doubles_exits_two(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "solve", *argv, "--p", "0.6")
        assert (code, out, err) == (2, "", f"{name} must fit in a double\n")

    @pytest.mark.parametrize("n,k,p", [
        ("5", "1", "0.5000000001"), ("2", "1", "0.99999999999999989"),
        ("2", "41", "0.02380952380952381"), ("5", "1000000000000", "1e-10"),
        ("5", "4", "0.2"),  # the double 0.2 is 1/5 + 1.1e-17
    ])
    def test_p_next_to_its_domain_ends_solves(self, capsys, n, k, p):
        code, out, err = run_cli(capsys, "solve", "--n", n, "--k", k, "--p", p)
        assert (code, err) == (0, "")
        assert json.loads(out)["q_bar"] > float(p)

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--n", "5", "--k", "10000000000000010",
          "--p", "9.999999999999989e-17"], "p must exceed 1/(k+1)"),
        (["solve", "--n", "5", "--k", str(10**174), "--p", "1e-174"],
         "p must exceed 1/(k+1)"),
        (["single-searcher", "--k", str(10**174), "--p", "1e-174"],
         "p must exceed 1/(k+1)"),
        (["curve-f", "--n", "5", "--k", "10000000000000010", "--q-min",
          "9.999999999999989e-17", "--q-max", "0.5", "--steps", "3"],
         "need 1/(k+1) < q_lo"),
    ], ids=["solve-1e16", "solve-1e174", "single-searcher-1e174", "curve-f-1e16"])
    def test_below_the_floor_at_huge_k_exits_two(self, capsys, argv, message):
        # Each p or q_lo lies above the double 1.0 / (k + 1) and below 1/(k+1).
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_ray_count_far_above_population(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--n", "2", "--k", "20000000", "--p", "0.5"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["q_bar"] > 0.5


class TestCurves:
    def test_curve_e_header_and_endpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve-e", "--n", "5", "--k", "3", "--p", "0.5",
            "--q-min", "0.5", "--q-max", "1.0", "--steps", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,E"
        assert len(lines) == 6
        last_q, last_e = lines[-1].split(",")
        assert float(last_q) == 1.0
        assert float(last_e) == 0.0

    def test_curve_f_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve-f", "--n", "5", "--k", "3",
            "--q-min", "0.3", "--q-max", "0.95", "--steps", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,F"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("argv", [
        # 30 and 14 of these rows differ in the last bit on numpy arrays.
        ["curve-e", "--n", "3", "--k", "3", "--p", "0.2777374022969217",
         "--q-min", "0.250001", "--q-max", "0.999999", "--steps", "200"],
        ["curve-f", "--n", "26", "--k", "9",
         "--q-min", "0.100001", "--q-max", "0.999999", "--steps", "200"],
    ])
    def test_rows_equal_the_scalar_kernels_to_the_bit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, k = int(opts["--n"]), int(opts["--k"])
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        if argv[0] == "curve-e":
            params = GameParams(n, k, float(opts["--p"]))
            expected = [equilibrium_residual(params, q) for q, _ in rows]
        else:
            expected = [reliability_from_trust(n, k, q) for q, _ in rows]
        assert len(rows) == 200
        assert [y for _, y in rows] == expected

    def test_curve_f_where_the_off_ray_rate_rounds_to_zero(self, capsys):
        # (1 - q)/k rounds to 0.0 at the last q, where the map takes its
        # limits.
        code, out, err = run_cli(
            capsys, "curve-f", "--n", "3", "--k", str(10**308), "--q-min", "0.5",
            "--q-max", "0.9999999999999999", "--steps", "3",
        )
        assert (code, err) == (0, "")
        q, f = map(float, out.splitlines()[-1].split(","))
        assert (q, f) == (1 - 2**-53, reliability_from_trust(3, 10**308, q))

    def test_chunked_curve_prints_one_whole_curve(self, capsys):
        # Four chunks, each on the math kernels, as the whole curve would be.
        code, out, err = run_cli(
            capsys, "curve-f", "--n", "26", "--k", "9",
            "--q-min", "0.100001", "--q-max", "0.999999", "--steps", "200000",
        )
        assert (code, err) == (0, "")
        sample = _reliability_sampler(26, 9, 0.100001, 0.999999, 200000)
        print_curve(sample(arrays=False))
        assert out == capsys.readouterr().out

    def test_long_curve_prints_rows_before_it_is_built(self, capsys):
        # 1e12 rows would not fit in memory; the first rows must come all
        # the same, from a child capped as in the sweep test below.
        argv = ["curve-e", "--n", "5", "--k", "3", "--p", "0.5",
                "--q-min", "0.34", "--q-max", "0.8", "--steps"]
        head = child_head([*argv, str(10**12)], 4)
        assert head[0] == "q,E\n"
        rows = [tuple(map(float, line.split(","))) for line in head[1:]]
        params = GameParams(5, 3, 0.5)
        assert [e for _, e in rows] == [equilibrium_residual(params, q) for q, _ in rows]

    @pytest.mark.parametrize("argv", [
        ["curve-e", "--n", "5", "--k", "3", "--p", "0.5",
         "--q-min", "0.9", "--q-max", "0.1", "--steps", str(10**12)],
        ["curve-f", "--n", "5", "--k", "3",
         "--q-min", "0.2", "--q-max", "0.9", "--steps", str(10**12)],
    ])
    def test_invalid_long_curve_prints_nothing(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, "")

    def test_numbers_round_trip_to_the_same_double(self, capsys):
        _, out, _ = run_cli(
            capsys, "curve-f", "--n", "5", "--k", "3",
            "--q-min", "0.3", "--q-max", "0.95", "--steps", "7",
        )
        for line in out.strip().splitlines()[1:]:
            q_text, f_text = line.split(",")
            assert format(float(q_text), ".17g") == q_text
            assert format(float(f_text), ".17g") == f_text


class TestSweeps:
    def test_sweep_n_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-n", "--k", "3", "--p", "0.5", "--n-from", "2", "--n-to", "6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,q_bar"
        assert [int(float(line.split(",")[0])) for line in lines[1:]] == [2, 3, 4, 5, 6]

    def test_sweep_n_log_spacing(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-n", "--k", "3", "--p", "0.5",
            "--n-from", "2", "--n-to", "10000", "--log",
        )
        assert code == 0
        ns = [int(float(line.split(",")[0])) for line in out.strip().splitlines()[1:]]
        assert ns[0] == 2 and ns[-1] == 10000
        assert len(ns) <= 50
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_sweep_k_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-k", "--n", "5", "--p", "0.6", "--k-from", "1", "--k-to", "10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,q_bar"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sweep_k_invalid_entry_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep-k", "--n", "5", "--p", "0.3", "--k-from", "1", "--k-to", "5"
        )
        assert code == 2
        assert "p must exceed 1/(k+1)" in err

    def test_log_grid_is_numpys_geomspace_rounded(self):
        def numpy_grid(lo, hi):
            grid = np.geomspace(float(lo), float(hi), num=min(50, hi - lo + 1))
            return sorted({min(max(round(v), lo), hi) for v in grid.tolist()})

        rng = np.random.default_rng(17)
        his = np.exp(rng.uniform(np.log(2), np.log(1e9), 10_000)).astype(np.int64)
        ranges = [(int(rng.integers(2, hi + 1)), int(hi)) for hi in his]
        ranges += [(2, 2), (7, 7), (10**9, 10**9), (2, 3), (2, 51), (10, 40)]
        ranges += [(lo, lo + int(rng.integers(0, 49))) for lo in his[:1000].tolist()]
        assert sum(hi - lo + 1 < 50 for lo, hi in ranges) > 1000
        for lo, hi in ranges:
            assert _log_grid(lo, hi, min(50, hi - lo + 1)) == numpy_grid(lo, hi)

    def test_sweep_n_log_next_to_the_largest_double(self, capsys):
        # Every inner point's 10 ** y overflows, and so lies past --n-to.
        hi = int(sys.float_info.max)
        code, out, err = run_cli(
            capsys, "sweep-n", "--k", "3", "--p", "0.5",
            "--n-from", str(hi - 100), "--n-to", str(hi), "--log",
        )
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            str(hi - 100), str(hi)
        ]

    @pytest.mark.parametrize("n_to", ["10000000000000000000", "100000000000000000000"])
    def test_sweep_n_log_past_int64(self, capsys, n_to):
        code, out, err = run_cli(
            capsys, "sweep-n", "--k", "3", "--p", "0.5",
            "--n-from", "2", "--n-to", n_to, "--log",
        )
        assert (code, err) == (0, "")
        ns = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert ns[0] == 2 and ns[-1] == float(n_to)
        assert len(ns) <= 50
        assert all(b > a for a, b in zip(ns, ns[1:]))

    @pytest.mark.parametrize("n_to", ["9007199254740995", "100000000000000000000"])
    def test_sweep_n_prints_the_n_it_solved(self, capsys, n_to):
        # Exact integers, where a double would print 9007199254740996 and 1e+20.
        code, out, err = run_cli(
            capsys, "sweep-n", "--k", "3", "--p", "0.5",
            "--n-from", "2", "--n-to", n_to, "--log",
        )
        assert (code, err) == (0, "")
        ns = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert all(n.isdigit() for n in ns)
        assert ns[-1] == n_to

    @pytest.mark.parametrize("argv,message", [
        (["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "10", "--n-to", "5"],
         "--n-to must not be below --n-from\n"),
        (["sweep-k", "--n", "5", "--p", "0.6", "--k-from", "5", "--k-to", "2"],
         "--k-to must not be below --k-from\n"),
    ])
    def test_inverted_range_exits_two(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", message)

    def test_sweep_k_far_below_one_exits_two_at_once(self, capsys):
        # The start is checked before the range is built: building this one
        # would not finish.
        code, out, err = run_cli(
            capsys, "sweep-k", "--n", "5", "--p", "0.6",
            "--k-from", "-1000000000000", "--k-to", "5",
        )
        assert (code, out, err) == (2, "", "k must be at least 1\n")

    @pytest.mark.parametrize("argv,sweep", [
        # Four chunks.
        (["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "2", "--n-to", "200000"],
         lambda: print_solved_sweep("n", range(2, 200001), 3, 0.5)),
        # Two chunks, the last one a single solve.
        (["sweep-k", "--n", "5", "--p", "0.6", "--k-from", "1", "--k-to", "65537"],
         lambda: print_solved_sweep("k", range(1, 65538), 5, 0.6)),
        # A row is its point's solve whatever the range around it, also
        # where a lane ends on another cell: k = 9 in 8,191 and 8,192
        # values, and k = 67214 in a second chunk of 4,464 and of 8,193.
        (["sweep-k", "--n", "3", "--p", SPLIT_P, "--k-from", "1", "--k-to", "8191"],
         lambda: print_solved_sweep("k", range(1, 8192), 3, float(SPLIT_P))),
        (["sweep-k", "--n", "3", "--p", SPLIT_P, "--k-from", "1", "--k-to", "8192"],
         lambda: print_solved_sweep("k", range(1, 8193), 3, float(SPLIT_P))),
        (["sweep-k", "--n", "4", "--p", LOW_LANE_P, "--k-from", "1", "--k-to", "70000"],
         lambda: print_solved_sweep("k", range(1, 70001), 4, float(LOW_LANE_P))),
        (["sweep-k", "--n", "4", "--p", LOW_LANE_P, "--k-from", "1", "--k-to", "73729"],
         lambda: print_solved_sweep("k", range(1, 73730), 4, float(LOW_LANE_P))),
    ])
    def test_chunked_sweep_prints_one_whole_sweep(self, capsys, argv, sweep):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        sweep()
        assert out == capsys.readouterr().out

    def test_long_range_prints_rows_before_it_is_built(self, capsys):
        # 1e12 values would not fit in memory; the first rows must come all
        # the same.
        argv = ["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "2"]
        head = child_head([*argv, "--n-to", str(10**12 + 1)], 4)
        assert run_cli(capsys, *argv, "--n-to", "4") == (0, "".join(head), "")

    def test_closed_pipe_exits_one_without_a_traceback(self):
        # As `| head -2` does: the reader closes stdout after two lines.
        proc = capped_child(["sweep-n", "--k", "3", "--p", "0.5",
                             "--n-from", "2", "--n-to", str(10**12 + 1)])
        timer = threading.Timer(60.0, proc.kill)
        timer.start()
        try:
            head = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert head[0] == "n,q_bar\n"
        assert (code, err) == (1, "")

    @pytest.mark.parametrize("argv,name", [
        (["sweep-n", "--k", "3", "--p", "0.6", "--n-from", "2", "--n-to", HUGE], "n"),
        (["sweep-k", "--n", "5", "--p", "0.6", "--k-from", "1", "--k-to", HUGE], "k"),
    ])
    def test_sweep_end_beyond_the_doubles_exits_two(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"{name} must fit in a double\n")


class TestSimulate:
    def test_report_fields_and_determinism(self, capsys):
        args = (
            "simulate", "--n", "2", "--k", "1", "--p", "0.6667",
            "--q", "0.7", "--rounds", "50000", "--seed", "42",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["rounds_completed"] == 50000
        assert payload["seed_echo"] == 42
        assert payload["capped_rounds"] == 0
        assert payload["warning"] is None
        assert abs(payload["focal_mean_payoff"] - 0.5) < 5 * payload["focal_std_error"]

    def test_fields_follow_the_record(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1", "--p", "0.6667",
            "--q", "0.7", "--rounds", "100", "--seed", "1",
        )
        assert list(json.loads(out)) == list(SimulationReport._fields)

    def test_focal_trust_defaults_to_population(self, capsys):
        shared = ("--n", "2", "--k", "1", "--p", "0.6667", "--rounds", "2000",
                  "--seed", "7")
        _, defaulted, _ = run_cli(capsys, "simulate", *shared, "--q", "0.7")
        _, explicit, _ = run_cli(
            capsys, "simulate", *shared, "--q", "0.7", "--r", "0.7"
        )
        assert defaulted == explicit

    def test_capped_run_reports_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1", "--p", "0.9",
            "--q", "0", "--rounds", "500", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["capped_rounds"] > 0
        assert "biased low" in payload["warning"]

    def test_every_round_capped(self, capsys):
        # Every landing rate is about 1e-12 a turn, so a round outlasts the
        # million-turn cap with probability about 1 - 2e-6.
        code, out, err = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1000000000000", "--p", "0.5",
            "--q", "1e-12", "--rounds", "5", "--seed", "1",
        )
        assert (code, err) == (0, "")
        assert '"capped_rounds": 5,' in out
        assert '"mean_finish_turn": null,' in out
        assert json.loads(out)["warning"] == (
            "5 of 5 rounds hit the 1000000-turn cap; capped rounds score 0, "
            "so the payoff estimate is biased low"
        )

    def test_single_round_has_zero_std_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1", "--p", "0.6",
            "--q", "0.7", "--rounds", "1", "--seed", "1",
        )
        assert code == 0
        assert '"focal_std_error": 0,' in out

    def test_rounds_from_two_to_the_63_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1", "--p", "0.6",
            "--q", "0.7", "--rounds", str(2**63), "--seed", "1",
        )
        assert (code, out, err) == (2, "", "rounds must be below 2**63\n")

    @pytest.mark.parametrize("n", [10**17, 10**300], ids=["1e17", "1e300"])
    def test_population_too_large_to_simulate_exits_two(self, capsys, n):
        code, out, err = run_cli(
            capsys, "simulate", "--n", str(n), "--k", "1", "--p", "0.6",
            "--q", "0.5", "--rounds", "10", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("n is too large to simulate")


class TestBestResponse:
    def test_round_trip_with_solve(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--n", "5", "--k", "3", "--p", "0.5")
        q_bar = json.loads(out)["q_bar"]
        code, out, err = run_cli(
            capsys, "best-response", "--n", "5", "--k", "3", "--p", "0.5",
            "--q", format(q_bar, ".17g"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,payoff"
        assert len(lines) == 2002
        summary = dict(part.split("=") for part in err.split())
        assert abs(float(summary["argmax_r"]) - q_bar) <= 1 / 2000

    def test_off_ray_rates_rounding_to_zero_scan(self, capsys):
        # (1 - q)/k rounds to 0, and so does (1 - r)/k at the grid's r = 1,
        # where only the pointer-right branch pays: p (1 - (1-q)^n) / (n q).
        n, k, p, q = 3, 17 * 10**307, 0.5, 1 - 2**-53
        code, out, err = run_cli(
            capsys, "best-response", "--n", str(n), "--k", str(k),
            "--p", str(p), "--q", repr(q),
        )
        assert (code, err.startswith("argmax_r=")) == (0, True)
        lines = out.splitlines()
        assert len(lines) == 2002
        r, payoff = map(float, lines[-1].split(","))
        exact = Fraction(p) * (1 - (1 - Fraction(q)) ** n) / (n * Fraction(q))
        assert r == 1.0 and abs(Fraction(payoff) - exact) <= Fraction(1e-15) * exact


class TestSingleSearcher:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "single-searcher", "--p", "0.9", "--k", "1")
        assert code == 0
        assert float(out) == pytest.approx(0.75, abs=1e-12)

    def test_undefined_point_exits_two(self, capsys):
        # For k=1 the point p = k/(k+1) = 0.5 is the signal floor.
        code, _, err = run_cli(capsys, "single-searcher", "--p", "0.5", "--k", "1")
        assert code == 2
        assert "p must exceed 1/(k+1)" in err

    def test_one_half_at_k_over_k_plus_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "single-searcher", "--p", format(2 / 3, ".17g"), "--k", "2"
        )
        assert code == 0
        assert float(out) == pytest.approx(0.5, rel=1e-15)


def option_help(capsys, command):
    """Each option of a subcommand's --help, mapped to its help text."""
    with pytest.raises(SystemExit):
        dispatch([command, "--help"])
    options = capsys.readouterr().out.split("options:\n")[1]
    # Within an entry only the help text is set off by two or more spaces.
    entries = re.split(r"\n  (?=-)", options)
    entries = [entry.strip().partition("  ") for entry in entries]
    return {usage.split()[0]: " ".join(text.split()) for usage, _, text in entries}


class TestHelp:
    def test_every_option_has_help_and_shared_ones_the_same(self, capsys):
        texts = {}
        for command in SUBCOMMANDS:
            for flag, text in option_help(capsys, command).items():
                texts.setdefault(flag, []).append(text)
        assert all(all(seen) for seen in texts.values()), texts
        shared = {flag: set(seen) for flag, seen in texts.items() if len(seen) > 1}
        del shared["-h,"]
        assert set(shared) == {
            "--n", "--k", "--p", "--q", "--q-min", "--q-max", "--steps",
        }
        for flag, seen in shared.items():
            assert len(seen) == 1, (flag, seen)


class TestVerify:
    def test_exit_codes_and_lines(self, capsys, monkeypatch):
        from starsearch.acceptance import CriterionResult

        fake = [
            CriterionResult(1, "alpha", True, "fine", 0.0),
            CriterionResult(2, "beta", True, "fine", 0.0),
        ]
        monkeypatch.setattr("starsearch.acceptance.run_all", lambda: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("PASS") == 2

        fake[1] = CriterionResult(2, "beta", False, "broken", 0.0)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out

    def test_quick_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            dispatch(["verify", "--quick"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err


def fresh_python(code: str) -> str:
    """stdout of code run in a fresh interpreter, which other tests' imports
    have not touched."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV,
        check=True,
    )
    return proc.stdout


def test_import_leaves_acceptance_unloaded():
    code = "import sys, starsearch.cli; print('starsearch.acceptance' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_bare_import_loads_no_module_and_no_numpy():
    code = (
        "import sys, starsearch\n"
        "print(sorted(m for m in sys.modules if m.startswith(('starsearch.', 'numpy'))))\n"
    )
    assert fresh_python(code).strip() == "[]"


def test_package_names_resolve_on_first_use():
    code = (
        "import starsearch\n"
        "print(starsearch.model.__name__)\n"
        "namespace = {}\n"
        "exec('from starsearch import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "print(len(starsearch.__all__), sorted(namespace) == starsearch.__all__)\n"
        "print(all(namespace[name] is getattr(starsearch, name) for name in namespace))\n"
        "try:\n"
        "    starsearch.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh_python(code).splitlines() == [
        "starsearch.model",
        "28 True",
        "True",
        "module 'starsearch' has no attribute 'no_such_name'",
    ]


def loaded_after(argvs: list[list[str]], modules: list[str]) -> list[list[str]]:
    """The given modules loaded in a fresh interpreter after importing the
    CLI, and after dispatching each argv in turn."""
    code = (
        "import contextlib, io, sys\n"
        "from starsearch.cli import dispatch\n"
        f"modules = {modules!r}\n"
        "loaded = [[m for m in modules if m in sys.modules]]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert dispatch(argv) == 0\n"
        "    loaded.append([m for m in modules if m in sys.modules])\n"
        "print(loaded)\n"
    )
    return eval(fresh_python(code))


def test_scalar_subcommands_leave_numpy_unloaded():
    # Sweeps solve point by point and curves take the math kernels at every
    # size, and a best-response scan is scalar, so of these subcommands only
    # simulate and verify import numpy.
    argvs = [
        ["solve", "--n", "5", "--k", "3", "--p", "0.5"],
        ["single-searcher", "--p", "0.9", "--k", "2"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "4"],
        ["best-response", "--n", "5", "--k", "3", "--p", "0.5", "--q", "0.53"],
        ["curve-e", "--n", "5", "--k", "3", "--p", "0.5", "--q-min", "0.34",
         "--q-max", "0.8", "--steps", "200"],
        ["curve-f", "--n", "5", "--k", "3", "--q-min", "0.26", "--q-max", "0.99",
         "--steps", "200"],
        ["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "100", "--n-to", "100000",
         "--log"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "40"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "10000"],
        ["curve-f", "--n", "5", "--k", "3", "--q-min", "0.26", "--q-max", "0.99",
         "--steps", "100000"],
    ]
    assert loaded_after(argvs, ["numpy"]) == [[]] * 11
    # The --log sweep solves 50 points.
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert dispatch(argvs[6]) == 0
    assert len(out.getvalue().splitlines()) == 51


def test_in_process_dispatch_prints_what_a_child_process_prints():
    # A process that has loaded numpy and the acceptance suite, as a caller
    # of dispatch may have, takes the same route as a fresh one: the curves,
    # the --log sweep and the 40-point sweep-k hold rows where numpy arrays
    # would print other digits than the math kernels.
    argvs = [
        ["solve", "--n", "3", "--k", "9", "--p", SPLIT_P],
        ["curve-e", "--n", "3", "--k", "3", "--p", "0.2777374022969217",
         "--q-min", "0.250001", "--q-max", "0.999999", "--steps", "200"],
        ["curve-f", "--n", "26", "--k", "9",
         "--q-min", "0.100001", "--q-max", "0.999999", "--steps", "200"],
        ["sweep-n", "--k", "9", "--p", SPLIT_P, "--n-from", "2", "--n-to", "1000",
         "--log"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "4"],
        ["sweep-k", "--n", "3", "--p", SPLIT_P, "--k-from", "1", "--k-to", "40"],
        ["simulate", "--n", "2", "--k", "1", "--p", "0.6", "--q", "0.7",
         "--rounds", "1000", "--seed", "1"],
        ["best-response", "--n", "5", "--k", "3", "--p", "0.5", "--q", "0.53"],
        ["single-searcher", "--p", "0.9", "--k", "2"],
    ]
    code = (
        "import contextlib, io, json\n"
        "import numpy, starsearch.acceptance\n"
        "from starsearch.cli import dispatch\n"
        "results = []\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results.append([dispatch(argv), out.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    differ = []
    for argv, (code, stdout) in zip(argvs, json.loads(fresh_python(code))):
        child = subprocess.run(
            [sys.executable, "-m", "starsearch", *argv], capture_output=True,
            env=CHILD_ENV,
        )
        if (code, stdout.encode()) != (child.returncode, child.stdout):
            differ.append(" ".join(argv))
    assert differ == []


def test_subcommands_leave_dataclasses_and_inspect_unloaded():
    # The records are namedtuples, so no subcommand loads dataclasses, and
    # without numpy nothing loads inspect; numpy, which simulate imports,
    # loads inspect itself.
    argvs = [
        ["solve", "--n", "5", "--k", "3", "--p", "0.5"],
        ["curve-e", "--n", "5", "--k", "3", "--p", "0.5", "--q-min", "0.34",
         "--q-max", "0.8", "--steps", "20"],
        ["curve-f", "--n", "5", "--k", "3", "--q-min", "0.26", "--q-max", "0.99",
         "--steps", "20"],
        ["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "2", "--n-to", "1000",
         "--log"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "20"],
        ["best-response", "--n", "5", "--k", "3", "--p", "0.5", "--q", "0.53"],
        ["single-searcher", "--p", "0.9", "--k", "2"],
        ["simulate", "--n", "2", "--k", "1", "--p", "0.6", "--q", "0.7",
         "--rounds", "1000", "--seed", "1"],
    ]
    loaded = loaded_after(argvs, ["dataclasses", "inspect"])
    assert loaded[:8] == [[]] * 8
    assert "dataclasses" not in loaded[8]


def test_acceptance_import_leaves_dataclasses_unloaded():
    code = "import sys, starsearch.acceptance; print('dataclasses' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_solver_subcommands_leave_simulate_and_verify_unloaded():
    argvs = [
        ["solve", "--n", "5", "--k", "3", "--p", "0.5"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "20"],
        ["single-searcher", "--p", "0.9", "--k", "2"],
        ["curve-e", "--n", "5", "--k", "3", "--p", "0.5", "--q-min", "0.34",
         "--q-max", "0.8", "--steps", "20"],
        ["curve-f", "--n", "5", "--k", "3", "--q-min", "0.26", "--q-max", "0.99",
         "--steps", "20"],
    ]
    modules = ["starsearch.simulate", "starsearch.verify"]
    assert loaded_after(argvs, modules) == [[]] * 6
