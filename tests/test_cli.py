import dataclasses
import json
import os
import re
import resource
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from starsearch.cli import _print_curve, dispatch
from starsearch.equilibrium import EquilibriumSolution, sweep_k, sweep_n
from starsearch.simulate import SimulationReport

HUGE = "1" + "0" * 400  # an integer past the largest double
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


class TestSolve:
    def test_json_output(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "5", "--k", "3", "--p", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["q_bar"] == pytest.approx(0.53, abs=0.005)
        assert set(payload) == {
            "q_bar", "residual", "e_residual", "iterations", "bracket_lo", "bracket_hi",
        }

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--n", "5", "--k", "3", "--p", "0.5", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "q_bar,residual,e_residual,iterations,bracket_lo,bracket_hi"
        assert float(row.split(",")[0]) == pytest.approx(0.53, abs=0.005)

    def test_invalid_reliability_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "5", "--k", "3", "--p", "0.2")
        assert code == 2
        assert out == ""
        assert "p must exceed 1/(k+1)" in err

    def test_fields_follow_the_dataclass(self, capsys):
        names = [field.name for field in dataclasses.fields(EquilibriumSolution)]
        argv = ("solve", "--n", "5", "--k", "3", "--p", "0.5")
        _, out, _ = run_cli(capsys, *argv)
        assert list(json.loads(out)) == names
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert out.splitlines()[0] == ",".join(names)

    @pytest.mark.parametrize("argv,name", [
        (["--n", HUGE, "--k", "1"], "n"), (["--n", "2", "--k", HUGE], "k"),
    ])
    def test_count_beyond_the_doubles_exits_two(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "solve", *argv, "--p", "0.6")
        assert (code, out, err) == (2, "", f"{name} must fit in a double\n")

    @pytest.mark.parametrize("n,k,p", [
        ("5", "1", "0.5000000001"), ("2", "1", "0.99999999999999989"),
        ("2", "41", "0.02380952380952381"), ("5", "1000000000000", "1e-10"),
    ])
    def test_p_next_to_its_domain_ends_solves(self, capsys, n, k, p):
        code, out, err = run_cli(capsys, "solve", "--n", n, "--k", k, "--p", p)
        assert (code, err) == (0, "")
        assert json.loads(out)["q_bar"] > float(p)

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
        # Four chunks, the last one solved as lanes.
        (["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "2", "--n-to", "200000"],
         lambda: sweep_n(3, 0.5, range(2, 200001))),
        # Two chunks, the last one a single scalar solve.
        (["sweep-k", "--n", "5", "--p", "0.6", "--k-from", "1", "--k-to", "65537"],
         lambda: sweep_k(5, 0.6, range(1, 65538))),
    ])
    def test_chunked_sweep_prints_one_whole_sweep(self, capsys, argv, sweep):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        _print_curve(sweep())
        assert out == capsys.readouterr().out

    def test_long_range_prints_rows_before_it_is_built(self, capsys):
        # 1e12 values would not fit in memory; the first rows must come all
        # the same. The child's address space is capped, and a timer kills
        # it, so a sweep that builds its range fails this test instead of
        # exhausting the host.
        argv = ["sweep-n", "--k", "3", "--p", "0.5", "--n-from", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "starsearch", *argv, "--n-to", str(10**12 + 1)],
            stdout=subprocess.PIPE, text=True, env=CHILD_ENV,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2),
        )
        timer = threading.Timer(60.0, proc.kill)
        timer.start()
        try:
            head = [proc.stdout.readline() for _ in range(4)]
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert run_cli(capsys, *argv, "--n-to", "4") == (0, "".join(head), "")

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

    def test_fields_follow_the_dataclass(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1", "--p", "0.6667",
            "--q", "0.7", "--rounds", "100", "--seed", "1",
        )
        assert list(json.loads(out)) == [
            field.name for field in dataclasses.fields(SimulationReport)
        ]

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
        code, out, err = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1000000", "--p", "0.5",
            "--q", "1e-9", "--rounds", "5", "--seed", "1", "--max-turns", "1",
        )
        assert (code, err) == (0, "")
        assert '"capped_rounds": 5,' in out
        assert '"mean_finish_turn": null,' in out
        assert json.loads(out)["warning"] == (
            "5 of 5 rounds hit the 1-turn cap; capped rounds score 0, "
            "so the payoff estimate is biased low"
        )

    def test_single_round_has_zero_std_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--k", "1", "--p", "0.6",
            "--q", "0.7", "--rounds", "1", "--seed", "1",
        )
        assert code == 0
        assert '"focal_std_error": 0,' in out


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

    def test_custom_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "best-response", "--n", "5", "--k", "3", "--p", "0.5",
            "--q", "0.5", "--steps", "11",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 12


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
        monkeypatch.setattr("starsearch.acceptance.run_all", lambda quick: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("PASS") == 2

        fake[1] = CriterionResult(2, "beta", False, "broken", 0.0)
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 1
        assert "FAIL" in out


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


def test_scalar_subcommands_leave_numpy_unloaded():
    # Only array-building paths import numpy; sweep-k below the lane
    # threshold solves point by point.
    argvs = [
        ["solve", "--n", "5", "--k", "3", "--p", "0.5"],
        ["single-searcher", "--p", "0.9", "--k", "2"],
        ["sweep-k", "--n", "5", "--p", "0.75", "--k-from", "1", "--k-to", "4"],
    ]
    code = (
        "import contextlib, io, sys, starsearch\n"
        "from starsearch.cli import dispatch\n"
        "loaded = ['numpy' in sys.modules]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert dispatch(argv) == 0\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n"
    )
    assert fresh_python(code).strip() == str([False] * 4)
