"""Every demo script runs to completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    if path.name == "simulation_check.py":
        # Monte Carlo must agree with the closed form in every printed case.
        zs = [float(z) for z in re.findall(r"z = ([+-]?\d+\.\d+)", result.stdout)]
        assert zs, result.stdout
        assert all(abs(z) < 4.0 for z in zs), zs
