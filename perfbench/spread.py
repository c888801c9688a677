#!/usr/bin/env python3
"""Run-to-run spread and drift of the end-to-end metrics of one workload.

    python3 perfbench/spread.py --workload oracles [--json FILE]

Runs perfbench/run.py once per seed of SEEDS, one run at a time, and then
the same seeds again, SETS sets in all. For each end-to-end metric it prints
each set's median and spread, the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, and the
drift: how much worse the last set's median is than the first's, as a share
of the first. The rule it applies to every metric, setup_s included: steady
when every spread is below a third of the metric's bound in BENCHMARK.json
and the drift is within the bound. --json saves the summary and every run's
metrics to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_set(workload: str, seconds: int) -> list[dict] | None:
    runs = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}",
                  file=sys.stderr)
            return None
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" for k, v in values.items()),
              flush=True)
    return runs


def summarise(runs: list[dict], name: str) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles([r["metrics"][name] for r in runs], n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--json", type=Path, help="file to save the summary and runs in")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = []
    for number in range(1, SETS + 1):
        print(f"set {number}", flush=True)
        runs = run_set(args.workload, spec["run_seconds"])
        if runs is None:
            return 1
        sets.append(runs)

    columns = "".join(f" {f'median {i}':>12} {f'spread {i}':>9}" for i in range(1, SETS + 1))
    print(f"{'metric':<12}{columns} {'drift':>8} {'bound':>6}  steady")
    summary = {}
    for m in spec["end_to_end"]:
        stats = [summarise(runs, m["name"]) for runs in sets]
        first, last = stats[0]["median"], stats[-1]["median"]
        drift = (last - first) / first if m["better"] == "lower" else (first - last) / first
        steady = all(s["spread"] < m["bound"] / 3 for s in stats) and drift <= m["bound"]
        cells = "".join(f" {s['median']:>12.6g} {s['spread']:>9.4f}" for s in stats)
        print(f"{m['name']:<12}{cells} {drift:>8.4f} {m['bound']:>6}  "
              f"{'yes' if steady else 'NO'}")
        summary[m["name"]] = {"sets": stats, "drift": drift, "bound": m["bound"],
                              "unit": m["unit"]}
    if args.json:
        payload = {"workload": args.workload, "seeds": list(SEEDS), "summary": summary,
                   "sets": sets}
        args.json.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
