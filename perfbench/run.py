#!/usr/bin/env python3
"""Run one starsearch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, and child processes get the same path. --trace 0 prints every
end-to-end metric of BENCHMARK.json; --trace 1 makes a separate traced run
and prints every per-layer metric, with spans saved under .bench_out/. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 when an output check failed and 2
when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-sweep", "oracles", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    # The kernel's CPU description; platform.processor() is empty on Linux.
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starsearch" / "__init__.py").is_file():
        print(f"no starsearch package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One CPU for this process and its children: the speed readings that
    # scale every time (see workloads.Speed) then run where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # child processes import the same tree
    import starsearch

    if Path(starsearch.__file__).resolve().parent != SRC / "starsearch":
        print(f"starsearch imported from {starsearch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, info, checks, tracer = workloads.run(
        args.workload, args.seed, args.seconds, traced=bool(args.trace))
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(metrics)}")

    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, info=info, failures=checks.failures)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for m in wanted:
        print(f"  {m['name']:<45} {metrics[m['name']]:>16.6g} {m['unit']}")
    for key, value in info.items():
        if isinstance(value, list):
            continue  # per-pass rows go to the result file only
        if isinstance(value, dict):
            value = "  ".join(f"{k}={v:.6g}" for k, v in value.items())
        print(f"  {key}: {value}")
    print(f"  checks: attempted {checks.attempted}  failed {checks.failed}  "
          f"failed_ratio {checks.failed / checks.attempted:.6g}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
