"""Measure the benchmark's committed baseline.

Usage (from a checkout)::

    python benchmarks/e2e/calibrate.py

Runs ``run.py`` the way the acceptance check does — one invocation per
workload and seed, seeds 1 to 10, each with ``--seconds`` set to
``run_seconds`` — then one traced invocation per workload at seed 42.
Writes ``baseline.json`` next to this file: per workload, every
end-to-end metric's ten values, median, quartiles and spread
(interquartile range over median), and the traced per-layer values,
together with the machine they were measured on.  A metric's bound
should be at least three times its largest spread.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from metrics import quartiles
from run import HERE
from workloads import WORKLOADS

SEEDS = range(1, 11)
TRACE_SEED = 42
OUT = HERE / "baseline.json"


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def main() -> int:
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    baseline = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [invoke(name, seed, seconds, trace=0) for seed in SEEDS]
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            e2e[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "values": values,
            }
            print(f"{name:<20} {metric['name']:<14} median {median:.6g} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        traced = invoke(name, TRACE_SEED, seconds, trace=1)
        baseline["workloads"][name] = {
            "scale": WORKLOADS[name].scale,
            "seeds": list(SEEDS),
            "end_to_end": e2e,
            "per_layer_seed42": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
