"""Pin the benchmark's output oracle.

Usage (from a checkout)::

    python benchmarks/e2e/pin.py

For each workload, at seeds 1 to 10 and 42 at its own scale and at seed
42 at the smoke scale, runs one untraced repeat and records what every
later run at that seed and scale must reproduce: the world, snapshot
and combined report digests and the failed-request share.  Seeds 1 to
10 are the ones a ten-seed calibration runs, so every such run is
checked against a committed digest.  A workload with a ``reference``
config (the spilled store) is run a second time with it, and nothing is
written unless both runs agree.  Results go to ``pins.json`` next to
this file.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

from run import PINS, SCRATCH, check, measure, oracle_record, pin_key
from workloads import SMOKE_SCALE, WORKLOADS

SEEDS = (*range(1, 11), 42)
SMOKE_SEED = 42


def record(workload, seed, scale, scratch) -> dict:
    runs = measure(workload, seed, scale, scratch, seconds=0, repeats=1)
    problems = check(workload, seed, scale, runs, pins={})
    if problems:
        raise SystemExit(f"{workload.name} {pin_key(seed, scale)}: " + "; ".join(problems))
    return oracle_record(runs[0][1])


def main() -> int:
    pins = {}
    scratch = SCRATCH / "pin"
    try:
        for name, workload in WORKLOADS.items():
            points = [(seed, workload.scale) for seed in SEEDS]
            if workload.scale != SMOKE_SCALE:
                points.append((SMOKE_SEED, SMOKE_SCALE))
            for seed, scale in points:
                pinned = record(workload, seed, scale, scratch)
                if workload.reference is not None:
                    reference = replace(
                        workload, config={**workload.config, **workload.reference}
                    )
                    expected = record(reference, seed, scale, scratch)
                    if pinned != expected:
                        raise SystemExit(
                            f"{name} {pin_key(seed, scale)} differs from its reference "
                            f"config {workload.reference}:\n  {pinned}\n  {expected}"
                        )
                pins.setdefault(name, {})[pin_key(seed, scale)] = pinned
                print(f"{name} {pin_key(seed, scale)} {pinned}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
