"""End-to-end benchmark of the study pipeline.

Run from anywhere inside a checkout::

    python benchmarks/e2e/run.py --workload report
    python benchmarks/e2e/run.py --workload crawl_socket --seed 7 --trace 1
    python benchmarks/e2e/run.py --workload all --repeats 1

Each repeat runs in fresh ``python`` processes (``child.py``), with its
own scratch directory under ``<checkout>/.bench_e2e/`` that is removed
afterwards.  Without ``--repeats`` a workload repeats until the next
repeat would end past ``--seconds``.  The benchmark's command line
passes ``--seconds`` with the ``run_seconds`` of ``BENCHMARK.json``,
which is also the default.  ``--trace 1`` alternates untraced and
traced repeats: the traced ones give the per-layer metrics, the ratio
of the two gives the tracing overhead.

The script prints every metric with its unit, median and quartiles,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace 1``).
``attempted`` is the crawl requests one repeat issues and ``failed``
those it abandoned or dead-lettered; every repeat issues the same ones,
so neither grows with the number of repeats a run fits.
It exits 1 when an output digest is wrong or a repeat fails, and 2,
printing no result, when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from metrics import end_to_end, failed_share, per_layer, quartiles  # noqa: E402
from workloads import WORKLOADS, Workload, passes  # noqa: E402

__all__ = ["measure", "check", "oracle_record", "request_counts", "pin_key", "main"]

#: No repeat is started, and no child may run, past this many seconds of
#: one workload's measurement when repeats are budgeted by ``--seconds``.
HARD_LIMIT_S = 170.0
#: Child timeout when ``--repeats`` fixes the count instead.
REPEAT_TIMEOUT_S = 900.0
#: Scratch space, also the children's TMPDIR.  It sits inside the
#: checkout rather than in the system temp dir because a run must read
#: and write nothing outside the tree it measures; it is removed when
#: the run ends and is listed in the root ``.gitignore``.
SCRATCH = ROOT / ".bench_e2e"
PINS = HERE / "pins.json"

#: ``(mode, passes, error)``: mode is "untraced" or "traced"; passes is
#: the child results in pass order, or None when the repeat failed.
Repeat = Tuple[str, Optional[List[dict]], Optional[str]]


class RepeatFailed(Exception):
    """A pass exited nonzero, timed out, or left no result."""


def _child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Keep every temporary file of the program inside the checkout.
        TMPDIR=str(tmp),
        # String hashing feeds set and dict layout; fixing it removes one
        # source of run-to-run timing noise (outputs never depend on it).
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_repeat(
    workload: Workload,
    seed: int,
    scale: float,
    traced: bool,
    workdir: Path,
    deadline: float,
    trace_out: Optional[Path] = None,
) -> List[dict]:
    """Every pass of one repeat, each in its own interpreter."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    env = _child_env(tmp)
    results = []
    for role, config in passes(workload):
        spec_path = workdir / f"{role}.spec.json"
        result_path = workdir / f"{role}.result.json"
        spec_path.write_text(json.dumps({
            "root": str(ROOT),
            "seed": seed,
            "scale": scale,
            "config": config,
            "full": workload.full,
            "traced": traced,
            "trace_out": str(trace_out.with_name(f"{trace_out.stem}-{role}.jsonl"))
            if trace_out is not None else None,
        }), encoding="utf-8")
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise RepeatFailed(f"{role} pass: no time left")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise RepeatFailed(f"{role} pass timed out after {timeout:.0f} s") from None
        if proc.returncode != 0 or not result_path.is_file():
            tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
            raise RepeatFailed(f"{role} pass exited {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["role"] = role
        results.append(result)
    return results


def measure(
    workload: Workload,
    seed: int,
    scale: float,
    scratch: Path,
    *,
    seconds: float,
    repeats: Optional[int] = None,
    traced: bool = False,
    trace_dir: Optional[Path] = None,
) -> List[Repeat]:
    """Repeat one workload; stops at the first failed repeat."""
    modes = ("untraced", "traced") if traced else ("untraced",)
    start = time.monotonic()
    last: Dict[str, float] = {}
    runs: List[Repeat] = []
    index = 0
    while True:
        mode = modes[index % len(modes)]
        elapsed = time.monotonic() - start
        if repeats is not None:
            if index >= repeats * len(modes):
                break
            deadline = time.monotonic() + REPEAT_TIMEOUT_S
        else:
            estimate = elapsed + last.get(mode, 0.0)
            if (len(last) == len(modes) and estimate > seconds) or estimate > HARD_LIMIT_S:
                break
            deadline = start + HARD_LIMIT_S
        trace_out = None
        if trace_dir is not None and mode == "traced":
            trace_out = trace_dir / f"{workload.name}-seed{seed}-r{index}.jsonl"
        workdir = scratch / f"{workload.name}-{index}"
        began = time.monotonic()
        try:
            runs.append((mode, run_repeat(
                workload, seed, scale, mode == "traced", workdir, deadline, trace_out
            ), None))
        except RepeatFailed as exc:
            runs.append((mode, None, str(exc)))
            break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        last[mode] = time.monotonic() - began
        index += 1
    return runs


def oracle_record(result: List[dict]) -> dict:
    """What one repeat must reproduce: digests and the failure share."""
    return {**result[0]["digests"], "failed_share": failed_share(result)}


def request_counts(result: List[dict]) -> Tuple[int, int]:
    """``(issued, failed)`` crawl requests of one repeat, as ``failed_share``
    counts them: failed ones were abandoned or dead-lettered."""
    facts = [p["facts"] for p in result]
    return (
        int(sum(f["requests"] for f in facts)),
        int(sum(f["failures"] + f["dead_letters"] for f in facts)),
    )


def pin_key(seed: int, scale: float) -> str:
    return f"{seed}:{float(scale)!r}"


def check(
    workload: Workload, seed: int, scale: float, runs: Sequence[Repeat], pins: dict
) -> List[str]:
    """Every reason the outputs are wrong; empty when they are right."""
    problems = [error for _mode, result, error in runs if error is not None]
    records, counts = [], []
    for _mode, result, _error in runs:
        if result is None:
            continue
        for other in result[1:]:
            if other["digests"] != result[0]["digests"]:
                problems.append(f"{other['role']} pass digests differ from the first pass")
            facts = other["facts"]
            if facts.get("cache_misses", 0) or not facts.get("cache_hits", 0):
                problems.append(
                    f"{other['role']} pass artifact cache: {facts.get('cache_hits', 0)} "
                    f"hits / {facts.get('cache_misses', 0)} misses, expected all hits"
                )
        records.append(oracle_record(result))
        counts.append(request_counts(result))
    if any(record != records[0] for record in records[1:]):
        problems.append(f"repeats disagree: {records}")
    # Request counts must repeat but are not pinned: a change may well
    # issue fewer requests for the same outputs.
    if any(count != counts[0] for count in counts[1:]):
        problems.append(f"repeats issued different requests (issued, failed): {counts}")
    pin = pins.get(workload.name, {}).get(pin_key(seed, scale))
    if pin is not None and records and records[0] != pin:
        problems.append(f"outputs differ from the pinned oracle:\n  got {records[0]}\n  pin {pin}")
    return problems


def _values(
    runs: Sequence[Repeat], traced: bool
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """Per-repeat end-to-end values (untraced) and per-layer values (traced)."""
    e2e: Dict[str, List[float]] = {}
    layers: Dict[str, List[float]] = {}
    totals = {"untraced": [], "traced": []}
    for mode, result, _error in runs:
        if result is None:
            continue
        values = end_to_end(result)
        totals[mode].append(values["total_s"])
        if mode == "untraced":
            for name, value in values.items():
                e2e.setdefault(name, []).append(value)
        else:
            for name, value in per_layer(result).items():
                layers.setdefault(name, []).append(value)
    if traced and totals["untraced"] and totals["traced"]:
        layers["obs.trace_overhead_share"] = [
            statistics.median(totals["traced"]) / statistics.median(totals["untraced"]) - 1
        ]
    return e2e, layers


def _table(values: Dict[str, List[float]], declared: Sequence[dict]) -> dict:
    """Print declared metrics as ``name median unit q1 q3 n``; return them.

    Every declared metric must have a formula and every formula a
    declaration, so ``BENCHMARK.json`` and the code cannot drift apart.
    """
    names = {metric["name"] for metric in declared}
    if names != set(values):
        raise SystemExit(
            f"e2e: BENCHMARK.json and the metric formulas disagree: "
            f"undeclared {sorted(set(values) - names)}, "
            f"unmeasured {sorted(names - set(values))}"
        )
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        q1, median, q3 = quartiles(values[name])
        out[name] = {"value": median, "unit": unit}
        print(f"  {name:<34} {median:>14.6g} {unit:<6} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values[name])}")
    return out


def summarize(
    workload: Workload,
    seed: int,
    scale: float,
    runs: Sequence[Repeat],
    traced: bool,
    bench: dict,
    pins: dict,
) -> dict:
    """Print one workload's metrics; return its result object.

    End-to-end metrics come from the untraced repeats only; a traced run
    prints them too, but its result holds the per-layer metrics.
    """
    problems = check(workload, seed, scale, runs, pins)
    e2e, layers = _values(runs, traced)
    counts = {
        mode: sum(1 for m, r, _ in runs if m == mode and r) for mode in ("untraced", "traced")
    }
    print(f"workload {workload.name}  seed {seed}  scale {scale}  "
          f"repeats: {counts['untraced']} untraced, {counts['traced']} traced")
    metrics = {}
    if not problems:
        metrics = _table(e2e, bench["end_to_end"])
        if traced:
            metrics = _table(layers, bench["per_layer"])
    for problem in problems:
        print(f"  FAILED: {problem}")
    # One repeat's requests: check() has made every repeat agree on them.
    done = next((result for _mode, result, _error in runs if result is not None), [])
    issued, failed = request_counts(done)
    attempted = max(1, issued)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": metrics,
    }


def _parse(argv: Optional[Sequence[str]], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(run_seconds),
                        help="time budget per workload; the benchmark's command line "
                             "passes BENCHMARK.json run_seconds, also the default")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed repeat count per mode instead of a time budget")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run traced repeats and report per-layer metrics")
    parser.add_argument("--scale", type=float, default=None,
                        help="override every workload's StudyConfig scale")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="keep each traced pass's spans as JSONL here")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be positive")
    return args


def _terminate(signum, frame):
    # Unwind through subprocess.run, which kills and reaps the child,
    # and through the scratch cleanup below.
    sys.exit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: {ROOT} has no src/repro to measure", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, bench["run_seconds"])
    signal.signal(signal.SIGTERM, _terminate)
    # Compile once up front so no repeat pays for writing bytecode.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = SCRATCH / f"run-{os.getpid()}"
    outcomes = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            scale = args.scale if args.scale is not None else workload.scale
            runs = measure(
                workload, args.seed, scale, scratch,
                seconds=args.seconds, repeats=args.repeats,
                traced=bool(args.trace), trace_dir=args.trace_dir,
            )
            outcomes[name] = summarize(
                workload, args.seed, scale, runs, bool(args.trace), bench, pins
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    if len(outcomes) == 1:
        result = next(iter(outcomes.values()))
    else:
        result = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, o in outcomes.items()
                for metric, value in o["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
