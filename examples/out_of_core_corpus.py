#!/usr/bin/env python
"""Scenario: a 50x corpus through the full suite, under a peak-RSS gate.

``examples/scaled_world.py`` generates a 10x world; this one runs a
**50x study** (scale 0.02 — fifty times the other examples' 0.0004) end
to end on the out-of-core sqlite backend: world generation, spill to
segment tables, the APK-downloading crawl (records land in the corpus
store, served APK bytes in the blob vault behind ``LazyApk`` proxies), the
recheck campaign, and **all 24 experiment renders**.

The gate reads ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — the
kernel's true peak resident set, measured at zero overhead — and
hard-fails if it crosses ``PEAK_CEILING_MIB`` (this is the CI-enforced
peak-RSS ceiling the ``corpus`` job runs).  tracemalloc is deliberately
*not* used here: at 50x it slows the run several-fold (the same reason
``scaled_world.py`` profiles wall-only), and the ceiling is about what
the process actually costs the machine.  The ceiling is sized from
calibration so the sqlite backend clears it with headroom while the
in-memory backend at the same scale blows through it.  Sampling the
sqlite run's VmRSS every 3 s shows where its peak comes from: about
730 MiB in generation, 1,550 MiB by the end of the crawl, and the
peak at the end of the shared analysis walk, which holds every unit's
per-APK results until the analyses that fold them take them.

The run prints per-stage wall, the peak, the gate verdict, and the
blob vault's read cost: ``load`` calls and decodes against the number
of stored APK blobs.  It also fails when the vault decoded more than
twice per APK-backed unit: only the shared analysis walk and clone
extraction open blobs, once per unit each.

    python examples/out_of_core_corpus.py
    REPRO_CORPUS_COMPARE=1 python examples/out_of_core_corpus.py   # + memory run

The in-memory comparison run is skipped by default — ``ru_maxrss`` is a
process-lifetime high-water mark, so a meaningful memory-backend
measurement needs its own process anyway, and it roughly doubles an
already CI-sized job.  Its outcome is pinned by calibration (see
``MEMORY_PEAK_CALIBRATED_MIB``); set ``REPRO_CORPUS_COMPARE=1`` to
re-measure it in a subprocess, which also asserts it exceeds the
ceiling.
"""

import os
import resource
import subprocess
import sys
import time

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.experiments.runner import run_all
from repro.obs import Observability

SEED = 7
#: 50x the other examples' 0.0004.  ``REPRO_CORPUS_SCALE`` is a dev
#: knob for exercising the mechanics quickly; the gate verdict is only
#: meaningful at the default scale the ceiling was calibrated for.
SCALE = float(os.environ.get("REPRO_CORPUS_SCALE", "0.02"))

#: The CI-enforced ceiling on peak RSS (MiB) for the full 50x run on
#: the sqlite backend.  Calibrated 2026-08 with sqlite at ~1570 MiB;
#: re-measured 2026-10 with the blob vault at 1,825-1,918 MiB (the end
#: of the shared analysis walk; see the module docstring).
#: The in-memory backend at the same scale peaks at ~8300 MiB holding
#: every record and parsed APK live.  The ceiling sits between the two:
#: the memory backend overshoots it 4x, but sqlite clears it by only
#: 6-11%, so a change that holds more per unit across that walk can
#: trip the gate.
PEAK_CEILING_MIB = 2048

#: What the in-memory backend measured at calibration time, for the
#: skip message.
MEMORY_PEAK_CALIBRATED_MIB = 8315

def peak_rss_mib() -> float:
    """Kernel-reported peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _workers() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def _run(backend: str):
    """One full study + experiment suite, profiled wall-only."""
    obs = Observability(profile=True)
    config = StudyConfig(
        seed=SEED,
        scale=SCALE,
        download_apks=True,
        store_backend=backend,
        workers=_workers(),
    )
    start = time.perf_counter()
    result = Study(config, obs=obs).run()
    reports = run_all(result)
    wall = time.perf_counter() - start
    return result, reports, obs, wall


def _memory_backend_peak() -> float:
    """Measure the in-memory backend's peak RSS in a fresh process.

    ``ru_maxrss`` never decreases within a process, so the comparison
    leg must not share this one — it would inherit the sqlite run's
    high-water mark.  Re-invokes this script in child mode.
    """
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "_REPRO_CORPUS_CHILD": "memory"},
    )
    for line in reversed(out.stdout.splitlines()):
        if line.startswith("CHILD_PEAK_MIB="):
            return float(line.split("=", 1)[1])
    raise RuntimeError(f"child run printed no peak:\n{out.stdout[-2000:]}")


def main() -> int:
    if os.environ.get("_REPRO_CORPUS_CHILD") == "memory":
        _run("memory")
        print(f"CHILD_PEAK_MIB={peak_rss_mib()}")
        return 0

    print(f"running the 50x study (scale {SCALE}, sqlite backend, "
          f"{_workers()} workers) under the peak-RSS gate...")
    result, reports, obs, wall = _run("sqlite")
    peak_mib = peak_rss_mib()

    n_records = len(result.snapshot)
    n_apps = len(result.world.apps)
    print(f"\n{n_apps:,} apps -> {n_records:,} crawl records -> "
          f"{len(reports)} experiment reports in {wall:.0f}s")
    assert result.world.spilled, "50x world should spill (threshold 5000)"
    assert result.snapshot.spilled, "50x snapshot should spill"
    assert len(reports) == 24, f"expected the full suite, got {len(reports)}"
    print(obs.profile_report())
    vault = result.corpus.vault
    stored_blobs = len(vault)
    print(f"blob vault: {vault.loads:,} loads, {vault.decodes:,} decodes of "
          f"{stored_blobs:,} stored blobs "
          f"({vault.decodes / max(1, stored_blobs):.2f} decodes per blob)")

    if os.environ.get("REPRO_CORPUS_COMPARE"):
        print("\nre-running on the in-memory backend (fresh process) "
              "for comparison...")
        mem_peak = _memory_backend_peak()
        print(f"memory backend: peak RSS {mem_peak:.0f}MiB")
        # The separation claim is calibrated at the default 50x scale;
        # under the dev knob the comparison is informational only.
        if SCALE >= 0.02:
            assert mem_peak > PEAK_CEILING_MIB, (
                f"in-memory backend stayed under the ceiling "
                f"({mem_peak:.0f} <= {PEAK_CEILING_MIB}MiB) — "
                f"the gate no longer separates the backends; recalibrate"
            )
    else:
        print(f"\nmemory-backend comparison skipped (REPRO_CORPUS_COMPARE=1 "
              f"to run): it doubles the job's wall time, and calibration "
              f"pinned its peak at ~{MEMORY_PEAK_CALIBRATED_MIB}MiB — "
              f"over the {PEAK_CEILING_MIB}MiB ceiling.")

    ok = peak_mib <= PEAK_CEILING_MIB
    verdict = "within" if ok else "EXCEEDS"
    print(f"\npeak RSS {peak_mib:.0f}MiB {verdict} the "
          f"{PEAK_CEILING_MIB}MiB ceiling")
    if not ok:
        print("peak-RSS gate FAILED", file=sys.stderr)
    # Only the shared analysis walk and clone extraction open blobs,
    # each once per APK-backed unit.
    apk_units = sum(1 for unit in result.units if unit.apk_md5 is not None)
    decodes_ok = vault.decodes <= 2 * apk_units
    print(f"decode gate: {vault.decodes:,} vault decodes for {apk_units:,} "
          f"APK-backed units (at most 2 each) "
          f"{'held' if decodes_ok else 'FAILED'}")
    if not decodes_ok:
        print("decode gate FAILED", file=sys.stderr)
    return 0 if ok and decodes_ok else 1


if __name__ == "__main__":
    sys.exit(main())
