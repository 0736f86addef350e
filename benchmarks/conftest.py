"""Benchmark fixtures.

One study is built per session for the ablation benches, at the scale
their floors are set for: the clone-threshold and AV-rank sweeps, and
the code-clone detector's precision and recall against the ground truth
the generator injects.  Its heavy analysis artifacts are computed once
here, so each sweep measures only what it varies.
"""

from __future__ import annotations

import time

import pytest

from repro import Study, StudyConfig

STUDY_SEED = 42
STUDY_SCALE = 0.0005


@pytest.fixture(scope="session")
def bench_study():
    """The shared study with all analysis artifacts warm."""
    result = Study(StudyConfig(seed=STUDY_SEED, scale=STUDY_SCALE)).run()
    result.units
    result.library_detection
    result.vt_scan
    result.signature_clones
    result.code_clones
    result.fakes
    result.overprivilege
    result.removal
    return result


def best_of(rounds, fn, *args, **kwargs):
    """Call ``fn`` ``rounds`` times; return its last result and the
    fastest call's wall seconds (the least-disturbed measurement)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best
