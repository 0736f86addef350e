"""Experiments: one module per paper table and figure.

``run_experiment("table4", result)`` regenerates the corresponding
artifact from a :class:`~repro.core.study.StudyResult`.  The DESIGN.md
per-experiment index maps each id to its paper artifact, workload, and
end-to-end benchmark timing.
"""

from repro.experiments.runner import (
    EXPERIMENT_IDS,
    PAPER_EXPERIMENT_IDS,
    digest_reports,
    run_all,
    run_experiment,
)

__all__ = [
    "EXPERIMENT_IDS",
    "PAPER_EXPERIMENT_IDS",
    "digest_reports",
    "run_all",
    "run_experiment",
]
