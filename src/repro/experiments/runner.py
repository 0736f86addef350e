"""Experiment registry and runner."""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Union

from repro.core.reports import FigureReport, TableReport
from repro.core.study import StudyResult
from repro.experiments import (
    churn, fidelity, figure1, figure2, figure3, figure4, figure5, figure6,
    figure7, figure8, figure9, figure10, figure11, figure12, figure13,
    section52, section53, section64,
    table1, table2, table3, table4, table5, table6,
)

__all__ = [
    "EXPERIMENT_IDS",
    "PAPER_EXPERIMENT_IDS",
    "run_experiment",
    "run_all",
    "digest_reports",
]

Report = Union[TableReport, FigureReport]

_REGISTRY = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "figure1": figure1.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "figure9": figure9.run,
    "figure10": figure10.run,
    "figure11": figure11.run,
    "figure12": figure12.run,
    "figure13": figure13.run,
    # Section-level findings without a dedicated paper table/figure.
    "section52": section52.run,
    "section53": section53.run,
    "section64": section64.run,
    # Longitudinal extra (needs full_second_crawl=True).
    "churn": churn.run,
    # The reproduction's numeric self-check.
    "fidelity": fidelity.run,
}

EXPERIMENT_IDS = tuple(_REGISTRY)

#: The ids corresponding one-to-one to the paper's tables and figures
#: (6 tables + 13 figures; the rest are section-level/self-check extras).
PAPER_EXPERIMENT_IDS = tuple(
    e for e in EXPERIMENT_IDS if e.startswith(("table", "figure"))
)


def _run_one(experiment_id: str, result: StudyResult) -> Report:
    """Run one experiment under its ``experiment.<id>`` stage."""
    with result.obs.stage(f"experiment.{experiment_id}"):
        report = _REGISTRY[experiment_id](result)
    degraded = result.snapshot.degraded_markets()
    if degraded:
        report.notes.append(
            "crawl degraded: no data for " + ", ".join(degraded)
            + " (circuit breaker quarantine)"
        )
    return report


def run_experiment(experiment_id: str, result: StudyResult) -> Report:
    """Regenerate one paper table or figure from a study result.

    When the crawl completed in degraded mode (a market quarantined by
    its circuit breaker), every report is annotated so readers know the
    numbers were computed from a partial fleet instead of crashing or
    silently under-counting.
    """
    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENT_IDS)}"
        )
    return _run_one(experiment_id, result)


def run_all(
    result: StudyResult, workers: Optional[int] = None
) -> Dict[str, Report]:
    """Regenerate every table and figure.

    ``workers`` defaults to the study's analysis engine width.  Above 1,
    experiments run concurrently: the shared analysis artifacts are
    materialized once up front (thread-safe), then each experiment only
    *reads* the :class:`StudyResult`, so the fan-out is safe and the
    merged report dict — in :data:`EXPERIMENT_IDS` order — is
    bit-identical to a serial run.  Each experiment runs in a copy of
    the submitting context, so its stage nests under
    ``experiments.run_all``.
    """
    if workers is None:
        workers = result.engine.workers
    if workers <= 1:
        return {
            exp_id: run_experiment(exp_id, result) for exp_id in EXPERIMENT_IDS
        }
    result.materialize()
    with result.obs.stage("experiments.run_all"):
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="experiment"
        ) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, _run_one, exp_id, result)
                for exp_id in EXPERIMENT_IDS
            ]
            reports = [future.result() for future in futures]
    return dict(zip(EXPERIMENT_IDS, reports))


def digest_reports(reports: Dict[str, Report]) -> Dict[str, str]:
    """Content digest of every report, keyed by experiment id.

    Two report sets produced from the same study — serially, in
    parallel, or resumed from the artifact cache — digest identically.
    """
    return {exp_id: report.content_digest() for exp_id, report in reports.items()}
