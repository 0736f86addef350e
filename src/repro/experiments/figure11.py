"""Figure 11: distribution of over-privileged apps."""

from __future__ import annotations

from repro.analysis.permissions import figure11_series
from repro.core.reports import FigureReport
from repro.core.study import StudyResult

__all__ = ["run"]


def run(result: StudyResult) -> FigureReport:
    series = figure11_series(result.snapshot, result.units, result.overprivilege)
    figure = FigureReport(
        experiment_id="figure11",
        title="Over-privileged apps (unused permissions per app)",
        data={
            **series,
            "avg_dangerous_requested": result.dangerous_requested,
        },
    )
    figure.notes.append(
        "paper: ~65% of Google Play apps over-privileged vs ~82% in Chinese "
        "markets; 3 unused permissions is the most common count; top "
        "offenders: READ_PHONE_STATE (52.38%), ACCESS_COARSE_LOCATION "
        "(36.28%), ACCESS_FINE_LOCATION (33.83%), CAMERA (19.98%)"
    )
    return figure
