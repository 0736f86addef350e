"""Declarative SLO rules and run comparison over metrics artifacts.

``repro obs check`` evaluates the rules of a committed TOML file
(``slo.toml``) against one run's ``--metrics-out`` artifact — CI gates
on the exit status, so a latency blow-up, a dead-letter surge, or a ban
surge fails the build with a *named* rule instead of a number someone
has to notice.  ``repro obs diff`` compares two runs' artifacts.

Rule kinds:

* ``quantile_max``   — a histogram quantile (bucket upper bound at the
  requested quantile, summed across the metric's label sets) must stay
  at or below ``max``.
* ``ratio_max``      — ``sum(numerator) / sum(denominator)`` at or
  below ``max`` (a zero denominator passes with ratio 0).
* ``counter_max`` / ``counter_min`` — a summed metric against a bound.

Determinism contract (see DESIGN.md): evaluation reads only the metrics
artifact and the rule file — no clocks, no environment — and every
number renders through one fixed formatter, so the same inputs produce
a byte-identical report.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.schema import SchemaError

__all__ = ["SloError", "SloRule", "RuleResult", "load_rules", "check_metrics",
           "render_check_report", "diff_metrics", "render_diff",
           "is_timing_metric"]

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


class SloError(ValueError):
    """A rule file is malformed."""


@dataclass(frozen=True)
class SloRule:
    """One declarative rule (already validated for its kind)."""

    name: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def param(self, key: str):
        value = self.params.get(key)
        if value is None:
            raise SloError(f"rule {self.name!r} ({self.kind}) needs {key!r}")
        return value


@dataclass
class RuleResult:
    """One rule's verdict against one run."""

    rule: SloRule
    status: str
    value: Optional[float]
    bound: Optional[float]
    detail: str = ""


_REQUIRED = {
    "quantile_max": ("metric", "quantile", "max"),
    "ratio_max": ("numerator", "denominator", "max"),
    "counter_max": ("metric", "max"),
    "counter_min": ("metric", "min"),
}

RULE_KINDS = tuple(_REQUIRED)


def load_rules(path: Union[str, Path]) -> List[SloRule]:
    """Parse and validate a ``slo.toml`` rule file."""
    with Path(path).open("rb") as handle:
        try:
            doc = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise SloError(f"{path}: {exc}") from exc
    raw_rules = doc.get("rule")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise SloError(f"{path}: expected at least one [[rule]] table")
    rules: List[SloRule] = []
    seen: set = set()
    for i, raw in enumerate(raw_rules):
        if not isinstance(raw, dict):
            raise SloError(f"{path}: rule #{i + 1} is not a table")
        name = raw.get("name")
        kind = raw.get("kind")
        if not isinstance(name, str) or not name:
            raise SloError(f"{path}: rule #{i + 1} has no name")
        if name in seen:
            raise SloError(f"{path}: duplicate rule name {name!r}")
        seen.add(name)
        if kind not in RULE_KINDS:
            raise SloError(
                f"{path}: rule {name!r}: kind must be one of {RULE_KINDS}, "
                f"got {kind!r}"
            )
        params = {k: v for k, v in raw.items() if k not in ("name", "kind")}
        rule = SloRule(name=name, kind=kind, params=params)
        for key in _REQUIRED[kind]:
            rule.param(key)  # raises SloError when missing
        rules.append(rule)
    return rules


# -- series access -----------------------------------------------------------


def _series_key(doc: Mapping) -> Tuple[str, str]:
    """``(name, canonical labels)``: one series' identity in a run."""
    labels = json.dumps(
        {str(k): str(v) for k, v in doc.get("labels", {}).items()},
        sort_keys=True, separators=(",", ":"),
    )
    return doc["name"], labels


def metric_total(docs: Sequence[Mapping], name: str) -> float:
    """Sum of a metric's values across its label sets."""
    return sum(float(doc["value"]) for doc in docs if doc["name"] == name)


def is_timing_metric(name: str) -> bool:
    """Whether a series measures wall time (nondeterministic by nature).

    Everything else in the registry — request/record counters, sim-day
    accumulations, queue depths, heartbeat samples — is a deterministic
    function of the run config and must diff clean.
    """
    return "wall" in name


def _fmt(value: float) -> str:
    """Deterministic, locale-free number rendering for reports."""
    return f"{value:.6g}"


# -- evaluation ------------------------------------------------------------


def _histogram_quantile(
    docs: Sequence[Mapping], metric: str, quantile: float
) -> Optional[float]:
    """The bucket upper bound at ``quantile``, buckets summed across
    label sets.  None when the histograms saw no observations; +Inf
    observations resolve to infinity (which fails any finite bound).

    The population is the bucket counts plus ``overflow`` — never a
    series' own ``count`` field, which a bucket list need not agree
    with.  Series whose bounds differ cannot be summed bucket by bucket,
    so they are an artifact error naming the metric.
    """
    bounds: Optional[List[float]] = None
    counts: List[int] = []
    overflow = 0
    for doc in sorted(docs, key=_series_key):
        if doc["name"] != metric or doc["kind"] != "histogram":
            continue
        doc_bounds = [float(b) for b, _ in doc["buckets"]]
        if bounds is None:
            bounds, counts = doc_bounds, [0] * len(doc_bounds)
        elif doc_bounds != bounds:
            raise SchemaError(
                f"metric {metric!r}: histogram series have differing "
                f"bucket bounds ({bounds} vs {doc_bounds})"
            )
        for i, (_, count) in enumerate(doc["buckets"]):
            counts[i] += int(count)
        overflow += int(doc.get("overflow", 0))
    total = sum(counts) + overflow
    if not total:
        return None
    target = quantile * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= target:
            return bound
    return float("inf")


def _bound_result(
    rule: SloRule, value: Optional[float], bound: float, upper: bool,
    detail: str = "",
) -> RuleResult:
    if value is None:
        return RuleResult(rule, SKIP, None, bound, detail or "no data")
    ok = value <= bound if upper else value >= bound
    return RuleResult(rule, PASS if ok else FAIL, value, bound, detail)


def evaluate_rule(docs: Sequence[Mapping], rule: SloRule) -> RuleResult:
    """One rule's verdict over one run's metric series."""
    if rule.kind == "quantile_max":
        value = _histogram_quantile(
            docs, str(rule.param("metric")), float(rule.param("quantile"))
        )
        return _bound_result(
            rule, value, float(rule.param("max")), upper=True,
            detail=f"p{float(rule.param('quantile')) * 100:g} "
                   f"of {rule.param('metric')}",
        )
    if rule.kind == "ratio_max":
        numerator = metric_total(docs, str(rule.param("numerator")))
        denominator = metric_total(docs, str(rule.param("denominator")))
        value = (numerator / denominator) if denominator else 0.0
        return _bound_result(
            rule, value, float(rule.param("max")), upper=True,
            detail=f"{numerator:g}/{denominator:g}",
        )
    upper = rule.kind == "counter_max"
    value = metric_total(docs, str(rule.param("metric")))
    bound = float(rule.param("max" if upper else "min"))
    return _bound_result(rule, value, bound, upper=upper)


def check_metrics(
    docs: Sequence[Mapping], rules: Sequence[SloRule]
) -> List[RuleResult]:
    """Evaluate every rule, in file order, against one run's series."""
    return [evaluate_rule(docs, rule) for rule in rules]


def render_check_report(results: Sequence[RuleResult], source: str) -> str:
    """Deterministic text report (same inputs -> identical bytes)."""
    lines = [f"slo check: {source}"]
    width = max((len(r.rule.name) for r in results), default=4)
    for result in results:
        value = _fmt(result.value) if result.value is not None else "-"
        bound = _fmt(result.bound) if result.bound is not None else "-"
        comparator = ">=" if result.rule.kind.endswith("_min") else "<="
        line = (
            f"{result.status:<5} {result.rule.name:<{width}} "
            f"[{result.rule.kind}] {value} {comparator} {bound}"
        )
        if result.detail:
            line += f" ({result.detail})"
        lines.append(line)
    failed = [r for r in results if r.status == FAIL]
    skipped = [r for r in results if r.status == SKIP]
    summary = (
        f"{len(results)} rules: "
        f"{len(results) - len(failed) - len(skipped)} passed, "
        f"{len(failed)} failed, {len(skipped)} skipped"
    )
    if failed:
        summary += " — BREACH: " + ", ".join(r.rule.name for r in failed)
    lines.append(summary)
    return "\n".join(lines)


def check_passed(results: Sequence[RuleResult]) -> bool:
    return not any(r.status == FAIL for r in results)


def results_to_json(results: Sequence[RuleResult], source: str) -> str:
    """Machine-readable verdicts (deterministic serialization)."""
    doc = {
        "metrics": source,
        "results": [
            {
                "rule": r.rule.name,
                "kind": r.rule.kind,
                "status": r.status,
                "value": r.value,
                "bound": r.bound,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# -- comparing two runs ------------------------------------------------------


def _series_equal(doc_a: Mapping, doc_b: Mapping) -> bool:
    if doc_a["kind"] != doc_b["kind"]:
        return False
    if doc_a["kind"] == "histogram":
        # Bucket shape and population are the deterministic parts.
        return (
            doc_a["count"] == doc_b["count"]
            and doc_a["buckets"] == doc_b["buckets"]
            and doc_a.get("overflow", 0) == doc_b.get("overflow", 0)
            and doc_a["value"] == doc_b["value"]
        )
    return (
        doc_a["value"] == doc_b["value"]
        and doc_a.get("samples") == doc_b.get("samples")
    )


def diff_metrics(docs_a: Sequence[Mapping], docs_b: Sequence[Mapping]) -> dict:
    """Compare two runs' series.

    **Deterministic** series (everything :func:`is_timing_metric` does
    not claim) must match exactly — any mismatch means the runs diverged
    behaviorally, not just in speed.  **Timing** series are summed per
    metric name and reported as ``a -> b`` with their ratio.
    """
    series_a = {_series_key(doc): doc for doc in docs_a}
    series_b = {_series_key(doc): doc for doc in docs_b}
    mismatches: List[dict] = []
    timing: Dict[str, List[float]] = {}
    for key in sorted(set(series_a) | set(series_b)):
        name, labels = key
        doc_a, doc_b = series_a.get(key), series_b.get(key)
        if is_timing_metric(name):
            totals = timing.setdefault(name, [0.0, 0.0])
            totals[0] += float(doc_a["value"]) if doc_a else 0.0
            totals[1] += float(doc_b["value"]) if doc_b else 0.0
            continue
        if doc_a is None or doc_b is None:
            why = "only in a" if doc_b is None else "only in b"
        elif not _series_equal(doc_a, doc_b):
            why = "values differ"
        else:
            continue
        mismatches.append({
            "name": name, "labels": labels,
            "a": doc_a and doc_a["value"], "b": doc_b and doc_b["value"],
            "why": why,
        })
    return {
        "clean": not mismatches,
        "mismatches": mismatches,
        "timing": [
            {"name": name, "a": a, "b": b, "ratio": (b / a) if a else None}
            for name, (a, b) in sorted(timing.items())
        ],
    }


def render_diff(diff: Mapping, source_a: str, source_b: str) -> str:
    """Deterministic text rendering of :func:`diff_metrics`."""
    lines = [f"metrics diff: {source_a} -> {source_b}"]
    mismatches = diff["mismatches"]
    if mismatches:
        lines.append(f"DIVERGED: {len(mismatches)} deterministic series differ")
        for row in mismatches[:20]:
            lines.append(
                f"  {row['name']}{row['labels']}: "
                f"{row['a']} -> {row['b']} ({row['why']})"
            )
        if len(mismatches) > 20:
            lines.append(f"  ... and {len(mismatches) - 20} more")
    else:
        lines.append("clean: all deterministic series match")
    if diff["timing"]:
        lines.append("timing:")
        for row in diff["timing"]:
            ratio = f" ({_fmt(row['ratio'])}x)" if row["ratio"] is not None else ""
            lines.append(
                f"  {row['name']}: {_fmt(row['a'])} -> {_fmt(row['b'])}{ratio}"
            )
    return "\n".join(lines)
