"""Declarative SLO rules over the run warehouse (``repro obs check``).

Rules live in a committed TOML file (``slo.toml``) and are evaluated
against one ingested run — CI gates on the exit status, so a latency
blow-up, a dead-letter surge, or a wall-time regression fails the
build with a *named* rule instead of a number someone has to notice.

Rule kinds:

* ``quantile_max``   — a histogram quantile (bucket upper bound at the
  requested quantile, summed across the metric's label sets) must stay
  at or below ``max``.
* ``ratio_max``      — ``sum(numerator) / sum(denominator)`` at or
  below ``max`` (a zero denominator passes with ratio 0).
* ``counter_max`` / ``counter_min`` — a summed metric against a bound.
* ``regression_max`` — the run's summed metric divided by the median of
  the same metric over the fingerprint's run history must stay at or
  below ``max_ratio``; fewer than ``min_history`` baseline runs SKIPs
  (a regression verdict needs a population, not a coin flip).

Determinism contract (see DESIGN.md): evaluation reads only the
warehouse and the rule file — no clocks, no environment — and every
number renders through one fixed formatter, so the same inputs produce
a byte-identical report.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.warehouse import RunWarehouse, robust_score

__all__ = ["SloError", "SloRule", "RuleResult", "load_rules", "check_run",
           "render_check_report"]

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"

RULE_KINDS = (
    "quantile_max", "ratio_max", "counter_max", "counter_min",
    "regression_max",
)


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
    "regression_max": ("metric", "max_ratio"),
}


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


# -- evaluation ------------------------------------------------------------


def _histogram_quantile(
    series: Sequence[Mapping], quantile: float
) -> Optional[float]:
    """The bucket upper bound at ``quantile``, buckets summed across
    label sets.  None when the histograms saw no observations; +Inf
    observations resolve to infinity (which fails any finite bound)."""
    bounds: Optional[List[float]] = None
    counts: List[int] = []
    overflow = 0
    total = 0
    for doc in series:
        if doc.get("kind") != "histogram":
            continue
        buckets = doc.get("buckets", [])
        if bounds is None:
            bounds = [float(b) for b, _ in buckets]
            counts = [0] * len(bounds)
        for i, (_, count) in enumerate(buckets[:len(counts)]):
            counts[i] += int(count)
        overflow += int(doc.get("overflow", 0))
        total += int(doc.get("count", 0))
    if not total or bounds is None:
        return None
    target = quantile * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= target:
            return bound
    return float("inf")


def _metric_docs(
    warehouse: RunWarehouse, run_id: str, name: str
) -> List[Mapping]:
    return [
        doc for (metric, _), doc in sorted(
            warehouse.metric_series(run_id).items()
        )
        if metric == name
    ]


def _bound_result(
    rule: SloRule, value: Optional[float], bound: float, upper: bool,
    detail: str = "",
) -> RuleResult:
    if value is None:
        return RuleResult(rule, SKIP, None, bound, detail or "no data")
    ok = value <= bound if upper else value >= bound
    return RuleResult(rule, PASS if ok else FAIL, value, bound, detail)


def evaluate_rule(
    warehouse: RunWarehouse, manifest: Mapping, rule: SloRule
) -> RuleResult:
    run_id = manifest["run_id"]
    if rule.kind == "quantile_max":
        value = _histogram_quantile(
            _metric_docs(warehouse, run_id, str(rule.param("metric"))),
            float(rule.param("quantile")),
        )
        return _bound_result(
            rule, value, float(rule.param("max")), upper=True,
            detail=f"p{float(rule.param('quantile')) * 100:g} "
                   f"of {rule.param('metric')}",
        )
    if rule.kind == "ratio_max":
        numerator = warehouse.metric_total(run_id, str(rule.param("numerator")))
        denominator = warehouse.metric_total(
            run_id, str(rule.param("denominator"))
        )
        value = (numerator / denominator) if denominator else 0.0
        return _bound_result(
            rule, value, float(rule.param("max")), upper=True,
            detail=f"{numerator:g}/{denominator:g}",
        )
    if rule.kind in ("counter_max", "counter_min"):
        upper = rule.kind == "counter_max"
        value = warehouse.metric_total(run_id, str(rule.param("metric")))
        bound = float(rule.param("max" if upper else "min"))
        return _bound_result(rule, value, bound, upper=upper)
    if rule.kind == "regression_max":
        metric = str(rule.param("metric"))
        min_history = int(rule.params.get("min_history", 3))
        history = warehouse.history(
            manifest.get("fingerprint") or "", exclude=(run_id,)
        )
        baseline = [
            warehouse.metric_total(m["run_id"], metric) for m in history
        ]
        baseline = [v for v in baseline if v > 0]
        if len(baseline) < min_history:
            return RuleResult(
                rule, SKIP, None, float(rule.param("max_ratio")),
                f"history {len(baseline)} < min_history {min_history}",
            )
        current = warehouse.metric_total(run_id, metric)
        median = sorted(baseline)[len(baseline) // 2] if len(baseline) % 2 \
            else sum(sorted(baseline)[len(baseline) // 2 - 1:
                                      len(baseline) // 2 + 1]) / 2.0
        value = current / median if median else None
        score = robust_score(current, baseline)
        return _bound_result(
            rule, value, float(rule.param("max_ratio")), upper=True,
            detail=f"median of {len(baseline)} runs"
                   + (f", score={score:.6g}" if score is not None else ""),
        )
    raise SloError(f"unknown rule kind {rule.kind!r}")  # pragma: no cover


def check_run(
    warehouse: RunWarehouse, rules: Sequence[SloRule], ref: str = "-1"
) -> Tuple[List[RuleResult], dict]:
    """Evaluate every rule against one run; returns (results, manifest)."""
    manifest = warehouse.run(ref)
    return [evaluate_rule(warehouse, manifest, r) for r in rules], manifest


def render_check_report(
    results: Sequence[RuleResult], manifest: Mapping
) -> str:
    """Deterministic text report (same inputs -> identical bytes)."""
    lines = [
        f"slo check: run {manifest['run_id']} ({manifest['label']})"
        + (
            f" fingerprint {manifest['fingerprint']}"
            if manifest.get("fingerprint") else ""
        ),
    ]
    width = max((len(r.rule.name) for r in results), default=4)
    for result in results:
        value = f"{result.value:.6g}" if result.value is not None else "-"
        bound = f"{result.bound:.6g}" if result.bound is not None else "-"
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


def results_to_json(
    results: Sequence[RuleResult], manifest: Mapping
) -> str:
    """Machine-readable verdicts (deterministic serialization)."""
    doc = {
        "run_id": manifest["run_id"],
        "label": manifest["label"],
        "fingerprint": manifest.get("fingerprint"),
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
