"""The run warehouse: every campaign's artifacts in one queryable store.

Single runs already export rich artifacts (trace/metrics JSONL, stage
profiles), but each file was an island — nothing
compared round N against rounds 1..N-1, which is exactly the run-over-
run bookkeeping the paper's fleet lived on.  :class:`RunWarehouse`
ingests a run's artifacts into one SQLite database (reusing
:class:`repro.store.columnar.ColumnStore`'s segment-table machinery)
keyed by a **run id** (content hash of the ingested artifacts — re-
ingesting identical artifacts is a no-op) and a **config fingerprint**
(hash of the behavior-relevant study config — the key run history is
grouped by for baselines).

Families (see DESIGN.md for the schema contract):

* ``runs``      — one row per ingested run: the manifest.
* ``metrics``   — one row per metric series (full doc in the payload).
* ``spans``     — per ``(name, market)`` span aggregates.
* ``events``    — per ``(name, market)`` event counts.
* ``stages``    — the stage profile, in recorded order.

:meth:`RunWarehouse.diff` compares two runs: **deterministic** series
(everything that does not measure wall time) must match exactly — any
mismatch means the runs diverged behaviorally, not just in speed —
while **timing** series and stage wall times are reported as deltas and
judged against robust median/MAD baselines built from the fingerprint's
run history.  All rendering is deterministic: same warehouse contents,
byte-identical report.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.schema import (
    SchemaError,
    validate_metrics_file,
    validate_profile_file,
    validate_trace_file,
)
from repro.store.columnar import ColumnStore

__all__ = [
    "RunWarehouse",
    "WarehouseError",
    "RUN_SCHEMA",
    "config_fingerprint",
    "current_git_commit",
    "is_timing_metric",
]

RUN_SCHEMA = "repro.run/1"

#: Study-config fields that cannot change run content (worker widths,
#: cache/storage/output plumbing, monitoring) — the digest-invariance
#: contract the repo's tests enforce.  Everything else fingerprints.
DIGEST_INVARIANT_FIELDS = frozenset({
    "workers",
    "checkpoint_dir", "resume", "artifact_cache_dir",
    "store_backend", "store_batch_size", "store_spill_threshold",
    "store_dir",
    "trace_out", "metrics_out", "profile", "profile_out", "run_meta",
    "monitor", "monitor_interval", "stall_budget",
    "transport",
    # No longer StudyConfig fields, but manifests ingested before the
    # asyncio crawl engine and the generation process pool were removed,
    # or before the two worker widths became ``workers``, carry them;
    # excluding them keeps those runs on the same fingerprint as today's.
    "crawl_engine", "crawl_pipeline", "gen_workers",
    "crawl_workers", "analysis_workers",
})

#: Removed config fields, at the value every manifest carries them at:
#: folded back in before hashing, so those runs and today's share a
#: fingerprint (a manifest that set one otherwise still fingerprints
#: apart).  The last four are module constants now, with the same
#: values and types.
RETIRED_FIELD_DEFAULTS: Mapping[str, object] = {
    "fault_plan": None, "market_hostility": None,
    "gp_seed_share": 0.74, "first_crawl_days": 15.0,
    "second_crawl_days": 7.0, "min_market_size": 40,
}


class WarehouseError(Exception):
    """Invalid warehouse usage (unknown run, ambiguous reference, ...)."""


def config_fingerprint(config: object) -> str:
    """Hash the behavior-relevant study config to a 16-hex-char key.

    Accepts a :class:`~repro.core.config.StudyConfig` or a plain
    mapping (an ingested manifest's ``config``).  Fields on the
    digest-invariance list are excluded, so a run at ``--workers 8``
    with a sqlite store fingerprints identically to its serial
    in-memory twin — which is exactly when their digests must agree.
    """
    if is_dataclass(config) and not isinstance(config, type):
        doc: Mapping = asdict(config)
    elif isinstance(config, Mapping):
        doc = config
    else:
        raise TypeError(f"cannot fingerprint a {type(config).__name__}")
    relevant = {
        str(k): v for k, v in {**RETIRED_FIELD_DEFAULTS, **doc}.items()
        if k not in DIGEST_INVARIANT_FIELDS
    }
    blob = json.dumps(relevant, sort_keys=True, default=repr)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


def current_git_commit() -> Optional[str]:
    """The commit a run manifest was produced from, or None off-repo.

    CI exposes the sha directly (``GITHUB_SHA``); local runs ask git.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def is_timing_metric(name: str) -> bool:
    """Whether a series measures wall time (nondeterministic by nature).

    Everything else in the registry — request/record counters, sim-day
    accumulations, queue depths, heartbeat samples — is a deterministic
    function of the run config and must diff clean.
    """
    return "wall" in name


def _canonical_labels(labels: Mapping) -> str:
    return json.dumps(
        {str(k): str(v) for k, v in labels.items()}, sort_keys=True,
        separators=(",", ":"),
    )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: Sequence[float], center: float) -> float:
    return _median([abs(v - center) for v in values])


def robust_score(value: float, history: Sequence[float]) -> Optional[float]:
    """|value - median| in (scaled) MAD units, or None when undefined.

    1.4826 scales the MAD to the standard deviation of a normal
    distribution; a score above ~3 is a conventional outlier.  A zero
    MAD (constant history) falls back to 10% of the median as the unit
    so a genuinely flat series still flags real movement.
    """
    if not history:
        return None
    center = _median(history)
    spread = 1.4826 * _mad(history, center)
    if spread <= 0:
        spread = abs(center) * 0.10
    if spread <= 0:
        return None
    return abs(value - center) / spread


def _fmt(value: float) -> str:
    """Deterministic, locale-free number rendering for reports."""
    return f"{value:.6g}"


class RunWarehouse:
    """SQLite-backed store of ingested runs (see module docstring)."""

    def __init__(self, path: Union[str, Path], batch_size: int = 512):
        self.path = Path(path)
        self._store = ColumnStore(self.path, batch_size=batch_size)
        self._runs = self._store.family(
            "runs",
            key_columns=[
                ("run_id", "TEXT"), ("label", "TEXT"), ("seed", "INTEGER"),
                ("scale", "REAL"), ("fingerprint", "TEXT"),
            ],
            unique=["run_id"],
        )
        self._metrics = self._store.family(
            "metrics",
            key_columns=[
                ("run_id", "TEXT"), ("name", "TEXT"), ("labels", "TEXT"),
                ("kind", "TEXT"), ("value", "REAL"),
            ],
            indexes=[["run_id", "name"]],
        )
        self._spans = self._store.family(
            "spans",
            key_columns=[
                ("run_id", "TEXT"), ("name", "TEXT"), ("market", "TEXT"),
                ("count", "INTEGER"), ("wall_total", "REAL"),
                ("wall_max", "REAL"),
            ],
            indexes=[["run_id"]],
        )
        self._events = self._store.family(
            "events",
            key_columns=[
                ("run_id", "TEXT"), ("name", "TEXT"), ("market", "TEXT"),
                ("count", "INTEGER"),
            ],
            indexes=[["run_id"]],
        )
        self._stages = self._store.family(
            "stages",
            key_columns=[
                ("run_id", "TEXT"), ("seq", "INTEGER"), ("name", "TEXT"),
                ("depth", "INTEGER"), ("wall_seconds", "REAL"),
                ("peak_bytes", "INTEGER"),
            ],
            indexes=[["run_id"]],
        )

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "RunWarehouse":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- ingest ------------------------------------------------------------

    def ingest_run(
        self,
        label: str = "run",
        meta: Optional[Union[str, Path, Mapping]] = None,
        metrics: Optional[Union[str, Path]] = None,
        trace: Optional[Union[str, Path]] = None,
        profile: Optional[Union[str, Path]] = None,
    ) -> dict:
        """Ingest one run's artifacts; returns the stored manifest.

        ``meta`` is the run manifest the study wrote (``--run-meta``),
        either a path or a pre-loaded mapping; without one a minimal
        manifest is synthesized from the label.  Artifacts are schema-
        validated before anything lands, and re-ingesting byte-identical
        artifacts is detected by the content-derived run id and skipped
        (``manifest["created"]`` is False).
        """
        if meta is not None and not isinstance(meta, Mapping):
            with Path(meta).open("r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if not isinstance(meta, Mapping):
                raise SchemaError("run meta must be a JSON object")
        meta = dict(meta or {})
        if meta and meta.get("schema") not in (None, RUN_SCHEMA):
            raise SchemaError(
                f"run meta: unknown schema {meta.get('schema')!r} "
                f"(expected {RUN_SCHEMA})"
            )
        label = str(meta.get("label", label))

        hasher = hashlib.blake2b(digest_size=8)
        hasher.update(
            json.dumps(meta, sort_keys=True, default=repr).encode("utf-8")
        )
        metric_docs = trace_docs = stage_docs = None
        for tag, path in (("metrics", metrics), ("trace", trace),
                          ("profile", profile)):
            if path is None:
                continue
            hasher.update(tag.encode() + b"\x00" + Path(path).read_bytes())
        if metrics is not None:
            metric_docs = validate_metrics_file(metrics)
        if trace is not None:
            trace_docs = validate_trace_file(trace)
        if profile is not None:
            stage_docs = validate_profile_file(profile)
        run_id = hasher.hexdigest()

        existing = self._runs.get(run_id=run_id)
        if existing is not None:
            manifest = json.loads(existing[-1])
            manifest["created"] = False
            return manifest

        counts = {
            "metrics": len(metric_docs or ()),
            "trace": len(trace_docs or ()),
            "stages": len(stage_docs or ()),
        }
        fingerprint = ""
        if isinstance(meta.get("config"), Mapping):
            fingerprint = config_fingerprint(meta["config"])
        manifest = {
            "schema": RUN_SCHEMA,
            "run_id": run_id,
            "label": label,
            "seed": meta.get("seed"),
            "scale": meta.get("scale"),
            "fingerprint": fingerprint,
            "git_commit": meta.get("git_commit"),
            "config": meta.get("config"),
            "digests": meta.get("digests"),
            "artifacts": {
                "metrics": str(metrics) if metrics is not None else None,
                "trace": str(trace) if trace is not None else None,
                "profile": str(profile) if profile is not None else None,
            },
            "counts": counts,
        }
        self._runs.append(
            run_id, label,
            int(meta["seed"]) if meta.get("seed") is not None else None,
            float(meta["scale"]) if meta.get("scale") is not None else None,
            fingerprint, json.dumps(manifest, sort_keys=True),
        )
        for doc in metric_docs or ():
            self._metrics.append(
                run_id, doc["name"], _canonical_labels(doc.get("labels", {})),
                doc["kind"], float(doc["value"]),
                json.dumps(doc, sort_keys=True),
            )
        if trace_docs is not None:
            self._ingest_trace(run_id, trace_docs)
        for seq, doc in enumerate(stage_docs or ()):
            self._stages.append(
                run_id, seq, doc["name"], int(doc.get("depth", 0)),
                float(doc["wall_seconds"]), int(doc.get("peak_bytes", 0)),
                json.dumps(doc, sort_keys=True),
            )
        self._store.flush()
        manifest["created"] = True
        return manifest

    def _ingest_trace(self, run_id: str, docs: List[dict]) -> None:
        spans: Dict[Tuple[str, str], List[float]] = {}
        events: Dict[Tuple[str, str], int] = {}
        for doc in docs:
            key = (doc["name"], doc.get("market") or "")
            if doc["kind"] == "span":
                agg = spans.setdefault(key, [0, 0.0, 0.0])
                wall = float(doc["wall_seconds"])
                agg[0] += 1
                agg[1] += wall
                agg[2] = max(agg[2], wall)
            else:
                events[key] = events.get(key, 0) + 1
        for (name, market), (count, total, peak) in sorted(spans.items()):
            self._spans.append(
                run_id, name, market, int(count), total, peak, None
            )
        for (name, market), count in sorted(events.items()):
            self._events.append(run_id, name, market, count, None)

    # -- queries -----------------------------------------------------------

    def runs(self) -> List[dict]:
        """Every ingested run's manifest, in ingest order."""
        return [
            json.loads(row[-1])
            for row in self._runs.scan()
        ]

    def run(self, ref: str) -> dict:
        """Resolve a run reference to its manifest.

        Accepts a full run id, a unique run-id prefix, a label (most
        recently ingested run wins), or a negative index (``-1`` = the
        latest ingested run).
        """
        manifests = self.runs()
        if not manifests:
            raise WarehouseError("warehouse is empty")
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            if -index > len(manifests):
                raise WarehouseError(
                    f"run {ref}: only {len(manifests)} runs ingested"
                )
            return manifests[index]
        by_prefix = [m for m in manifests if m["run_id"].startswith(ref)]
        if len(by_prefix) == 1:
            return by_prefix[0]
        if len(by_prefix) > 1:
            raise WarehouseError(f"run id prefix {ref!r} is ambiguous")
        by_label = [m for m in manifests if m["label"] == ref]
        if by_label:
            return by_label[-1]
        raise WarehouseError(f"no run matches {ref!r}")

    def metric_series(self, run_id: str) -> Dict[Tuple[str, str], dict]:
        """``(name, canonical labels) -> series doc`` for one run."""
        return {
            (row[1], row[2]): json.loads(row[-1])
            for row in self._metrics.scan(run_id=run_id)
        }

    def metric_total(self, run_id: str, name: str) -> float:
        """Sum of a metric's values across its label sets."""
        return sum(
            float(row[4]) for row in self._metrics.scan(run_id=run_id, name=name)
        )

    def stage_walls(self, run_id: str) -> Dict[str, float]:
        """Total wall seconds per top-level stage name."""
        walls: Dict[str, float] = {}
        for row in self._stages.scan(run_id=run_id):
            _, _, name, depth, wall, _ = row[:6]
            if int(depth) == 0:
                walls[name] = walls.get(name, 0.0) + float(wall)
        return walls

    def history(
        self, fingerprint: str, exclude: Sequence[str] = ()
    ) -> List[dict]:
        """Prior runs sharing a fingerprint (baseline population)."""
        if not fingerprint:
            return []
        skip = set(exclude)
        return [
            m for m in self.runs()
            if m["fingerprint"] == fingerprint and m["run_id"] not in skip
        ]

    # -- diff --------------------------------------------------------------

    def diff(self, ref_a: str, ref_b: str) -> dict:
        """Compare two ingested runs (see module docstring for semantics)."""
        a, b = self.run(ref_a), self.run(ref_b)
        series_a = self.metric_series(a["run_id"])
        series_b = self.metric_series(b["run_id"])

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
                mismatches.append({
                    "name": name, "labels": labels,
                    "a": doc_a and doc_a["value"],
                    "b": doc_b and doc_b["value"],
                    "why": "only in a" if doc_b is None else "only in b",
                })
            elif not self._series_equal(doc_a, doc_b):
                mismatches.append({
                    "name": name, "labels": labels,
                    "a": doc_a["value"], "b": doc_b["value"],
                    "why": "values differ",
                })

        history = self.history(
            b["fingerprint"], exclude=(a["run_id"], b["run_id"])
        )
        timing_rows = []
        for name in sorted(timing):
            value_a, value_b = timing[name]
            baseline = [
                self.metric_total(m["run_id"], name) for m in history
            ]
            timing_rows.append({
                "name": name, "a": value_a, "b": value_b,
                "ratio": (value_b / value_a) if value_a else None,
                "score": robust_score(value_b, baseline),
            })

        stages_a = self.stage_walls(a["run_id"])
        stages_b = self.stage_walls(b["run_id"])
        stage_rows = []
        for name in sorted(set(stages_a) | set(stages_b)):
            wall_a, wall_b = stages_a.get(name), stages_b.get(name)
            baseline = [
                walls[name] for m in history
                if name in (walls := self.stage_walls(m["run_id"]))
            ]
            stage_rows.append({
                "name": name, "a": wall_a, "b": wall_b,
                "ratio": (
                    wall_b / wall_a
                    if wall_a and wall_b is not None else None
                ),
                "score": (
                    robust_score(wall_b, baseline)
                    if wall_b is not None else None
                ),
            })

        return {
            "a": a, "b": b,
            "clean": not mismatches,
            "same_fingerprint": (
                bool(a["fingerprint"])
                and a["fingerprint"] == b["fingerprint"]
            ),
            "mismatches": mismatches,
            "timing": timing_rows,
            "stages": stage_rows,
            "history_runs": len(history),
        }

    @staticmethod
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

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def render_runs(manifests: Sequence[Mapping]) -> str:
        header = (
            f"{'run_id':<18}{'label':<16}{'seed':>6}{'scale':>10}"
            f"{'fingerprint':>18}{'metrics':>9}{'stages':>8}"
        )
        lines = [header, "-" * len(header)]
        for m in manifests:
            counts = m.get("counts", {})
            lines.append(
                f"{m['run_id']:<18}{m['label'][:15]:<16}"
                f"{m['seed'] if m['seed'] is not None else '-':>6}"
                f"{m['scale'] if m['scale'] is not None else '-':>10}"
                f"{m['fingerprint'] or '-':>18}"
                f"{counts.get('metrics', 0):>9}{counts.get('stages', 0):>8}"
            )
        return "\n".join(lines)

    @staticmethod
    def render_diff(diff: Mapping) -> str:
        a, b = diff["a"], diff["b"]
        lines = [
            f"run diff: {a['run_id']} ({a['label']}) "
            f"-> {b['run_id']} ({b['label']})",
            "fingerprints: "
            + (
                f"identical ({a['fingerprint']})"
                if diff["same_fingerprint"]
                else f"{a['fingerprint'] or '-'} vs {b['fingerprint'] or '-'}"
            ),
        ]
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
            lines.append(
                f"timing (vs median/MAD over {diff['history_runs']} "
                f"baseline runs):"
            )
            for row in diff["timing"]:
                note = (
                    f" score={_fmt(row['score'])}"
                    if row["score"] is not None else ""
                )
                ratio = (
                    f" ({_fmt(row['ratio'])}x)"
                    if row["ratio"] is not None else ""
                )
                lines.append(
                    f"  {row['name']}: {_fmt(row['a'])} -> "
                    f"{_fmt(row['b'])}{ratio}{note}"
                )
        if diff["stages"]:
            lines.append("stages (wall s):")
            for row in diff["stages"]:
                wall_a = _fmt(row["a"]) if row["a"] is not None else "-"
                wall_b = _fmt(row["b"]) if row["b"] is not None else "-"
                ratio = (
                    f" ({_fmt(row['ratio'])}x)"
                    if row["ratio"] is not None else ""
                )
                note = (
                    f" score={_fmt(row['score'])}"
                    if row["score"] is not None else ""
                )
                lines.append(f"  {row['name']}: {wall_a} -> {wall_b}{ratio}{note}")
        return "\n".join(lines)
