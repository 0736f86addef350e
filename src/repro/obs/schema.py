"""Schemas for the exported observability artifacts.

The trace (``--trace-out``) and metrics (``--metrics-out``) artifacts
are JSONL: one self-describing object per line.  Downstream tooling —
the CI observability job, ``run-report``, ``repro obs check`` and
``repro obs diff`` — validates every line against the schemas here before
trusting it, so a format drift fails loudly at the artifact boundary
instead of corrupting a report three tools later.

The validator is deliberately tiny (field name → allowed types, plus a
per-kind dispatch); the repo vendors no JSON-Schema dependency.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

__all__ = [
    "SchemaError",
    "HOSTILITY_EVENTS",
    "validate_trace_obj",
    "validate_metrics_obj",
    "validate_profile_obj",
    "validate_trace_file",
    "validate_metrics_file",
    "validate_profile_file",
    "load_jsonl",
]

NUMBER = (int, float)
OPT_NUMBER = (int, float, type(None))


class SchemaError(ValueError):
    """An artifact line does not match its schema."""


#: field -> (required, allowed types)
FieldSpec = Dict[str, Tuple[bool, tuple]]

TRACE_SPAN_FIELDS: FieldSpec = {
    "kind": (True, (str,)),
    "trace_id": (True, (str,)),
    "span_id": (True, (int,)),
    "parent_id": (True, (int, type(None))),
    "name": (True, (str,)),
    "status": (True, (str,)),
    "wall_start": (True, NUMBER),
    "wall_seconds": (True, NUMBER),
    "sim_start": (True, OPT_NUMBER),
    "sim_end": (True, OPT_NUMBER),
    "market": (False, (str,)),
    "attrs": (False, (dict,)),
}

TRACE_EVENT_FIELDS: FieldSpec = {
    "kind": (True, (str,)),
    "trace_id": (True, (str,)),
    "span_id": (True, (int, type(None))),
    "name": (True, (str,)),
    "wall_start": (True, NUMBER),
    "sim_time": (True, OPT_NUMBER),
    "market": (False, (str,)),
    "attrs": (False, (dict,)),
}

METRICS_FIELDS: FieldSpec = {
    "kind": (True, (str,)),
    "name": (True, (str,)),
    "labels": (True, (dict,)),
    "value": (True, NUMBER),
    "count": (False, (int,)),
    "buckets": (False, (list,)),
    "overflow": (False, (int,)),
    "samples": (False, (list,)),
}

METRIC_KINDS = ("counter", "gauge", "histogram")

PROFILE_FIELDS: FieldSpec = {
    "kind": (True, (str,)),
    "name": (True, (str,)),
    "wall_seconds": (True, NUMBER),
    # Written by profiles from before stages became wall-only.
    "peak_bytes": (False, (int,)),
    "depth": (True, (int,)),
}

#: Event names the hostile-market scenario pack emits (``kind=event``
#: trace lines).  The validator does not whitelist event names — any
#: well-formed event passes — but tooling that slices hostility
#: activity out of a trace keys on these.
HOSTILITY_EVENTS = ("auth.login", "ban.hit", "identity.rotate")


def _check_fields(obj: Mapping, spec: FieldSpec, what: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{what}: expected an object, got {type(obj).__name__}")
    for field, (required, types) in spec.items():
        if field not in obj:
            if required:
                raise SchemaError(f"{what}: missing required field {field!r}")
            continue
        if not isinstance(obj[field], types) or (
            # bool is an int subclass; never valid where numbers go.
            isinstance(obj[field], bool) and bool not in types
        ):
            raise SchemaError(
                f"{what}: field {field!r} has type "
                f"{type(obj[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    unknown = set(obj) - set(spec)
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")


def _check_pairs(obj: Mapping, field: str, what: str) -> None:
    for pair in obj.get(field, ()):
        if (
            not isinstance(pair, list) or len(pair) != 2
            or not all(isinstance(x, NUMBER) and not isinstance(x, bool) for x in pair)
        ):
            raise SchemaError(f"{what}: {field!r} entries must be [number, number]")


def validate_trace_obj(obj: Mapping) -> None:
    """Validate one trace-artifact line (span or event)."""
    kind = obj.get("kind") if isinstance(obj, Mapping) else None
    if kind == "span":
        _check_fields(obj, TRACE_SPAN_FIELDS, "span")
    elif kind == "event":
        _check_fields(obj, TRACE_EVENT_FIELDS, "event")
    else:
        raise SchemaError(f"trace line: kind must be span/event, got {kind!r}")


def validate_metrics_obj(obj: Mapping) -> None:
    """Validate one metrics-artifact line (one series)."""
    _check_fields(obj, METRICS_FIELDS, "metric")
    kind = obj["kind"]
    if kind not in METRIC_KINDS:
        raise SchemaError(f"metric: kind must be one of {METRIC_KINDS}, got {kind!r}")
    for key, value in obj["labels"].items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError("metric: labels must map str -> str")
    if kind == "histogram":
        if "count" not in obj or "buckets" not in obj:
            raise SchemaError("metric: histogram needs count and buckets")
        _check_pairs(obj, "buckets", "metric")
        bounds = [bound for bound, _ in obj["buckets"]]
        if bounds != sorted(bounds):
            raise SchemaError("metric: histogram bucket bounds must be sorted")
        if any(count < 0 for _, count in obj["buckets"]) or obj.get("overflow", 0) < 0:
            raise SchemaError("metric: histogram bucket counts must be non-negative")
    if "samples" in obj:
        _check_pairs(obj, "samples", "metric")


def validate_profile_obj(obj: Mapping) -> None:
    """Validate one profile-artifact line (a stage record)."""
    _check_fields(obj, PROFILE_FIELDS, "stage")
    if obj["kind"] != "stage":
        raise SchemaError(f"profile line: kind must be stage, got {obj['kind']!r}")
    if obj["depth"] < 0 or obj.get("peak_bytes", 0) < 0:
        raise SchemaError("stage: depth and peak_bytes must be non-negative")


def load_jsonl(path: Union[str, Path]) -> List[dict]:
    """Load a JSONL artifact (no validation)."""
    docs: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return docs


def _validate_file(path, validator) -> List[dict]:
    docs = load_jsonl(path)
    for lineno, doc in enumerate(docs, 1):
        try:
            validator(doc)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
    return docs


def validate_trace_file(path: Union[str, Path]) -> List[dict]:
    """Load and validate a trace artifact; returns its records."""
    return _validate_file(path, validate_trace_obj)


def validate_metrics_file(path: Union[str, Path]) -> List[dict]:
    """Load and validate a metrics artifact; returns its series."""
    return _validate_file(path, validate_metrics_obj)


def validate_profile_file(path: Union[str, Path]) -> List[dict]:
    """Load and validate a profile artifact; returns its stage records."""
    return _validate_file(path, validate_profile_obj)
