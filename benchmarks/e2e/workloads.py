"""The benchmark's workloads.

Each workload is a ``StudyConfig`` (seed and scale come from the command
line) plus what runs after ``Study.run()``.  Why each one exists is in
``BENCHMARK.json`` and the README; in short:

* ``report`` is the default ``repro report`` pipeline: in-process
  transport, memory store, APK build/parse/backfill, analysis and the
  24 experiments.
* ``crawl_socket`` crawls metadata only through the TCP serving tier;
  it builds no APK and runs no analysis, so it is the bypass workload
  for APK and analysis changes.
* ``report_spilled`` is ``report`` on the out-of-core path: every
  record family spills to SQLite and APKs go to the blob vault.
* ``report_checkpointed`` runs ``report`` cold with a crawl journal and
  an artifact cache, then resumes it in a second process, which
  replays the journal and reads the cache.

All four crawl with one worker, so one request is in flight at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "SMOKE_SCALE", "passes"]

#: Scale of the smoke test and of the second set of pinned digests.
SMOKE_SCALE = 0.0002


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    #: StudyConfig fields other than seed and scale.
    config: Dict[str, object] = field(default_factory=dict)
    #: Run ``materialize()`` and ``run_all()`` after ``Study.run()``.
    full: bool = True
    #: Resume the first pass's checkpoint in a second, fresh process.
    resume: bool = False
    #: Config overrides that must give the same digests (checked when
    #: pinning): the memory backend for the spilled workload.
    reference: Optional[Dict[str, object]] = None


_CHECKPOINT = {"checkpoint_dir": "ckpt", "artifact_cache_dir": "ckpt/artifacts"}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("report", scale=0.0002),
        Workload(
            "crawl_socket",
            scale=0.0002,
            config={"download_apks": False, "transport": "socket"},
            full=False,
        ),
        Workload(
            "report_spilled",
            scale=0.0001,
            config={"store_backend": "sqlite", "store_spill_threshold": 0},
            reference={"store_backend": "memory"},
        ),
        Workload(
            "report_checkpointed", scale=0.0001, config=_CHECKPOINT, resume=True
        ),
    )
}


def passes(workload: Workload) -> List[Tuple[str, Dict[str, object]]]:
    """``(role, config)`` per process one repeat runs, in order.

    Checkpoint paths are relative: each pass runs with the repeat's own
    directory as its working directory.
    """
    out = [("main", dict(workload.config))]
    if workload.resume:
        out.append(("resume", {**workload.config, "resume": True}))
    return out
