"""One measured pass of one workload, in a fresh interpreter.

Usage: ``python child.py SPEC.json RESULT.json``.  ``run.py`` starts one
of these per pass so process-lifetime memo caches never carry over from
one repeat to the next.  The spec names the checkout root, seed, scale,
``StudyConfig`` fields, whether to run the analysis and experiments
(``full``), whether to install the hot probes (``traced``), and an
optional ``trace_out`` JSONL path.  The result holds the pass's wall
time, peak RSS, span and counter summaries taken as soon as the timed
region ends, the program's own counts, and the output digests.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))

    import probes
    from tracer import Tracer

    tracer = Tracer()
    captured = probes.install(tracer, spec["traced"])

    from repro import Study, StudyConfig
    from repro.experiments import digest_reports, run_all

    config = StudyConfig(seed=spec["seed"], scale=spec["scale"], **spec["config"])
    start = perf_counter()
    result = Study(config).run()
    reports = None
    if spec["full"]:
        result.materialize()
        experiments_start = perf_counter()
        reports = run_all(result)
        tracer.add("experiments_s", perf_counter() - experiments_start)
    wall = perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Everything below is outside the timed region.  Summaries are taken
    # before the digests, whose cursor reads would otherwise be charged.
    spans = tracer.by_name()
    counters = dict(tracer.counters)
    apk_bytes_ids = {s[0] for s in tracer.spans if s[2] == "markets.apk_bytes"}
    counters["markets.apk_builds"] = sum(
        1 for s in tracer.spans if s[2] == "apk.build" and s[1] in apk_bytes_ids
    )
    roots = tracer.root_seconds(threading.main_thread().ident)
    request_ms = [d * 1000.0 for d in tracer.durations("net.request")]
    if spec.get("trace_out"):
        tracer.write_jsonl(spec["trace_out"])

    out = {
        "wall_s": wall,
        "rss_kib": rss_kib,
        "roots_s": roots,
        "spans": spans,
        "counters": counters,
        "facts": probes.facts(result, captured),
        "request_ms": request_ms,
        "digests": {
            "world": result.world.content_digest(),
            "snapshot": str(result.snapshot.content_digest()),
            "reports": _reports_digest(digest_reports(reports)) if reports else None,
        },
    }
    if result.corpus is not None:
        result.corpus.close()
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")


def _reports_digest(digests) -> str:
    """One digest over every experiment's report digest, in id order."""
    h = hashlib.blake2b(digest_size=16)
    for exp_id, digest in digests.items():
        h.update(f"{exp_id}={digest};".encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    main(*sys.argv[1:])
