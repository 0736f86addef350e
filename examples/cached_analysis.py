#!/usr/bin/env python
"""Scenario: incremental experiment runs with the artifact cache.

An analysis session rarely runs once: you regenerate tables while
iterating on one experiment, or re-run the whole study after a crash.
The persistent artifact cache makes the second run incremental — every
per-APK artifact (library features, VirusTotal verdicts, unused
permissions) is read back from disk instead of recomputed — while the
checkpoint journal spares the re-crawl.  The resumed run must report
bit-identical tables and figures, and this script proves it:

1. run a checkpointed study end to end, digest every report;
2. run it again against the same checkpoint directory (journal resume +
   warm artifact cache);
3. assert the second run hit the cache and produced identical digests.

    python examples/cached_analysis.py
"""

import tempfile

from repro import Study, StudyConfig
from repro.experiments import digest_reports, run_all

SEED = 42
SCALE = 0.0005


def run_session(checkpoint_dir, resume):
    config = StudyConfig(
        seed=SEED,
        scale=SCALE,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        workers=4,
        artifact_cache_dir=f"{checkpoint_dir}/artifacts",
    )
    result = Study(config).run()
    digests = digest_reports(run_all(result))
    return result, digests


def main() -> int:
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        print(f"cold session: crawl + analyze (seed={SEED}, scale={SCALE})")
        cold, cold_digests = run_session(checkpoint_dir, resume=False)
        cold_stats = cold.engine.cache.stats
        print(f"  {cold.engine.stats_line()}")
        assert cold_stats.stores > 0, "cold run should populate the cache"

        print("warm session: resume the journal, reuse the artifacts")
        warm, warm_digests = run_session(checkpoint_dir, resume=True)
        warm_stats = warm.engine.cache.stats
        print(f"  {warm.engine.stats_line()}")

        assert warm_stats.hits > 0, "warm run should hit the artifact cache"
        assert warm_stats.misses == 0, (
            f"warm run missed {warm_stats.misses} artifacts"
        )
        assert warm_digests == cold_digests, "resumed reports must be identical"
        print(f"OK: {len(warm_digests)} report digests identical, "
              f"{warm_stats.hits} artifacts served from cache")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
