#!/usr/bin/env python
"""Scenario: generating a 10x world and seeing where the time goes.

The other examples synthesize their worlds at scale 0.0004 (~2K apps).
This one generates at ten times that in one process.  The stage spans
show where the time goes — the index-keyed build and finalize phases
next to the plan/submit/injection phases — and the world's content
digest is the determinism oracle: the same seed prints the same digest
however the build is ordered or batched (the index-keyed contract,
enforced by tests/test_ecosystem_sharding.py).

    python examples/scaled_world.py
"""

import time

from repro.ecosystem.generator import EcosystemGenerator
from repro.obs import Observability

SEED = 7
SCALE = 0.004  # 10x the other examples' 0.0004

#: The phases whose draws are keyed per app or per listing.
INDEX_KEYED = [
    "ecosystem.build",
    "ecosystem.finalize",
]


def main() -> None:
    obs = Observability(profile=True)

    print(f"generating a 10x world (scale {SCALE})...")
    start = time.perf_counter()
    with obs.stage("ecosystem"):
        world = EcosystemGenerator(SEED, SCALE, obs=obs).generate()
    wall = time.perf_counter() - start

    placements = sum(len(app.placements) for app in world.apps)
    print(f"generated {len(world.apps):,} apps / {placements:,} placements "
          f"across {len(world.developers):,} developers in {wall:.2f}s")
    print(f"world digest {world.content_digest()}\n")

    print(obs.profile_report())

    stages = obs.stage_rows()
    keyed = sum(r["wall_seconds"] for r in stages if r["name"] in INDEX_KEYED)
    rest = sum(
        r["wall_seconds"]
        for r in stages
        if r["depth"] > 0 and r["name"] not in INDEX_KEYED
    )
    total = keyed + rest
    if total > 0:
        print(f"\nindex-keyed phases (build + finalize): {keyed:.2f}s "
              f"({100 * keyed / total:.0f}% of generation)")


if __name__ == "__main__":
    main()
