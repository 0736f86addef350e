#!/usr/bin/env python
"""Scenario: generating a 10x world with sharded generation.

The other examples synthesize their worlds at scale 0.0004 (~2K apps).
This one generates at ten times that — and uses ``gen_workers`` to
shard the expensive phases (per-app body building, per-listing
finalize) across a process pool while the plan/submit/injection phases
stay serial.  The stage spans show exactly where the time goes,
and the world's content digest is the determinism oracle: the same
seed at any worker count prints the same digest (the sharding
contract, enforced by tests/test_ecosystem_sharding.py).

    python examples/scaled_world.py
"""

import time

from repro.ecosystem.generator import EcosystemGenerator
from repro.ecosystem.sharding import resolve_gen_workers
from repro.obs import Observability

SEED = 7
SCALE = 0.004  # 10x the other examples' 0.0004

SHARDED = [
    "ecosystem.build",
    "ecosystem.finalize",
]


def main() -> None:
    workers = resolve_gen_workers(0)  # 0 = auto-size to the machine
    obs = Observability(profile=True)

    print(f"generating a 10x world (scale {SCALE}) with "
          f"--gen-workers {workers}...")
    start = time.perf_counter()
    with obs.stage("ecosystem"):
        world = EcosystemGenerator(
            SEED, SCALE, gen_workers=workers, obs=obs
        ).generate()
    wall = time.perf_counter() - start

    placements = sum(len(app.placements) for app in world.apps)
    print(f"generated {len(world.apps):,} apps / {placements:,} placements "
          f"across {len(world.developers):,} developers in {wall:.2f}s")
    print(f"world digest {world.content_digest()} "
          f"(identical at any --gen-workers width)\n")

    print(obs.profile_report())

    stages = obs.stage_rows()
    sharded = sum(r["wall_seconds"] for r in stages if r["name"] in SHARDED)
    serial = sum(
        r["wall_seconds"]
        for r in stages
        if r["depth"] > 0 and r["name"] not in SHARDED
    )
    total = sharded + serial
    if total > 0:
        print(f"\nsharded phases (build + finalize): {sharded:.2f}s "
              f"({100 * sharded / total:.0f}% of generation) — "
              f"these scale with --gen-workers; the rest stays serial")


if __name__ == "__main__":
    main()
