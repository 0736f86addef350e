"""Smoke test of the end-to-end benchmark.

Runs every workload once untraced and once traced at the smoke scale,
one ``run.py`` invocation per workload, and checks that every metric of
``BENCHMARK.json`` is printed with its unit, that the outputs match the
pinned oracle, that the traced spans attribute all but 5% of the
pipeline's wall time, and that the failed-request share, both as a
metric and as the result's ``failed`` over ``attempted``, equals its pin.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PINS, ROOT, pin_key  # noqa: E402
from workloads import SMOKE_SCALE, WORKLOADS  # noqa: E402

SEED = 42


def _run(workload: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--repeats", "1", "--scale", str(SMOKE_SCALE), "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[1:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] != "FAILED:":
            printed[fields[0]] = (float(fields[1]), fields[2])
    return printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    return {workload: _run(workload) for workload in WORKLOADS}


@pytest.fixture(scope="module")
def pins():
    return {
        workload: json.loads(PINS.read_text(encoding="utf-8"))[workload][
            pin_key(SEED, SMOKE_SCALE)
        ]
        for workload in WORKLOADS
    }


def test_every_metric_printed_with_its_unit(smoke):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload, (printed, _result) in smoke.items():
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert printed[metric["name"]][1] == metric["unit"], (workload, metric)


def test_outputs_match_the_oracle(smoke, pins):
    for workload, (_printed, result) in smoke.items():
        assert result["correct"], workload
        assert result["attempted"] > 0, workload
        assert result["failed"] / result["attempted"] == pytest.approx(
            pins[workload]["failed_share"]
        ), workload


def test_spans_attribute_the_wall_time(smoke):
    for workload, (printed, result) in smoke.items():
        unattributed = result["metrics"]["obs.unattributed_s"]["value"]
        assert 0 <= unattributed <= 0.05 * printed["total_s"][0], workload


def test_failed_share_matches_its_pin(smoke, pins):
    for workload, (_printed, result) in smoke.items():
        assert result["metrics"]["failed_share"]["value"] == pins[workload]["failed_share"]
