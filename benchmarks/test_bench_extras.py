"""Benchmarks for the section-level extras."""

from conftest import run_and_report


def test_bench_section52(benchmark, bench_study):
    report = run_and_report(benchmark, "section52", bench_study)
    assert report.rows


def test_bench_section53(benchmark, bench_study):
    report = run_and_report(benchmark, "section53", bench_study)
    assert report.data["cross_store_identity_groups"] > 0


def test_bench_section64(benchmark, bench_study):
    report = run_and_report(benchmark, "section64", bench_study)
    assert report.data["malware_units"] > 0


def test_bench_fidelity(benchmark, bench_study):
    report = run_and_report(benchmark, "fidelity", bench_study)
    assert report.rows
