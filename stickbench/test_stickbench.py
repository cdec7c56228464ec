"""Self-tests of the benchmark.

    python3 -m pytest stickbench -q

Reduced runs take the smallest presentations of each workload so that the
whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench_jobs
import bench_trace
import bench_workloads
import run
from bench_ref import SpeedSampler
from stickforge import equilateral_builder
from stickforge.equilateral_builder import CertificateReport

HERE = Path(__file__).resolve().parent
# every end-to-end metric the report names, with its unit
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact.arcs_per_s": "arcs/s",
    "exact.latency_p50_s": "s",
    "exact.failed_frac": "ratio",
    "exact.pass_frac": "ratio",
    "exact.max_height_bits": "bits",
    "exact.mean_height_bits": "bits",
    "eq.arcs_per_s": "arcs/s",
    "eq.latency_p50_s": "s",
    "eq.failed_frac": "ratio",
    "eq.pass_frac": "ratio",
}
REDUCED = {"random-small": 6, "random-large": 3, "theta-fan": 3}


def reduced(workload: str, seed: int = 0):
    jobs = bench_workloads.make(workload, seed)
    return sorted(jobs, key=lambda job: job.arcs)[:REDUCED[workload]]


def measured(jobs, seconds: float = 0.0):
    with SpeedSampler() as sampler:
        records = bench_jobs.closed_loop(jobs, seconds, sampler)
        records.finish()
    return records


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_reduced_run_prints_every_metric_with_unit(workload, capsys):
    records = measured(reduced(workload))
    metrics = bench_jobs.end_to_end(records, setup_s=0.01, peak_rss_mb=30.0)
    run.print_end_to_end(metrics)
    out = capsys.readouterr().out
    for name, unit in E2E_UNITS.items():
        line = next(line for line in out.splitlines() if line.split()[0] == name)
        assert f" {unit} " in line and "(samples " in line, line
    by_name = {m.name: m for m in metrics}
    assert all(by_name[name].value is not None for name in run.gated())


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m.name: m.unit for m in bench_jobs.end_to_end(measured(reduced("theta-fan")), 0.1, 1.0)}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: units[name] for name in run.gated()}
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == bench_trace.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(bench_workloads.WORKLOADS)


def test_p90_only_with_ten_samples_beyond():
    jobs = [bench_workloads.Job(str(i), SimpleNamespace(arcs=(None,) * 3)) for i in range(100)]

    def records_of(n):
        rec = bench_jobs.Records(jobs[:n], sampler=None)
        for pipeline in bench_jobs.PIPELINES:
            for i in range(n):
                rec.runs[pipeline][i].append(bench_jobs.Run(
                    SimpleNamespace(seconds=0.01 * (i + 1)), counts={"height_bits": 3}))
        return rec

    with_tail = {m.name: m for m in bench_jobs.end_to_end(records_of(100), 0.1, 1.0)}
    assert with_tail["exact.latency_p90_s"].value == pytest.approx(0.90)
    assert with_tail["exact.latency_p90_s"].samples == 100
    without = {m.name for m in bench_jobs.end_to_end(records_of(99), 0.1, 1.0)}
    assert "exact.latency_p90_s" not in without and "eq.latency_p90_s" not in without


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_digest_follows_the_seed(workload):
    first = bench_workloads.digest(bench_workloads.make(workload, 0))
    again = bench_workloads.digest(bench_workloads.make(workload, 0))
    other = bench_workloads.digest(bench_workloads.make(workload, 1))
    assert first == again
    assert first != other


def test_random_small_keeps_its_size_mix_across_seeds():
    def sizes(seed):
        return sorted(job.arcs for job in bench_workloads.make("random-small", seed))

    assert sizes(0) == sizes(7)
    assert len(sizes(0)) == 112


def test_forced_certificate_failure_counts_and_is_not_dropped(monkeypatch):
    jobs = reduced("theta-fan")
    doomed = jobs[0].arcs
    honest = equilateral_builder.isotopy_certificate

    def certificate(before, after, layout=None):
        if after.components[0].n_arcs == doomed:
            return CertificateReport(passed=False, detail="forced by the test")
        return honest(before, after, layout)

    monkeypatch.setattr(equilateral_builder, "isotopy_certificate", certificate)
    with SpeedSampler() as sampler:
        tracer = bench_trace.Tracer(sampler)
        records = bench_jobs.Records(jobs, sampler)
        for i in range(len(jobs)):
            for pipeline in bench_jobs.PIPELINES:
                records.run_one(i, pipeline, tracer)
        records.finish()

    assert [len(runs) for runs in records.runs["eq"]] == [1] * len(jobs)
    assert records.runs["eq"][0][0].error == "CertificateFailure"
    assert not records.runs["eq"][0][0].wrong
    by_name = {m.name: m for m in bench_jobs.end_to_end(records, 0.1, 1.0)}
    assert by_name["eq.failed_frac"].value == pytest.approx(1 / len(jobs))
    assert by_name["eq.failed_frac"].samples == len(jobs)
    assert bench_jobs.failure_types(records)["eq"] == {"CertificateFailure": 1}

    # every M the builder tried for the doomed job, and why each failed
    doomed_job = bench_jobs.job_id(0, 0, "eq")
    attempts = [a for a in tracer.attempts if a["job"] == doomed_job]
    assert len(attempts) == equilateral_builder.MAX_RETRIES + 1
    assert {a["outcome"] for a in attempts} == {"CertificateFailure"}
    assert {a["detail"] for a in attempts} == {"forced by the test"}
    assert [a["M"] for a in attempts] == [attempts[0]["M"] * 2 ** k for k in range(len(attempts))]
    counts = tracer.attempt_counts()
    assert counts["equilateral_builder.failures.CertificateFailure"] == len(attempts)


def test_trace_self_times_add_up_to_job_time():
    jobs = reduced("random-small")
    with SpeedSampler() as sampler:
        tracer = bench_trace.Tracer(sampler)
        plain, traced = bench_jobs.alternating_loop(jobs, 0.0, sampler, tracer)
        plain.finish()
        traced.finish()
    values = bench_trace.per_layer(tracer, plain, traced)
    assert [name for name, _ in bench_trace.per_layer_units()] == list(values)
    assert all(math.isfinite(v) for v in values.values())
    self_sum = sum(v for name, v in values.items() if name.endswith(".self_s"))
    job_sum = sum(r.scaled for p in traced.runs.values() for rs in p for r in rs)
    assert self_sum == pytest.approx(job_sum, rel=1e-9)
    # nested calls are seen: the builders call their helpers as module globals
    assert values["stick_builder.clearance_height.calls"] > 0
    assert values["equilateral_builder.build_tents.calls"] > 0
    assert values["verifier.check_simplicity.exact.calls"] == len(jobs)
    assert values["verifier.check_simplicity.float.calls"] == len(jobs)
    # the tracer puts every original function back
    assert equilateral_builder.build_tents.__module__ == "stickforge.equilateral_builder"
    assert not hasattr(equilateral_builder.build_tents, "__wrapped__")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "theta-fan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
