"""The two pipelines the benchmark times, their output gates, the closed loop
that drives them, and the end-to-end metrics computed from its records.

exact: validate_presentation -> to_circular -> build -> embedding_to_doc ->
       dumps_document -> json parse -> embedding_from_doc ->
       verify_stick_embedding            (build-stick -o, then verify)
eq:    validate_presentation -> build_equilateral -> check_equilateral +
       float check_simplicity(scale=M)   (build-eq, then verify)

Library functions are looked up on their modules at call time, so a tracer
that wraps them there sees every call.  The gates run after the clock stops.
Times are scaled to a reference CPU speed (bench_ref.py).
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from dataclasses import dataclass, field

from bench_ref import SpeedSampler, Stopwatch

from stickforge import (
    arc_presentation,
    circular_diagram,
    documents,
    equilateral_builder,
    stick_builder,
    verifier,
)

PIPELINES = ("exact", "eq")
# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10
# what the library raises when it declines an input; any other exception,
# and any returned output that fails its gate, is a wrong answer
REFUSALS = (
    arc_presentation.PresentationError,
    stick_builder.BuildError,
    equilateral_builder.EquilateralError,
    documents.DocumentError,
)


@dataclass
class Run:
    """One pipeline run on one presentation."""

    watch: Stopwatch
    error: str = ""     # exception type name, or the first failed check
    wrong: bool = False  # a failed gate or an exception outside REFUSALS
    counts: dict = field(default_factory=dict)
    scale: float = 1.0   # set by Records.finish from the speed samples

    @property
    def seconds(self) -> float:
        """Wall time, less the speed sampler's share."""
        return self.watch.seconds

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def _raised(watch, err: Exception) -> Run:
    return Run(watch, type(err).__name__, wrong=not isinstance(err, REFUSALS))


def exact_job(ap, watch: Stopwatch) -> Run:
    try:
        with watch:
            vp = arc_presentation.validate_presentation(ap)
            cd = circular_diagram.to_circular(vp)
            se = stick_builder.build(cd)
            text = documents.dumps_document(documents.embedding_to_doc(se))
            se2 = documents.embedding_from_doc(json.loads(text))
            report = verifier.verify_stick_embedding(se2, cd)
    except Exception as err:   # a job boundary: counted by type, the loop goes on
        return _raised(watch, err)
    want = vp.n + cd.counts[2]
    error = ""
    if not report.ok:
        error = "verify: " + report.failures()[0].check
    elif len(se2.sticks) != want:
        error = f"sticks: {len(se2.sticks)} listed, n + n_0 = {want}"
    elif stick_builder.count_sticks(se2) != want:
        error = f"sticks: {stick_builder.count_sticks(se2)} maximal segments, n + n_0 = {want}"
    coords = [c for s in se2.sticks for p in (s.a, s.b) for c in p]
    counts = {
        "arcs": vp.n,
        "crossings": len(cd.crossings),
        "sticks": len(se2.sticks),
        "height_bits": max(se2.heights.values()).bit_length(),
        "coord_bits": max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coords),
        "doc_bytes": len(text.encode()),
        "simplicity_pairs": _pairs(len(se2.sticks)),
    }
    return Run(watch, error, bool(error), counts)


def eq_job(ap, watch: Stopwatch) -> Run:
    try:
        with watch:
            vp = arc_presentation.validate_presentation(ap)
            emb = equilateral_builder.build_equilateral(vp)
            eq_report = verifier.check_equilateral(emb)
            simple = verifier.check_simplicity([(s.a, s.b) for s in emb.sticks], scale=emb.M)
    except Exception as err:   # a job boundary: counted by type, the loop goes on
        return _raised(watch, err)
    want = expected_eq_sticks(vp)
    error = ""
    if emb.certificate is None or not emb.certificate.passed:
        error = "certificate not passed"
    elif not eq_report.ok:
        error = "check_equilateral: " + eq_report.failures()[0].check
    elif not simple.ok:
        error = "check_simplicity: " + simple.failures()[0].witness
    elif len(emb.sticks) != want:
        error = f"sticks: {len(emb.sticks)}, sum of 2 n_i - 1 = {want}"
    counts = {
        "arcs": vp.n,
        "sticks": len(emb.sticks),
        "simplicity_pairs": _pairs(len(emb.sticks)),
        "min_clearance_rel": emb.tolerance.min_clearance_rel if emb.tolerance else math.nan,
    }
    return Run(watch, error, bool(error), counts)


def expected_eq_sticks(vp) -> int:
    """Sum of 2 n_i - 1 over the components the builder reduces: each
    abstract component on its own when the declared split count k equals
    their number, else the whole presentation as one."""
    comps = vp.vgraph.components
    k = vp.params.k if vp.params is not None else 1
    if len(comps) > 1 and k == len(comps):
        comp_of_edge = {eid: i for i, comp in enumerate(comps) for eid, a, _ in vp.graph.edges if a in comp}
        arcs = [0] * len(comps)
        for arc in vp.arcs:
            arcs[comp_of_edge[arc.edge]] += 1
        return sum(2 * n - 1 for n in arcs)
    return 2 * vp.n - 1


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


JOBS = {"exact": exact_job, "eq": eq_job}


@dataclass
class Records:
    """Runs per pipeline per presentation, in job order."""

    jobs: list
    sampler: SpeedSampler
    runs: dict = field(default_factory=dict)
    passes: int = 0

    def __post_init__(self):
        self.runs = {p: [[] for _ in self.jobs] for p in PIPELINES}

    def run_pass(self, deadline: float | None = None) -> None:
        """One pass over the jobs, both pipelines each; stops early, after
        the current job, once the deadline has passed."""
        for i in range(len(self.jobs)):
            for pipeline in PIPELINES:
                self.run_one(i, pipeline)
            if deadline is not None and time.perf_counter() >= deadline:
                return
        self.passes += 1

    def run_one(self, i: int, pipeline: str, tracer=None) -> None:
        """Run job i through one pipeline, traced if a tracer is given."""
        # one job's garbage is not collected on the next job's time
        gc.collect()
        watch = Stopwatch(self.sampler, tracer, f"bench.job.{pipeline}")
        if tracer is None:
            self.runs[pipeline][i].append(JOBS[pipeline](self.jobs[i].presentation, watch))
            return
        tracer.job, tracer.pipeline = job_id(self.passes, i, pipeline), pipeline
        tracer.install()
        try:
            self.runs[pipeline][i].append(JOBS[pipeline](self.jobs[i].presentation, watch))
        finally:
            tracer.uninstall()

    def finish(self) -> None:
        """Scale every run by the speed sampled around it; call once the
        sampler has run past the last job."""
        for per_job in self.runs.values():
            for runs in per_job:
                for run in runs:
                    run.scale = run.watch.scale


def job_id(pass_no: int, index: int, pipeline: str) -> str:
    return f"{pass_no}:{index}:{pipeline}"


def closed_loop(jobs, seconds: float, sampler: SpeedSampler) -> Records:
    """One caller runs the jobs in order, again and again, each after the
    previous one returned, until `seconds` have passed and every job ran."""
    records = Records(jobs, sampler)
    start = time.perf_counter()
    records.run_pass()
    while time.perf_counter() - start < seconds:
        records.run_pass(deadline=start + seconds)
    return records


def alternating_loop(jobs, seconds: float, sampler: SpeedSampler, tracer) -> tuple[Records, Records]:
    """Every job runs untraced and traced back to back, which one first
    alternating from job to job, so that both see the same host speed and
    warm-up; whole passes only, until `seconds` have passed."""
    plain, traced = Records(jobs, sampler), Records(jobs, sampler)
    start = time.perf_counter()
    while True:
        for i in range(len(jobs)):
            for pipeline in PIPELINES:
                if (i + plain.passes) % 2:
                    traced.run_one(i, pipeline, tracer)
                    plain.run_one(i, pipeline)
                else:
                    plain.run_one(i, pipeline)
                    traced.run_one(i, pipeline, tracer)
        plain.passes += 1
        traced.passes += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# end-to-end metrics


@dataclass
class Metric:
    name: str
    value: float | None
    unit: str
    samples: int
    note: str = ""


def quantile(values: list[float], q: float) -> float:
    """The median for q = 0.5, else the nearest-rank quantile; failures are
    +inf and rank after every success."""
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(records: Records, setup_s: float, peak_rss_mb: float) -> list[Metric]:
    jobs = records.jobs
    out = [Metric("setup_s", setup_s, "s", 1, "median of the set-ups in this run"),
           Metric("peak_rss_mb", peak_rss_mb, "MB", 1)]
    for pipeline in PIPELINES:
        per_job = records.runs[pipeline]
        runs = [r for rs in per_job for r in rs]
        # a presentation's time is the median of its runs' scaled times; it
        # counts as failed if any of its runs failed
        ok = [all(r.ok for r in rs) for rs in per_job]
        med = [statistics.median(r.scaled for r in rs) for rs in per_job]
        total = sum(med)
        passed_arcs = sum(job.arcs for job, good in zip(jobs, ok) if good)
        ranked = [m if good else math.inf for m, good in zip(med, ok)]
        n = len(jobs)
        failed = ok.count(False) / n
        out.append(Metric(f"{pipeline}.arcs_per_s", passed_arcs / total, "arcs/s", n,
                          "arcs of passed presentations / summed median time of all"))
        tails = (0.5, 0.9) if n - math.ceil(0.9 * n) >= TAIL_SAMPLES else (0.5,)
        for q in tails:
            value = quantile(ranked, q)
            out.append(Metric(f"{pipeline}.latency_p{round(q * 100)}_s",
                              None if value == math.inf else value, "s", n,
                              "lands on a failed job" if value == math.inf else ""))
        # per presentation, so that a partial last pass does not move it
        note = f"of {n} presentations; {sum(not r.ok for r in runs)} of {len(runs)} runs failed"
        out.append(Metric(f"{pipeline}.failed_frac", failed, "ratio", n, note))
        out.append(Metric(f"{pipeline}.pass_frac", 1 - failed, "ratio", n, note))
        if pipeline == "exact":
            bits = [rs[0].counts["height_bits"] for rs, good in zip(per_job, ok) if good]
            out.append(Metric("exact.max_height_bits", max(bits) if bits else None, "bits", len(bits)))
            out.append(Metric("exact.mean_height_bits", statistics.mean(bits) if bits else None,
                              "bits", len(bits)))
    return out


def failure_types(*records: Records) -> dict[str, dict[str, int]]:
    """Count of failed runs per pipeline and error."""
    out: dict[str, dict[str, int]] = {p: {} for p in PIPELINES}
    for rec in records:
        for pipeline, per_job in rec.runs.items():
            for r in (r for rs in per_job for r in rs if not r.ok):
                out[pipeline][r.error] = out[pipeline].get(r.error, 0) + 1
    return out
