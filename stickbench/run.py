"""stickforge benchmark: time to a certified embedding.

    python3 stickbench/run.py --workload random-small --seed 0 --seconds 30 --trace 0

Run from the repository root.  One process and one thread run the
workload's presentations as a closed loop with one caller, each through
the exact and the equal-length pipeline (see bench_jobs.py), and check
every output.  --trace 0 prints the end-to-end metrics; --trace 1 runs
every job untraced and traced back to back, prints the per-layer metrics
and writes the spans and equal-length attempts under stickbench/results/,
where every run also writes its input profile.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from bench_ref import WINDOW, SpeedSampler, Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 7


def gated() -> list[str]:
    """The end-to-end metrics of the JSON line, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("random-small", "random-large", "theta-fan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setup(workload: str, seed: int, sampler):
    """Import stickforge and make the workload, SETUP_REPEATS times from a
    clean module table; returns the median scaled time and the last results."""
    watches = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] in ("stickforge", "bench_workloads")]:
            del sys.modules[name]
        watch = Stopwatch(sampler)
        with watch:
            workloads = importlib.import_module("bench_workloads")
            jobs = workloads.make(workload, seed)
        watches.append(watch)
    time.sleep(WINDOW)   # speed samples after the last set-up
    return statistics.median(w.seconds * w.scale for w in watches), workloads, jobs


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "stickforge" / "__init__.py").is_file():
        print(f"error: no stickforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with SpeedSampler() as sampler:
        return measure(args, sampler)


def measure(args, sampler) -> int:
    setup_s, workloads, jobs = timed_setup(args.workload, args.seed, sampler)
    # imported after set-up so that they bind the modules the jobs will use
    import bench_jobs
    import bench_trace

    digest = workloads.digest(jobs)
    profile = workloads.size_profile(jobs)
    print(f"workload {args.workload}  seed {args.seed}  {len(jobs)} presentations  {digest}")
    print(f"selection: {workloads.selection_rule(args.workload)}")
    print("size profile: n {}-{}, crossings {}-{}, n_0 {}-{}, hub degree {}-{}".format(
        *(f(r[k] for r in profile) for k in ("n", "crossings", "n0", "hub_degree") for f in (min, max))))
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}"
    with open(f"{stem}-inputs.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "digest": digest,
                   "selection": workloads.selection_rule(args.workload), "jobs": profile}, fh, indent=1)

    if args.trace:
        tracer = bench_trace.Tracer(sampler)
        try:
            plain, traced = bench_jobs.alternating_loop(jobs, args.seconds, sampler, tracer)
            time.sleep(WINDOW)
            plain.finish()
            traced.finish()
        finally:
            tracer.write(f"{stem}-spans.jsonl", f"{stem}-attempts.jsonl")
            print(f"wrote {len(tracer.spans)} spans and {len(tracer.attempts)} attempts to {stem}-*")
        values = bench_trace.per_layer(tracer, plain, traced)
        units = dict(bench_trace.per_layer_units())
        print(f"traced passes {traced.passes}, untraced passes {plain.passes}")
        for name, unit in units.items():
            print(f"  {name:<52} {values[name]:>14.6g} {unit}")
        report_attempts(tracer)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        records_for_result = (plain, traced)
    else:
        records = bench_jobs.closed_loop(jobs, args.seconds, sampler)
        time.sleep(WINDOW)   # speed samples after the last job
        records.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = bench_jobs.end_to_end(records, setup_s, peak_rss_mb)
        runs = [r for p in records.runs.values() for rs in p for r in rs]
        print(f"closed loop, 1 caller: {records.passes} whole passes, {len(runs)} runs; "
              f"wall {sum(r.seconds for r in runs):.3f} s, scaled {sum(r.scaled for r in runs):.3f} s")
        print_end_to_end(e2e)
        by_name = {m.name: m for m in e2e}
        names = gated()
        missing = [name for name in names if by_name[name].value is None]
        if missing:
            print(f"error: {', '.join(missing)} not measurable on this run", file=sys.stderr)
            return 1
        metrics = {name: {"value": by_name[name].value, "unit": by_name[name].unit} for name in names}
        records_for_result = (records,)

    for pipeline, kinds in bench_jobs.failure_types(*records_for_result).items():
        if kinds:
            print(f"{pipeline} failures: " + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())))
    runs = [r for rec in records_for_result for p in rec.runs.values() for rs in p for r in rs]
    result = {
        "correct": not any(r.wrong for r in runs),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if not r.ok),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_end_to_end(metrics) -> None:
    for m in metrics:
        shown = "n/a" if m.value is None else f"{m.value:.6g}"
        note = f"  [{m.note}]" if m.note else ""
        print(f"  {m.name:<24} {shown:>12} {m.unit:<7} (samples {m.samples}){note}")


def report_attempts(tracer) -> None:
    """Every equal-length attempt of a job in which one failed."""
    by_job: dict[str, list] = {}
    for a in tracer.attempts:
        by_job.setdefault(a["job"], []).append(a)
    for job, attempts in by_job.items():
        if any(a["outcome"] != "ok" for a in attempts):
            ladder = ", ".join(f"M={a['M']:g}:{a['outcome']}" for a in attempts)
            print(f"eq attempts of job {job}: {ladder}")
            print(f"  last detail: {attempts[-1]['detail']}")


if __name__ == "__main__":
    sys.exit(main())
