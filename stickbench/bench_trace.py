"""Span and retry recording around stickforge's public functions.

The tracer replaces each function below by a wrapper in its own module
namespace while it is installed, and puts the originals back on removal.
The builders and the verifier call their helpers as module globals, so
nested calls (build -> clearance_height, build_component -> build_tents,
verify_stick_embedding -> check_simplicity, ...) are recorded too.  Nothing
in the package itself is edited.

A span is (id, name, start, end, parent id, job id, self time), kept in
memory and written out as JSON lines when the run ends.  Self time is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time

from bench_jobs import job_id

WRAPPED = {
    "arc_presentation": ("validate_presentation", "split_components"),
    "circular_diagram": ("to_circular",),
    "stick_builder": ("build", "clearance_height"),
    "documents": ("embedding_to_doc", "embedding_from_doc"),
    "verifier": ("verify_stick_embedding", "check_projection", "check_crossing_order",
                 "check_equilateral", "check_simplicity"),
    "equilateral_builder": ("build_equilateral", "build_component", "build_tents", "reduce_top",
                            "isotopy_certificate", "tolerance_report", "assemble_split"),
}
# check_simplicity runs on exact and on float coordinates; its spans are
# named by the pipeline that called it
SPLIT_BY_PIPELINE = {"verifier.check_simplicity"}
COORDINATES = {"exact": "exact", "eq": "float"}
ROOT_SPANS = tuple(f"bench.job.{p}" for p in COORDINATES)
# the reasons build_component gives up on one M and doubles it
ATTEMPT_FAILURES = ("MTooSmall", "NoRotationSolution", "ClearanceViolation", "CertificateFailure")


def span_names() -> list[str]:
    names = list(ROOT_SPANS)
    for module, funcs in WRAPPED.items():
        for func in funcs:
            name = f"{module}.{func}"
            if name in SPLIT_BY_PIPELINE:
                names.extend(f"{name}.{c}" for c in COORDINATES.values())
            else:
                names.append(name)
    return names


class Tracer:
    """Records spans and equal-length attempts while installed."""

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []
        self.attempts: list[dict] = []
        self.job: str | None = None
        self.pipeline: str | None = None
        self.moves = 0
        self.sweep_rad = 0.0
        self.hub_degree_max = 0
        self._ids = itertools.count()
        # [span id, name, start, child time, sampler busy at start]
        self._stack: list[list] = []
        self._originals: list[tuple] = []
        self._component_calls = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "equilateral_builder.build_component": self._on_build_component,
            "equilateral_builder.build_tents": self._on_build_tents,
            "equilateral_builder.reduce_top": self._on_reduce_top,
            "equilateral_builder.isotopy_certificate": self._on_certificate,
            "equilateral_builder.tolerance_report": self._on_tolerance,
        }
        for module_name, funcs in WRAPPED.items():
            module = importlib.import_module(f"stickforge.{module_name}")
            for func in funcs:
                name = f"{module_name}.{func}"
                original = getattr(module, func)
                self._originals.append((module, func, original))
                setattr(module, func, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._originals:
            module, func, original = self._originals.pop()
            setattr(module, func, original)

    def _wrap(self, name, fn, hook):
        split = name in SPLIT_BY_PIPELINE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{COORDINATES[self.pipeline]}" if split else name
            if hook is not None:
                hook("enter", args, kwargs, None, None)
            self.open(label)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.close()
                if hook is not None:
                    hook("exit", args, kwargs, None, err)
                raise
            self.close()
            if hook is not None:
                hook("exit", args, kwargs, result, None)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([next(self._ids), name, time.perf_counter(), 0.0, self.sampler.busy])

    def close(self) -> float:
        """End the innermost span; returns its duration less the speed
        sampler's time in it."""
        end = time.perf_counter()
        span_id, name, start, child, busy = self._stack.pop()
        dur = end - start - (self.sampler.busy - busy)
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((span_id, name, start - self.t0, end - self.t0, parent, self.job, dur - child))
        return dur

    # -- equal-length attempts ---------------------------------------------

    def _on_build_component(self, phase, args, kwargs, result, err):
        if phase == "enter":
            self._component_calls += 1
            return
        last = self.attempts[-1] if self.attempts else None
        if last is not None and last["job"] == self.job and last["outcome"] is None:
            last["outcome"] = "ok" if err is None else type(err).__name__

    def _on_build_tents(self, phase, args, kwargs, result, err):
        if phase == "enter":
            last = self.attempts[-1] if self.attempts else None
            if (last is not None and last["outcome"] is None
                    and last["call"] == self._component_calls):
                # passed the certificate but build_component still retried:
                # the only remaining reason is the final clearance floor
                last["outcome"] = "ClearanceViolation"
            M = kwargs["M"] if "M" in kwargs else args[1]
            component = kwargs.get("component", args[2] if len(args) > 2 else 0)
            self.attempts.append({"job": self.job, "call": self._component_calls,
                                  "component": component, "M": M, "outcome": None,
                                  "detail": "", "min_clearance": None})
        elif err is not None:
            self._fail_attempt(err)

    def _on_reduce_top(self, phase, args, kwargs, result, err):
        if phase == "enter":
            return
        if err is not None:
            self._fail_attempt(err)
        else:
            self.hub_degree_max = max(self.hub_degree_max, len(result.components[0].deleted_tags))

    def _on_certificate(self, phase, args, kwargs, result, err):
        if phase == "enter" or err is not None:
            return
        after = args[1] if len(args) > 1 else kwargs["after"]
        for move in after.components[0].moves:
            self.moves += 1
            self.sweep_rad += abs(move.phi_end - move.phi_start)
        if self.attempts:
            self.attempts[-1]["detail"] = result.detail
            if not result.passed:
                self.attempts[-1]["outcome"] = "CertificateFailure"

    def _on_tolerance(self, phase, args, kwargs, result, err):
        if phase == "exit" and err is None and self.attempts and self.attempts[-1]["outcome"] is None:
            self.attempts[-1]["min_clearance"] = result.min_clearance

    def _fail_attempt(self, err: Exception) -> None:
        if self.attempts and self.attempts[-1]["outcome"] is None:
            self.attempts[-1]["outcome"] = type(err).__name__
            self.attempts[-1]["detail"] = str(err)

    # -- results ----------------------------------------------------------

    def layer_totals(self, scale: dict[str, float]) -> dict[str, tuple[int, float]]:
        """(calls, scaled self seconds) per span name, every known name
        present; `scale` maps a job id to its run's speed scale."""
        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        for _, name, _, _, _, job, self_time in self.spans:
            calls[name] += 1
            self_s[name] += self_time * scale[job]
        return {name: (calls[name], self_s[name]) for name in calls}

    def attempt_counts(self) -> dict[str, float]:
        finished = [a for a in self.attempts if a["outcome"] is not None]
        successes = sum(1 for a in finished if a["outcome"] == "ok")
        out = {
            "equilateral_builder.attempts": len(self.attempts),
            # with no success at all this is the attempt count itself
            "equilateral_builder.attempts_per_success": len(self.attempts) / max(successes, 1),
            "equilateral_builder.moves": self.moves,
            "equilateral_builder.sweep_rad": self.sweep_rad,
            "equilateral_builder.hub_degree_max": self.hub_degree_max,
        }
        for reason in ATTEMPT_FAILURES:
            out[f"equilateral_builder.failures.{reason}"] = sum(
                1 for a in finished if a["outcome"] == reason)
        return out

    def write(self, spans_path, attempts_path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job", "self")
        with open(spans_path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        with open(attempts_path, "w") as fh:
            for attempt in self.attempts:
                fh.write(json.dumps({k: v for k, v in attempt.items() if k != "call"}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

COUNTS = (
    ("circular_diagram.crossings", "count"),
    ("stick_builder.sticks", "count"),
    ("stick_builder.max_height_bits", "bits"),
    ("stick_builder.coord_bits_max", "bits"),
    ("documents.bytes", "bytes"),
    ("verifier.simplicity_pairs.exact", "count"),
    ("verifier.simplicity_pairs.float", "count"),
    ("equilateral_builder.attempts", "count"),
    ("equilateral_builder.attempts_per_success", "ratio"),
    ("equilateral_builder.moves", "count"),
    ("equilateral_builder.sweep_rad", "rad"),
    ("equilateral_builder.hub_degree_max", "count"),
    ("equilateral_builder.min_clearance_rel", "ratio"),
    *((f"equilateral_builder.failures.{reason}", "count") for reason in ATTEMPT_FAILURES),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_over_untraced", "ratio"),
)


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    return out + list(COUNTS)


def per_layer(tracer: Tracer, plain, traced) -> dict[str, float]:
    """Per traced pass: calls and self time of every span name, work and
    health counts, and the tracing overhead against the untraced runs of
    the same jobs."""
    passes = traced.passes
    scale = {job_id(k, i, pipeline): run.scale
             for pipeline, per_job in traced.runs.items()
             for i, runs in enumerate(per_job) for k, run in enumerate(runs)}
    out: dict[str, float] = {}
    total_self = 0.0
    for name, (calls, self_s) in tracer.layer_totals(scale).items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_s"] = self_s / passes
        total_self += self_s / passes

    exact = [rs[0] for rs in traced.runs["exact"] if rs[0].ok]
    eq = [rs[0] for rs in traced.runs["eq"] if rs[0].ok]
    clearances = [r.counts["min_clearance_rel"] for r in eq]
    out.update({
        "circular_diagram.crossings": sum(r.counts["crossings"] for r in exact),
        "stick_builder.sticks": sum(r.counts["sticks"] for r in exact),
        "stick_builder.max_height_bits": max((r.counts["height_bits"] for r in exact), default=0),
        "stick_builder.coord_bits_max": max((r.counts["coord_bits"] for r in exact), default=0),
        "documents.bytes": sum(r.counts["doc_bytes"] for r in exact),
        "verifier.simplicity_pairs.exact": sum(r.counts["simplicity_pairs"] for r in exact),
        "verifier.simplicity_pairs.float": sum(r.counts["simplicity_pairs"] for r in eq),
        # 0 when no equal-length build was certified at all
        "equilateral_builder.min_clearance_rel": min(clearances, default=0.0),
    })
    for name, value in tracer.attempt_counts().items():
        out[name] = value if name.endswith(("_per_success", "_max")) else value / passes

    def job_seconds(records) -> float:
        return sum(r.scaled for p in records.runs.values() for rs in p for r in rs) / records.passes

    untraced = job_seconds(plain)
    out["trace.overhead_frac"] = job_seconds(traced) / untraced - 1.0
    out["trace.self_sum_over_untraced"] = total_self / untraced
    return {name: out[name] for name, _ in per_layer_units()}
