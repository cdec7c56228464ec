"""Workloads of the stickforge benchmark.

A workload is a list of presentations made from the workload seed alone; the
program under test receives only these presentations.  Why each workload
exists, and what it should and should not move, is in README.md next to
this file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from stickforge.arc_presentation import ArcPresentation, catalog, validate_presentation
from stickforge.circular_diagram import to_circular
from stickforge.documents import dumps_document, presentation_to_doc
from stickforge.randgen import random_presentation

WORKLOADS = ("random-small", "random-large", "theta-fan")

SMALL_PROFILES = ("knot", "bouquet", "theta", "multi")
SMALL_MAX_ARCS = 40
# Exact arc counts, 28 per profile.  The seed redraws the layouts but keeps
# the size mix: with sizes left to chance, the per-seed size mix alone moves
# the median job time by about a quarter.  The multi ladder is shifted up
# because two or three components rarely total fewer than 10 arcs.
SMALL_SIZES = {
    "knot": tuple(round(6 + i * 34 / 27) for i in range(28)),
    "bouquet": tuple(round(6 + i * 34 / 27) for i in range(28)),
    "theta": tuple(round(6 + i * 34 / 27) for i in range(28)),
    "multi": tuple(range(10, 38)),
}
# stream seeds of workload seed s are s * STREAM_STRIDE + j, j = 0, 1, ...
STREAM_STRIDE = 100_000
MAX_DRAWS = 20_000

LARGE_PROFILES = ("knot", "bouquet", "theta")
LARGE_MAX_ARCS = 150
LARGE_MIN_ARCS = 100
# random_presentation(21, "theta", 150) raises CertificateFailure in the
# equal-length builder after every M doubling; it stays in so that failures
# and retries are measured at the large end.
LARGE_KNOWN_FAILURE = (21, "theta")
LARGE_RULE = (
    f"fixed set: the first draw with {LARGE_MIN_ARCS} <= n <= {LARGE_MAX_ARCS} from "
    f"random_presentation(s, profile, {LARGE_MAX_ARCS}), s = 0, 1, ..., for each of "
    f"{', '.join(LARGE_PROFILES)}, plus random_presentation({LARGE_KNOWN_FAILURE[0]}, "
    f"'{LARGE_KNOWN_FAILURE[1]}', {LARGE_MAX_ARCS}); every one is kept whatever its "
    "outcome; the workload seed permutes the job order only"
)

THETA_FAN_SIZES = tuple(range(8, 65, 8))


@dataclass(frozen=True)
class Job:
    label: str
    presentation: ArcPresentation

    @property
    def arcs(self) -> int:
        return len(self.presentation.arcs)


def make(workload: str, seed: int) -> list[Job]:
    """The workload's presentations, in the order the closed loop runs them."""
    if workload == "random-small":
        return _random_small(seed)
    if workload == "random-large":
        return _shuffled(_random_large(), workload, seed)
    if workload == "theta-fan":
        jobs = [Job(f"theta_trivial({n})", catalog(f"theta_trivial({n})")) for n in THETA_FAN_SIZES]
        return _shuffled(jobs, workload, seed)
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def selection_rule(workload: str) -> str:
    if workload == "random-small":
        return (f"per profile in {', '.join(SMALL_PROFILES)}: for each arc count of the profile's "
                f"ladder, the first draw of random_presentation(seed * {STREAM_STRIDE} + j, "
                f"profile, {SMALL_MAX_ARCS}), j = 0, 1, ..., with exactly that count")
    if workload == "random-large":
        return LARGE_RULE
    return (f"theta_trivial(n) for n in {list(THETA_FAN_SIZES)}; "
            "the workload seed permutes the job order only")


def _random_small(seed: int) -> list[Job]:
    jobs: list[Job] = []
    for profile in SMALL_PROFILES:
        found: dict[int, Job] = {}
        wanted = set(SMALL_SIZES[profile])
        for j in range(MAX_DRAWS):
            s = seed * STREAM_STRIDE + j
            ap = random_presentation(s, profile, SMALL_MAX_ARCS)
            n = len(ap.arcs)
            if n in wanted and n not in found:
                found[n] = Job(f"random_presentation({s}, '{profile}', {SMALL_MAX_ARCS})", ap)
                if len(found) == len(wanted):
                    break
        else:
            raise RuntimeError(f"{profile}: sizes {sorted(wanted - set(found))} not drawn "
                               f"in {MAX_DRAWS} draws")
        jobs.extend(found[n] for n in sorted(found))
    return jobs


def _random_large() -> list[Job]:
    jobs = []
    for profile in LARGE_PROFILES:
        s = 0
        while True:
            ap = random_presentation(s, profile, LARGE_MAX_ARCS)
            if LARGE_MIN_ARCS <= len(ap.arcs) <= LARGE_MAX_ARCS:
                break
            s += 1
        jobs.append(Job(f"random_presentation({s}, '{profile}', {LARGE_MAX_ARCS})", ap))
    s, profile = LARGE_KNOWN_FAILURE
    jobs.append(Job(f"random_presentation({s}, '{profile}', {LARGE_MAX_ARCS})",
                    random_presentation(s, profile, LARGE_MAX_ARCS)))
    return jobs


def _shuffled(jobs: list[Job], workload: str, seed: int) -> list[Job]:
    random.Random(f"stickbench/{workload}/{seed}").shuffle(jobs)
    return jobs


def digest(jobs: list[Job]) -> str:
    """sha256 over the presentation documents, in job order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(dumps_document(presentation_to_doc(job.presentation)).encode())
    return "sha256:" + h.hexdigest()


def size_profile(jobs: list[Job]) -> list[dict]:
    """Per job: arcs n, binding points m, diagram crossings, non-initiating
    chords n_0, and the degree of the top binding point (the hub that the
    equal-length reduction trades away)."""
    rows = []
    for job in jobs:
        vp = validate_presentation(job.presentation)
        cd = to_circular(vp)
        top = vp.m - 1
        rows.append({
            "job": job.label,
            "n": vp.n,
            "m": vp.m,
            "crossings": len(cd.crossings),
            "n0": cd.counts[2],
            "hub_degree": sum(arc.ends.count(top) for arc in vp.arcs),
        })
    return rows
