"""Parity hashes: print the sha256 of each fixed output set, so that two
commits can be compared byte for byte.

    PYTHONPATH=src python tests/parity.py [SET ...]

Run it at both commits; equal lines mean equal outputs.  The sets are:

- eq-docs: the 171 equal-length documents, dumps_document(equilateral_to_doc(
  build_equilateral(vp))) concatenated, for the catalog, theta_trivial(8),
  (16) and (24), and random_presentation(s, p, 30) for p in PROFILES and
  s < 40, in that order.
- eq-checks: check_equilateral(emb).summary() and the float
  check_simplicity(segments, scale=M).summary() of each of those builds
  and of three shifted-end mutants of it: mutant j (j = 0, 1, 2) of build
  idx moves end a of stick (7 idx + j) mod N by 1e-3 M (j + 1) in every
  coordinate.  Each build is followed by its mutants.
- fan-checks: repr(tolerance_report(emb)), then (check, passed, witness)
  of every entry of check_equilateral(emb) and of the float
  check_simplicity(segments, scale=M), for emb = build_equilateral of
  theta_trivial(n), n = 8, 16, ..., 128, each followed by its three
  shifted-end mutants (mutant j of build idx as in eq-checks, idx counting
  from 0 at n = 8).  The witnesses carry the least clearances, which
  summary() leaves out of passing entries.
- fold-checks: the float check_simplicity(segments, scale=M).summary()
  of fold_mutant(emb, kind) for kind in FOLD_KINDS (an axis point, a tent
  apex, a joiner's end and a hub), each kind that the build has, for emb
  = build_equilateral of the catalog and of random_presentation(s, p, 30)
  for p in PROFILES and s < 10, in that order.
- exact-docs: the 240 exact documents, dumps_document(embedding_to_doc(
  build(cd))) concatenated, for the catalog, theta_trivial(2..64),
  random_presentation(s, p, 30) for p in PROFILES and s < 40, and
  random_presentation(s, p, 150) for p in knot, bouquet, theta and s < 3.
- exact-checks: for each of those 240 builds, repr((cd.crossings,
  cd.boundary)), then repr of (check, passed, witness) of every entry of
  verify_stick_embedding for the build and for its three mutants
  (exact_mutants): two that swap the levels of two pages drawn by
  random.Random(idx) in the sticks and the junctions, and one that drops
  stick (7 idx) mod N, idx counting builds from 0.
- exact-size: not a hash but a report of those 240 exact builds: the
  bytes of their documents, the largest bit-length of a numerator or
  denominator among their stick coordinates, and the sum over the builds
  of the bit-length of the top height.  Document size and height growth
  show here.
- exact-reads: for each of those 240 builds, repr(embedding_from_doc(doc))
  of doc = its exact document after a JSON round trip, then the outcome of
  reading seeded mutants of doc, each the repr of what was read or
  "DocumentError: <message>": "1/0", true, 1.5, [1] and null each placed
  at a coordinate whose string occurs earlier in reading order (sticks a
  then b, then the junctions), then at one whose string does not; "2/4"
  and an integer in -3..3 at any coordinate; and a stick less one of its
  fields.  Draws come from random.Random(idx), idx counting builds from 0.
- presentations: dumps_document(presentation_to_doc(random_presentation(
  s, p, n))) for p in PROFILES, n in GRID_SIZES and s < 60, in that order;
  a draw that raises contributes the exception's class name instead.
- workloads: the stickbench workload digests (bench_workloads.digest) at
  seeds 0 and 1, one line per workload and seed.
- certificates: repr((passed, moves, detail)) of the certificate of
  build_equilateral(vp) for every job of the stickbench workloads
  theta-fan, random-large and random-small at seed 1 (124 builds), in
  that order; a build that raises contributes the exception's class name.
  moves holds each sweep's recorded bound (CertificateReport), not its
  sampled minimum.
- cert-failures: repr((passed, moves, detail)) of isotopy_certificate for
  frames that fail, with each sweep's recorded bound as in certificates,
  the pinching sweep's being its sampled minimum.  Their sweeps stop
  early and so never reach the certificates set:
  random_presentation(1, "knot", 300) reduced at every M build_parts
  tries (it pinches at arc83.lower each time), the trefoil's tents at
  M = 20 against a tampered reduction (tampered), and the mid-sweep pinch
  frames (pinch_frame), swing and joiner, in that order.
- cull-work: not a hash but a report, per stickbench workload at seed 1.
  First one certificate line: the calls of the motion certificate's
  kernels (CERTIFICATE_KERNELS: its pair kernels, and _free_end, the
  sampled end that its rays and evaluations compute) made inside
  isotopy_certificate over the workload's builds.  Then, for
  each float pass, one line for the single frames (one component) and one
  for the assembled frames (several parts): the sticks of the frames the
  pass checks, the rows that the axis walk of their shared cull
  (_verifier_float._rows) builds for its heap, and the pairs it measures
  with the distance kernel seg_distance, counted where the pass calls it:
  in _verifier_float for tolerance_report and check_equilateral, which
  measure through _clearance, and in verifier for check_simplicity.  The
  certificate calls seg_distance as well, from _slot_clearance and from
  the nine-point hull of a mover's cone; _horizon takes its cone from
  _verifier_float._cone, which measures its distance by projection, not
  with seg_distance.  tolerance_report runs on every frame that
  build_equilateral hands it, check_equilateral and the float
  check_simplicity(segments, scale=M) on every build, as the benchmark's
  eq job runs them.  A change in what the culls prune shows
  here first.
- cert-ladder: not a hash but a report, one line per theta_trivial(n), n
  in CERT_LADDER (32, 64, 128, 256): the verdict of the motion certificate
  replayed on the tents and reduction at the default M, and the calls of
  its kernels (CERTIFICATE_KERNELS, _free_end included).  How those calls
  grow with the hub's degree shows here.
- validator: the outcome of validate_presentation on 3,072 mutants, one
  line each: "ok n e v m", or the exception's "type: message".  The bases
  are the catalog and random_presentation(s, p, n) for p in PROFILES,
  n in (4, 8, 20) and s < 10, in that order; each base gets VALIDATOR_DRAWS
  single, then double, then triple mutations (_mutate) from
  random.Random(base index).

Pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from functools import cache
from pathlib import Path

from stickforge import _verifier_float, equilateral_builder, verifier
from stickforge.arc_presentation import (BindingPoint, PresentationError, catalog, catalog_names,
                                         equal_length_parts, validate_presentation)
from stickforge.circular_diagram import to_circular
from stickforge.documents import (DocumentError, dumps_document, embedding_from_doc,
                                  embedding_to_doc, equilateral_to_doc, presentation_to_doc)
from stickforge.equilateral_builder import (CERT_CLEARANCE_REL, DEFAULT_M_FACTOR, MAX_RETRIES,
                                           SWEEP_STEP_RAD, EquilateralEmbedding, EStick,
                                           _free_end, build_equilateral, build_tents,
                                           isotopy_certificate, reduce_top, tolerance_report)
from stickforge.graph_core import GraphError
from stickforge.randgen import PROFILES, random_presentation
from stickforge.stick_builder import build
from stickforge.verifier import check_equilateral, check_simplicity, verify_stick_embedding

GRID_SIZES = (2, 3, 4, 6, 8, 12, 20, 40, 80, 150)
# the motion certificate's pair kernels and its sampled end, whose calls
# inside the certificate the cull-work and cert-ladder reports count
CERTIFICATE_KERNELS = ("_slot_clearance", "_least_angle", "_horizon", "_free_end")
CERT_LADDER = (32, 64, 128, 256)   # the theta_trivial sizes of the cert-ladder report
VALIDATOR_DRAWS = 8   # mutants per base presentation and mutation depth


def _eq_presentations():
    aps = [catalog(name) for name in catalog_names()]
    aps += [catalog(f"theta_trivial({n})") for n in (8, 16, 24)]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(40)]
    return aps


@cache
def _eq_builds():
    return [build_equilateral(validate_presentation(ap)) for ap in _eq_presentations()]


def eq_docs() -> str:
    digest = hashlib.sha256()
    for emb in _eq_builds():
        digest.update(dumps_document(equilateral_to_doc(emb)).encode())
    return digest.hexdigest()


def _mutant(emb, idx: int, j: int):
    sticks = list(emb.sticks)
    i = (7 * idx + j) % len(sticks)
    shift = 1e-3 * emb.M * (j + 1)
    sticks[i] = replace(sticks[i], a=tuple(c + shift for c in sticks[i].a))
    return replace(emb, sticks=sticks)


def eq_checks() -> str:
    digest = hashlib.sha256()
    for idx, emb in enumerate(_eq_builds()):
        for e in (emb, *(_mutant(emb, idx, j) for j in range(3))):
            segs = [(s.a, s.b) for s in e.sticks]
            digest.update(check_equilateral(e).summary().encode())
            digest.update(check_simplicity(segs, scale=e.M).summary().encode())
    return digest.hexdigest()


def fan_checks() -> str:
    digest = hashlib.sha256()
    for idx, n in enumerate(range(8, 129, 8)):
        emb = build_equilateral(validate_presentation(catalog(f"theta_trivial({n})")))
        for e in (emb, *(_mutant(emb, idx, j) for j in range(3))):
            segs = [(s.a, s.b) for s in e.sticks]
            entries = check_equilateral(e).entries + check_simplicity(segs, scale=e.M).entries
            text = repr((tolerance_report(e), [(x.check, x.passed, x.witness) for x in entries]))
            digest.update(text.encode())
    return digest.hexdigest()


FOLD_KINDS = ("bp", "apex", "end", "hub")   # the junction labels of the fold mutants' points


def fold_mutant(emb, kind: str):
    """emb with one stick folded back along another, or None: at the first
    point, in stick order, that the ends of two sticks of one component
    share exactly under one junction label starting with kind, the later
    stick's far end moves to half way along the earlier stick, then 1e-15
    off it in y."""
    first = {}   # (component, label, point): the first stick with such an end
    for j, s in enumerate(emb.sticks):
        for near, far in (("a", "b"), ("b", "a")):
            label, F = getattr(s, "j" + near), getattr(s, near)
            if not label.startswith(kind):
                continue
            key = (s.component, label, F)
            if key not in first:
                first[key] = j
                continue
            e = emb.sticks[first[key]]
            tip = [f + 0.5 * (o - f) for f, o in zip(F, e.b if e.a == F else e.a)]
            sticks = list(emb.sticks)
            sticks[j] = replace(s, **{far: (tip[0], tip[1] + 1e-15, tip[2])})
            return replace(emb, sticks=sticks)
    return None


def fold_checks() -> str:
    digest = hashlib.sha256()
    aps = [catalog(name) for name in catalog_names()]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    for ap in aps:
        emb = build_equilateral(validate_presentation(ap))
        for mutant in filter(None, (fold_mutant(emb, kind) for kind in FOLD_KINDS)):
            segs = [(s.a, s.b) for s in mutant.sticks]
            digest.update(check_simplicity(segs, scale=mutant.M).summary().encode())
    return digest.hexdigest()


@cache
def _exact_builds():
    aps = [catalog(name) for name in catalog_names()]
    aps += [catalog(f"theta_trivial({n})") for n in range(2, 65)]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(40)]
    aps += [random_presentation(s, p, 150) for p in ("knot", "bouquet", "theta") for s in range(3)]
    return [(build(cd), cd) for cd in (to_circular(validate_presentation(ap)) for ap in aps)]


def exact_docs() -> str:
    digest = hashlib.sha256()
    for se, _ in _exact_builds():
        digest.update(dumps_document(embedding_to_doc(se)).encode())
    return digest.hexdigest()


def exact_size() -> str:
    size = coord_bits = height_bits = 0
    for se, _ in _exact_builds():
        size += len(dumps_document(embedding_to_doc(se)).encode())
        coord_bits = max(coord_bits, *(max(c.numerator.bit_length(), c.denominator.bit_length())
                                        for s in se.sticks for p in (s.a, s.b) for c in p))
        height_bits += max(se.heights.values()).bit_length()
    return (f"\n  {len(_exact_builds())} builds: {size} document bytes, {coord_bits} coordinate bits at most,"
            f" {height_bits} top height bits summed")


def _level_swap(se, i: int, j: int):
    """se with the levels of pages i and j swapped, in the sticks and the
    junctions alike (the heights table is left as it was)."""
    swap = {se.heights[i]: se.heights[j], se.heights[j]: se.heights[i]}

    def lift(pt):
        return (pt[0], pt[1], swap.get(pt[2], pt[2]))

    return replace(se, sticks=tuple(replace(s, a=lift(s.a), b=lift(s.b)) for s in se.sticks),
                   junctions={b: lift(pt) for b, pt in se.junctions.items()})


def exact_mutants(idx: int, se):
    """Two level-swap mutants of exact build idx, for pages drawn by
    random.Random(idx), then the build less stick (7 idx) mod N."""
    rng = random.Random(idx)
    pages = sorted(se.heights)
    for _ in range(2):
        yield _level_swap(se, *(rng.sample(pages, 2) if len(pages) > 1 else pages * 2))
    k = 7 * idx % len(se.sticks)
    yield replace(se, sticks=se.sticks[:k] + se.sticks[k + 1:])


def exact_checks() -> str:
    digest = hashlib.sha256()
    for idx, (se, cd) in enumerate(_exact_builds()):
        digest.update(repr((cd.crossings, cd.boundary)).encode())
        for e in (se, *exact_mutants(idx, se)):
            entries = verify_stick_embedding(e, cd).entries
            digest.update(repr([(x.check, x.passed, x.witness) for x in entries]).encode())
    return digest.hexdigest()


BAD_COORDINATES = ("1/0", True, 1.5, [1], None)
STICK_FIELDS = ("a", "b", "page", "edge", "piece")
_MISSING = object()


def _read(doc) -> str:
    try:
        return repr(embedding_from_doc(doc))
    except DocumentError as err:
        return f"DocumentError: {err}"


def _read_with(doc, row, key, value=_MISSING) -> str:
    """_read(doc) with row[key] set to value, or deleted when no value is
    given; row is left as it was."""
    old = row[key]
    if value is _MISSING:
        del row[key]
    else:
        row[key] = value
    try:
        return _read(doc)
    finally:
        row[key] = old


def exact_read_outcomes():
    """One line per read of the exact-reads set (see the module docstring)."""
    for idx, (se, _) in enumerate(_exact_builds()):
        doc = json.loads(dumps_document(embedding_to_doc(se)))
        yield _read(doc)
        rng = random.Random(idx)
        rows = [s[end] for s in doc["sticks"] for end in ("a", "b")]
        cells = [(row, c) for row in [*rows, *doc["junctions"].values()] for c in range(3)]
        seen, repeats, firsts = set(), [], []
        for row, c in cells:
            (repeats if row[c] in seen else firsts).append((row, c))
            seen.add(row[c])
        for value in BAD_COORDINATES:
            for pool in (repeats, firsts):
                if pool:
                    yield _read_with(doc, *rng.choice(pool), value)
        yield _read_with(doc, *rng.choice(cells), "2/4")
        yield _read_with(doc, *rng.choice(cells), rng.randrange(-3, 4))
        yield _read_with(doc, rng.choice(doc["sticks"]), rng.choice(STICK_FIELDS))


def exact_reads() -> str:
    digest = hashlib.sha256()
    for line in exact_read_outcomes():
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def presentations() -> str:
    digest = hashlib.sha256()
    for p in PROFILES:
        for n in GRID_SIZES:
            for s in range(60):
                try:
                    text = dumps_document(presentation_to_doc(random_presentation(s, p, n)))
                except Exception as err:   # the failure itself is part of the draw
                    text = type(err).__name__
                digest.update(text.encode())
    return digest.hexdigest()


def _bench_workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "stickbench"))
    import bench_workloads
    return bench_workloads


def workloads() -> str:
    bw = _bench_workloads()
    return "".join(f"\n  {w}@{seed} {bw.digest(bw.make(w, seed))}"
                   for seed in (0, 1) for w in bw.WORKLOADS)


def certificates() -> str:
    bw = _bench_workloads()
    digest = hashlib.sha256()
    for w in ("theta-fan", "random-large", "random-small"):
        for job in bw.make(w, 1):
            try:
                cert = build_equilateral(validate_presentation(job.presentation)).certificate
                text = repr((cert.passed, cert.moves, cert.detail))
            except Exception as err:   # a failed build is part of the set
                text = type(err).__name__
            digest.update(text.encode())
    return digest.hexdigest()


@contextmanager
def _spied(module, name, seen):
    """module.name replaced, until the block ends, by a wrapper that calls
    seen(args) before each call."""
    real = getattr(module, name)

    def spy(*args):
        seen(args)
        return real(*args)
    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, real)


def cull_work_lines():
    """The lines of the cull-work report, per workload (see the module
    docstring)."""
    bw = _bench_workloads()
    for w in bw.WORKLOADS:
        frames, builds, calls = [], [], Counter({name: 0 for name in CERTIFICATE_KERNELS})
        real = equilateral_builder.isotopy_certificate

        def counted(*args):
            with _certificate_kernels(calls):
                return real(*args)
        with _spied(equilateral_builder, "tolerance_report", lambda args: frames.append(args[0])):
            equilateral_builder.isotopy_certificate = counted
            try:
                for job in bw.make(w, 1):
                    try:
                        builds.append(build_equilateral(validate_presentation(job.presentation)))
                    except equilateral_builder.EquilateralError:
                        pass   # a refused build is no frame of the eq checks
            finally:
                equilateral_builder.isotopy_certificate = real
        yield f"{w} certificate: " + ", ".join(f"{n} {name}" for name, n in calls.items())
        # the one distance kernel, where each pass calls it (tolerance_report and
        # check_equilateral through _verifier_float._clearance); all three build
        # their rows in _verifier_float._rows
        passes = (("tolerance_report", frames, tolerance_report, _verifier_float, "seg_distance"),
                  ("check_equilateral", builds, check_equilateral, _verifier_float, "seg_distance"),
                  ("check_simplicity", builds, lambda e: check_simplicity([(s.a, s.b) for s in e.sticks], scale=e.M),
                   verifier, "seg_distance"))
        for name, embs, run, kernel_module, kernel in passes:
            for kind in ("single", "assembled"):
                part = [e for e in embs if (len(e.components) > 1) == (kind == "assembled")]
                rows, pairs = [], []
                with _spied(_verifier_float, "_rows", lambda args: rows.append(len(args[2]))), \
                        _spied(kernel_module, kernel, lambda args: pairs.append(1)):
                    for emb in part:
                        run(emb)
                yield (f"{w} {name}, {kind}: {len(part)} frames, {sum(len(e.sticks) for e in part)} sticks, "
                       f"{sum(rows)} rows, {len(pairs)} pairs")


def cull_work() -> str:
    return "".join(f"\n  {line}" for line in cull_work_lines())


@contextmanager
def _certificate_kernels(calls):
    """The calls of the certificate's kernels (CERTIFICATE_KERNELS) added
    to the Counter calls by name until the block ends."""
    with ExitStack() as spies:
        for name in CERTIFICATE_KERNELS:
            spies.enter_context(_spied(equilateral_builder, name, lambda args, name=name: calls.update([name])))
        yield


def cert_ladder_calls(n: int):
    """(passed, calls): the verdict of the certificate of theta_trivial(n)
    at the default M, replayed on its tents and reduction, and the calls of
    its kernels (CERTIFICATE_KERNELS) by name."""
    vp = validate_presentation(catalog(f"theta_trivial({n})"))
    tents = build_tents(vp, DEFAULT_M_FACTOR * vp.m)
    red = reduce_top(tents)
    calls = Counter({name: 0 for name in CERTIFICATE_KERNELS})
    with _certificate_kernels(calls):
        passed = isotopy_certificate(tents, red).passed
    return passed, calls


def cert_ladder() -> str:
    lines = []
    for n in CERT_LADDER:
        passed, calls = cert_ladder_calls(n)
        lines.append(f"theta_trivial({n}) {'passed' if passed else 'failed'}: "
                     + ", ".join(f"{k} {name}" for name, k in calls.items()))
    return "".join(f"\n  {line}" for line in lines)


def tampered(emb):
    """The reduced embedding with its first stick's end a lifted by 0.25."""
    s = emb.sticks[0]
    emb.sticks[0] = EStick((s.a[0], s.a[1], s.a[2] + 0.25), s.b, s.component, s.tag, s.ja, s.jb)
    return emb


def with_parked(tents, a, b):
    """The tents plus one extra parked stick that no move touches."""
    extra = EStick(a, b, 0, "probe", "probe.a", "probe.b")
    return EquilateralEmbedding(sticks=[*tents.sticks, extra], M=tents.M,
                                components=tents.components)


def sweep_end(move, M, phi):
    """Where the free end of move's stick lies at angle phi."""
    page = (math.cos(move.page_angle), math.sin(move.page_angle))
    return _free_end(move.pivot, page, M, phi)


def pinch_frame(hub_side: bool):
    """(before, reduced, move, F, (a, b)): theta_trivial(5) at M = 8, whose
    second move's swinging stick (or its joiner, on the hub side) passes
    half the certificate floor from an extra parked stick a b at the middle
    sample.  a b is parallel to the mover there, out of the plane of the
    mover and the axis, and far from it at the first sample; F is the
    mover's fixed end."""
    M = 8.0
    tents = build_tents(validate_presentation(catalog("theta_trivial(5)")), M)
    red = reduce_top(tents)
    move = red.components[0].moves[1]
    F = move.hub if hub_side else move.pivot
    steps = max(2, math.ceil(abs(move.phi_end - move.phi_start) / SWEEP_STEP_RAD) + 1)
    free = sweep_end(move, M, move.phi_start + (move.phi_end - move.phi_start) * (steps // 2) / steps)
    v = [f - c for f, c in zip(free, F)]
    normal = (v[1] / math.hypot(v[0], v[1]), -v[0] / math.hypot(v[0], v[1]), 0.0)
    offset = 0.5 * CERT_CLEARANCE_REL * M
    a, b = (tuple(F[i] + t * v[i] + offset * normal[i] for i in range(3)) for t in (0.4, 0.6))
    return with_parked(tents, a, b), red, move, F, (a, b)


def _failing_frames():
    vp = validate_presentation(random_presentation(1, "knot", 300))
    (part,) = equal_length_parts(vp)
    for attempt in range(MAX_RETRIES + 1):
        tents = build_tents(part, DEFAULT_M_FACTOR * part.m * 2.0 ** attempt)
        yield tents, reduce_top(tents)
    tents = build_tents(validate_presentation(catalog("trefoil")), 20.0)
    yield tents, tampered(reduce_top(tents))
    for hub_side in (False, True):
        yield pinch_frame(hub_side)[:2]


def cert_failures() -> str:
    digest = hashlib.sha256()
    for before, after in _failing_frames():
        cert = isotopy_certificate(before, after)
        digest.update(repr((cert.passed, cert.moves, cert.detail)).encode())
    return digest.hexdigest()


def _shifted(arcs, pos: int, by: int):
    """The arcs with every end at or above pos moved by `by`."""
    return [replace(a, ends=tuple(e + by if e >= pos else e for e in a.ends)) for a in arcs]


def _mutate(rng: random.Random, ap):
    """ap with one random change to its arcs or binding points.  Arc ends
    may leave the axis, and refs may name the wrong kind of object."""
    arcs, bps = list(ap.arcs), list(ap.binding_points)
    m = len(bps)
    refs = [*ap.graph.vertices, *(eid for eid, _, _ in ap.graph.edges)]
    op = rng.randrange(11)
    if op == 0 and arcs:      # move one arc end, out of range included
        i, j = rng.randrange(len(arcs)), rng.randrange(2)
        ends = list(arcs[i].ends)
        ends[j] = rng.randrange(-1, m + 1)
        arcs[i] = replace(arcs[i], ends=tuple(ends))
    elif op == 1 and len(arcs) > 1:   # swap the edges of two arcs
        i, k = rng.sample(range(len(arcs)), 2)
        arcs[i], arcs[k] = replace(arcs[i], edge=arcs[k].edge), replace(arcs[k], edge=arcs[i].edge)
    elif op == 2 and arcs:    # drop an arc and its page
        del arcs[rng.randrange(len(arcs))]
    elif op == 3 and arcs:    # drop an arc and renumber the pages
        del arcs[rng.randrange(len(arcs))]
        arcs = [replace(a, page=page) for page, a in enumerate(arcs, 1)]
    elif op == 4 and arcs:    # give an arc another page
        i = rng.randrange(len(arcs))
        arcs[i] = replace(arcs[i], page=rng.randrange(len(arcs) + 2))
    elif op == 5:             # add a binding point
        pos = rng.randrange(m + 1)
        bps.insert(pos, BindingPoint(rng.choice(("vertex", "interior")), rng.choice(refs)))
        arcs = _shifted(arcs, pos, 1)
    elif op == 6 and bps:     # retype a binding point
        i = rng.randrange(m)
        bps[i] = BindingPoint("interior" if bps[i].kind == "vertex" else "vertex", rng.choice(refs))
    elif op == 7 and bps:     # drop a binding point
        pos = rng.randrange(m)
        del bps[pos]
        arcs = _shifted(arcs, pos + 1, -1)
    elif op == 8 and m > 1:   # swap two binding points
        i, k = rng.sample(range(m), 2)
        bps[i], bps[k] = bps[k], bps[i]
    elif op == 9 and len(arcs) > 1:   # swap the ends of two arcs
        i, k = rng.sample(range(len(arcs)), 2)
        arcs[i], arcs[k] = replace(arcs[i], ends=arcs[k].ends), replace(arcs[k], ends=arcs[i].ends)
    elif op == 10 and arcs:   # give an arc another edge, or a vertex's name
        i = rng.randrange(len(arcs))
        arcs[i] = replace(arcs[i], edge=rng.choice(refs))
    return replace(ap, binding_points=tuple(bps), arcs=tuple(arcs))


def validator_outcomes(draws: int = VALIDATOR_DRAWS):
    """One line per mutant of the validator set (see the module docstring)."""
    bases = [catalog(name) for name in catalog_names()]
    bases += [random_presentation(s, p, n) for p in PROFILES for n in (4, 8, 20) for s in range(10)]
    for idx, ap in enumerate(bases):
        rng = random.Random(idx)
        for depth in (1, 2, 3):
            for _ in range(draws):
                mutant = ap
                for _ in range(depth):
                    mutant = _mutate(rng, mutant)
                try:
                    vp = validate_presentation(mutant)
                    yield f"ok {vp.n} {vp.e} {vp.v} {vp.m}"
                except (PresentationError, GraphError) as err:
                    yield f"{type(err).__name__}: {err}"


def validator() -> str:
    digest = hashlib.sha256()
    for line in validator_outcomes():
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


SETS = {"eq-docs": eq_docs, "eq-checks": eq_checks, "fan-checks": fan_checks, "fold-checks": fold_checks,
        "exact-docs": exact_docs, "exact-checks": exact_checks, "exact-reads": exact_reads,
        "exact-size": exact_size,
        "presentations": presentations, "workloads": workloads,
        "certificates": certificates, "cert-failures": cert_failures, "validator": validator,
        "cull-work": cull_work, "cert-ladder": cert_ladder}


def main(names) -> None:
    for name in names or SETS:
        if name not in SETS:
            raise SystemExit(f"unknown set {name!r}; pick from {', '.join(SETS)}")
        print(name, SETS[name]())


if __name__ == "__main__":
    main(sys.argv[1:])
