"""The culled float pair passes against their all-pairs references.

tolerance_report (builder) and check_equilateral's clearance and float
check_simplicity (verifier) measure only the pairs that one cull,
_verifier_float._near_pairs, cannot rule out, all with the one kernel
seg_distance: tolerance_report with floor 0, the checks with their floor
clearance_min.  On a fan the cull bounds pairs by cones about its shared
junctions; elsewhere it walks the pairs of its axis sticks, or sweeps one
box per stick in z.
The minima, verdicts and details must equal those of the loops in
oracles.py that measure every pair, float for float.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import oracles
import parity
from stickforge import _verifier_float, equilateral_builder, verifier
from stickforge.arc_presentation import catalog, catalog_names, equal_length_parts, validate_presentation
from stickforge.equilateral_builder import (EquilateralEmbedding, EStick, build_equilateral, build_tents,
                                           reduce_top, tolerance_report)
from stickforge.randgen import PROFILES, random_presentation
from stickforge.verifier import TOLERANCES, check_equilateral, check_simplicity

AXIS = (0.0, 0.0)   # the axis line of a frame that build_component puts down


def _build(ap):
    return build_equilateral(validate_presentation(ap))


@pytest.fixture(scope="module")
def builds():
    aps = [catalog(name) for name in catalog_names()]
    aps += [catalog(f"theta_trivial({n})") for n in (8, 16, 24)]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    return [_build(ap) for ap in aps]


def _moved(emb, i, end, point):
    sticks = list(emb.sticks)
    sticks[i] = replace(sticks[i], **{end: tuple(point)})
    return replace(emb, sticks=sticks)


def _mutants(emb, rng):
    """Two single-coordinate mutants as in C8, a pair moved to half the
    clearance floor, and an end moved by half the snap."""
    out = []
    for _ in range(2):
        i, end, axis = rng.randrange(len(emb.sticks)), rng.choice("ab"), rng.randrange(3)
        pt = list(getattr(emb.sticks[i], end))
        pt[axis] += rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-2) * emb.M
        out.append(_moved(emb, i, end, pt))
    keys = [{s.ja, s.jb} for s in emb.sticks]
    pairs = [(i, j) for i in range(len(keys)) for j in range(i + 1, len(keys))
             if keys[i].isdisjoint(keys[j])]
    if pairs:
        i, j = rng.choice(pairs)
        si, sj = emb.sticks[i], emb.sticks[j]
        # slide stick j along the line between the sticks' midpoints
        mi = [(a + b) / 2 for a, b in zip(si.a, si.b)]
        mj = [(a + b) / 2 for a, b in zip(sj.a, sj.b)]
        gap = math.dist(mi, mj)
        want = 0.5 * TOLERANCES.clearance_rel * emb.M
        shift = [(p - q) * (1 - want / gap) for p, q in zip(mi, mj)]
        sticks = list(emb.sticks)
        sticks[j] = replace(sj, a=tuple(c + d for c, d in zip(sj.a, shift)),
                            b=tuple(c + d for c, d in zip(sj.b, shift)))
        out.append(replace(emb, sticks=sticks))
    i = rng.randrange(len(emb.sticks))
    pt = list(emb.sticks[i].a)
    pt[rng.randrange(3)] += 0.5 * TOLERANCES.junction_rel * emb.M
    out.append(_moved(emb, i, "a", pt))
    return out


def _entry(report, check):
    (entry,) = [e for e in report.entries if e.check == check]
    return entry.passed, entry.witness


def _assert_matches_reference(emb):
    assert tolerance_report(emb) == oracles.all_pairs_tolerance(emb)
    assert _entry(check_equilateral(emb), "equilateral.clearance") == \
        oracles.all_pairs_clearance(emb)
    segs = [(s.a, s.b) for s in emb.sticks]
    assert _entry(check_simplicity(segs, scale=emb.M), "simplicity") == \
        oracles.all_pairs_float_simplicity(segs, scale=emb.M)


def _verifier_paths(monkeypatch):
    """Record the culls that each float pass takes, one list per pass with
    one entry per slab of its frame: "fan", "bound" (the axis walk settles
    every pair of the slab) or "sweep" (the sweep, at once or after part of
    the walk); then "across" when the pairs across slabs are swept too.
    build_equilateral runs tolerance_report, so install this after the
    build to count only the passes a test runs itself."""
    paths = []

    def spy(name, mark):
        def wrapped(*args, real=getattr(_verifier_float, name)):
            mark(*args)
            return real(*args)
        monkeypatch.setattr(_verifier_float, name, wrapped)

    def swept(*args):
        if isinstance(getattr(args[-1], "__self__", None), set):   # a slab's walk hands over
            paths[-1][-1] = "sweep"
        else:
            paths[-1].append("across")

    spy("_slabs", lambda *args: paths.append([]))
    spy("_fan_pairs", lambda *args: paths[-1].append("fan"))
    spy("_axis_pairs", lambda *args: paths[-1].append("bound"))
    spy("_sweep", swept)
    return paths


def test_culled_passes_match_all_pairs(builds, monkeypatch):
    checks = _verifier_paths(monkeypatch)
    rng = random.Random(11)
    verdicts, paths = set(), set()
    for emb in builds:
        for case in [emb, *_mutants(emb, rng)]:
            checks.clear()
            _assert_matches_reference(case)
            paths.add(tuple(map(tuple, checks)))
            segs = [(s.a, s.b) for s in case.sticks]
            verdicts.add(check_simplicity(segs, scale=case.M).ok)
    assert verdicts == {True, False}
    # on frames of one slab, the culls of tolerance_report,
    # check_equilateral and check_simplicity: the fan cull in all three;
    # the axis walk and the sweep, which the simplicity check can take
    # apart from the other two on one frame (its keys and minimum differ)
    assert {sum(p, ()) for p in paths if all(len(a) == 1 for a in p)} == \
        {("fan",) * 3, ("bound",) * 3, ("bound", "bound", "sweep"), ("sweep", "sweep", "bound"), ("sweep",) * 3}
    # frames cut at x-gaps (assembled parts, or a stick a mutant slid off
    # its neighbours) take every cull slab by slab, and the sweep across
    # slabs where a cut gap does not clear the least distance
    assert {x for p in paths if len(p[0]) > 1 for x in sum(p, ())} == {"fan", "bound", "sweep", "across"}


def test_culled_passes_match_all_pairs_on_fold_back():
    emb = _build(catalog("trefoil"))
    # stick 1 shares stick 0's end b; fold it back along stick 0
    s0, s1 = emb.sticks[0], emb.sticks[1]
    assert s1.a == s0.b
    tip = tuple(b + 0.5 * (a - b) for a, b in zip(s0.a, s0.b))
    folded = _moved(emb, 1, "b", (tip[0], tip[1] + 1e-15, tip[2]))
    segs = [(s.a, s.b) for s in folded.sticks]
    passed, detail = oracles.all_pairs_float_simplicity(segs, scale=folded.M)
    assert not passed and detail == "sticks 0 and 1 fold back along each other"
    _assert_matches_reference(folded)


def test_culled_passes_find_every_failing_pair():
    # a ladder of unit sticks 2 apart in z, stick k at height 18 - 2k, so
    # a cull may meet the pair (8, 10) at 1e-7 before the
    # lexicographically first failing pair (0, 11) at 5e-7, whose z gap
    # exceeds the least distance but not the floor 1e-6; stick 12 crosses
    # near stick 0 and gives the first bound
    ends = [((0.0, 0.0, 18.0 - 2 * k), (1.0, 0.0, 18.0 - 2 * k)) for k in range(10)]
    ends.append(((0.0, 0.0, 2.0 + 1e-7), (1.0, 0.0, 2.0 + 1e-7)))
    ends.append(((0.0, 0.0, 18.0 + 5e-7), (1.0, 0.0, 18.0 + 5e-7)))
    ends.append(((0.0, -1.0, 17.2), (1.0, 1.0, 18.4)))
    sticks = [EStick(a, b, 0, f"s{k}", f"s{k}.a", f"s{k}.b") for k, (a, b) in enumerate(ends)]
    emb = EquilateralEmbedding(sticks=sticks, M=1.0, components=[])
    _assert_matches_reference(emb)
    assert oracles.all_pairs_clearance(emb) == \
        (False, "sticks 0/11 at 5.000e-07; sticks 8/10 at 1.000e-07")
    assert oracles.all_pairs_float_simplicity(ends, scale=1.0) == \
        (False, "sticks 0 and 11 at distance 5.000e-07 < 1.000e-06")


def _visits(monkeypatch, *modules):
    """Record, per call of each module's _near_pairs, its segments and the
    (i, k) pairs it visits."""
    calls = []

    def spy(real):
        def near_pairs(segs, *args):
            *rest, visit = args
            pairs = []
            calls.append((segs, pairs))

            def counted(i, ks):
                ks = list(ks)
                pairs.extend((i, k) for k in ks)
                return visit(i, ks)
            return real(segs, *rest, counted)
        return near_pairs

    for module in modules:
        monkeypatch.setattr(module, "_near_pairs", spy(module._near_pairs))
    return calls


def test_culled_passes_skip_most_pairs(monkeypatch):
    emb = _build(random_presentation(0, "bouquet", 150))
    n = len(emb.sticks)
    segs = [(s.a, s.b) for s in emb.sticks]
    calls = _visits(monkeypatch, _verifier_float, verifier)
    paths = _verifier_paths(monkeypatch)
    for run in (lambda: tolerance_report(emb), lambda: check_equilateral(emb),
                lambda: check_simplicity(segs, scale=emb.M)):
        calls.clear()
        run()
        ((_, pairs),) = calls
        assert len(pairs) == len(set(pairs))
        assert all(i < k for i, k in pairs)
        assert len(pairs) < n * (n - 1) // 2 / 10
    # every pass settles the frame in the axis walk
    assert paths == [["bound"]] * 3


def test_swept_walk_work_guard(monkeypatch):
    # random_presentation(0, 'bouquet', 150): the axis walk of
    # tolerance_report measures few pairs, and the minimum is the all-pairs
    # one
    emb = _build(random_presentation(0, "bouquet", 150))
    ref, measured = oracles.all_pairs_tolerance(emb), []
    monkeypatch.setattr(_verifier_float, "seg_distance", lambda *args, real=_verifier_float.seg_distance: (
        measured.append(args), real(*args))[1])
    assert tolerance_report(emb) == ref
    assert 0 < len(measured) <= 10


def test_seg_distance_is_not_symmetric_to_the_last_bit():
    emb = _build(catalog("trefoil"))
    s2, s4 = emb.sticks[2], emb.sticks[4]
    least = verifier.seg_distance(s2.a, s2.b, s4.a, s4.b)
    assert tolerance_report(emb).min_clearance == least
    assert least != verifier.seg_distance(s4.a, s4.b, s2.a, s2.b)


def test_tolerance_is_the_verifiers_clearance():
    # tolerance_report measures through the verifier's clearance pass with
    # floor 0, and check_equilateral with floor clearance_rel M; the least
    # distance is the same to the last bit on every eq-docs build and every
    # seed-1 benchmark build with a pair that shares no junction
    bw = parity._bench_workloads()
    builds = list(parity._eq_builds())
    for w in bw.WORKLOADS:
        for job in bw.make(w, 1):
            try:
                builds.append(_build(job.presentation))
            except equilateral_builder.EquilateralError:
                pass
    compared = 0
    for emb in builds:
        segs = [(s.a, s.b) for s in emb.sticks]
        ends = [((s.component, s.ja), (s.component, s.jb)) for s in emb.sticks]
        least, _ = _verifier_float._clearance(segs, ends, TOLERANCES.clearance_rel * emb.M)
        if least < math.inf:
            compared += 1
            assert tolerance_report(emb).min_clearance.hex() == least.hex()
    assert (len(builds), compared) == (295, 293)


@pytest.mark.parametrize("name", ["trefoil", "theta_trivial(8)"], ids=["swept", "fan"])
def test_culled_passes_measure_lower_index_first(monkeypatch, name):
    emb = _build(catalog(name))
    index = {(s.a, s.b): i for i, s in enumerate(emb.sticks)}
    order = []

    def spy(real):
        def kernel(p, q, r, s):
            order.append((index[p, q], index[r, s]))
            return real(p, q, r, s)
        return kernel

    monkeypatch.setattr(_verifier_float, "seg_distance", spy(_verifier_float.seg_distance))
    monkeypatch.setattr(verifier, "seg_distance", spy(verifier.seg_distance))
    tolerance_report(emb)
    check_equilateral(emb)
    check_simplicity([(s.a, s.b) for s in emb.sticks], scale=emb.M)
    assert order and all(i < j for i, j in order)


@pytest.mark.parametrize("ap", [catalog("unlink(3)"), random_presentation(3, "multi", 40)],
                         ids=["unlink3", "multi"])
def test_assembled_tolerance_measures_no_cross_part_pair(monkeypatch, ap):
    out = _build(ap)
    assert len(out.components) > 1
    calls = _visits(monkeypatch, _verifier_float)
    paths = _verifier_paths(monkeypatch)
    assert tolerance_report(out) == out.tolerance == oracles.all_pairs_tolerance(out)
    ((segs, pairs),) = calls
    assert len(segs) == len(out.sticks)
    part = [s.component for s in out.sticks]
    keys = [{s.ja, s.jb} for s in out.sticks]
    in_part = [_verifier_float.seg_distance(*segs[i], *segs[j])
               for i in range(len(segs)) for j in range(i + 1, len(segs))
               if part[i] == part[j] and keys[i].isdisjoint(keys[j])]
    crossing = [(i, j) for i, j in pairs if part[i] != part[j]]
    if in_part:
        # some in-part pair lies below M, so the parts' gap of M rules out the rest
        assert min(in_part) < out.M
        assert crossing == []
        # each part is a slab that the axis walk settles about its own axis
        assert paths == [["bound"] * len(out.components)]
    else:
        # every in-part pair shares a junction, so the least clearance lies
        # between parts and cross-part pairs must be measured: the parts
        # crowd one spot each, and the sweep takes the pairs across them
        assert crossing and out.tolerance.min_clearance > out.M
        assert paths == [["fan"] * len(out.components) + ["across"]]


def _split(emb):
    """The indices of the swept sticks: those of each component's recorded
    moves, and its joiners."""
    moved = {(c.index, mv.tag) for c in emb.components for mv in c.moves}
    return [i for i, s in enumerate(emb.sticks)
            if (s.component, s.tag) in moved or s.tag.startswith("join")]


@pytest.fixture(scope="module")
def workload_frames():
    """Every frame that build_component reduces over the random-large and
    random-small workloads at seed 1, by workload."""
    bw = parity._bench_workloads()
    frames = {}
    with pytest.MonkeyPatch.context() as mp:
        for w in ("random-large", "random-small"):
            got = frames[w] = []
            mp.setattr(equilateral_builder, "reduce_top", lambda emb, real=reduce_top, got=got: (
                got.append(real(emb)), got[-1])[1])
            for job in bw.make(w, 1):
                try:
                    build_equilateral(validate_presentation(job.presentation))
                except equilateral_builder.EquilateralError:
                    pass
    return frames


def _least_unmoved_first(emb):
    """Whether no pair that holds a swept stick lies closer than the least
    pair of two unmoved sticks (pairs sharing a junction left out)."""
    swept = set(_split(emb))
    keys = [{(s.component, s.ja), (s.component, s.jb)} for s in emb.sticks]
    least = [math.inf, math.inf]
    for i, si in enumerate(emb.sticks):
        for k in range(i + 1, len(emb.sticks)):
            if keys[i].isdisjoint(keys[k]):
                d = _verifier_float.seg_distance(si.a, si.b, emb.sticks[k].a, emb.sticks[k].b)
                held = i in swept or k in swept
                least[held] = min(least[held], d)
    return least[0] <= least[1]


def test_split_tolerance_matches_all_pairs_on_workload_frames(workload_frames, monkeypatch):
    measured = []
    monkeypatch.setattr(_verifier_float, "seg_distance", lambda *args, real=_verifier_float.seg_distance: (
        measured.append(args), real(*args))[1])
    paths = _verifier_paths(monkeypatch)
    for w, frames in workload_frames.items():
        paths.clear()
        repeats = 0
        for red in frames:
            measured.clear()
            report = tolerance_report(red)
            repeats += len(measured) - len(set(measured))
            assert report == oracles.all_pairs_tolerance(red)
        # no pair is measured twice; the axis walk settles every large
        # frame, and of the small ones 4 crowd one spot and go to the fan
        # cull and 8 leave pairs to the sweep
        assert (len(frames), repeats, Counter(map(tuple, paths))) == \
            ((4, 0, {("bound",): 4}) if w == "random-large" else
             (149, 0, {("bound",): 137, ("sweep",): 8, ("fan",): 4}))
    # five small frames hold their least clearance on a pair of unmoved sticks
    assert sum(map(_least_unmoved_first, workload_frames["random-small"])) == 5


def test_tolerance_matches_all_pairs_on_tents(monkeypatch):
    # build_tents frames, where nothing has moved: every cull takes some
    paths, seen = _verifier_paths(monkeypatch), set()
    aps = [catalog(name) for name in catalog_names()]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    for ap in aps:
        for vp in equal_length_parts(validate_presentation(ap)):
            tents = build_tents(vp, 4.0 * vp.m)
            paths.clear()
            assert tolerance_report(tents) == oracles.all_pairs_tolerance(tents)
            seen.add(tuple(paths[0]))
    assert seen == {("fan",), ("bound",), ("sweep",)}


def _reduced(name):
    return reduce_top(build_tents(validate_presentation(catalog(name)), 24.0))


def _segs_ends(emb):
    """tolerance_report's segments and junction keys of emb."""
    return ([(s.a, s.b) for s in emb.sticks],
            [((s.component, s.ja), (s.component, s.jb)) for s in emb.sticks])


def _axis(emb):
    """The verifier's axis sticks of emb about the z axis, steepest first,
    and their bound K."""
    segs, ends = _segs_ends(emb)
    axis = _verifier_float._axis_sticks(segs, ends, range(len(segs)), AXIS)
    return axis, _verifier_float._axis_bound(axis, ends)


def _free_end(emb, i):
    """Which end of stick i lies off the axis."""
    return "b" if emb.sticks[i].a[:2] == (0.0, 0.0) else "a"


def _tilted(emb):
    """The first unmoved stick with its axis end moved off the axis by 1e-7."""
    i = min(set(range(len(emb.sticks))) - set(_split(emb)))
    end = "a" if _free_end(emb, i) == "b" else "b"
    p = getattr(emb.sticks[i], end)
    return _moved(emb, i, end, (p[0] + 1e-7, p[1], p[2]))


def _shared_azimuth(emb):
    """The first unmoved stick with its free end moved to half the free end
    of an unmoved stick of another tent, at the same azimuth to the last
    bit: two unmoved sticks that share no junction in one half-plane."""
    unmoved = sorted(set(range(len(emb.sticks))) - set(_split(emb)))
    keys = [{s.ja, s.jb} for s in emb.sticks]
    i, j = next((i, j) for i in unmoved for j in unmoved if keys[i].isdisjoint(keys[j]))
    end = _free_end(emb, i)
    q, z = getattr(emb.sticks[j], _free_end(emb, j)), getattr(emb.sticks[i], end)[2]
    return _moved(emb, i, end, (q[0] / 2, q[1] / 2, z))


@pytest.mark.parametrize("mutate", [_tilted, _shared_azimuth], ids=["off-axis", "one-azimuth"])
def test_split_falls_back_on_frames_off_its_shape(monkeypatch, mutate):
    # off the axis, a tent stick leaves the axis sticks; two at one azimuth
    # that share no key make K 0, so every axis stick moves
    red = _reduced("trefoil")
    paths = _verifier_paths(monkeypatch)
    assert tolerance_report(red) == oracles.all_pairs_tolerance(red)
    (axis, K), emb = _axis(red), mutate(red)
    got, bound = _axis(emb)
    assert 0.0 < K < math.inf
    assert (len(got), bound) == ((len(axis) - 1, K) if mutate is _tilted else (len(axis), 0.0))
    assert tolerance_report(emb) == oracles.all_pairs_tolerance(emb)
    assert paths == [["bound"]] * 2   # the axis walk settles both frames


def test_split_falls_back_when_the_bound_does_not_clear():
    # the same frame, with visit claiming every pair lies as far apart:
    # below K cos theta of the steepest axis stick no pair of two axis
    # sticks is handed over, and from that bound on the walk moves them
    red = _reduced("trefoil")
    segs, ends = _segs_ends(red)
    n = len(segs)
    axis, K = _axis(red)
    on_axis = {f[-1] for f in axis}
    bound = K * axis[0][0]
    assert 0.0 < bound < math.inf
    for claim in (bound / 2, bound, math.inf):
        seen = []

        def visit(i, ks):
            seen.extend((i, k) for k in ks)
            return claim
        assert _verifier_float._near_pairs(segs, ends, 0.0, visit) == claim
        assert len(seen) == len(set(seen))
        assert any(i in on_axis and k in on_axis for i, k in seen) == (claim >= bound)
    # claiming inf, every pair is handed over once
    assert sorted(seen) == [(i, k) for i in range(n) for k in range(i + 1, n)]


def test_split_bound_counts_the_slope(monkeypatch):
    # two axis sticks on opposite pages with axis ends 1 apart, one nearly
    # vertical, pass within cos(theta) 1, about 0.0995, of each other, far
    # below the third stick's least distance of about 0.6: K cos theta is
    # as small, does not clear, and the axis pair is walked, alone
    sticks = [EStick((0.0, 0.0, 0.0), (0.1, 0.0, 0.995), 0, "arc1.lower", "bp0", "apex1"),
              EStick((0.0, 0.0, 1.0), (-1.0, 0.0, 1.0), 0, "arc2.upper", "bp1", "apex2"),
              EStick((0.05, 0.6, 0.5), (0.05, 0.6, 0.9), 0, "join3", "hub", "end3")]
    emb = EquilateralEmbedding(sticks=sticks, M=1.0, components=[])
    axis, K = _axis(emb)
    assert 0.099 < K * axis[0][0] < 0.1
    measured = []
    monkeypatch.setattr(_verifier_float, "seg_distance", lambda *args, real=_verifier_float.seg_distance: (
        measured.append(args), real(*args))[1])
    report = tolerance_report(emb)
    assert measured == [(sticks[0].a, sticks[0].b, sticks[1].a, sticks[1].b)]
    assert report == oracles.all_pairs_tolerance(emb) and report.min_clearance < 0.1


def _kernel_cases():
    rng = random.Random(16)
    cases = [tuple(tuple(rng.uniform(-8.0, 8.0) for _ in range(3)) for _ in range(4))
             for _ in range(20_000)]
    p, q = (0.0, 0.0, 0.0), (1.0, 2.0, 3.0)
    cases += [
        (p, q, (0.5, 1.0, 1.5 + 1e-3), (1.5, 3.0, 4.5 + 1e-3)),   # parallel, apart
        (p, q, (0.5, 1.0, 1.5), (1.5, 3.0, 4.5)),                 # parallel, overlapping
        (p, q, (2.0, 4.0, 6.0), (3.0, 6.0, 9.0)),                 # collinear, apart
        (p, p, (0.5, 1.0, 1.5), (1.5, 3.0, 4.5)),                 # first has no length
        (p, q, (0.3, 0.1, 0.7), (0.3, 0.1, 0.7)),                 # second has no length
        (p, p, (0.3, 0.1, 0.7), (0.3, 0.1, 0.7)),                 # both points
        (p, q, q, (2.0, -1.0, 0.5)),                              # touching at an end
        (p, q, (0.5, 1.0, 1.5), (0.5, -1.0, 4.0)),                # touching inside
        (p, q, (1.0, 2.0, 3.0 + 1e-12), (4.0, 1.0, 0.0)),         # nearly touching
    ]
    for c in cases[-9:]:
        cases.append((c[2], c[3], c[0], c[1]))
    return cases


def test_verifier_kernel_equals_the_helper_formula():
    for p, q, r, s in _kernel_cases():
        assert verifier.seg_distance(p, q, r, s).hex() == \
            oracles.verifier_seg_distance(p, q, r, s).hex()


def test_kernel_guard_equals_the_guard_as_first_written():
    # the underflow guard skips a pair with a or c at least 1 unscaled:
    # sticks up to 1.1 long from a point or from a stick of no length,
    # coordinate differences on both sides of 1/2, at scales 2^-1000 to
    # 2^1000, against the guard that every pair with a c < 2^-900 entered
    rng = random.Random(0)
    base = []
    for d in (0.25, 0.49, 0.5, 0.51, 0.577, 0.6, 0.99, 1.0, 1.1):
        p, q = (0.125, -0.25, 0.375), (0.125 + d, -0.25, 0.375)
        point = (0.3, d, -0.2)
        base += [(p, p, point, point), (p, p, point, (0.3, d + d, -0.2)),
                 (p, q, point, point), (point, point, p, q), (p, q, q, q)]
        base += [tuple(tuple(rng.uniform(-d, d) for _ in range(3)) for _ in range(4)) for _ in range(8)]
        base += [(p, p, *(tuple(rng.uniform(-d, d) for _ in range(3)) for _ in range(2))) for _ in range(4)]
    checked = 0
    for e in range(-1000, 1001, 25):
        for pts in base:
            p, q, r, s = (tuple(math.ldexp(x, e) for x in pt) for pt in pts)
            assert verifier.seg_distance(p, q, r, s).hex() == oracles.guarded_seg_distance(p, q, r, s).hex()
            checked += 1
    assert checked == 81 * len(base)


@pytest.fixture(scope="module")
def fan32():
    return _build(catalog("theta_trivial(32)"))


def _index(emb, tag):
    return next(i for i, s in enumerate(emb.sticks) if s.tag == tag)


def _slid(emb, i, j, want):
    """emb with stick j slid along the line between the midpoints of sticks
    i and j until those midpoints lie want apart."""
    si, sj = emb.sticks[i], emb.sticks[j]
    mi = [(a + b) / 2 for a, b in zip(si.a, si.b)]
    mj = [(a + b) / 2 for a, b in zip(sj.a, sj.b)]
    gap = math.dist(mi, mj)
    shift = [(p - q) * (1 - want / gap) for p, q in zip(mi, mj)]
    sticks = list(emb.sticks)
    sticks[j] = replace(sj, a=tuple(c + d for c, d in zip(sj.a, shift)),
                        b=tuple(c + d for c, d in zip(sj.b, shift)))
    return replace(emb, sticks=sticks)


def _fan_mutants(emb):
    hub = emb.sticks[_index(emb, "join2")].a
    j3, j9 = _index(emb, "join3"), _index(emb, "join9")
    # join9 folded back onto join3 at the hub, nearly as long, so that the
    # sticks still crowd one spot
    tip = tuple(h + 0.999 * (e - h) for h, e in zip(hub, emb.sticks[j3].b))
    folded = _moved(emb, j9, "b", (tip[0], tip[1] + 1e-15, tip[2]))
    # a lower stick's bp0 end under another label
    sticks = list(emb.sticks)
    lower = _index(emb, "arc7.lower")
    sticks[lower] = replace(sticks[lower], ja="bp0x")
    relabelled = replace(emb, sticks=sticks)
    # join12 slid to half the floor of arc17.lower, five pages away
    slid = _slid(emb, _index(emb, "arc17.lower"), _index(emb, "join12"),
                 0.5 * TOLERANCES.clearance_rel * emb.M)
    # a hub end moved by half the snap
    nudged = _moved(emb, _index(emb, "join20"), "a",
                    (hub[0] + 0.5 * TOLERANCES.junction_rel * emb.M, hub[1], hub[2]))
    return {"folded": folded, "relabelled": relabelled, "slid": slid, "nudged": nudged}


@pytest.mark.parametrize("name", ["folded", "relabelled", "slid", "nudged"])
def test_fan_mutants_match_all_pairs(fan32, name):
    emb = _fan_mutants(fan32)[name]
    _assert_matches_reference(emb)
    segs = [(s.a, s.b) for s in emb.sticks]
    passed, detail = oracles.all_pairs_float_simplicity(segs, scale=emb.M)
    if name == "folded":
        j3, j9 = _index(emb, "join3"), _index(emb, "join9")
        assert not passed and detail == f"sticks {j3} and {j9} fold back along each other"
    elif name == "relabelled":
        # the sticks still meet at bp0, but no longer at one junction
        assert oracles.all_pairs_clearance(emb)[0] is False
    elif name == "slid":
        assert not passed and oracles.all_pairs_clearance(emb)[0] is False
    else:
        assert passed and oracles.all_pairs_clearance(emb)[0] is True


@pytest.mark.parametrize("n, part", [(64, 5), (128, 8)])
def test_fan_cull_visits_few_pairs(monkeypatch, n, part):
    emb = _build(catalog(f"theta_trivial({n})"))
    N = len(emb.sticks)
    segs = [(s.a, s.b) for s in emb.sticks]
    calls = _visits(monkeypatch, _verifier_float, verifier)
    paths = _verifier_paths(monkeypatch)
    bounds = []
    monkeypatch.setattr(_verifier_float, "_ray_bound", lambda *args, real=_verifier_float._ray_bound: (
        bounds.append(args), real(*args))[1])
    for run in (lambda: tolerance_report(emb), lambda: check_equilateral(emb),
                lambda: check_simplicity(segs, scale=emb.M)):
        calls.clear()
        bounds.clear()
        run()
        ((_, pairs),) = calls
        assert len(pairs) == len(set(pairs))
        assert all(i < k for i, k in pairs)
        assert len(pairs) < N * (N - 1) // 2 / part
        assert len(bounds) < N * (N - 1) // 2 / part
    assert paths == [["fan"]] * 3


@pytest.mark.parametrize("n, handed", [(32, 180), (64, 622)])
def test_fan_cull_hands_over_no_pair_that_shares_a_key(monkeypatch, n, handed):
    # visit measures nothing for a pair whose sticks share a key, so the
    # fan cull hands none over, in any of the three passes
    emb = _build(catalog(f"theta_trivial({n})"))
    segs, ends = _segs_ends(emb)
    calls = _visits(monkeypatch, _verifier_float, verifier)
    for run, keys in ((lambda: tolerance_report(emb), ends), (lambda: check_equilateral(emb), ends),
                      (lambda: check_simplicity(segs, scale=emb.M), segs)):
        calls.clear()
        run()
        ((_, pairs),) = calls
        assert len(pairs) == handed
        assert all({*keys[i]}.isdisjoint(keys[k]) for i, k in pairs)


def _random_fan(seed):
    """Sticks that crowd one spot, a theta fan of random shape: rays from
    two centers one above the other out to random points of a middle
    layer, a stick between the centers, for odd seeds a ray nearly folded
    onto another, and a few sticks across the layer that reach neither
    center."""
    rng = random.Random(seed)
    centers = [(0.0, 0.0, 0.0), (0.01, 0.02, 1.0)]

    def layer():
        a, rho = rng.uniform(-math.pi, math.pi), rng.uniform(0.4, 0.9)
        return (rho * math.cos(a), rho * math.sin(a), rng.uniform(0.45, 0.55))

    ends = [(*centers, "c0", "c1")]
    for c, name in zip(centers, ("c0", "c1")):
        outs = [layer() for _ in range(rng.randrange(8, 20))]
        if seed % 2:
            outs.append(tuple(p + 1e-7 * (q - p) + 1e-9 for p, q in zip(outs[0], c)))
        ends += [(c, out, name, None) for out in outs]
    for _ in range(4):
        a, f = layer(), rng.uniform(0.5, 1.0)
        ends.append((a, (-f * a[0], -f * a[1], 1.0 - a[2]), None, None))
    rng.shuffle(ends)
    sticks = [EStick(a, b, 0, f"s{k}", ja or f"s{k}.a", jb or f"s{k}.b")
              for k, (a, b, ja, jb) in enumerate(ends)]
    return EquilateralEmbedding(sticks=sticks, M=1.0, components=[])


@pytest.mark.parametrize("seed", range(12))
def test_fan_cull_matches_all_pairs_on_random_fans(monkeypatch, seed):
    sweeps = []
    monkeypatch.setattr(_verifier_float, "_sweep", lambda segs, *args, real=_verifier_float._sweep: (
        sweeps.append(len(segs)), real(segs, *args))[1])
    _assert_matches_reference(_random_fan(seed))
    assert sweeps == []    # the fan cull ran in all three passes


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("least", [0.01, 0.05, 0.2])
def test_fan_cull_visits_every_pair_within_its_minimum(seed, least):
    # visit claims the same least distance for every row, so the cull
    # prunes against it and must hand over every pair that comes that close
    emb = _random_fan(seed)
    segs = [(s.a, s.b) for s in emb.sticks]
    ends = [((0, s.ja), (0, s.jb)) for s in emb.sticks]
    n = len(segs)
    want = {(i, k) for i in range(n) for k in range(i + 1, n)
            if {*ends[i]}.isdisjoint(ends[k])
            and _verifier_float.seg_distance(*segs[i], *segs[k]) <= least}
    for floor in (0.0, 1e-6):   # tolerance_report's floor, and a check's
        seen = []

        def visit(i, ks):
            seen.extend((i, k) for k in ks)
            return least
        assert _verifier_float._near_pairs(segs, ends, floor, visit) == least
        assert len(seen) == len(set(seen)) and want <= set(seen)


def _assert_rejects_scale(emb, scale):
    """emb scaled by scale lies outside the range where the verifier's float
    culls are proved, so both float checks fail their input check: M or the
    scale lies outside [2^-200, 2^200], or a coordinate beyond 2^200."""
    sticks = [replace(s, a=tuple(c * scale for c in s.a), b=tuple(c * scale for c in s.b))
              for s in emb.sticks]
    emb = replace(emb, sticks=sticks, M=emb.M * scale)
    segs = [(s.a, s.b) for s in sticks]
    assert [(e.check, e.passed, e.witness) for e in check_equilateral(emb).entries] == \
        [("equilateral.input", False, f"M = {emb.M} lies outside [2^-200, 2^200]")]
    if scale > 1:
        k, end, c = next((k, end, c) for k, pair in enumerate(segs) for end, pt in zip("ab", pair)
                         for c in pt if abs(c) > 2.0 ** 200)
        want = f"stick {k} end {end} has coordinate {c} beyond 2^200"
    else:
        want = f"scale {emb.M} lies outside [2^-200, 2^200]"
    assert _entry(check_simplicity(segs, scale=emb.M), "simplicity") == (False, want)


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_verifier_fan_cull_survives_extreme_scales(fan32, scale):
    # a document may carry any finite coordinates: squared lengths overflow
    # to inf or underflow to 0, outside the cull's proof, so the checks
    # refuse the input before any cull runs
    _assert_rejects_scale(fan32, scale)


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
@pytest.mark.parametrize("ap, path", [(catalog("trefoil"), ["bound"]), (random_presentation(0, "theta", 30), ["sweep"]),
                                      (random_presentation(3, "multi", 40), ["bound", "bound"])],
                         ids=["trefoil", "theta", "multi"])
def test_verifier_walk_and_sweep_survive_extreme_scales(monkeypatch, ap, path, scale):
    # the same off the fan, on frames that the axis walk, the sweep and
    # the walk of each slab take in range: no cull runs
    emb = _build(ap)
    paths = _verifier_paths(monkeypatch)
    _assert_rejects_scale(emb, scale)
    assert paths == []
    _assert_matches_reference(emb)
    assert paths == [path] * 3


def test_fan_checks_pinned():
    # the fan-checks set of tests/parity.py: repr(tolerance_report(emb)) and
    # every check_equilateral and float check_simplicity entry, witnesses
    # included, of theta_trivial(8), (16), ..., (128) and three shifted-end
    # mutants of each
    assert parity.fan_checks() == "e083934513017232b53111ccc9ba8d63997a31cc69973753bd05582ea34de5d6"
