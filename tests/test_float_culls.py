"""The culled float pair passes against their all-pairs references.

tolerance_report (builder) and check_equilateral's clearance and float
check_simplicity (verifier) measure only the pairs their culls cannot rule
out.  On a fan, all three bound pairs by cones about its shared junctions.
Elsewhere tolerance_report walks the pairs that hold a moved stick by box
gap, or by the pairwise half-plane bound where two sticks hang from the
axis, and those of two unmoved tent sticks only when a bound from their
half-planes does not clear them; the verifier walks the pairs of its axis
sticks, or sweeps one box per stick in z.  Their minima, verdicts and
details must equal those of the loops in oracles.py that measure every
pair, float for float.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

import oracles
import parity
from stickforge import _builder_culls, _verifier_float, equilateral_builder, verifier
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


def _walks(monkeypatch):
    """Record the rows of every box-gap walk of the builder's cull, copied
    before the walk pops them: on each slab, none on the fan cull, one over
    the pairs that hold a swept stick, and a second over the pairs of two
    unmoved sticks when the unmoved bound does not clear the first walk's
    minimum; then one over the pairs across slabs when a cut gap does not
    clear it."""
    walks = []
    monkeypatch.setattr(_builder_culls, "_walk", lambda rows, *args, real=_builder_culls._walk: (
        walks.append([*rows]), real(rows, *args))[1])
    return walks


def _verifier_paths(monkeypatch):
    """Record the culls that each float check of the verifier takes, one
    list per check with one entry per slab of its frame: "fan", "bound"
    (the axis walk settles every pair of the slab) or "sweep" (the sweep,
    at once or after part of the walk); then "across" when the pairs
    across slabs are swept too."""
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
    walks = _walks(monkeypatch)
    rng = random.Random(11)
    verdicts, paths = set(), set()
    for emb in builds:
        for case in [emb, *_mutants(emb, rng)]:
            checks.clear()
            walks.clear()
            _assert_matches_reference(case)
            paths.add((len(walks), *map(tuple, checks)))
            segs = [(s.a, s.b) for s in case.sticks]
            verdicts.add(check_simplicity(segs, scale=case.M).ok)
    assert verdicts == {True, False}
    # on frames of one slab: the fan cull in all three passes (no walk);
    # the builder's walk over the swept pairs, alone and followed by the
    # unmoved pairs; and beside them the verifier's axis walk and its
    # sweep, which the two checks can take apart on one mutant (their keys
    # and minima differ)
    assert {(w, *a, *b) for w, a, b in paths if len(a) == len(b) == 1} == \
        {(0, "fan", "fan"), (1, "bound", "bound"), (1, "bound", "sweep"),
         (2, "bound", "bound"), (2, "sweep", "bound"), (2, "sweep", "sweep")}
    # frames cut at x-gaps (assembled parts, or a stick a mutant slid off
    # its neighbours) take every cull slab by slab, and the sweep across
    # slabs where a cut gap does not clear the least distance
    assert {x for _, a, b in paths if len(a) > 1 for x in a + b} == {"fan", "bound", "sweep", "across"}


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
    calls = _visits(monkeypatch, equilateral_builder, verifier)
    walks = _walks(monkeypatch)
    for run in (lambda: tolerance_report(emb), lambda: check_equilateral(emb),
                lambda: check_simplicity(segs, scale=emb.M)):
        calls.clear()
        run()
        ((_, pairs),) = calls
        assert len(pairs) == len(set(pairs))
        assert all(i < k for i, k in pairs)
        assert len(pairs) < n * (n - 1) // 2 / 10
    # tolerance_report settles the frame on its swept pairs alone
    assert len(walks) == 1


def test_swept_walk_work_guard(monkeypatch):
    # random_presentation(0, 'bouquet', 150): keyed by the pairwise
    # half-plane bound, the swept walk measures 3 pairs (126 by box gap
    # alone), and the minimum is the all-pairs one
    emb = _build(random_presentation(0, "bouquet", 150))
    ref, measured = oracles.all_pairs_tolerance(emb), []
    monkeypatch.setattr(equilateral_builder, "_seg_distance", lambda *args, real=equilateral_builder._seg_distance: (
        measured.append(args), real(*args))[1])
    assert tolerance_report(emb) == ref
    assert 0 < len(measured) <= 10


def test_seg_distance_is_not_symmetric_to_the_last_bit():
    emb = _build(catalog("trefoil"))
    s2, s4 = emb.sticks[2], emb.sticks[4]
    least = equilateral_builder._seg_distance(s2.a, s2.b, s4.a, s4.b)
    assert tolerance_report(emb).min_clearance == least
    assert least != equilateral_builder._seg_distance(s4.a, s4.b, s2.a, s2.b)
    assert verifier.seg_distance(s2.a, s2.b, s4.a, s4.b) != \
        verifier.seg_distance(s4.a, s4.b, s2.a, s2.b)


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

    monkeypatch.setattr(equilateral_builder, "_seg_distance", spy(equilateral_builder._seg_distance))
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
    calls = _visits(monkeypatch, equilateral_builder)
    walks = _walks(monkeypatch)
    assert tolerance_report(out) == out.tolerance == oracles.all_pairs_tolerance(out)
    ((segs, pairs),) = calls
    assert len(segs) == len(out.sticks)
    part = [s.component for s in out.sticks]
    keys = [{s.ja, s.jb} for s in out.sticks]
    in_part = [equilateral_builder._seg_distance(*segs[i], *segs[j])
               for i in range(len(segs)) for j in range(i + 1, len(segs))
               if part[i] == part[j] and keys[i].isdisjoint(keys[j])]
    crossing = [(i, j) for i, j in pairs if part[i] != part[j]]
    if in_part:
        # some in-part pair lies below M, so the parts' gap of M rules out the rest
        assert min(in_part) < out.M
        assert crossing == []
        # each part walks its swept pairs about its own axis, and its
        # unmoved bound clears the rest
        assert len(walks) == len(out.components)
    else:
        # every in-part pair shares a junction, so the least clearance lies
        # between parts and cross-part pairs must be measured: the parts
        # crowd one spot each, and one walk takes the pairs across them
        assert crossing and out.tolerance.min_clearance > out.M
        assert len(walks) == 1


def _split(emb):
    """The indices of the swept sticks, as tolerance_report picks them."""
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
                d = equilateral_builder._seg_distance(si.a, si.b, emb.sticks[k].a, emb.sticks[k].b)
                held = i in swept or k in swept
                least[held] = min(least[held], d)
    return least[0] <= least[1]


def test_split_tolerance_matches_all_pairs_on_workload_frames(workload_frames, monkeypatch):
    fans, measured = [], []
    monkeypatch.setattr(_builder_culls, "_fan_pairs", lambda *args, real=_builder_culls._fan_pairs: (
        fans.append(1), real(*args))[1])
    monkeypatch.setattr(equilateral_builder, "_seg_distance", lambda *args, real=equilateral_builder._seg_distance: (
        measured.append(args), real(*args))[1])
    walks = _walks(monkeypatch)
    for w, frames in workload_frames.items():
        fans.clear()
        unmoved = repeats = 0
        for red in frames:
            measured.clear()
            walks.clear()
            report = tolerance_report(red)
            repeats += len(measured) - len(set(measured))
            unmoved += len(walks) == 2
            assert report == oracles.all_pairs_tolerance(red)
        # no pair is measured twice; the swept pairs settle every large
        # frame, and of the small ones 4 crowd one spot and go to the fan
        # cull and 10 walk their unmoved pairs too
        assert (len(frames), repeats, len(fans), unmoved) == \
            ((4, 0, 0, 0) if w == "random-large" else (149, 0, 4, 10))
    # five small frames hold their least clearance on a pair of unmoved sticks
    assert sum(map(_least_unmoved_first, workload_frames["random-small"])) == 5


def test_tolerance_matches_all_pairs_on_tents(monkeypatch):
    # build_tents frames: nothing has moved, so the swept walk is empty and
    # every frame that does not crowd one spot walks its unmoved pairs
    walks, paths = _walks(monkeypatch), set()
    aps = [catalog(name) for name in catalog_names()]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    for ap in aps:
        for vp in equal_length_parts(validate_presentation(ap)):
            tents = build_tents(vp, 4.0 * vp.m)
            walks.clear()
            assert tolerance_report(tents) == oracles.all_pairs_tolerance(tents)
            paths.add(tuple(map(bool, walks)))
    assert paths == {(), (False, True)}


def _reduced(name):
    return reduce_top(build_tents(validate_presentation(catalog(name)), 24.0))


def _segs_ends(emb):
    """tolerance_report's segments and junction keys of emb."""
    return ([(s.a, s.b) for s in emb.sticks],
            [((s.component, s.ja), (s.component, s.jb)) for s in emb.sticks])


def _unmoved_bound(segs, ends, swept):
    """The builder's unmoved bound, about the z axis, of the sticks of segs
    outside swept."""
    planes = [_builder_culls._half_plane(a, b, AXIS) for a, b in segs]
    return _builder_culls._unmoved_bound(segs, planes, ends, [i for i in range(len(segs)) if i not in swept], AXIS)


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
    red = _reduced("trefoil")
    walks = _walks(monkeypatch)
    assert tolerance_report(red) == oracles.all_pairs_tolerance(red)
    assert len(walks) == 1   # as built, the unmoved bound clears the swept pairs
    emb = mutate(red)
    segs, ends = _segs_ends(emb)
    assert _unmoved_bound(segs, ends, _split(emb)) == 0.0
    walks.clear()
    assert tolerance_report(emb) == oracles.all_pairs_tolerance(emb)
    assert len(walks) == 2


def test_split_falls_back_when_the_bound_does_not_clear(monkeypatch):
    # the same frame, with visit claiming every swept pair lies far apart:
    # the unmoved pairs could then hold the least clearance
    red = _reduced("trefoil")
    segs, ends = _segs_ends(red)
    swept, n = _split(red), len(segs)
    bound = _unmoved_bound(segs, ends, swept)
    assert 0.0 < bound < math.inf
    walks = _walks(monkeypatch)
    for claim, passes in ((bound / 2, 1), (bound, 2), (math.inf, 2)):
        walks.clear()
        assert _builder_culls._near_pairs(segs, ends, swept, lambda i, ks: claim) == claim
        assert len(walks) == passes
    # claiming inf, every pair is walked once: those that hold a swept
    # stick first, then those of two unmoved sticks
    first, second = ([(i, k) for _, i, k in rows] for rows in walks)
    assert sorted(first + second) == [(i, k) for i in range(n) for k in range(i + 1, n)]
    assert all(i in swept or k in swept for i, k in first)
    assert not any(i in swept or k in swept for i, k in second)


def test_split_bound_counts_the_slope(monkeypatch):
    # two unmoved sticks on opposite pages with axis ends 1 apart, one
    # nearly vertical, pass within cos(theta) 1, about 0.0995, of each
    # other, far below the swept stick's least distance of about 0.6: the
    # bound is as small, does not clear, and the unmoved pair is walked
    sticks = [EStick((0.0, 0.0, 0.0), (0.1, 0.0, 0.995), 0, "arc1.lower", "bp0", "apex1"),
              EStick((0.0, 0.0, 1.0), (-1.0, 0.0, 1.0), 0, "arc2.upper", "bp1", "apex2"),
              EStick((0.05, 0.6, 0.5), (0.05, 0.6, 0.9), 0, "join3", "hub", "end3")]
    emb = EquilateralEmbedding(sticks=sticks, M=1.0, components=[])
    segs, ends = _segs_ends(emb)
    assert 0.099 < _unmoved_bound(segs, ends, [2]) < 0.1
    walks = _walks(monkeypatch)
    report = tolerance_report(emb)
    assert report == oracles.all_pairs_tolerance(emb) and report.min_clearance < 0.1
    assert len(walks) == 2


def test_unmoved_bound_equals_the_reference(workload_frames):
    # _unmoved_bound sorts its sticks by azimuth and by height once, and
    # its heights without their keys; B must equal the bound as first
    # written, float for float: on every reduced frame of the workloads,
    # on tents where nothing moved, and on frames off its shape
    red = _reduced("trefoil")
    frames = [*workload_frames["random-large"], *workload_frames["random-small"], _tilted(red),
              _shared_azimuth(red)]
    frames += [build_tents(vp, 4.0 * vp.m) for name in catalog_names()
               for vp in equal_length_parts(validate_presentation(catalog(name)))]
    kinds = set()
    for emb in frames:
        segs, ends = _segs_ends(emb)
        planes = [_builder_culls._half_plane(a, b, AXIS) for a, b in segs]
        swept = set(_split(emb))
        unmoved = [i for i in range(len(segs)) if i not in swept]
        got = _builder_culls._unmoved_bound(segs, planes, ends, unmoved, AXIS)
        assert got.hex() == oracles.unmoved_bound(segs, planes, ends, unmoved, AXIS).hex()
        kinds.add("0" if got == 0 else "inf" if got == math.inf else "finite")
    assert kinds == {"0", "finite", "inf"}


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
    calls = _visits(monkeypatch, equilateral_builder, verifier)
    walks = _walks(monkeypatch)
    bounds = []
    for module in (_builder_culls, _verifier_float):
        monkeypatch.setattr(module, "_ray_bound", lambda *args, real=module._ray_bound: (
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
    assert walks == []   # the fan goes to the fan cull, not a box-gap walk


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
    walks = _walks(monkeypatch)
    _assert_matches_reference(_random_fan(seed))
    assert sweeps == walks == []    # the fan cull ran in all three passes


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
            and equilateral_builder._seg_distance(*segs[i], *segs[k]) <= least}
    for near_pairs in (lambda visit: equilateral_builder._near_pairs(segs, ends, [], visit),
                       lambda visit: verifier._near_pairs(segs, ends, 1e-6, visit)):
        seen = []

        def visit(i, ks):
            seen.extend((i, k) for k in ks)
            return least
        assert near_pairs(visit) == least
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
    paths = _verifier_paths(monkeypatch)
    emb = _build(ap)
    _assert_rejects_scale(emb, scale)
    assert paths == []
    _assert_matches_reference(emb)
    assert paths == [path] * 2


def test_fan_checks_pinned():
    # the fan-checks set of tests/parity.py: repr(tolerance_report(emb)) and
    # every check_equilateral and float check_simplicity entry, witnesses
    # included, of theta_trivial(8), (16), ..., (128) and three shifted-end
    # mutants of each
    assert parity.fan_checks() == "a96338192dc85607383c3d745e10c597b518744fe72ac5c6e2377bbefda6afb1"
