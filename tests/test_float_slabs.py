"""The float culls cut each frame at its x-gaps and walk every slab about
its own axis line.

assemble_split places the parts of a split presentation at least M apart
in x.  tolerance_report (builder) and check_equilateral's clearance and
float check_simplicity (verifier) share one cull, which cuts the frame
into slabs wherever no stick box spans an x-gap, culls each slab about the
vertical line through the slab's lowest end, and sweeps the pairs across
slabs only when the least cut gap does not clear the least distance.  Their
minima, verdicts and witnesses must equal those of the loops in oracles.py
that measure every pair, float for float, on assembled frames as built
and on frames that break the assembly's shape.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import oracles
import parity
from stickforge import _verifier_float, verifier
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.equilateral_builder import EquilateralError, build_equilateral, tolerance_report
from stickforge.randgen import PROFILES, random_presentation
from stickforge.verifier import check_equilateral, check_simplicity


def _build(ap):
    return build_equilateral(validate_presentation(ap))


def _checks(emb):
    """tolerance_report's minimum as float.hex, then (passed, witness) of
    equilateral.clearance and of the float check_simplicity."""
    segs = [(s.a, s.b) for s in emb.sticks]
    (clear,) = [e for e in check_equilateral(emb).entries if e.check == "equilateral.clearance"]
    (simple,) = check_simplicity(segs, scale=emb.M).entries
    return [tolerance_report(emb).min_clearance.hex(), (clear.passed, clear.witness), (simple.passed, simple.witness)]


def _references(emb):
    segs = [(s.a, s.b) for s in emb.sticks]
    return [oracles.all_pairs_tolerance(emb).min_clearance.hex(), oracles.all_pairs_clearance(emb),
            oracles.all_pairs_float_simplicity(segs, scale=emb.M)]


@pytest.fixture
def slabs(monkeypatch):
    """One entry per float pass run after the fixture is cleared: the
    number of slabs it cuts its frame into, and whether it swept pairs
    across slabs."""
    passes = []

    def cut(*args, real=_verifier_float._slabs):
        got = real(*args)
        passes.append([len(got[0]), False])
        return got

    def sweep(*args, real=_verifier_float._sweep):
        passes[-1][1] |= not isinstance(getattr(args[-1], "__self__", None), set)   # not a slab's own
        return real(*args)

    monkeypatch.setattr(_verifier_float, "_slabs", cut)
    monkeypatch.setattr(_verifier_float, "_sweep", sweep)
    return passes


def _counts(passes):
    return [n for n, _ in passes], [across for _, across in passes]


def _assembled():
    aps = [catalog(name) for name in catalog_names()]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    return [emb for emb in map(_build, aps) if len(emb.components) > 1]


def test_assembled_frames_match_all_pairs(slabs):
    frames = _assembled()
    assert len(frames) == 12   # two unlinks and ten multi draws
    for emb in frames:
        slabs.clear()
        assert _checks(emb) == _references(emb)
        # each part is its own slab, in all three passes
        assert _counts(slabs)[0] == [len(emb.components)] * 3


def _shifted(emb, parts, dx):
    """emb with the sticks of the components in parts moved by dx in x."""
    def move(p):
        return (p[0] + dx, p[1], p[2])
    return replace(emb, sticks=[replace(s, a=move(s.a), b=move(s.b)) if s.component in parts else s
                                for s in emb.sticks])


def _x_range(emb, part):
    xs = [p[0] for s in emb.sticks if s.component == part for p in (s.a, s.b)]
    return min(xs), max(xs)


def _moved(emb, i, end, point):
    sticks = list(emb.sticks)
    sticks[i] = replace(sticks[i], **{end: point})
    return replace(emb, sticks=sticks)


@pytest.fixture(scope="module")
def pair():
    """A frame of two parts, of 33 and 27 sticks."""
    emb = _build(random_presentation(8, "multi", 40))
    assert len(emb.components) == 2
    return emb


def _to_gap(emb, gap):
    """emb with its second part moved in x until it lies gap from the first
    (a gap of 0 touches, a negative one overlaps)."""
    return _shifted(emb, {1}, (_x_range(emb, 0)[1] + gap) - _x_range(emb, 1)[0])


def _lowest(emb, part):
    """The index and end of the first stick of part with an end at the
    part's least height."""
    z = min(p[2] for s in emb.sticks if s.component == part for p in (s.a, s.b))
    return next((i, end) for i, s in enumerate(emb.sticks) if s.component == part
                for end in "ab" if getattr(s, end)[2] == z)


def _off_axis(emb):
    """An axis end of each part moved one ulp off its axis line: in the
    first part the lowest end, which sets the line, and in the second an
    axis end above it."""
    i, end = _lowest(emb, 0)
    p = getattr(emb.sticks[i], end)
    emb = _moved(emb, i, end, (math.nextafter(p[0], math.inf), p[1], p[2]))
    k, end = _lowest(emb, 1)
    line = getattr(emb.sticks[k], end)[:2]
    k, end = next((k, end) for k, s in enumerate(emb.sticks) if s.component == 1 for end in "ab"
                  if getattr(s, end)[:2] == line and getattr(s, end)[2] > 0.0)
    q = getattr(emb.sticks[k], end)
    return _moved(emb, k, end, (q[0], math.nextafter(q[1], math.inf), q[2]))


def _wrong_offsets(emb):
    return replace(emb, components=[replace(c, offset=(-3.0 * emb.M * (c.index + 1), 7.0, 5.0))
                                    for c in emb.components])


def _crossing(emb):
    """The free end of a stick of the second part moved onto the middle of
    a stick of the first: a crossing across the parts."""
    i = next(i for i, s in enumerate(emb.sticks) if s.component == 0)
    k = next(k for k, s in enumerate(emb.sticks) if s.component == 1 and s.a[1] == 0.0)
    s = emb.sticks[i]
    return _moved(emb, k, "b", tuple((u + v) / 2 for u, v in zip(s.a, s.b)))


@pytest.mark.parametrize("mutate, want_slabs, want_across", [
    (lambda emb: emb, 2, False),
    (lambda emb: _to_gap(emb, 0.0), 1, False),                # touching: no box spans a gap, and none is left
    (lambda emb: _to_gap(emb, -0.5 * emb.M), 1, False),       # overlapping
    (lambda emb: _to_gap(emb, 0.5 * tolerance_report(emb).min_clearance), 2, True),   # the cut gap does not clear
    (_off_axis, 2, False),
    (_wrong_offsets, 2, False),
    (_crossing, 1, False),                                    # the moved stick spans the gap
], ids=["as-built", "touching", "overlapping", "near", "ulp-off-axis", "wrong-offset", "crossing"])
def test_adversarial_assembled_frames_match_all_pairs(pair, slabs, mutate, want_slabs, want_across):
    emb = mutate(pair)
    slabs.clear()
    assert _checks(emb) == _references(emb)
    assert _counts(slabs) == ([want_slabs] * 3, [want_across] * 3)


def test_wrong_offsets_change_nothing(pair):
    # no float pass reads ComponentInfo.offset: its axes come from coordinates
    assert _checks(_wrong_offsets(pair)) == _checks(pair)


def test_crossing_across_parts_fails_both_checks(pair):
    emb = _crossing(pair)
    _, (clear, _), (simple, _) = _checks(emb)
    assert not clear and not simple
    assert tolerance_report(emb).min_clearance < 1e-9 * emb.M


@pytest.mark.parametrize("gap", [None, 0.0, 0.25], ids=["as-built", "touching", "near"])
def test_three_part_frame_matches_all_pairs(slabs, gap):
    # random_presentation(1, 'multi', 30): parts of 15, 17 and 13 sticks;
    # the middle part moved to touch the first, or to lie a quarter of the
    # least clearance from it
    emb = _build(random_presentation(1, "multi", 30))
    assert len(emb.components) == 3
    if gap is not None:
        emb = _shifted(emb, {1, 2}, (_x_range(emb, 0)[1] + gap * tolerance_report(emb).min_clearance)
                       - _x_range(emb, 1)[0])
    slabs.clear()
    assert _checks(emb) == _references(emb)
    assert _counts(slabs) == ([2 if gap == 0.0 else 3] * 3, [gap == 0.25] * 3)


def _work(embs, run, module, kernel):
    """(pairs measured by the kernel, rows the axis walk built) of run over
    embs."""
    pairs = rows = 0

    def count_pair(*args, real=getattr(module, kernel)):
        nonlocal pairs
        pairs += 1
        return real(*args)

    def count_rows(*args, real=_verifier_float._rows):
        nonlocal rows
        rows += len(args[2])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, kernel, count_pair)
        mp.setattr(_verifier_float, "_rows", count_rows)
        for emb in embs:
            run(emb)
    return pairs, rows


def test_assembled_frames_cost_their_parts():
    # random-small at seed 1: 28 assembled frames and 84 single ones.  On
    # the assembled frames each float pass measured 5,970 pairs when the
    # cull saw one frame; walked part by part it measures 658.  Single
    # frames are one slab about x = y = 0 and keep their work exactly.
    bw = parity._bench_workloads()
    builds = []
    for job in bw.make("random-small", 1):
        try:
            builds.append(_build(job.presentation))
        except EquilateralError:
            pass
    single = [e for e in builds if len(e.components) == 1]
    assembled = [e for e in builds if len(e.components) > 1]
    assert (len(single), len(assembled)) == (84, 28)

    def simplicity(emb):
        return check_simplicity([(s.a, s.b) for s in emb.sticks], scale=emb.M)

    for run, kernel in ((tolerance_report, (_verifier_float, "seg_distance")),
                        (check_equilateral, (_verifier_float, "seg_distance")), (simplicity, (verifier, "seg_distance"))):
        assert _work(single, run, *kernel) == (515, 7_919)
        assert _work(assembled, run, *kernel)[0] <= 700
