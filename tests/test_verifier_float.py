"""The verifier's axis walk and fold pass against the all-pairs references.

check_equilateral's clearance and float check_simplicity walk their pairs
best first, keyed by box gap or by the pairwise half-plane bound of two
axis sticks (one end on the z axis), bound the pairs of the axis sticks
not yet moved into the walk at once, from their half-planes, and fall back
to a sweep in z over one box per stick on frames off that shape.
Float check_simplicity then fold-tests the pairs that its fold pass hands
over at the points that stick ends share.  Their verdicts and details must
equal those of the loops in oracles.py that measure every pair, float for
float, whichever cull runs.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import oracles
import parity
from stickforge import _verifier_float, verifier
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.equilateral_builder import EquilateralEmbedding, EquilateralError, EStick, build_equilateral
from stickforge.randgen import PROFILES, random_presentation
from stickforge.verifier import TOLERANCES, check_equilateral, check_simplicity


def _build(ap):
    return build_equilateral(validate_presentation(ap))


def _checks(emb):
    """(passed, witness) of equilateral.clearance and of float simplicity."""
    segs = [(s.a, s.b) for s in emb.sticks]
    (clear,) = [e for e in check_equilateral(emb).entries if e.check == "equilateral.clearance"]
    (simple,) = check_simplicity(segs, scale=emb.M).entries
    return [(clear.passed, clear.witness), (simple.passed, simple.witness)]


def _references(emb):
    segs = [(s.a, s.b) for s in emb.sticks]
    return [oracles.all_pairs_clearance(emb), oracles.all_pairs_float_simplicity(segs, scale=emb.M)]


@pytest.fixture
def paths(monkeypatch):
    """The cull each float check takes, one entry per check: "fan", "bound"
    (the axis walk settles every pair) or "sweep" (the sweep, at once
    or after part of the walk); and the axis sticks that each check's walk
    moved, one entry per check that took the walk.  build_equilateral runs
    the cull too, in tolerance_report, so a test that builds clears the
    record after the build."""
    taken, moves = [], []

    def spy(name, mark):
        def wrapped(*args, real=getattr(_verifier_float, name)):
            mark(*args)
            return real(*args)
        monkeypatch.setattr(_verifier_float, name, wrapped)

    def rows(boxes, j, ks):
        if boxes[j][2] is not None:   # the rows of a moved axis stick
            moves[-1] += 1

    spy("_fan_pairs", lambda *args: taken.append("fan"))
    spy("_axis_pairs", lambda *args: (taken.append("bound"), moves.append(0)))
    spy("_sweep", lambda *args: taken.__setitem__(-1, "sweep"))
    spy("_rows", rows)
    return taken, moves


@pytest.fixture(scope="module")
def large():
    """The equal-length builds of the random-large workload at seed 1."""
    bw = parity._bench_workloads()
    return [_build(job.presentation) for job in bw.make("random-large", 1)]


def test_axis_walk_matches_all_pairs_on_builds(large, paths):
    taken, _ = paths
    aps = [catalog(name) for name in catalog_names()]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    seen = set()
    for emb in [*map(_build, aps), *large]:
        taken.clear()
        assert _checks(emb) == _references(emb)
        seen.update(taken)
    assert seen == {"fan", "bound", "sweep"}


def test_axis_walk_settles_the_large_frames(large, paths, monkeypatch):
    taken, moves = paths
    measured = Counter()   # the pairs seg_distance measures, per check over the frames
    for module in (_verifier_float, verifier):   # check_equilateral calls it in the one, check_simplicity in the other
        monkeypatch.setattr(module, "seg_distance", lambda *args, real=module.seg_distance: (
            measured.update([len(taken)]), real(*args))[1])
    for emb in large:
        taken.clear()
        moves.clear()
        _checks(emb)
        assert taken == ["bound", "bound"]
        # e1, which hugs the axis, moves into the walk, and then the entry clears
        assert moves == [1, 1]
    # a walk that measured all of e1's rows took 877 pairs in each check
    assert sorted(measured) == [1, 2] and max(measured.values()) <= 40, measured


@pytest.fixture(scope="module")
def bouquet():
    return _build(random_presentation(0, "bouquet", 150))


def _axis_sticks(emb):
    """The indices of emb's sticks with exactly one end on the axis, and
    which end that is, steepest first."""
    found = []
    for i, s in enumerate(emb.sticks):
        at_a, at_b = s.a[:2] == (0.0, 0.0), s.b[:2] == (0.0, 0.0)
        if at_a != at_b:
            p, q = (s.a, s.b) if at_a else (s.b, s.a)
            cos = (q[0] ** 2 + q[1] ** 2) ** 0.5 / sum((x - y) ** 2 for x, y in zip(q, p)) ** 0.5
            found.append((cos, i, "a" if at_a else "b"))
    return [(i, end) for _, i, end in sorted(found)]


def _moved(emb, i, end, point):
    sticks = list(emb.sticks)
    sticks[i] = replace(sticks[i], **{end: tuple(point)})
    return replace(emb, sticks=sticks)


def _labels(emb, i):
    return {emb.sticks[i].ja, emb.sticks[i].jb}


def _slid(emb, rank):
    """The axis end of the rank-th steepest axis stick slid along the axis
    to half the floor above the axis end of another tent's stick."""
    axis = _axis_sticks(emb)
    i, end = axis[rank]
    j, other = next((j, e) for j, e in axis if _labels(emb, j).isdisjoint(_labels(emb, i)))
    z = getattr(emb.sticks[j], other)[2] + 0.5 * TOLERANCES.clearance_rel * emb.M
    return _moved(emb, i, end, (0.0, 0.0, z))


def _free(end):
    return "b" if end == "a" else "a"


def _one_azimuth(emb):
    """The flattest axis stick's free end moved to half the free end of the
    flattest axis stick of another tent, at the same azimuth to the last
    bit."""
    axis = _axis_sticks(emb)
    i, ei = axis[-1]
    j, ej = next((j, e) for j, e in reversed(axis) if _labels(emb, j).isdisjoint(_labels(emb, i)))
    q = getattr(emb.sticks[j], _free(ej))
    return _moved(emb, i, _free(ei), (q[0] / 2, q[1] / 2, getattr(emb.sticks[i], _free(ei))[2]))


def _steep(emb):
    """The free end of the axis stick that rises most, and of its tent
    partner, drawn in towards the axis in their half-plane until the
    stick's cos theta is about 0.002, a fifth of e1's."""
    def rise(i, end):
        s = emb.sticks[i]
        return abs(s.a[2] - s.b[2]), i, end
    _, i, end = max(rise(i, end) for i, end in _axis_sticks(emb)[1:])
    q, p = getattr(emb.sticks[i], _free(end)), getattr(emb.sticks[i], end)
    f = 0.002 * abs(q[2] - p[2]) / math.hypot(q[0], q[1])
    for j, s in enumerate(emb.sticks):
        for e in "ab":
            if getattr(s, e) == q:
                emb = _moved(emb, j, e, (q[0] * f, q[1] * f, q[2]))
    return emb


@pytest.mark.parametrize("mutate, want, moves, passes", [
    # an axis end slid, e1's or another's: dzmin, and K with it, falls
    # below the floor, the entry never clears, and the sweep takes over
    (lambda emb: _slid(emb, 0), "sweep", None, False),
    (lambda emb: _slid(emb, 5), "sweep", None, False),
    (_one_azimuth, "sweep", None, True),   # K = 0
    (_steep, "bound", 2, False),           # the steep stick moves in, then e1
], ids=["slid-e1", "slid", "one-azimuth", "steep"])
def test_axis_walk_matches_all_pairs_on_mutants(bouquet, paths, mutate, want, moves, passes):
    taken, moved = paths
    emb = mutate(bouquet)
    got = _checks(emb)
    assert got == _references(emb)
    assert [passed for passed, _ in got] == [passes, passes]
    assert taken == [want, want]
    if moves is not None:
        assert moved == [moves, moves]


@pytest.fixture(scope="module")
def bench_frames():
    """The equal-length builds of every stickbench workload at seed 1."""
    bw = parity._bench_workloads()
    frames = []
    for w in bw.WORKLOADS:
        for job in bw.make(w, 1):
            try:
                frames.append(_build(job.presentation))
            except EquilateralError:
                pass
    return frames


def test_axis_bound_equals_the_pairwise_reference(bench_frames, bouquet):
    # the walk takes K from neighbours in azimuth and in height order; it
    # must equal K taken over every pair of axis sticks, float for float,
    # under the keys of both checks
    mutants = [_slid(bouquet, 0), _slid(bouquet, 5), _one_azimuth(bouquet), _steep(bouquet)]
    kinds = Counter()
    for emb in [*bench_frames, bouquet, *mutants]:
        segs = [(s.a, s.b) for s in emb.sticks]
        for ends in ([((s.component, s.ja), (s.component, s.jb)) for s in emb.sticks], segs):
            axis = _verifier_float._axis_sticks(segs, ends, range(len(segs)), (0.0, 0.0))
            got, want = _verifier_float._axis_bound(axis, ends), oracles.axis_bound(axis, ends)
            assert got.hex() == want.hex()
            kinds["0" if got == 0 else "inf" if got == math.inf else "finite"] += 1
    assert set(kinds) == {"0", "finite", "inf"} and kinds["finite"] > 100, kinds


def _fold_frames():
    """(segments, M) of the frames that the fold pass is held to: every
    build of the catalog, of random_presentation(s, p, 30) for s < 10 and of
    theta_trivial(8), (16), (32), each followed by its fold mutants; then
    unit sticks at the origin, two at an angle that lies within the sum of
    their fold widths (3e-6 each) but not within one, or past the sum, alone
    or with a third stick there."""
    aps = [catalog(name) for name in catalog_names()]
    aps += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    aps += [catalog(f"theta_trivial({n})") for n in (8, 16, 32)]
    for ap in aps:
        emb = _build(ap)
        for frame in [emb, *filter(None, (parity.fold_mutant(emb, kind) for kind in parity.FOLD_KINDS))]:
            yield [(s.a, s.b) for s in frame.sticks], frame.M
    origin = (0.0, 0.0, 0.0)
    for t in (4.5e-6, 7e-6):
        pair = [(origin, (1.0, 0.0, 0.0)), (origin, (math.cos(t), math.sin(t), 0.0))]
        yield pair, 1.0
        yield [*pair, (origin, (0.0, 0.0, 1.0))], 1.0


def test_fold_pass_hands_over_the_box_sweep_pairs():
    # the fold pass computes one unit and width per stick and negates it at
    # end b; it must hand over the pairs of the box sweep as first written,
    # at points of two ends and at points of three or more (every hub of a
    # theta fan)
    crowded = handed = 0
    for segs, M in _fold_frames():
        floor = TOLERANCES.clearance_rel * M
        got, want = [], []
        _verifier_float._fold_pairs(segs, floor, lambda i, ks: got.extend((i, k) for k in ks))
        oracles.box_sweep_fold_pairs(segs, floor, lambda i, ks: want.extend((i, k) for k in ks))
        assert sorted(got) == sorted(want)
        crowded += max(Counter(p for a, b in segs for p in {a, b}).values()) >= 3
        handed += len(got)
    assert crowded > 100 and handed > 0


def _visits(monkeypatch):
    """The pairs that each call of _near_pairs hands to visit, from
    check_equilateral through _verifier_float._clearance and from
    check_simplicity in verifier."""
    calls = []

    def spy(real):
        def near_pairs(segs, ends, floor, visit):
            pairs = []
            calls.append(pairs)

            def counted(i, ks):
                ks = list(ks)
                pairs.extend((i, k) for k in ks)
                return visit(i, ks)
            return real(segs, ends, floor, counted)
        return near_pairs

    for module in (_verifier_float, verifier):
        monkeypatch.setattr(module, "_near_pairs", spy(module._near_pairs))
    return calls


def test_axis_walk_visits_few_pairs(bouquet, monkeypatch):
    # the axis walk hands over 12 pairs in each check, the nearest rows of
    # the one stick off the axis and of e1, and leaves the pairs that share
    # a key to the fold pass; a walk of all the rows of those two sticks
    # handed over 159, and the piece sweep before it 1,740
    sweeps = []
    monkeypatch.setattr(_verifier_float, "_sweep", lambda *args, real=_verifier_float._sweep: (
        sweeps.append(1), real(*args))[1])
    calls = _visits(monkeypatch)
    assert _checks(bouquet) == _references(bouquet)
    assert sweeps == [] and len(calls) == 2
    for pairs in calls:
        assert len(pairs) == len(set(pairs)) and all(i < k for i, k in pairs)
        assert len(pairs) <= 40


def _unit_sticks(seed, n):
    """Two frames: n unit sticks with random directions and midpoints spread
    over a cube of side 20, none with an end on the axis; and the same
    sticks with the second slid to within half the floor of the first."""
    rng = random.Random(seed)
    sticks = []
    for k in range(n):
        mid = [rng.uniform(0.0, 20.0) for _ in range(3)]
        z, a = rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)
        d = (math.sqrt(1 - z * z) * math.cos(a) / 2, math.sqrt(1 - z * z) * math.sin(a) / 2, z / 2)
        sticks.append(EStick(tuple(m - e for m, e in zip(mid, d)), tuple(m + e for m, e in zip(mid, d)),
                             0, f"s{k}", f"s{k}.a", f"s{k}.b"))
    emb = EquilateralEmbedding(sticks=sticks, M=1.0, components=[])
    shift = 0.5 * TOLERANCES.clearance_rel
    slid = replace(sticks[1], a=(sticks[0].a[0] + shift, *sticks[0].a[1:]),
                   b=(sticks[0].b[0] + shift, *sticks[0].b[1:]))
    return emb, replace(emb, sticks=[sticks[0], slid, *sticks[2:]])


def test_sweep_matches_all_pairs_on_unit_sticks(paths, monkeypatch):
    # a frame off the open book: no stick has an end on the axis, so the
    # sweep takes every pair, and it meets few of them
    taken, _ = paths
    calls = _visits(monkeypatch)
    for emb, passes in zip(_unit_sticks(3, 300), (True, False)):
        taken.clear()
        calls.clear()
        got = _checks(emb)
        assert got == _references(emb)
        assert [passed for passed, _ in got] == [passes, passes]
        assert taken == ["sweep", "sweep"]
        assert all(len(pairs) == len(set(pairs)) < len(emb.sticks) for pairs in calls)


@pytest.mark.parametrize("ap, kind, want", [
    (catalog("trefoil"), "bp", ["bound"]),       # two axis sticks left by the walk
    (catalog("trefoil"), "apex", ["bound"]),
    (catalog("trefoil"), "end", ["bound"]),      # a joiner's end<p>
    (random_presentation(3, "multi", 40), "bp", ["bound", "bound"]),   # each part about its own axis
    (catalog("theta_trivial(16)"), "hub", ["fan"]),
], ids=["axis-point", "apex", "joiner-end", "assembled", "hub"])
def test_fold_pass_matches_all_pairs_on_fold_mutants(paths, ap, kind, want):
    # a stick folded back along its neighbour at the point they share; the
    # culls need not hand that pair over, and the fold pass finds it
    emb = parity.fold_mutant(_build(ap), kind)
    taken, _ = paths
    taken.clear()
    segs = [(s.a, s.b) for s in emb.sticks]
    (entry,) = check_simplicity(segs, scale=emb.M).entries
    assert (entry.passed, entry.witness) == oracles.all_pairs_float_simplicity(segs, scale=emb.M)
    assert not entry.passed and entry.witness.endswith("fold back along each other")
    assert taken == want


def test_eq_checks_pinned():
    # the eq-checks set of tests/parity.py: the check_equilateral and float
    # check_simplicity summaries of the 171 eq-docs builds, each followed
    # by three shifted-end mutants
    assert parity.eq_checks() == "99f513f0aa8191ecea182c9f31c079470371f923e7d2ad1fee087c8b776d05e8"


def test_fold_checks_pinned():
    # the fold-checks set of tests/parity.py: the float check_simplicity
    # summary of every fold mutant of the catalog and of
    # random_presentation(s, p, 30), s < 10
    assert parity.fold_checks() == "a77a7e359f0f50d8481cf2d867e34ed5256daf4ce104d6f73e2b01ab280b5ca6"
