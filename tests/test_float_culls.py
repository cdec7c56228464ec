"""The culled float pair passes against their all-pairs references.

tolerance_report (builder) and check_equilateral's clearance and float
check_simplicity (verifier) measure only the pairs a box sweep cannot rule
out.  Their minima, verdicts and details must equal those of the loops in
oracles.py that measure every pair, float for float.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

import oracles
from stickforge import equilateral_builder, verifier
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.equilateral_builder import EquilateralEmbedding, EStick, build_equilateral, tolerance_report
from stickforge.randgen import PROFILES, random_presentation
from stickforge.verifier import TOLERANCES, check_equilateral, check_simplicity


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


def test_culled_passes_match_all_pairs(builds, monkeypatch):
    swept = []
    for module in (equilateral_builder, verifier):
        monkeypatch.setattr(module, "_boxes", lambda segs, real=module._boxes: (
            swept.append(len(segs)), real(segs))[1])
    rng = random.Random(11)
    verdicts, paths = set(), set()
    for emb in builds:
        for case in [emb, *_mutants(emb, rng)]:
            swept.clear()
            _assert_matches_reference(case)
            paths.add(len(swept))
            segs = [(s.a, s.b) for s in case.sticks]
            verdicts.add(check_simplicity(segs, scale=case.M).ok)
    assert verdicts == {True, False}
    assert paths == {0, 3}    # both the plain order and the sweep ran


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
    # the sweep meets the pair (8, 10) at 1e-7 long before the
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
    for run in (lambda: tolerance_report(emb), lambda: check_equilateral(emb),
                lambda: check_simplicity(segs, scale=emb.M)):
        calls.clear()
        run()
        ((_, pairs),) = calls
        assert len(pairs) == len(set(pairs))
        assert all(i < k for i, k in pairs)
        assert len(pairs) < n * (n - 1) // 2 / 10


def test_seg_distance_is_not_symmetric_to_the_last_bit():
    emb = _build(catalog("trefoil"))
    s2, s4 = emb.sticks[2], emb.sticks[4]
    least = equilateral_builder._seg_distance(s2.a, s2.b, s4.a, s4.b)
    assert tolerance_report(emb).min_clearance == least
    assert least != equilateral_builder._seg_distance(s4.a, s4.b, s2.a, s2.b)
    assert verifier.seg_distance(s2.a, s2.b, s4.a, s4.b) != \
        verifier.seg_distance(s4.a, s4.b, s2.a, s2.b)


@pytest.mark.parametrize("name", ["trefoil", "theta_trivial(8)"], ids=["swept", "plain"])
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
    calls = _visits(monkeypatch, equilateral_builder)
    out = _build(ap)
    assert len(out.components) > 1
    segs, pairs = calls[-1]
    assert len(segs) == len(out.sticks)
    part = [s.component for s in out.sticks]
    assert out.tolerance == oracles.all_pairs_tolerance(out)
    keys = [{s.ja, s.jb} for s in out.sticks]
    in_part = [equilateral_builder._seg_distance(*segs[i], *segs[j])
               for i in range(len(segs)) for j in range(i + 1, len(segs))
               if part[i] == part[j] and keys[i].isdisjoint(keys[j])]
    crossing = [(i, j) for i, j in pairs if part[i] != part[j]]
    if in_part:
        # some in-part pair lies below M, so the parts' gap of M rules out the rest
        assert min(in_part) < out.M
        assert crossing == []
    else:
        # every in-part pair shares a junction, so the least clearance lies
        # between parts and cross-part pairs must be measured
        assert crossing and out.tolerance.min_clearance > out.M
