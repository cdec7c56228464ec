from __future__ import annotations

import ast
import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import parity
from stickforge import _verifier_exact, _verifier_float, equilateral_builder, stick_builder, verifier
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.circular_diagram import to_circular
from stickforge.documents import dumps_document, embedding_from_doc, embedding_to_doc
from stickforge.equilateral_builder import (ComponentInfo, EquilateralEmbedding, EStick, build_equilateral,
                                           build_tents)
from stickforge.randgen import PROFILES, random_presentation
from stickforge.stick_builder import build
from stickforge.verifier import (
    Tolerances,
    check_crossing_order,
    check_equilateral,
    check_projection,
    check_simplicity,
    seg_distance,
    verify_stick_embedding,
)


def trefoil_build():
    cd = to_circular(validate_presentation(catalog("trefoil")))
    return build(cd), cd


def F(x) -> Fraction:
    return Fraction(x)


# ---------------------------------------------------------------------------
# exact-mode unit checks


def test_simplicity_passes_unknot_triangle():
    cd = to_circular(validate_presentation(catalog("unknot")))
    se = build(cd)
    report = check_simplicity([(s.a, s.b) for s in se.sticks])
    assert report.ok


def test_simplicity_catches_undeclared_interior_meeting():
    segs = [
        ((F(0), F(0), F(0)), (F(2), F(2), F(2))),
        ((F(0), F(2), F(0)), (F(2), F(0), F(2))),
    ]
    report = check_simplicity(segs)
    assert not report.ok
    assert "sticks 0 and 1" in report.failures()[0].witness


def test_simplicity_catches_overlap():
    segs = [
        ((F(0), F(0), F(0)), (F(2), F(0), F(0))),
        ((F(1), F(0), F(0)), (F(3), F(0), F(0))),
    ]
    report = check_simplicity(segs)
    assert not report.ok
    assert "overlap" in report.failures()[0].witness


def test_shared_endpoint_exempt():
    segs = [
        ((F(0), F(0), F(0)), (F(1), F(0), F(0))),
        ((F(1), F(0), F(0)), (F(1), F(1), F(0))),
    ]
    assert check_simplicity(segs).ok


def test_projection_and_crossing_order_pass_trefoil():
    se, cd = trefoil_build()
    assert check_projection(se, cd).ok
    report = check_crossing_order(se, cd)
    assert report.ok
    assert "5" in report.entries[0].witness  # all five crossings verified


def test_apex_off_chord_line_caught():
    se, cd = trefoil_build()
    bent = [s for s in se.sticks if s.piece == "left"][0]
    idx = se.sticks.index(bent)
    sticks = list(se.sticks)
    sticks[idx] = replace(bent, b=(bent.b[0] + Fraction(1, 1000), bent.b[1], bent.b[2]))
    se = replace(se, sticks=tuple(sticks))
    report = check_projection(se, cd)
    assert not report.ok


def test_swapped_crossing_heights_caught_with_id(monkeypatch):
    cd = to_circular(validate_presentation(catalog("trefoil")))
    # force l_1 above l_2 by rebuilding with inverted height targets
    forced = {1: 3, 2: 1}
    real = stick_builder.clearance_height
    monkeypatch.setattr(stick_builder, "clearance_height",
                        lambda cd, k, partial: forced[k] if k in forced else real(cd, k, partial))
    se = build(cd)
    report = check_crossing_order(se, cd)
    assert not report.ok
    assert "(1,2)" in report.failures()[0].witness


def test_junction_table_mutation_caught():
    se, cd = trefoil_build()
    b0 = se.junctions[0]
    se.junctions[0] = (b0[0] + Fraction(1, 977), b0[1], b0[2])
    assert not check_projection(se, cd).ok


def test_height_table_mutation_caught():
    se, cd = trefoil_build()
    se.heights[3] = se.heights[3] + 1
    assert not check_projection(se, cd).ok


@pytest.mark.parametrize("key", [99, -1])
def test_junction_key_off_the_boundary_fails_projection(key):
    se, cd = trefoil_build()
    se.junctions[key] = (F(0), F(0), F(1))
    for report in (verify_stick_embedding(se, cd), check_projection(se, cd)):
        assert [(e.check, e.witness) for e in report.failures()] == [(
            "projection.junctions", f"junction key {key} names no boundary point (the diagram has 5)")]


def test_height_of_a_page_the_diagram_lacks_fails_projection():
    se, cd = trefoil_build()
    se.heights[99] = 5
    for report in (verify_stick_embedding(se, cd), check_projection(se, cd)):
        assert [(e.check, e.witness) for e in report.failures()] == [
            ("projection.heights", "page 99 has a height but no chord in the diagram")]


def test_dropped_junction_fails_projection():
    se, cd = trefoil_build()
    del se.junctions[0]
    (entry,) = [e for e in check_projection(se, cd).failures() if e.check == "projection.junctions"]
    assert entry.witness == "no junction recorded over point 0"


def test_fractional_height_fails_projection():
    se, cd = trefoil_build()
    se.heights[2] = Fraction(5, 2)
    assert [(e.check, e.witness) for e in check_projection(se, cd).failures()] == [
        ("projection.heights", "page 2 height missing or non-integer")]


def test_bent_chord_left_stick_ending_mid_chord_fails_tiling():
    # the left stick of page 4's bent chord ends over a quarter of the chord,
    # its right stick starts over the half: their shadows leave a gap
    se, cd = trefoil_build()
    i = next(i for i, s in enumerate(se.sticks) if s.page == 4 and s.piece == "left")
    (x0, y0, _), (x1, y1, _) = se.junctions[4], se.junctions[1]
    sticks = list(se.sticks)
    sticks[i] = replace(sticks[i], b=(x0 + (x1 - x0) / 4, y0 + (y1 - y0) / 4, sticks[i].b[2]))
    se = replace(se, sticks=tuple(sticks))
    assert [(e.check, e.witness) for e in check_projection(se, cd).failures()] == [
        ("projection.tiling", "page 4 shadows leave a gap or overlap")]


def _package_imports(name):
    """The stickforge modules that src/stickforge/<name>.py imports."""
    tree = ast.parse(Path(f"src/stickforge/{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("stickforge")):
            found.update([node.module] if node.module else (a.name for a in node.names))   # from . import x
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("stickforge"))
    return found


def test_verifier_module_is_self_contained():
    # the verifier's only package imports are its own exact kernel and its
    # own float culls, and neither imports anything of the package: no
    # builder code on any side
    assert _package_imports("verifier") == {"_verifier_exact", "_verifier_float"}
    assert _package_imports("_verifier_exact") == set()
    assert _package_imports("_verifier_float") == set()


def test_the_cull_boundary_runs_one_way(monkeypatch):
    # the builder measures its clearance through the verifier's cull, and
    # takes every float kernel and helper it measures with from there
    assert _package_imports("equilateral_builder") == {"_verifier_float", "arc_presentation"}
    reports, culls = [], []
    monkeypatch.setattr(equilateral_builder, "tolerance_report", lambda emb, real=equilateral_builder.tolerance_report: (
        reports.append([(s.a, s.b) for s in emb.sticks]), real(emb))[1])
    monkeypatch.setattr(_verifier_float, "_near_pairs", lambda segs, ends, floor, visit, real=_verifier_float._near_pairs: (
        culls.append((segs, floor)), real(segs, ends, floor, visit))[1])
    for name in ("trefoil", "unlink(3)", "theta_trivial(8)"):
        build_equilateral(validate_presentation(catalog(name)))
    assert reports and culls == [(segs, 0.0) for segs in reports]


def test_exact_fault_injection_sweep():
    se0, cd = trefoil_build()
    rng = random.Random(20260814)
    caught = 0
    trials = 40
    for _ in range(trials):
        se, _ = trefoil_build()
        i = rng.randrange(len(se.sticks))
        which = rng.choice(["a", "b"])
        axis = rng.randrange(3)
        delta = Fraction(rng.choice([-1, 1]), rng.choice([3, 7, 1000, 65536]))
        stick = se.sticks[i]
        pt = list(getattr(stick, which))
        pt[axis] += delta
        sticks = list(se.sticks)
        sticks[i] = replace(stick, **{which: tuple(pt)})
        se = replace(se, sticks=tuple(sticks))
        report = verify_stick_embedding(se, cd)
        if not report.ok:
            assert report.failures()[0].witness
            caught += 1
    assert caught == trials


def _oracle_agrees(segs):
    """Same verdict as the all-pairs oracle, and the same first failing pair."""
    report = check_simplicity(segs)
    ok, witness = oracles.embedding_is_simple(segs)
    assert report.ok == ok, (report.summary(), witness)
    if not ok:
        mine = re.match(r"sticks (\d+) and (\d+) ", report.entries[0].witness).groups()
        assert mine == re.match(r"pair \((\d+), (\d+)\)", witness).groups()
    return report.ok


def test_exact_simplicity_agrees_with_oracle():
    presentations = [catalog(name) for name in catalog_names()]
    presentations += [catalog(f"theta_trivial({n})") for n in range(2, 17)]
    presentations += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    rng = random.Random(20261018)
    verdicts = Counter()
    for ap in presentations:
        segs = [(s.a, s.b) for s in build(to_circular(validate_presentation(ap))).sticks]
        verdicts[_oracle_agrees(segs)] += 1
        # C8-style: one coordinate of one endpoint moves
        i, end, axis = rng.randrange(len(segs)), rng.randrange(2), rng.randrange(3)
        pt = list(segs[i][end])
        pt[axis] += Fraction(rng.choice([-1, 1]), rng.randrange(2, 1 << 20))
        moved = list(segs)
        moved[i] = (tuple(pt), segs[i][1]) if end == 0 else (segs[i][0], tuple(pt))
        verdicts[_oracle_agrees(moved)] += 1
        # an endpoint dropped onto the middle of another stick
        i, j = rng.sample(range(len(segs)), 2)
        mid = tuple((x + y) / 2 for x, y in zip(*segs[j]))
        moved = list(segs)
        moved[i] = (mid, segs[i][1])
        verdicts[_oracle_agrees(moved)] += 1
    assert verdicts[True] > len(presentations) and verdicts[False] >= len(presentations)


def _segs(*pairs):
    return [(tuple(map(F, a)), tuple(map(F, b))) for a, b in pairs]


@pytest.mark.parametrize("segs, ok", [
    # axis-parallel sticks crossing at one interior point: flat boxes
    (_segs(((-1, 0, 0), (1, 0, 0)), ((0, -1, 0), (0, 1, 0))), False),
    # boxes touching only on a face, with a stick end on the other stick
    (_segs(((0, 0, 0), (1, 0, 0)), ((1, -1, 0), (1, 1, 0))), False),
    (_segs(((0, 0, 0), (0, 1, 0)), ((-1, 1, 0), (1, 1, 0))), False),
    (_segs(((0, 0, 0), (0, 0, 1)), ((-1, 0, 1), (1, 0, 1))), False),
    # a zero-length last stick, at a shared end, inside another stick or
    # away from everything; a zero-length stick between two others
    (_segs(((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 0, 0))), False),
    (_segs(((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (1, 0, 0))), False),
    (_segs(((0, 0, 0), (1, 0, 0)), ((5, 5, 5), (5, 5, 5))), False),
    (_segs(((0, 0, 0), (1, 0, 0)), ((5, 5, 5), (5, 5, 5)), ((1, 0, 0), (1, 1, 0))), False),
    # folding back through a shared endpoint, at either end
    (_segs(((0, 0, 0), (2, 0, 0)), ((0, 0, 0), (1, 0, 0))), False),
    (_segs(((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (F(1) / 2, 0, 0))), False),
    # collinear sticks pointing opposite ways from a shared endpoint
    (_segs(((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0))), True),
    (_segs(((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (-1, 0, 0))), True),
    # the sweep meets pair (1, 3) first; the witness names (0, 2)
    (_segs(((10, -1, 0), (10, 1, 0)), ((0, -1, 0), (0, 1, 0)),
           ((9, 0, 0), (11, 0, 0)), ((-1, 0, 0), (1, 0, 0))), False),
    # ends past the float range, where the sweep's boxes become infinite
    (_segs(((-10 ** 400, 0, 0), (10 ** 400, 0, 0)), ((1, -1, 0), (1, 1, 0))), False),
    (_segs(((-10 ** 400, 0, 0), (0, 0, 0)), ((1, -1, 0), (1, 1, 10 ** 400))), True),
], ids=["flat-cross", "face-x", "face-y", "face-z", "zero-at-end", "zero-inside",
        "zero-alone-at-end", "zero-between",
        "fold-back", "fold-back-far-end", "straight-through", "opposite-from-start",
        "first-pair", "beyond-float-range-cross", "beyond-float-range-apart"])
def test_exact_simplicity_degenerate_cases(segs, ok):
    assert _oracle_agrees(segs) == ok


@pytest.mark.parametrize("order", [1, -1], ids=["near-first", "far-first"])
def test_collinear_disjoint_sticks_pass_exact_simplicity(order):
    # the float boxes of the two sticks touch, so the pair is tested
    # exactly: collinear, with a gap of 10^-30 between them
    segs = _segs(((0, 0, 0), (1, 0, 0)), ((1 + Fraction(1, 10 ** 30), 0, 0), (2, 0, 0)))[::order]
    assert [(e.passed, e.witness) for e in check_simplicity(segs).entries] == [
        (True, "2 sticks pairwise disjoint away from junctions")]
    assert _oracle_agrees(segs)


def test_zero_length_stick_fails_against_the_next():
    # a zero-length first stick is reported against the next stick,
    # wherever that lies; a lone zero-length stick fails on its own
    segs = _segs(((5, 5, 5), (5, 5, 5)), ((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 1, 0)))
    report = check_simplicity(segs)
    assert report.failures()[0].witness == "sticks 0 and 1 overlap along a segment"
    assert not _oracle_agrees(segs)
    lone = _segs(((5, 5, 5), (5, 5, 5)))
    assert check_simplicity(lone).failures()[0].witness == "stick 0 has zero length"
    assert oracles.embedding_is_simple(lone)[0] is False


def test_mixed_rational_and_float_sticks_fail_simplicity():
    # a float stick 1e-9 above a rational one must not take the exact path
    segs = [((F(0), F(0), F(0)), (F(1), F(0), F(0))), ((0.5, -1.0, 1e-9), (0.5, 1.0, 1e-9))]
    report = check_simplicity(segs)
    assert not report.ok
    assert report.failures()[0].witness == "sticks 0 and 1 mix rational and float coordinates"
    report = check_simplicity([((F(0), 0.0, F(0)), (F(1), F(0), F(0)))])
    assert report.failures()[0].witness == "stick 0 mixes rational and float coordinates"
    report = check_simplicity([((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((0.0, 1.0, 0.0), (1.0, 1.0, 0))])
    assert report.failures()[0].witness == "sticks 0 and 1 mix rational and float coordinates"


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


class _Float(float):
    pass


def _kind_dispatch(segs):
    """What check_simplicity did with segs when it tested every coordinate
    with isinstance: "exact", "float", or the witness for mixed input."""
    rational = [isinstance(c, (Fraction, int)) for a, b in segs for c in a + b]
    if all(rational):
        return "exact"
    if not any(rational):
        return "float"
    k = rational.index(not rational[0]) // 6
    return ("stick 0 mixes rational and float coordinates" if k == 0
            else f"sticks 0 and {k} mix rational and float coordinates")


_APART = [((0, 0, 0), (1, 0, 0)), ((0, 1, 1), (1, 1, 1)), ((0, 2, 0), (1, 2, 0))]
_KINDS = {
    "float": [tuple(tuple(float(c) for c in pt) for pt in s) for s in _APART],
    "int": _APART,
    "bool": [((False, False, False), (True, False, False)), ((False, True, True), (True, True, True))],
    "fraction": [tuple(tuple(F(c) / 3 for c in pt) for pt in s) for s in _APART],
    "int-fraction-bool": [((0, F(0), False), (1, 0, 0)), *_APART[1:]],
    "subclasses": [tuple(tuple(_Int(c) if c else _Fraction(c, 2) for c in pt) for pt in s) for s in _APART],
    "float-subclass": [tuple(tuple(_Float(c) for c in pt) for pt in s) for s in _APART],
    "float-and-subclass": [((0.0, _Float(0), 0.0), (1.0, 0.0, 0.0)), ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0))],
    "mixed-in-stick-0": [((0, 0.0, 0), (1, 0, 0)), *_APART[1:]],
    "mixed-late": [*_APART[:2], ((0, 2, 0), (1, 2, 0.0))],
    "float-then-int": [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((0.0, 1.0, 1.0), (1.0, 1.0, True))],
    "int-subclass-and-float-subclass": [((_Int(0), 0, 0), (1, 0, 0)), ((0, 1, 1), (1, 1, _Float(1)))],
    "empty": [],
}


def _only_entry(report):
    (entry,) = report.entries
    return entry.passed, entry.witness


@pytest.mark.parametrize("name", _KINDS)
def test_coordinate_kinds_keep_their_verdicts(name):
    # check_simplicity reads one set of coordinate types: bool, int,
    # Fraction and their subclasses are rational, float and its subclasses
    # are not, and input with both fails with the witness it had when every
    # coordinate was tested alone
    segs = _KINDS[name]
    kind = _kind_dispatch(segs)
    (entry,) = check_simplicity(segs).entries
    if kind == "exact":
        plain = [tuple(tuple(F(c) for c in pt) for pt in s) for s in segs]
        assert (entry.passed, entry.witness) == \
            (True, f"{len(segs)} sticks pairwise disjoint away from junctions")
        assert (entry.passed, entry.witness) == _only_entry(check_simplicity(plain))
    elif kind == "float":
        plain = [tuple(tuple(float(c) for c in pt) for pt in s) for s in segs]
        assert entry.passed and entry.witness.startswith("min non-adjacent clearance")
        assert (entry.passed, entry.witness) == _only_entry(check_simplicity(plain))
    else:
        assert (entry.passed, entry.witness) == (False, kind)


def _faulted(segs, fault, rng):
    """One fault of the given kind injected into a copy of segs."""
    segs = list(segs)
    i = rng.randrange(len(segs))
    if fault == "swap":
        # an end shared with a neighbour moves to that neighbour's far end
        end = rng.randrange(2)
        x = segs[i][end]
        j = next((j for j in range(len(segs)) if j != i and x in segs[j]), None)
        if j is not None:
            far = segs[j][1] if segs[j][0] == x else segs[j][0]
            segs[i] = (far, segs[i][1]) if end == 0 else (segs[i][0], far)
    elif fault == "copy":
        j = rng.randrange(len(segs))
        segs[i] = segs[j] if rng.randrange(2) else segs[j][::-1]
    elif fault == "midpoint":
        j = rng.randrange(len(segs))
        mid = tuple((x + y) / 2 for x, y in zip(*segs[j]))
        segs[i] = (mid, segs[i][1]) if rng.randrange(2) else (segs[i][0], mid)
    else:
        segs[i] = (segs[i][0], segs[i][0])
    return segs


def test_exact_simplicity_witnesses_match_fraction_reference():
    rng = random.Random(20261018)
    kinds = Counter()
    for p in PROFILES:
        for s in range(20):
            se = build(to_circular(validate_presentation(random_presentation(s, p, 20))))
            segs = [(st.a, st.b) for st in se.sticks]
            for fault in ("swap", "copy", "midpoint", "zero"):
                moved = _faulted(segs, fault, rng)
                report = check_simplicity(moved)
                expected = oracles.simplicity_witness(moved)
                assert report.ok == (not expected)
                if expected:
                    assert report.entries[0].witness == expected
                kinds["meet" if " meet at " in expected else "overlap" if expected else "pass"] += 1
    assert sum(kinds.values()) >= 300 and min(kinds.values()) >= 20, kinds


def test_crossing_order_matches_fraction_reference():
    rng = random.Random(20261019)
    failed = 0
    documents = 0
    for p in PROFILES:
        for s in range(20):
            cd = to_circular(validate_presentation(random_presentation(s, p, 20)))
            se = build(cd)
            assert (True, check_crossing_order(se, cd).entries[0].witness) == \
                oracles.crossing_order_witness(se, cd)
            pages = sorted(se.heights)
            for _ in range(4):
                i, j = rng.sample(pages, 2) if len(pages) > 1 else (pages[0], pages[0])
                # two pages' levels swap, in the sticks and the junctions alike
                moved = parity._level_swap(se, i, j)
                entry = check_crossing_order(moved, cd).entries[0]
                assert (entry.passed, entry.witness) == oracles.crossing_order_witness(moved, cd)
                failed += not entry.passed
                documents += 1
    assert documents >= 300 and failed >= 100


def _page_range(se, k):
    zs = [pt[2] for s in se.sticks if s.page == k for pt in (s.a, s.b)]
    return min(zs), max(zs)


def _lowered(se, k, by):
    """se with every stick of page k moved down by `by`."""
    def down(pt):
        return (pt[0], pt[1], pt[2] - by)

    return replace(se, sticks=tuple(replace(s, a=down(s.a), b=down(s.b)) if s.page == k else s
                                    for s in se.sticks))


def _small_builds():
    for p in PROFILES:
        for s in range(8):
            cd = to_circular(validate_presentation(random_presentation(s, p, 20)))
            yield build(cd), cd


def test_crossing_order_lowered_pages_match_the_reference():
    # for crossings (i, j) whose pages' height ranges are apart, page j is
    # lowered in steps from a quarter short of touching page i's range to a
    # quarter past lying wholly under it: the ranges meet, overlap and part
    # again, and the order flips on the way; every verdict and witness is
    # the reference's
    flipped = overlapping = 0
    for se, cd in _small_builds():
        for i, j in cd.crossings[:6]:
            (lo_i, hi_i), (lo_j, hi_j) = _page_range(se, i), _page_range(se, j)
            if not hi_i < lo_j:
                continue
            meet, under = lo_j - hi_i, hi_j - lo_i
            for f in range(-1, 6):
                moved = _lowered(se, j, meet + (under - meet) * Fraction(f, 4))
                entry = check_crossing_order(moved, cd).entries[0]
                assert (entry.passed, entry.witness) == oracles.crossing_order_witness(moved, cd)
                if 0 <= f <= 4:
                    flipped += f"crossing ({i},{j})" in entry.witness
                    overlapping += 1
    assert overlapping >= 200 and flipped >= 100


def test_crossing_order_gapped_page_reports_geometry_missing():
    # one stick dropped: its page has a gap, or no sticks at all, so it no
    # longer tiles its chord and none of its crossings is passed by the
    # height ranges, however far apart they lie; the reference agrees on
    # every verdict and witness, and crossings over the gap whose pages'
    # ranges were apart report the geometry missing
    guarded = 0
    for se, cd in _small_builds():
        apart = [(i, j) for i, j in cd.crossings if _page_range(se, i)[1] < _page_range(se, j)[0]]
        for x, stick in enumerate(se.sticks):
            gapped = replace(se, sticks=se.sticks[:x] + se.sticks[x + 1:])
            entry = check_crossing_order(gapped, cd).entries[0]
            assert (entry.passed, entry.witness) == oracles.crossing_order_witness(gapped, cd)
            guarded += any(f"crossing ({i},{j}): geometry missing" in entry.witness
                           for i, j in apart if stick.page in (i, j))
    assert guarded >= 50


def test_crossing_order_culls_by_page_heights(monkeypatch):
    # most crossings of a large bouquet pass on the pages' height ranges
    # alone; the rest compute the heights over the crossing point
    calls = []
    real = verifier._heights_on_chord

    def spy(found, t):
        calls.append(t)
        return real(found, t)

    monkeypatch.setattr(verifier, "_heights_on_chord", spy)
    se, cd = _large_bouquet()
    assert check_crossing_order(se, cd).ok
    assert len(calls) / 2 < 0.6 * len(cd.crossings)


def test_bundle_converts_each_distinct_point_once(monkeypatch):
    # the 150-arc build of tests/parity.py with the most binding points, read
    # back from its document: the reader hands back one tuple per distinct
    # point and the bundle converts by identity, so it converts each once,
    # plus the m boundary points
    se, cd = max(parity._exact_builds()[-9:], key=lambda build: build[1].m)
    se = embedding_from_doc(json.loads(dumps_document(embedding_to_doc(se))))
    points = [p for s in se.sticks for p in (s.a, s.b)] + list(se.junctions.values())
    distinct = set(points)
    assert len({id(p) for p in points}) == len(distinct)
    calls = []
    real = verifier._hom
    monkeypatch.setattr(verifier, "_hom", lambda p: calls.append(p) or real(p))
    assert verify_stick_embedding(se, cd).ok
    assert cd.m >= 100 and len(calls) <= len(distinct) + cd.m


def test_exact_checks_pinned():
    # the exact-checks set of tests/parity.py: every verify_stick_embedding
    # entry, witnesses included, of the 240 exact builds and three mutants
    # of each (two level swaps, one dropped stick), with their diagrams
    assert parity.exact_checks() == "33bb7a885d745f9a40ae9c5202ae6c69045a1af7643b3397ba9a5357b8c25d8e"


def _large_bouquet():
    cd = to_circular(validate_presentation(random_presentation(0, "bouquet", 150)))
    return build(cd), cd


def test_exact_simplicity_prunes_pairs(monkeypatch):
    se, _ = _large_bouquet()
    calls = []
    real = _verifier_exact._seg_meet_exact

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_verifier_exact, "_seg_meet_exact", spy)
    assert check_simplicity([(s.a, s.b) for s in se.sticks]).ok
    n = len(se.sticks)
    assert len(calls) < n * (n - 1) // 2 // 5


def test_crossing_order_computes_each_page_once(monkeypatch):
    pages = []
    real = verifier._chord_pieces

    def spy(k, *args):
        pages.append(k)
        return real(k, *args)

    monkeypatch.setattr(verifier, "_chord_pieces", spy)
    se, cd = _large_bouquet()
    assert check_crossing_order(se, cd).ok
    assert pages and max(Counter(pages).values()) == 1
    pages.clear()
    # projection and crossing order share one page index in the bundle
    assert verify_stick_embedding(se, cd).ok
    assert sorted(pages) == sorted({chord.page for chord in cd.chords})
    pages.clear()
    cd = to_circular(validate_presentation(catalog("theta_trivial(8)")))
    assert check_crossing_order(build(cd), cd).ok
    assert pages == []


def _checks_alone(se, cd):
    return (check_simplicity([(s.a, s.b) for s in se.sticks]).entries
            + check_projection(se, cd).entries + check_crossing_order(se, cd).entries)


def test_each_exact_check_alone_reports_as_in_the_bundle():
    # every 12th exact build of tests/parity.py and the last, a 150-arc draw
    builds = parity._exact_builds()
    for idx in [*range(0, len(builds), len(builds) // 20), len(builds) - 1]:
        se, cd = builds[idx]
        for e in (se, *parity.exact_mutants(idx, se)):
            assert _checks_alone(e, cd) == verify_stick_embedding(e, cd).entries


def _hand_built():
    """The trefoil's build with float, mixed and non-finite coordinates."""
    cd = to_circular(validate_presentation(catalog("trefoil")))
    se = build(cd)

    def floats(p):
        return tuple(float(c) for c in p)

    def moved(i, end, c, value):
        s = se.sticks[i]
        pt = list(getattr(s, end))
        pt[c] = value
        return replace(se, sticks=se.sticks[:i] + (replace(s, **{end: tuple(pt)}),) + se.sticks[i + 1:])

    j0 = se.junctions[0]
    # the first stick whose end a a float cast moves: a dyadic end would still project onto its chord
    k = next(i for i, s in enumerate(se.sticks) if floats(s.a) != s.a)
    stray = stick_builder.Stick((F(10), F(0), math.nan), (F(11), F(0), F(0)), 99, "l", "whole")
    return cd, {
        "float": replace(se, sticks=tuple(replace(s, a=floats(s.a), b=floats(s.b)) for s in se.sticks),
                         junctions={b: floats(p) for b, p in se.junctions.items()}),
        "mixed": replace(se, sticks=se.sticks[:k] + (replace(se.sticks[k], a=floats(se.sticks[k].a)),)
                         + se.sticks[k + 1:]),
        "dyadic-float": moved(0, "a", 2, float(se.sticks[0].a[2])),
        "nan-stick": moved(0, "a", 2, math.nan),
        "inf-stick": moved(1, "b", 0, math.inf),
        "nan-junction": replace(se, junctions={**se.junctions, 0: (j0[0], j0[1], math.nan)}),
        "nan-stray": replace(se, sticks=se.sticks + (stray,)),
    }


_PASS = [("projection.junctions", True, ""), ("projection.tiling", True, ""),
         ("projection.chains", True, ""), ("projection.heights", True, ""),
         ("crossing-order", True, "5 crossings ordered")]
# what verify_stick_embedding gave for each _hand_built case when every
# check still converted its own points: its entries, or the exception raised
# (float and mixed taken again on the least-denominator boundary points,
# where the checks alone report the same)
HAND_BUILT = {
    "float": [
        ("simplicity", True, "min non-adjacent clearance 3.631e-02"),
        ("projection.junctions", False, "junction over point 4 projects off its boundary point; "
         "junction over point 0 projects off its boundary point"),
        ("projection.tiling", False, "page 2 stick endpoint projects off the chord line; "
         "page 3 stick endpoint projects off the chord line; "
         "page 4 stick endpoint projects off the chord line"),
        ("projection.chains", True, ""), ("projection.heights", True, ""),
        ("crossing-order", False, "crossing (1,2): geometry missing over the crossing; "
         "crossing (1,5): geometry missing over the crossing; "
         "crossing (2,3): geometry missing over the crossing")],
    "mixed": [
        ("simplicity", False, "sticks 0 and 3 mix rational and float coordinates"),
        ("projection.junctions", True, ""),
        ("projection.tiling", False, "page 4 stick endpoint projects off the chord line"),
        ("projection.chains", True, ""), ("projection.heights", True, ""),
        ("crossing-order", False, "crossing (3,4): geometry missing over the crossing; "
         "crossing (4,5): geometry missing over the crossing")],
    "dyadic-float": [("simplicity", False, "stick 0 mixes rational and float coordinates"), *_PASS],
    "nan-stick": ValueError,
    "inf-stick": OverflowError,
    "nan-junction": ValueError,
    "nan-stray": [
        ("simplicity", False, "sticks 0 and 7 mix rational and float coordinates"),
        ("projection.junctions", True, ""),
        ("projection.tiling", False, "page 99 has sticks but no chord in the diagram"),
        *_PASS[2:]],
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_bundle_on_float_and_non_finite_coordinates(name):
    # a point that does not convert raises in the bundle's shared index
    # where it raises in the checks alone; the other cases report as alone
    cd, cases = _hand_built()
    se, want = cases[name], HAND_BUILT[name]
    if isinstance(want, type):
        with pytest.raises(want):
            _checks_alone(se, cd)
        with pytest.raises(want):
            verify_stick_embedding(se, cd)
    else:
        entries = verify_stick_embedding(se, cd).entries
        assert [(e.check, e.passed, e.witness) for e in entries] == want
        assert entries == _checks_alone(se, cd)


def test_exact_checks_share_one_index_in_any_order():
    # the three checks on one _PageIndex, in every order, report as alone:
    # every 20th exact build of tests/parity.py with its mutants, and the
    # hand-built cases below, raising as alone where a point does not convert
    orders = list(itertools.permutations(range(3)))

    def shared(se, cd, order):
        index = verifier._PageIndex(se, cd)
        checks = (lambda: check_simplicity([(s.a, s.b) for s in se.sticks], _index=index),
                  lambda: check_projection(se, cd, _index=index),
                  lambda: check_crossing_order(se, cd, _index=index))
        found = {x: checks[x]().entries for x in order}
        return found[0] + found[1] + found[2]

    builds = parity._exact_builds()
    for idx in range(0, len(builds), 20):
        se, cd = builds[idx]
        for e in (se, *parity.exact_mutants(idx, se)):
            alone = _checks_alone(e, cd)
            assert all(shared(e, cd, order) == alone for order in orders)
    cd, cases = _hand_built()
    for name, se in cases.items():
        want = HAND_BUILT[name]
        for order in orders:
            if isinstance(want, type):
                with pytest.raises(want):
                    shared(se, cd, order)
            else:
                assert shared(se, cd, order) == _checks_alone(se, cd), (name, order)


def test_exact_conversion_work_guard(monkeypatch):
    # homogeneous conversions (_hom) over random_presentation(s, p, 40),
    # s < 10, p in PROFILES: the verify bundle made 7,453 when each check
    # converted its own points, and now makes one per stick end, boundary
    # point and junction, 3,316; the lift made 2,958 (two per placed stick
    # and per chord frame) and now makes one per boundary point, 687
    calls = Counter()

    def spy(module, key):
        real = module._hom

        def counted(p):
            calls[key] += 1
            return real(p)
        monkeypatch.setattr(module, "_hom", counted)

    spy(verifier, "verify")
    spy(stick_builder, "lift")
    for p in PROFILES:
        for s in range(10):
            cd = to_circular(validate_presentation(random_presentation(s, p, 40)))
            calls.clear()
            se = build(cd)
            assert calls["lift"] <= cd.m
            assert verify_stick_embedding(se, cd).ok
            assert calls["verify"] <= 2 * len(se.sticks) + cd.m + len(se.junctions)


def _count_sweeps(monkeypatch):
    """Count the exact simplicity sweeps that check_simplicity runs."""
    calls = []
    real = verifier._first_exact_failure

    def counted(segs):
        calls.append(len(segs))
        return real(segs)
    monkeypatch.setattr(verifier, "_first_exact_failure", counted)
    return calls


def test_passing_builds_settle_simplicity_without_a_sweep(monkeypatch):
    # the 240 exact builds of tests/parity.py, theta_trivial(2..64) among
    # them, pass with no pair sweep; a mutant that fails projection or
    # crossing order is swept as alone
    calls = _count_sweeps(monkeypatch)
    for idx, (se, cd) in enumerate(parity._exact_builds()):
        calls.clear()
        assert verify_stick_embedding(se, cd).ok
        assert calls == [], idx
        for e in parity.exact_mutants(idx, se):
            calls.clear()
            entries = verify_stick_embedding(e, cd).entries
            if not all(x.passed for x in entries[1:]):
                assert len(calls) == 1, idx
    se, _ = parity._exact_builds()[0]
    calls.clear()
    assert check_simplicity([(s.a, s.b) for s in se.sticks]).ok
    assert len(calls) == 1   # alone, simplicity sweeps


def _theta_family(pages, flipped=()):
    """theta_trivial(3) drawn by hand: page k runs from junction 0 through
    the points (0, y, z) of pages[k - 1] to junction 1, and the chords of
    the pages in flipped list their ends the other way round."""
    cd = to_circular(validate_presentation(catalog("theta_trivial(3)")))
    se = build(cd)
    sticks = []
    for k, inner in enumerate(pages, 1):
        pts = [se.junctions[0], *((F(0), F(y), F(z)) for y, z in inner), se.junctions[1]]
        sticks += [stick_builder.Stick(a, b, k, f"e{k}", "whole") for a, b in zip(pts, pts[1:])]
    chords = tuple(replace(c, ends=c.ends[::-1]) if c.page in flipped else c for c in cd.chords)
    return replace(se, sticks=tuple(sticks)), replace(cd, chords=chords)


def _page_3_at_the_crossing(vertical: bool, at: str = "1"):
    """The trefoil's build with page 3 bent over its crossing with page 2,
    which lies flat at height 2.  Either page 3 comes down to height 2
    there and touches page 2, so crossing order fails, or it comes down to
    3/2 and a vertical stick takes it back up to the page.  The vertical
    stick stands at the fraction at of the way from page 3's start to the
    crossing: over the crossing (at = 1), where page 3 reaches down to 3/2
    under page 2 and crossing order fails, or short of it, where it
    passes."""
    se, cd = trefoil_build()
    (p, q), (r, s) = (cd.boundary[e] for e in cd.chords[1].ends), (cd.boundary[e] for e in cd.chords[2].ends)
    u = ((r[0] - p[0]) * (s[1] - r[1]) - (r[1] - p[1]) * (s[0] - r[0])) / (
        (q[0] - p[0]) * (s[1] - r[1]) - (q[1] - p[1]) * (s[0] - r[0]))
    x, y = p[0] + u * (q[0] - p[0]), p[1] + u * (q[1] - p[1])
    old = se.sticks[2]
    assert old.page == 3 and old.a[:2] == r and old.b[:2] == s and se.sticks[1].a[2] == 2
    if not vertical:
        new = (replace(old, b=(x, y, F(2))), replace(old, a=(x, y, F(2))))
    else:
        x, y = r[0] + F(at) * (x - r[0]), r[1] + F(at) * (y - r[1])
        v = (x - r[0]) / (s[0] - r[0])
        top, low = (x, y, old.a[2] + v * (old.b[2] - old.a[2])), (x, y, F("3/2"))
        assert low[2] < top[2] and (top[2] > 2 or at != "1")
        new = (replace(old, a=top), replace(old, a=low, b=top), replace(old, b=low))
    return replace(se, sticks=se.sticks[:2] + new + se.sticks[3:]), cd


SETTLE_CASES = {
    # a family member touching another at one of its breakpoints
    "tied": lambda: _theta_family([[], [(0, 2)], [("3/4", "5/2"), ("1/2", "3/2"), (0, 3)]]),
    # a member above the other at parameter 1/4 and below it at 3/4
    "swapped": lambda: _theta_family([[], [(0, 2)], [("1/2", 3), ("-1/2", "5/4")]]),
    # two whole sticks on one chord: equal tops, so projection.heights fails
    "identical": lambda: _theta_family([[], [], [(0, 3)]]),
    "vertical": lambda: _page_3_at_the_crossing(vertical=True),
    # the same bend halfway to the crossing: a vertical piece that crossing
    # order passes, so the bundle reaches the settle path and must sweep
    "vertical-aside": lambda: _page_3_at_the_crossing(vertical=True, at="1/2"),
    "touching": lambda: _page_3_at_the_crossing(vertical=False),
    "zero-length": lambda: _theta_family([[], [(0, 2), (0, 2)], [(0, 3)]]),
    # page 3's chord runs from junction 1: its apex lies at parameter 1/4
    # read from there, so it crosses page 2, whose apex lies at 1/4
    "flipped-swapped": lambda: _theta_family([[], [("1/2", 2)], [("-1/2", 3)]], flipped={3}),
    "flipped-ordered": lambda: _theta_family([[], [("1/2", 2)], [("1/2", 3)]], flipped={3}),
}


@pytest.mark.parametrize("name", SETTLE_CASES)
def test_bundle_settles_simplicity_as_the_sweep_reports(monkeypatch, name):
    # each case but "identical", "touching" and "vertical" passes
    # projection and crossing order, so the bundle reaches the settle path;
    # there it must report what the checks alone report, witness included,
    # and sweep unless it settles
    se, cd = SETTLE_CASES[name]()
    alone = _checks_alone(se, cd)
    failed = {"identical": ["projection.heights"], "touching": ["crossing-order"],
              "vertical": ["crossing-order"]}.get(name, [])
    assert [e.check for e in alone[1:] if not e.passed] == failed
    assert alone[0].passed == (name in ("flipped-ordered", "vertical-aside"))
    calls = _count_sweeps(monkeypatch)
    assert verify_stick_embedding(se, cd).entries == alone
    assert len(calls) == (0 if name == "flipped-ordered" else 1)


def _page_3_doubled():
    """The trefoil's build with a second stick on page 3, flat at height 1
    from halfway to its crossing with page 2 (at height 2) to halfway past
    it: two pieces over the crossing, one above page 2 and one below."""
    se, cd = _page_3_at_the_crossing(vertical=True)
    old = se.sticks[2]
    x, y = old.a[:2]   # the crossing, where the vertical stick stands
    r, s = se.sticks[4].a[:2], old.b[:2]
    a = ((r[0] + x) / 2, (r[1] + y) / 2, F(1))
    b = ((x + s[0]) / 2, (y + s[1]) / 2, F(1))
    se, _ = trefoil_build()
    return replace(se, sticks=se.sticks + (replace(se.sticks[2], a=a, b=b),)), cd


ORDER_CASES = {
    # page 3 dips to 3/2 and a vertical stick takes it back up, over its
    # crossing with page 2 or halfway to it
    "over": (lambda: _page_3_at_the_crossing(vertical=True),
             "crossing (2,3): page 2 at height 2 not under page 3 at 3/2"),
    "aside": (lambda: _page_3_at_the_crossing(vertical=True, at="1/2"), "5 crossings ordered"),
    "doubled": (_page_3_doubled, "crossing (2,3): page 2 at height 2 not under page 3 at 1"),
}


@pytest.mark.parametrize("name", ORDER_CASES)
def test_crossing_order_reads_every_piece_whatever_the_stick_order(name):
    # the verdict and witness do not depend on the order the sticks are
    # listed in, and agree with the oracle
    make, witness = ORDER_CASES[name]
    se, cd = make()
    entries = [check_crossing_order(e, cd).entries for e in (se, replace(se, sticks=se.sticks[::-1]))]
    assert entries[0] == entries[1]
    ((entry,),) = entries[:1]
    assert (entry.passed, entry.witness) == oracles.crossing_order_witness(se, cd)
    assert entry.witness == witness


def test_family_order_needs_a_breakpoint():
    # two straight chords between the same junctions are one segment
    # twice; a tie at parameter 1/2 fails at a breakpoint
    straight = ([(0, (1, 1)), (1, (1, 1))], 1)
    apex = [([(0, (1, 1)), (1, (z, 1)), (2, (1, 1))], 2) for z in (2, 3, 3)]
    assert not _verifier_exact._family_ordered([straight, straight])
    assert _verifier_exact._family_ordered([straight, *apex[:2]])
    assert not _verifier_exact._family_ordered(apex)


# ---------------------------------------------------------------------------
# float-mode unit checks


def test_float_simplicity_clearance():
    segs = [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 1e-9, 1.0), (1.0, 1e-9, 1.0)),
    ]
    report = check_simplicity(segs, scale=1.0)
    assert report.ok  # distance 1.0 in z

    segs = [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 1e-9, 0.0), (1.0, 1e-9, 0.0)),
    ]
    report = check_simplicity(segs, scale=1.0)
    assert not report.ok


def test_float_fold_back_detected():
    segs = [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1.0, 0.0, 0.0), (0.5, 1e-15, 0.0)),
    ]
    report = check_simplicity(segs, scale=1.0)
    assert not report.ok
    assert "fold back" in report.failures()[0].witness


@pytest.mark.parametrize("order", [1, -1], ids=["point-second", "point-first"])
def test_float_point_on_a_stick_fails_in_either_order(order):
    # a stick of no length inside another lies at distance 0 from it,
    # whichever of the two comes first
    segs = [((0.0, 0.0, 0.0), (2.0, 0.0, 0.0)), ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))][::order]
    assert [(e.passed, e.witness) for e in check_simplicity(segs, scale=1.0).entries] == [
        (False, "sticks 0 and 1 at distance 0.000e+00 < 1.000e-06")]
    assert oracles.all_pairs_float_simplicity(segs, scale=1.0) == (
        False, "sticks 0 and 1 at distance 0.000e+00 < 1.000e-06")
    assert seg_distance(*segs[0], *segs[1]) == 0.0


def test_seg_distance_basic():
    d = seg_distance((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0))
    assert abs(d - 1.0) < 1e-12
    d = seg_distance((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (3.0, 0.0, 0.0))
    assert abs(d - 1.0) < 1e-12


def test_equilateral_checks_pass_trefoil():
    vp = validate_presentation(catalog("trefoil"))
    emb = build_equilateral(vp)
    report = check_equilateral(emb)
    assert report.ok
    assert len(emb.sticks) == 9


def test_tents_flagged_pre_reduction():
    vp = validate_presentation(catalog("trefoil"))
    tents = build_tents(vp, 20.0)
    report = check_equilateral(tents)
    counts = [e for e in report.entries if e.check == "equilateral.counts"][0]
    assert counts.passed
    assert "pre-reduction" in counts.witness
    assert len(tents.sticks) == 2 * vp.n


def test_shortened_stick_caught():
    vp = validate_presentation(catalog("trefoil"))
    emb = build_equilateral(vp)
    s = emb.sticks[4]
    d = [(bc - ac) for ac, bc in zip(s.a, s.b)]
    shrink = 1e-6
    new_b = tuple(bc - shrink * dc for bc, dc in zip(s.b, d))
    emb.sticks[4] = EStick(s.a, new_b, s.component, s.tag, s.ja, s.jb)
    report = check_equilateral(emb)
    lengths = [e for e in report.entries if e.check == "equilateral.lengths"][0]
    assert not lengths.passed
    assert "deviation" in lengths.witness


def test_equilateral_fault_injection_sweep():
    vp = validate_presentation(catalog("trefoil"))
    rng = random.Random(77)
    trials = 25
    for _ in range(trials):
        emb = build_equilateral(vp)
        i = rng.randrange(len(emb.sticks))
        which = rng.choice(["a", "b"])
        axis = rng.randrange(3)
        delta = rng.choice([-1.0, 1.0]) * 1e-3 * emb.M
        s = emb.sticks[i]
        pt = list(getattr(s, which))
        pt[axis] += delta
        kw = {"a": tuple(pt) if which == "a" else s.a,
              "b": tuple(pt) if which == "b" else s.b}
        emb.sticks[i] = EStick(kw["a"], kw["b"], s.component, s.tag, s.ja, s.jb)
        report = check_equilateral(emb)
        assert not report.ok
        assert report.failures()[0].witness


def test_dropped_stick_fails_counts():
    emb = build_equilateral(validate_presentation(catalog("trefoil")))
    del emb.sticks[0]
    assert [(e.check, e.witness) for e in check_equilateral(emb).failures()] == [
        ("equilateral.counts", "component 0: 8 sticks, expected 9")]


def test_repeated_component_index_fails_counts():
    # two records of one index: every count matches, but the index is
    # claimed twice (the presentation check compares their arc counts)
    emb = build_equilateral(validate_presentation(catalog("unknot")))
    emb.components = [*emb.components, emb.components[0]]
    entries = {e.check: e for e in check_equilateral(emb).entries}
    assert (entries["equilateral.counts"].passed, entries["equilateral.counts"].witness) == \
        (False, "component 0 is listed 2 times")
    assert all(e.passed for name, e in entries.items() if name != "equilateral.counts")


def test_tolerances_frozen_defaults():
    tol = Tolerances()
    assert tol.length_rel == 1e-9
    assert tol.clearance_rel == 1e-6
    assert tol.junction_rel == 1e-9


# ---------------------------------------------------------------------------
# non-finite and non-positive input


def _trefoil_eq():
    return build_equilateral(validate_presentation(catalog("trefoil")))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_fails_both_float_checks(value):
    emb = _trefoil_eq()
    s = emb.sticks[4]
    emb.sticks[4] = replace(s, b=(s.b[0], value, s.b[2]))
    report = check_equilateral(emb)
    assert [(e.check, e.passed, e.witness) for e in report.entries] == \
        [("equilateral.input", False, f"stick 4 end b has coordinate {value}")]
    simple = check_simplicity([(s.a, s.b) for s in emb.sticks], scale=emb.M)
    assert [(e.check, e.passed, e.witness) for e in simple.entries] == \
        [("simplicity", False, f"stick 4 end b has coordinate {value}")]


@pytest.mark.parametrize("M", [math.nan, math.inf, 0.0, -8.0])
def test_non_finite_or_non_positive_M_fails(M):
    emb = _trefoil_eq()
    emb.M = M
    report = check_equilateral(emb)
    assert [(e.check, e.passed, e.witness) for e in report.entries] == \
        [("equilateral.input", False, f"M = {M} is not a finite positive length")]


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_scale_fails(scale):
    crossing = [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((0.5, -1.0, 0.0), (0.5, 1.0, 0.0))]
    report = check_simplicity(crossing, scale=scale)
    assert not report.ok
    assert report.failures()[0].witness == f"scale {scale} is not a finite positive length"
    assert not check_simplicity(crossing, scale=1.0).ok


@pytest.mark.parametrize("s, simple, equal", [
    (1.0, "sticks 0 and 1 at distance 0.000e+00 < 2.000e-06", None),
    (1e55, "sticks 0 and 1 at distance 0.000e+00 < 2.000e+49", None),
    (1e-55, "sticks 0 and 1 at distance 0.000e+00 < 2.000e-61", None),
    (1e78, "stick 0 end a has coordinate -1e+78 beyond 2^200", "M = 2e+78 lies outside [2^-200, 2^200]"),
    (1e-90, "scale 2e-90 lies outside [2^-200, 2^200]", "M = 2e-90 lies outside [2^-200, 2^200]"),
], ids=["1", "1e55", "1e-55", "1e78", "1e-90"])
def test_crossing_sticks_fail_both_float_checks_at_any_scale(s, simple, equal):
    # two sticks of length 2 s that cross at the origin.  seg_distance's
    # den = a c - b^2 grows as the fourth power of s: past about 1e77 it
    # overflows to nan, and below about 1e-77 it underflows into the
    # parallel branch, which measures s, so out of range the checks refuse
    # the input instead of passing the pair
    segs = [((-s, 0.0, 0.0), (s, 0.0, 0.0)), ((0.0, -s, 0.0), (0.0, s, 0.0))]
    assert [(e.passed, e.witness) for e in check_simplicity(segs, scale=2 * s).entries] == [(False, simple)]
    sticks = [EStick(a, b, 0, f"s{k}", ja, jb) for k, ((a, b), (ja, jb)) in enumerate(zip(segs, ["pq", "rt"]))]
    emb = EquilateralEmbedding(sticks=sticks, M=2 * s, components=[ComponentInfo(0, 1, 2, reduced=False)])
    failures = [(e.check, e.witness) for e in check_equilateral(emb).failures()]
    if equal:
        assert failures == [("equilateral.input", equal)]
    else:
        assert [check for check, _ in failures] == ["equilateral.clearance"]


@pytest.mark.parametrize("h", [0.0, 2.0 ** -300, 2.0 ** -400, 3 * 2.0 ** -420])
def test_sticks_whose_product_underflows_measure_their_distance(h):
    # sticks of lengths 2L and 2e, L = 2^-200 and e = 2^-340, across each
    # other at height h: a c = (2L)^2 (2e)^2 = 2^-1076 underflows to 0, which
    # sent the pair into the near-parallel branch, and that measured L from
    # the end p, so two crossing sticks passed; measured scaled up by 2^k
    # and back, the pair lies h apart, to the last bit
    L, e = 2.0 ** -200, 2.0 ** -340
    segs = [((-L, 0.0, 0.0), (L, 0.0, 0.0)), ((0.0, -e, h), (0.0, e, h))]
    assert seg_distance(*segs[0], *segs[1]) == oracles.verifier_seg_distance(*(
        [math.ldexp(c, 200) for c in pt] for pt in (*segs[0], *segs[1]))) * 2.0 ** -200 == h
    assert [(x.passed, x.witness) for x in check_simplicity(segs, scale=L).entries] == \
        [(False, f"sticks 0 and 1 at distance {h:.3e} < {1e-6 * L:.3e}")]
