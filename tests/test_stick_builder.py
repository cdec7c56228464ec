from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

import oracles
from stickforge import stick_builder
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.circular_diagram import to_circular
from stickforge.documents import dumps_document, embedding_to_doc
from stickforge.randgen import PROFILES, random_presentation
from stickforge.stick_builder import (BuildError, Stick, StickEmbedding, build, clearance_height,
                                      count_sticks)
from stickforge.verifier import verify_stick_embedding


def build_catalog(name):
    cd = to_circular(validate_presentation(catalog(name)))
    return build(cd), cd


def _presentations():
    # 63: the catalog, theta_trivial(2..16) and 40 random draws of 30 arcs
    presentations = [catalog(name) for name in catalog_names()]
    presentations += [catalog(f"theta_trivial({n})") for n in range(2, 17)]
    presentations += [random_presentation(s, p, 30) for p in PROFILES for s in range(10)]
    return presentations


def test_unknot_triangle():
    se, cd = build_catalog("unknot")
    assert len(se.sticks) == 3
    assert count_sticks(se) == 3
    assert se.heights == {1: 1, 2: 2}
    assert verify_stick_embedding(se, cd).ok


def test_trefoil_frozen():
    se, cd = build_catalog("trefoil")
    assert len(se.sticks) == 7
    assert count_sticks(se) == 7
    # l_3 (uni) needs z=4 to clear the crossing with l_1; the rest are tight
    assert se.heights == {1: 1, 2: 2, 3: 4, 4: 5, 5: 6}
    assert verify_stick_embedding(se, cd).ok


def test_heights_strictly_increasing_integers():
    for name in catalog_names():
        se, _ = build_catalog(name)
        zs = [se.heights[p] for p in sorted(se.heights)]
        assert all(isinstance(z, int) and z > 0 for z in zs)
        assert all(a < b for a, b in zip(zs, zs[1:]))


def test_count_equals_n_plus_n0_catalog():
    for name in catalog_names():
        se, cd = build_catalog(name)
        n0 = cd.counts[2]
        assert len(se.sticks) == len(cd.chords) + n0
        assert count_sticks(se) == len(se.sticks)


def test_theta_trivial_attains_2n_minus_1():
    for n in (2, 3, 4, 7, 11):
        cd = to_circular(validate_presentation(catalog(f"theta_trivial({n})")))
        se = build(cd)
        assert count_sticks(se) == 2 * n - 1


def test_theta_trivial_4_is_7_sticks():
    cd = to_circular(validate_presentation(catalog("theta_trivial(4)")))
    assert cd.counts == (1, 0, 3)
    assert count_sticks(build(cd)) == 7


def test_exact_documents_pinned():
    # the bytes of 63 exact documents, concatenated: any change to the lift's
    # heights, junctions or coordinates shows here
    presentations = _presentations()
    digest = hashlib.sha256()
    for ap in presentations:
        se = build(to_circular(validate_presentation(ap)))
        digest.update(dumps_document(embedding_to_doc(se)).encode())
    assert len(presentations) == 63
    assert digest.hexdigest() == "5ecd2e570cf649347131153e984f256c2d2e7de02fc3e67cebafac2e55aae870"


def test_bi_chords_rise_one_level():
    _, cd = build_catalog("trefoil")
    assert clearance_height(cd, 1, stick_builder._Lift(cd)) == 1


def test_junctions_sit_at_initiating_heights():
    se, cd = build_catalog("trefoil")
    for b, pt in se.junctions.items():
        assert pt[2] == se.heights[cd.initiating[b]]


def test_all_catalog_builds_verify():
    for name in catalog_names():
        se, cd = build_catalog(name)
        report = verify_stick_embedding(se, cd)
        assert report.ok, f"{name}: {report.summary()}"


def test_independent_simplicity_oracle_catalog():
    for name in catalog_names():
        se, _ = build_catalog(name)
        ok, witness = oracles.embedding_is_simple([(s.a, s.b) for s in se.sticks])
        assert ok, f"{name}: {witness}"


def test_crossing_heights_against_oracle():
    se, cd = build_catalog("trefoil")
    for (pi, pj) in cd.crossings:
        ti, _ = oracles.chord_meeting_param(cd.boundary, cd.chords[pi - 1].ends,
                                            cd.chords[pj - 1].ends)
        a = cd.boundary[cd.chords[pi - 1].ends[0]]
        b = cd.boundary[cd.chords[pi - 1].ends[1]]
        x = (a[0] + ti * (b[0] - a[0]), a[1] + ti * (b[1] - a[1]))
        zi = oracles.height_over_point([(s.a, s.b) for s in se.sticks if s.page == pi], x)
        zj = oracles.height_over_point([(s.a, s.b) for s in se.sticks if s.page == pj], x)
        assert zi < zj


def test_knot_type_preserved():
    for name, tricolor in (("unknot", 3), ("trefoil", 9), ("hopf", 3)):
        se, _ = build_catalog(name)
        assert oracles.tricolor_count([(s.a, s.b) for s in se.sticks]) == tricolor


def test_hopf_linking_number():
    se, _ = build_catalog("hopf")
    assert oracles.linking_number_abs([(s.a, s.b) for s in se.sticks]) == 1


def test_unlink_not_linked():
    se, _ = build_catalog("unlink(2)")
    assert oracles.linking_number_abs([(s.a, s.b) for s in se.sticks]) == 0


@pytest.mark.parametrize("profile", ["knot", "theta", "bouquet", "multi"])
def test_random_builds_verify(profile):
    for seed in range(10):
        vp = validate_presentation(random_presentation(seed, profile, max_arcs=8))
        cd = to_circular(vp)
        se = build(cd)
        assert len(se.sticks) == vp.n + cd.counts[2]
        report = verify_stick_embedding(se, cd)
        assert report.ok, f"{profile}/{seed}: {report.summary()}"


def _shared_end_obstacle():
    # theta_trivial(3) up to page 2, whose bent lift is replaced by one stick
    # in the plane over the common chord, above page 3's anchors: no valid
    # build has such a stick
    cd = to_circular(validate_presentation(catalog("theta_trivial(3)")))
    se = build(cd)
    half = Fraction(1, 2)
    partial = stick_builder._Lift(cd)
    for s in (se.sticks[0], Stick((Fraction(0), half, Fraction(2)), (Fraction(0), -half, Fraction(2)),
                                  2, "e2", "whole")):
        partial.place(s, *_ends(s.a, s.b))
    partial.junctions.update(se.junctions)
    partial.heights.update({1: 1, 2: 2})
    return cd, 3, partial


def test_shared_end_sticks_are_not_obstacles():
    # no chord crosses chord 3, so its lift rises one level above z_prev = 2
    # whatever the chords sharing its ends hold
    assert clearance_height(*_shared_end_obstacle()) == 3


def test_min_heights_against_brute_force(monkeypatch):
    # every non-bi lift is clear at its height and blocked one level lower,
    # judged against every earlier stick, not only those the builder keeps,
    # each projected by the reference that keeps in-plane segments
    seen = []
    real_height, real_min = stick_builder.clearance_height, stick_builder._min_clear_height
    placed = []

    def height_spy(cd, k, partial):
        placed[:] = [s for s in partial.sticks if s.page < k]
        return real_height(cd, k, partial)

    def spy(frame, lows, z_prev, earlier):
        z = real_min(frame, lows, z_prev, earlier)
        ends = [_ends(s.a, s.b) for s in placed]
        seen.append((_as_fractions(*oracles.project_earlier(frame, ends), lows), z_prev, z))
        return z

    monkeypatch.setattr(stick_builder, "clearance_height", height_spy)
    monkeypatch.setattr(stick_builder, "_min_clear_height", spy)
    presentations = _presentations()
    presentations.append(random_presentation(0, "bouquet", 150))  # 118 arcs
    for ap in presentations:
        build(to_circular(validate_presentation(ap)))
    binding = 0
    for (segs, pts, lows), z_prev, z in seen:
        assert oracles.lift_clear(segs, pts, lows, z)
        if z - 1 > z_prev:
            binding += 1
            assert not oracles.lift_clear(segs, pts, lows, z - 1)
    assert binding > 100


def _all_near_height(frame, lows, z_prev, earlier):
    return oracles.lift_height(*_as_fractions(*oracles.project_earlier(frame, earlier), lows), z_prev)


def test_crossing_obstacles_match_all_near_lift(monkeypatch):
    # fed every earlier chord that crosses or shares an end with the lifted
    # one, and projected with in-plane segments, the lift gives the same
    # heights and documents
    presentations = _presentations()
    presentations += [catalog(f"theta_trivial({n})") for n in range(17, 33)]
    presentations += [random_presentation(s, p, 80) for p in PROFILES for s in range(10, 13)]
    cds = [to_circular(validate_presentation(ap)) for ap in presentations]
    builds = [build(cd) for cd in cds]
    monkeypatch.setattr(stick_builder, "_near_pages", oracles.all_near_pages)
    monkeypatch.setattr(stick_builder, "_min_clear_height", _all_near_height)
    for cd, se in zip(cds, builds):
        ref = build(cd)
        assert ref.heights == se.heights
        assert dumps_document(embedding_to_doc(ref)) == dumps_document(embedding_to_doc(se))


def _as_fractions(segs, pts, lows):
    """The builder's homogeneous in-plane view as the (s, z) points and
    ((s_lo, z_lo), s_hi) anchors, in Fractions, that oracles.lift_clear reads."""
    def point(p):
        return (Fraction(p[0], p[2]), Fraction(p[1], p[2]))

    return ([(point(p), point(q)) for p, q in segs], [point(p) for p in pts],
            [((Fraction(s_lo, w), Fraction(z_lo, w)), Fraction(s_hi, w))
             for s_lo, s_hi, z_lo, w in lows])


def _frame_and_lows(s_hi):
    # chord (0, 0) -> (1, 0), so s = x in units of s_max; one anchor at s = 0, z_lo = 1
    frame = stick_builder._ChordFrame((0, 0, 1), (1, 0, 1))
    return frame, ((0, s_hi * frame.s_max, 1, 1),)


def _ends(a, b):
    return tuple(stick_builder._hom(tuple(map(Fraction, p))) for p in (a, b))


@pytest.mark.parametrize("a, b, z_prev, z", [
    # one end below z_lo = 1, the other above: it punches the plane at
    # (1/4, 2), u = 1/4, and blocks up to 1 + (2 - 1) / (1/4) = 5
    ((Fraction(1, 4), -1, 0), (Fraction(1, 4), 1, 4), 4, 6),
    # wholly at or below z_lo, ends on the anchor's level: dropped, binds nothing
    ((Fraction(1, 4), -1, 0), (Fraction(1, 4), 1, 1), 1, 2),
    ((0, 0, 1), (Fraction(1, 2), 0, 1), 1, 2),
], ids=["poke-through", "below-through", "on-level-in-plane"])
def test_min_clear_height_stick_poking_above_anchor(a, b, z_prev, z):
    frame, lows = _frame_and_lows(1)
    earlier = (_ends(a, b),)
    assert stick_builder._min_clear_height(frame, lows, z_prev, earlier) == z
    segs, pts, lows = _as_fractions(*oracles.project_earlier(frame, earlier), lows)
    assert oracles.lift_clear(segs, pts, lows, z)
    assert (z - 1 == z_prev) or not oracles.lift_clear(segs, pts, lows, z - 1)


@pytest.mark.parametrize("a, b, z_prev, z", [
    # its end at u = 1/2 blocks up to 1 + (3 - 1) / (1/2) = 5
    ((Fraction(1, 2), 0, 3), (2, 0, 3), 3, 6),
    # passes through the exempt anchor corner, then its end blocks up to 3
    ((Fraction(-1, 2), 0, 0), (Fraction(1, 2), 0, 2), 2, 4),
    # from below z_lo to above: its end at u = 1/2, z = 3 blocks up to 5
    ((Fraction(1, 4), 0, 0), (Fraction(1, 2), 0, 3), 3, 6),
], ids=["end-inside", "through-corner", "poke-in-plane"])
def test_all_near_reference_clears_in_plane_stick(a, b, z_prev, z):
    # the reference lift, which the builder's is fuzzed against, still reads
    # in-plane segments, as a chord with the same two ends would give it
    frame, lows = _frame_and_lows(1)
    segs, pts, lows = _as_fractions(*oracles.project_earlier(frame, (_ends(a, b),)), lows)
    assert segs and oracles.lift_height(segs, pts, lows, z_prev) == z
    assert oracles.lift_clear(segs, pts, lows, z)
    assert not oracles.lift_clear(segs, pts, lows, z - 1)


def test_lift_culls_sticks_below_the_anchors(monkeypatch):
    # on a large bouquet, 618 of the 2,090 obstacle sticks lie at or below
    # every anchor and are dropped before they are projected
    near, projected = [0], [0]
    real_min, real_project = stick_builder._min_clear_height, stick_builder._project_earlier

    def min_spy(frame, lows, z_prev, earlier):
        near[0] += len(earlier)
        return real_min(frame, lows, z_prev, earlier)

    def project_spy(frame, earlier):
        projected[0] += len(earlier)
        return real_project(frame, earlier)

    monkeypatch.setattr(stick_builder, "_min_clear_height", min_spy)
    monkeypatch.setattr(stick_builder, "_project_earlier", project_spy)
    cd = to_circular(validate_presentation(random_presentation(0, "bouquet", 150)))
    assert verify_stick_embedding(build(cd), cd).ok
    assert (near[0], projected[0]) == (2090, 1472)


def test_theta_fan_lifts_meet_no_obstacle(monkeypatch):
    # theta_trivial(n) has no crossings, so no lift reads an earlier stick
    seen = []
    real_min = stick_builder._min_clear_height

    def spy(frame, lows, z_prev, earlier):
        seen.append(len(earlier))
        return real_min(frame, lows, z_prev, earlier)

    monkeypatch.setattr(stick_builder, "_min_clear_height", spy)
    for n in range(2, 65):
        build(to_circular(validate_presentation(catalog(f"theta_trivial({n})"))))
    assert seen and not any(seen)


@pytest.mark.parametrize("a, b, s_hi, match", [
    # punch-through at z = 2 straight over the anchor: no height clears it
    ((0, -1, 2), (0, 1, 2), 1, "blocks every height"),
    # the same point, from a stick with one end below z_lo = 1
    ((0, -1, 0), (0, 1, 4), 1, "blocks every height"),
    # sticks in the plane above z_lo, which no obstacle can be
    ((-1, 0, 2), (1, 0, 2), 1, "in the chord's plane"),
    ((Fraction(1, 2), 0, 3), (2, 0, 3), 1, "in the chord's plane"),
    ((Fraction(-1, 2), 0, 0), (Fraction(1, 2), 0, 2), 1, "in the chord's plane"),
    ((Fraction(1, 4), 0, 0), (Fraction(1, 2), 0, 3), 1, "in the chord's plane"),
    ((0, -1, 2), (0, 1, 2), 0, "degenerate"),
], ids=["point-over-anchor", "poke-over-anchor", "segment-across-anchor-side", "end-inside",
        "through-corner", "poke-in-plane", "degenerate-triangle"])
def test_min_clear_height_rejects_unclearable(a, b, s_hi, match):
    frame, lows = _frame_and_lows(s_hi)
    with pytest.raises(BuildError, match=match):
        stick_builder._min_clear_height(frame, lows, 2, (_ends(a, b),))


def test_forced_low_heights_break_verification(monkeypatch):
    # pushing l_3 down to the naive z=3 must collide with the crossing order
    cd = to_circular(validate_presentation(catalog("trefoil")))
    real = stick_builder.clearance_height
    monkeypatch.setattr(stick_builder, "clearance_height",
                        lambda cd, k, partial: 3 if k == 3 else real(cd, k, partial))
    se = build(cd)
    report = verify_stick_embedding(se, cd)
    assert not report.ok
    assert report.failures()


def test_count_sticks_merges_collinear_pairs():
    sticks = [
        Stick(a=(Fraction(0), Fraction(0), Fraction(0)),
              b=(Fraction(1), Fraction(0), Fraction(0)), page=1, edge="l", piece="left"),
        Stick(a=(Fraction(1), Fraction(0), Fraction(0)),
              b=(Fraction(2), Fraction(0), Fraction(0)), page=1, edge="l", piece="right"),
        Stick(a=(Fraction(2), Fraction(0), Fraction(0)),
              b=(Fraction(2), Fraction(1), Fraction(0)), page=2, edge="l", piece="whole"),
    ]
    se = StickEmbedding(sticks=sticks, junctions={}, heights={})
    assert count_sticks(se) == 2
