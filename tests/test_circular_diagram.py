from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.circular_diagram import boundary_points, chords_cross, to_circular
from stickforge.randgen import PROFILES, random_presentation


def diagram(name):
    return to_circular(validate_presentation(catalog(name)))


def test_boundary_points_exact_on_unit_circle():
    for m in (2, 3, 4, 5, 8, 12, 16):
        pts = boundary_points(m)
        assert len(pts) == m
        for (x, y) in pts:
            assert isinstance(x, Fraction)
            assert x * x + y * y == 1


def test_boundary_points_equal_the_fraction_reference():
    for m in range(1, 513):
        assert boundary_points(m) == oracles.boundary_points(m)


def test_boundary_parameters_lie_in_disjoint_windows():
    # each parameter t = y / (1 + x) inside its own open window, and each
    # window strictly above the next one's, so the order needs no rounding luck
    for m in [*range(1, 129), 200, 255, 256, 257, 511, 512, 513, 1000, 1023, 1024]:
        windows = [(Fraction(ln, ld), Fraction(hn, hd)) for ln, ld, hn, hd in oracles.boundary_windows(m)]
        for (x, y), (lo, hi) in zip(boundary_points(m), windows):
            assert lo < y / (1 + x) < hi, m
        for (lo, _), (_, hi) in zip(windows, windows[1:]):
            assert hi < lo, m


def test_boundary_denominators_stay_small():
    # the least-denominator parameters keep every exact product small
    # (13 bits at m = 200)
    bits = max(c.denominator.bit_length() for pt in boundary_points(200) for c in pt)
    assert bits <= 16


def test_boundary_points_clockwise_distinct():
    for m in (2, 3, 4, 5, 8, 12):
        pts = boundary_points(m)
        assert len(set(pts)) == m


def test_unknot_no_crossings():
    cd = diagram("unknot")
    assert cd.crossings == ()


def test_theta_trivial_no_crossings():
    cd = diagram("theta_trivial(3)")
    assert cd.crossings == ()


def test_trefoil_crossings_frozen():
    cd = diagram("trefoil")
    assert cd.crossings == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))


def test_trefoil_initiating_frozen():
    cd = diagram("trefoil")
    # point 1 touches pages {1, 4} -> 1; point 0 touches {3, 5} -> 3
    assert cd.initiating == (3, 1, 2, 1, 2)


def test_trefoil_classes_frozen():
    cd = diagram("trefoil")
    kinds = [c.kind for c in cd.classes]
    assert kinds == ["bi", "bi", "uni", "non", "non"]
    assert cd.counts == (2, 1, 2)


def test_theta_trivial_classes():
    for n in (3, 5):
        cd = diagram(f"theta_trivial({n})")
        kinds = [c.kind for c in cd.classes]
        assert kinds == ["bi"] + ["non"] * (n - 1)
        assert cd.counts == (1, 0, n - 1)


def test_theta51_frozen():
    cd = diagram("theta51")
    assert cd.initiating == (1, 2, 6, 3, 1, 4, 2)
    kinds = [c.kind for c in cd.classes]
    assert kinds == ["bi", "bi", "uni", "uni", "non", "uni", "non", "non"]
    assert cd.counts == (2, 3, 3)


def test_uni_chords_record_initiating_end():
    cd = diagram("trefoil")
    uni = [(chord, cls) for chord, cls in zip(cd.chords, cd.classes) if cls.kind == "uni"]
    assert len(uni) == 1
    chord, cls = uni[0]
    assert cls.initiating_end in chord.ends
    assert cd.initiating[cls.initiating_end] == chord.page


def test_crossing_oracle_agreement_catalog():
    for name in catalog_names():
        cd = diagram(name)
        for i in range(len(cd.chords)):
            for j in range(i + 1, len(cd.chords)):
                want = oracles.circle_walk_crossing(cd.m, cd.chords[i].ends, cd.chords[j].ends)
                got = (cd.chords[i].page, cd.chords[j].page) in cd.crossings
                assert got == want
                assert chords_cross(cd.chords[i].ends, cd.chords[j].ends) == want


def test_crossing_symmetry():
    assert chords_cross((0, 2), (1, 3)) == chords_cross((1, 3), (0, 2)) is True
    assert chords_cross((2, 0), (3, 1)) is True
    assert chords_cross((0, 1), (2, 3)) is False
    assert chords_cross((0, 2), (2, 4)) is False  # shared endpoint


@pytest.mark.parametrize("profile", ["knot", "theta", "bouquet", "multi"])
def test_classification_identities_random(profile):
    for seed in range(60):
        vp = validate_presentation(random_presentation(seed, profile, max_arcs=10))
        cd = to_circular(vp)
        n2, n1, n0 = cd.counts
        assert n2 + n1 + n0 == vp.n
        assert 2 * n2 + n1 == vp.n - vp.e + vp.v
        assert cd.m == vp.n - vp.e + vp.v
        assert 2 * n0 <= vp.n + vp.e - vp.v


@pytest.mark.parametrize("profile", ["knot", "theta", "bouquet"])
def test_crossing_oracle_agreement_random(profile):
    for seed in range(12):
        cd = to_circular(validate_presentation(random_presentation(seed, profile, max_arcs=9)))
        pairs = {(i, j) for i in range(len(cd.chords)) for j in range(i + 1, len(cd.chords))
                 if oracles.circle_walk_crossing(cd.m, cd.chords[i].ends, cd.chords[j].ends)}
        got = {(pi - 1, pj - 1) for (pi, pj) in cd.crossings}
        assert got == pairs


@pytest.mark.parametrize("profile", PROFILES)
def test_crossings_equal_all_pairs_chords_cross(profile):
    # the tuple to_circular builds, against chords_cross on every pair in
    # page order, chords that share an end included
    shared = 0
    for seed in range(25):
        cd = to_circular(validate_presentation(random_presentation(seed, profile, 40)))
        want = tuple((a.page, b.page) for x, a in enumerate(cd.chords) for b in cd.chords[x + 1:]
                     if chords_cross(a.ends, b.ends))
        assert cd.crossings == want
        shared += sum(bool(set(a.ends) & set(b.ends))
                      for x, a in enumerate(cd.chords) for b in cd.chords[x + 1:])
    assert shared > 100


def test_every_binding_point_has_one_initiating_end():
    for name in catalog_names():
        cd = diagram(name)
        initiating_ends = 0
        for chord, cls in zip(cd.chords, cd.classes):
            if cls.kind == "bi":
                initiating_ends += 2
            elif cls.kind == "uni":
                initiating_ends += 1
        assert initiating_ends == cd.m
