from __future__ import annotations

import math

import pytest

import oracles
from stickforge import equilateral_builder
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.equilateral_builder import (
    CERT_CLEARANCE_REL,
    DEFAULT_M_FACTOR,
    MTooSmall,
    NoRotationSolution,
    build_component,
    build_equilateral,
    build_tents,
    isotopy_certificate,
    reduce_top,
    tolerance_report,
)
from stickforge.randgen import random_presentation


def vp_of(name: str):
    return validate_presentation(catalog(name))


def lengths(emb):
    return [math.dist(s.a, s.b) for s in emb.sticks]


# ---------------------------------------------------------------------------
# tents


def test_tents_unknot_frozen():
    emb = build_tents(vp_of("unknot"), 10.0)
    assert len(emb.sticks) == 4
    assert all(abs(L - 10.0) < 1e-12 for L in lengths(emb))
    apexes = {s.b for s in emb.sticks if s.jb.startswith("apex")}
    assert all(abs(z - 0.5) < 1e-15 for _, _, z in apexes)
    d = math.sqrt(10.0 ** 2 - 0.25)
    assert all(abs(math.hypot(x, y) - d) < 1e-12 for x, y, _ in apexes)


def test_tents_one_per_arc_in_own_page():
    emb = build_tents(vp_of("trefoil"), 20.0)
    assert len(emb.sticks) == 10
    tags = {s.tag for s in emb.sticks}
    for arc in vp_of("trefoil").arcs:
        assert f"arc{arc.page}.lower" in tags and f"arc{arc.page}.upper" in tags


def test_tents_rejects_short_sticks():
    with pytest.raises(MTooSmall):
        build_tents(vp_of("unknot"), 0.5)  # m=2 needs M strictly above 1/2
    with pytest.raises(MTooSmall):
        build_tents(vp_of("trefoil"), 1.9)


# ---------------------------------------------------------------------------
# top point reduction


def test_reduce_unknot_to_triangle():
    tents = build_tents(vp_of("unknot"), 10.0)
    emb = reduce_top(tents)
    assert len(emb.sticks) == 3
    assert all(abs(L - 10.0) < 1e-9 * 10.0 for L in lengths(emb))
    labels = {s.ja for s in emb.sticks} | {s.jb for s in emb.sticks}
    assert "hub" in labels
    assert "bp1" not in labels  # top binding point is gone
    assert emb.components[0].reduced


def test_reduce_records_moves_and_certificate():
    tents = build_tents(vp_of("trefoil"), 20.0)
    emb = reduce_top(tents)
    cert = isotopy_certificate(tents, emb)
    assert cert.passed
    sweeps = emb.components[0].moves
    assert sweeps and all(mv.phi_start != mv.phi_end for mv in sweeps)
    assert all(clear > 0.0 for _, clear in cert.moves)


def test_reduce_no_bracket_raises():
    tents = build_tents(vp_of("unknot"), 0.51)
    with pytest.raises(NoRotationSolution):
        reduce_top(tents)


def test_component_retries_double_until_success():
    emb = build_component(vp_of("unknot"), M=0.51)
    assert len(emb.sticks) == 3
    assert emb.M > 0.51  # at least one doubling happened
    ratio = emb.M / 0.51
    assert abs(ratio - round(math.log2(ratio)) ** 0 * 2 ** round(math.log2(ratio))) < 1e-9


def test_component_exhausted_retries_reraise():
    with pytest.raises(NoRotationSolution):
        build_component(vp_of("unknot"), M=0.51, retries=0)


# ---------------------------------------------------------------------------
# full single-component builds


def test_trefoil_nine_equal_sticks():
    emb = build_component(vp_of("trefoil"))
    assert len(emb.sticks) == 9
    tol = emb.tolerance
    assert tol is not None
    assert tol.max_length_dev_rel <= 1e-9
    assert tol.min_clearance >= CERT_CLEARANCE_REL * emb.M
    assert emb.certificate is not None and emb.certificate.passed


def test_component_runs_one_tolerance_pass(monkeypatch):
    calls = []

    def counted(emb):
        calls.append(emb)
        return tolerance_report(emb)

    monkeypatch.setattr(equilateral_builder, "tolerance_report", counted)
    emb = build_component(vp_of("trefoil"))
    assert len(calls) == 1
    assert emb.tolerance == tolerance_report(emb)


def test_large_theta_certifies_at_first_M():
    # e_1's hug used to pinch the next axis point below the certificate
    # floor here, at every M
    vp = validate_presentation(random_presentation(21, "theta", 150))
    emb = build_equilateral(vp, retries=0)
    assert emb.M == DEFAULT_M_FACTOR * vp.m
    assert emb.certificate.passed
    assert emb.tolerance.min_clearance >= CERT_CLEARANCE_REL * emb.M


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_theta_trivial_counts(n):
    emb = build_component(validate_presentation(catalog(f"theta_trivial({n})")))
    assert len(emb.sticks) == 2 * n - 1


def test_every_single_component_catalog_entry_attains_bound():
    for name in catalog_names():
        vp = vp_of(name)
        if len(vp.vgraph.components) > 1:
            continue
        emb = build_component(vp)
        assert len(emb.sticks) == 2 * vp.n - 1, name


# ---------------------------------------------------------------------------
# splitting and assembly


def test_unlink_splits_into_separated_boxes():
    emb = build_equilateral(vp_of("unlink(2)"))
    assert len(emb.components) == 2
    assert len(emb.sticks) == 6  # 3 per triangle
    box = {}
    for s in emb.sticks:
        xs = box.setdefault(s.component, [])
        xs.extend([s.a[0], s.b[0]])
    gap = min(box[1]) - max(box[0])
    assert gap >= emb.M - 1e-9


def test_hopf_stays_whole():
    # two abstract components but the split count says one piece
    vp = vp_of("hopf")
    assert len(vp.vgraph.components) == 2
    assert vp.params is not None and vp.params.k == 1
    emb = build_equilateral(vp)
    assert len(emb.components) == 1
    assert len(emb.sticks) == 2 * vp.n - 1 == 7


def test_assembled_parts_share_stick_length():
    emb = build_equilateral(vp_of("unlink(3)"))
    assert len(emb.components) == 3
    Ls = lengths(emb)
    assert max(Ls) - min(Ls) <= 1e-9 * emb.M
    assert emb.certificate is not None and emb.certificate.passed


# ---------------------------------------------------------------------------
# the builds realize the right knot and link types


def test_equilateral_trefoil_is_knotted():
    emb = build_component(vp_of("trefoil"))
    assert oracles.tricolor_count([(s.a, s.b) for s in emb.sticks]) == 9


def test_equilateral_unknot_is_trivial():
    emb = build_component(vp_of("unknot"))
    assert oracles.tricolor_count([(s.a, s.b) for s in emb.sticks]) == 3


def test_equilateral_hopf_is_linked():
    emb = build_equilateral(vp_of("hopf"))
    assert oracles.linking_number_abs([(s.a, s.b) for s in emb.sticks]) == 1


def test_equilateral_unlink_is_unlinked():
    emb = build_equilateral(vp_of("unlink(2)"))
    assert oracles.linking_number_abs([(s.a, s.b) for s in emb.sticks]) == 0
    assert oracles.tricolor_count([(s.a, s.b) for s in emb.sticks]) == 9


# ---------------------------------------------------------------------------
# certificate details


def test_certificate_sweeps_cover_all_deleted_arcs():
    vp = vp_of("theta51")
    emb = build_component(vp)
    cert = emb.certificate
    assert cert is not None and cert.passed
    comp = emb.components[0]
    assert comp.deleted_tags  # reduction really deleted sticks at the top point
    swept = {mv.tag for mv in comp.moves}
    partners = {t.replace(".upper", ".lower") if t.endswith(".upper") else t.replace(".lower", ".upper")
                for t in comp.deleted_tags}
    assert swept == partners  # one sweep per surviving mate of a deleted stick
    assert {tag for tag, _ in cert.moves} == swept


def test_certificate_replay_rejects_tampered_moves():
    vp = vp_of("trefoil")
    tents = build_tents(vp, 20.0)
    emb = reduce_top(tents)
    cert = isotopy_certificate(tents, emb)
    assert cert.passed
    bad = reduce_top(build_tents(vp, 20.0))
    bad.sticks[0] = type(bad.sticks[0])(
        (bad.sticks[0].a[0], bad.sticks[0].a[1], bad.sticks[0].a[2] + 0.25),
        bad.sticks[0].b, bad.sticks[0].component, bad.sticks[0].tag,
        bad.sticks[0].ja, bad.sticks[0].jb)
    cert2 = isotopy_certificate(tents, bad)
    assert not cert2.passed
