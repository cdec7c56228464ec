from __future__ import annotations

import pytest

import parity
from stickforge.arc_presentation import (
    Arc,
    ArcPresentation,
    BindingCountMismatch,
    BindingPoint,
    BrokenEdgePath,
    DegreeMismatch,
    PageGap,
    SharedEndpoints,
    UnknownCatalogEntry,
    catalog,
    catalog_names,
    split_components,
    validate_presentation,
)
from stickforge.graph_core import AbstractGraph


def unknot_ap(**overrides) -> ArcPresentation:
    fields = dict(
        graph=AbstractGraph.make(["v"], [("l", "v", "v")]),
        binding_points=(BindingPoint("vertex", "v"), BindingPoint("interior", "l")),
        arcs=(Arc(1, (0, 1), "l"), Arc(2, (1, 0), "l")),
        params=None,
    )
    fields.update(overrides)
    return ArcPresentation(**fields)


def test_unknot_validates():
    vp = validate_presentation(unknot_ap())
    assert (vp.n, vp.e, vp.v, vp.m) == (2, 1, 1, 2)


def test_binding_point_kind_checked():
    with pytest.raises(ValueError):
        BindingPoint("middle", "l")


def test_page_gap():
    bad = unknot_ap(arcs=(Arc(1, (0, 1), "l"), Arc(3, (1, 0), "l")))
    with pytest.raises(PageGap):
        validate_presentation(bad)


def test_shared_endpoints():
    bad = unknot_ap(arcs=(Arc(1, (0, 0), "l"), Arc(2, (1, 0), "l")))
    with pytest.raises(SharedEndpoints):
        validate_presentation(bad)


def test_broken_edge_path_wrong_interior_use():
    # second arc never returns to the vertex
    bad = unknot_ap(
        binding_points=(
            BindingPoint("vertex", "v"),
            BindingPoint("interior", "l"),
            BindingPoint("interior", "l"),
        ),
        arcs=(Arc(1, (0, 1), "l"), Arc(2, (1, 2), "l")),
    )
    with pytest.raises((BrokenEdgePath, BindingCountMismatch, DegreeMismatch)):
        validate_presentation(bad)


def test_degree_mismatch():
    g = AbstractGraph.make(["u", "w"], [("e1", "u", "w"), ("e2", "u", "w"), ("e3", "u", "w")])
    # e3 drawn from u back to u instead of u to w
    bad = ArcPresentation(
        graph=g,
        binding_points=(BindingPoint("vertex", "u"), BindingPoint("vertex", "w"),
                        BindingPoint("interior", "e3")),
        arcs=(Arc(1, (0, 1), "e1"), Arc(2, (0, 1), "e2"),
              Arc(3, (0, 2), "e3"), Arc(4, (2, 0), "e3")),
        params=None,
    )
    with pytest.raises((DegreeMismatch, BrokenEdgePath)):
        validate_presentation(bad)


def test_binding_count_identity_enforced():
    # extra unused interior point breaks m = n - e + v
    bad = unknot_ap(
        binding_points=(
            BindingPoint("vertex", "v"),
            BindingPoint("interior", "l"),
            BindingPoint("interior", "l"),
        ),
    )
    with pytest.raises((BindingCountMismatch, BrokenEdgePath)):
        validate_presentation(bad)


def test_catalog_names_all_validate():
    for name in catalog_names():
        vp = validate_presentation(catalog(name))
        assert vp.m == vp.n - vp.e + vp.v


def test_catalog_unknown():
    with pytest.raises(UnknownCatalogEntry):
        catalog("granny")
    with pytest.raises(UnknownCatalogEntry):
        catalog("theta_trivial(x)")


def test_catalog_parametrized_sizes():
    vp = validate_presentation(catalog("theta_trivial(7)"))
    assert (vp.n, vp.e, vp.v, vp.m) == (7, 7, 2, 2)
    vp = validate_presentation(catalog("unlink(4)"))
    assert (vp.n, vp.e, vp.v) == (8, 4, 4)
    assert len(vp.vgraph.components) == 4


def test_trefoil_shape():
    vp = validate_presentation(catalog("trefoil"))
    assert (vp.n, vp.m) == (5, 5)
    assert vp.params is not None and (vp.params.c, vp.params.b, vp.params.k) == (3, 1, 1)


def test_theta51_shape():
    vp = validate_presentation(catalog("theta51"))
    assert (vp.n, vp.e, vp.v, vp.m) == (8, 3, 2, 7)
    assert vp.params is not None and (vp.params.c, vp.params.b, vp.params.k) == (5, 0, 1)
    # three u-w edges: degree 3 at both vertices
    assert vp.vgraph.degree("u") == 3
    assert vp.vgraph.degree("w") == 3


def test_split_components_unlink():
    vp = validate_presentation(catalog("unlink(3)"))
    parts = split_components(vp)
    assert len(parts) == 3
    for part in parts:
        assert (part.n, part.m) == (2, 2)
        # re-paged from 1 and re-indexed from 0
        assert sorted(a.page for a in part.arcs) == [1, 2]
        assert {e for a in part.arcs for e in a.ends} == {0, 1}


def test_split_single_component_is_identity_shape():
    vp = validate_presentation(catalog("trefoil"))
    parts = split_components(vp)
    assert len(parts) == 1
    assert parts[0].n == vp.n


def test_validator_outcomes_pinned():
    # the outcomes of the 3,072 mutants of the validator set of
    # tests/parity.py: any change to which check fires first, or to its
    # message, shows here
    assert parity.validator() == "c0c315f5239784332b5c5689f796a9a2bef9594725ef0cbef498dddf9c4ccf87"
