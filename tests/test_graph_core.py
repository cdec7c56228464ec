from __future__ import annotations

import pytest

from stickforge.graph_core import (
    AbstractGraph,
    ComponentOutOfRange,
    DanglingEndpoint,
    DuplicateId,
    GraphError,
    SpatialParams,
    default_spatial_params,
    ensure_params_consistent,
    is_abstract_bouquet,
    validate_graph,
)


def theta() -> AbstractGraph:
    return AbstractGraph.make(["u", "w"], [("e1", "u", "w"), ("e2", "u", "w"), ("e3", "u", "w")])


def knot() -> AbstractGraph:
    return AbstractGraph.make(["v"], [("l", "v", "v")])


def test_validate_counts():
    vg = validate_graph(theta())
    assert (vg.e, vg.v) == (3, 2)
    assert len(vg.components) == 1


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateId):
        validate_graph(AbstractGraph.make(["a", "a"], []))


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateId):
        validate_graph(AbstractGraph.make(["a"], [("e", "a", "a"), ("e", "a", "a")]))


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEndpoint):
        validate_graph(AbstractGraph.make(["a"], [("e", "a", "zz")]))


def test_components_ordered_by_first_appearance():
    g = AbstractGraph.make(["a", "b", "c"], [("e1", "b", "b"), ("e2", "a", "c")])
    vg = validate_graph(g)
    assert vg.components == (frozenset({"a", "c"}), frozenset({"b"}))


def test_degree_counts_loops_twice():
    g = AbstractGraph.make(["v", "w"], [("l", "v", "v"), ("e", "v", "w")])
    vg = validate_graph(g)
    assert vg.degree("v") == 3
    assert vg.degree("w") == 1


def test_bouquet_detection():
    vg = validate_graph(knot())
    assert is_abstract_bouquet(vg, 0)
    vg2 = validate_graph(theta())
    assert not is_abstract_bouquet(vg2, 0)
    with pytest.raises(ComponentOutOfRange):
        is_abstract_bouquet(vg, 3)


def test_params_validation():
    with pytest.raises(GraphError):
        SpatialParams(c=-1, b=0, k=1)
    with pytest.raises(GraphError):
        SpatialParams(c=0, b=-2, k=1)
    with pytest.raises(GraphError):
        SpatialParams(c=0, b=0, k=0)


def test_default_params_are_heuristic():
    vg = validate_graph(knot())
    p = default_spatial_params(vg)
    assert p.heuristic
    assert (p.c, p.b, p.k) == (0, 1, 1)


def test_default_params_multi_component():
    g = AbstractGraph.make(
        ["v1", "v2"], [("l1", "v1", "v1"), ("l2", "v2", "v2")])
    p = default_spatial_params(validate_graph(g))
    assert (p.b, p.k) == (2, 2)


def test_params_consistency_k_bounded_by_components():
    vg = validate_graph(knot())
    ensure_params_consistent(SpatialParams(c=3, b=1, k=1), vg)
    with pytest.raises(GraphError):
        ensure_params_consistent(SpatialParams(c=3, b=1, k=2), vg)
