"""Seeded random arc presentations for property tests.

Each profile samples a graph shape and a random axis/page layout, then runs
the full validator on the result.  Construction is rejection-based: a sample
that fails validation is thrown away and redrawn, and a bounded number of
rejections raises GenerationExhausted (reachable through size caps below the
profile's minimum, e.g. a knot with fewer than 2 arcs).
"""

from __future__ import annotations

import random

from .arc_presentation import (
    Arc,
    ArcPresentation,
    BindingPoint,
    PresentationError,
    validate_presentation,
)
from .graph_core import AbstractGraph, GraphError, default_spatial_params, validate_graph

PROFILES = ("knot", "theta", "bouquet", "multi")
MAX_REJECTIONS = 64


class GenerationExhausted(RuntimeError):
    """No valid sample within the rejection budget."""


def _closed_walk_arcs(n: int, point_of: list[int], pages: list[int], edge: str) -> list[Arc]:
    """Arcs of one closed n-gon visiting the given n binding points."""
    return [
        Arc(page=pages[i], ends=(point_of[i], point_of[(i + 1) % n]), edge=edge)
        for i in range(n)
    ]


def _sample_knot(rng: random.Random, max_arcs: int):
    if max_arcs < 2:
        return None
    n = rng.randint(2, max_arcs)
    graph = AbstractGraph.make(["v"], [("l", "v", "v")])
    order = list(range(n))
    rng.shuffle(order)        # axis position of the walk's i-th visit
    pages = list(range(1, n + 1))
    rng.shuffle(pages)
    points = [BindingPoint("interior", "l")] * n
    points[order[0]] = BindingPoint("vertex", "v")
    arcs = _closed_walk_arcs(n, order, pages, "l")
    return ArcPresentation(graph=graph, binding_points=tuple(points), arcs=tuple(arcs))


def _sample_theta(rng: random.Random, max_arcs: int):
    n_edges = rng.randint(3, 5)
    if max_arcs < n_edges:
        return None
    budget = rng.randint(n_edges, max_arcs)
    interiors = [0] * n_edges
    for _ in range(budget - n_edges):
        interiors[rng.randrange(n_edges)] += 1
    m = 2 + sum(interiors)
    positions = list(range(m))
    rng.shuffle(positions)
    u_pos, w_pos = positions[0], positions[1]
    free = positions[2:]
    points: list[BindingPoint | None] = [None] * m
    points[u_pos] = BindingPoint("vertex", "u")
    points[w_pos] = BindingPoint("vertex", "w")
    edges = [(f"e{i + 1}", "u", "w") for i in range(n_edges)]
    graph = AbstractGraph.make(["u", "w"], edges)
    pages = list(range(1, budget + 1))
    rng.shuffle(pages)
    arcs: list[Arc] = []
    cursor = 0
    for i, r in enumerate(interiors):
        name = f"e{i + 1}"
        mine = free[cursor:cursor + r]
        cursor += r
        for p in mine:
            points[p] = BindingPoint("interior", name)
        path = [u_pos] + mine + [w_pos]
        for a, bpt in zip(path, path[1:]):
            arcs.append(Arc(page=pages[len(arcs)], ends=(a, bpt), edge=name))
    return ArcPresentation(graph=graph, binding_points=tuple(points), arcs=tuple(arcs))


def _sample_bouquet(rng: random.Random, max_arcs: int):
    n_loops = rng.randint(2, 4)
    if max_arcs < 2 * n_loops:
        return None
    budget = rng.randint(2 * n_loops, max_arcs)
    # each loop needs >= 1 interior point so its arcs have distinct ends
    interiors = [1] * n_loops
    for _ in range(budget - 2 * n_loops):
        interiors[rng.randrange(n_loops)] += 1
    m = 1 + sum(interiors)
    positions = list(range(m))
    rng.shuffle(positions)
    v_pos = positions[0]
    free = positions[1:]
    points: list[BindingPoint | None] = [None] * m
    points[v_pos] = BindingPoint("vertex", "v")
    edges = [(f"l{i + 1}", "v", "v") for i in range(n_loops)]
    graph = AbstractGraph.make(["v"], edges)
    pages = list(range(1, budget + 1))
    rng.shuffle(pages)
    arcs: list[Arc] = []
    cursor = 0
    for i, r in enumerate(interiors):
        name = f"l{i + 1}"
        mine = free[cursor:cursor + r]
        cursor += r
        for p in mine:
            points[p] = BindingPoint("interior", name)
        path = [v_pos] + mine + [v_pos]
        for a, bpt in zip(path, path[1:]):
            arcs.append(Arc(page=pages[len(arcs)], ends=(a, bpt), edge=name))
    return ArcPresentation(graph=graph, binding_points=tuple(points), arcs=tuple(arcs))


def _sample_multi(rng: random.Random, max_arcs: int):
    n_comp = rng.randint(2, 3)
    if max_arcs < 2 * n_comp:
        return None
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    points: list[BindingPoint] = []
    arcs: list[Arc] = []
    page_base = 0
    point_base = 0
    budget = max_arcs
    for j in range(n_comp):
        hi = budget - 2 * (n_comp - 1 - j)
        n = rng.randint(2, max(2, min(hi, max_arcs // n_comp)))
        budget -= n
        vname, ename = f"v{j + 1}", f"l{j + 1}"
        vertices.append(vname)
        edges.append((ename, vname, vname))
        order = [point_base + i for i in range(n)]
        rng.shuffle(order)
        pages = [page_base + p for p in range(1, n + 1)]
        rng.shuffle(pages)
        block = [BindingPoint("interior", ename)] * n
        block[order[0] - point_base] = BindingPoint("vertex", vname)
        points.extend(block)
        arcs.extend(_closed_walk_arcs(n, order, pages, ename))
        page_base += n
        point_base += n
    graph = AbstractGraph.make(vertices, edges)
    return ArcPresentation(graph=graph, binding_points=tuple(points), arcs=tuple(arcs))


_SAMPLERS = {
    "knot": _sample_knot,
    "theta": _sample_theta,
    "bouquet": _sample_bouquet,
    "multi": _sample_multi,
}


def random_presentation(seed: int, profile: str = "knot",
                        max_arcs: int = 12) -> ArcPresentation:
    """Deterministic validator-clean presentation for the given seed."""
    if profile not in _SAMPLERS:
        raise ValueError(f"unknown profile {profile!r}; pick one of {PROFILES}")
    rng = random.Random(f"stickforge/{profile}/{seed}")
    sampler = _SAMPLERS[profile]
    for _ in range(MAX_REJECTIONS):
        ap = sampler(rng, max_arcs)
        if ap is None:
            continue
        params = default_spatial_params(validate_graph(ap.graph))
        # validator wants arcs listed in page order
        arcs = tuple(sorted(ap.arcs, key=lambda a: a.page))
        ap = ArcPresentation(graph=ap.graph, binding_points=ap.binding_points,
                             arcs=arcs, params=params)
        try:
            validate_presentation(ap)
        except (PresentationError, GraphError):
            continue
        return ap
    raise GenerationExhausted(
        f"no valid {profile} presentation with max_arcs={max_arcs} "
        f"after {MAX_REJECTIONS} draws")
