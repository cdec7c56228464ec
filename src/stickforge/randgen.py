"""Seeded random arc presentations for property tests.

Each profile samples a graph shape and a random axis/page layout, then runs
the full validator on the result.  Construction is rejection-based: a sample
that fails validation is thrown away and redrawn, and a bounded number of
rejections raises GenerationExhausted (reachable through size caps below the
profile's minimum, e.g. a knot with fewer than 2 arcs).
"""

from __future__ import annotations

import random
from functools import partial

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


def _sample_loops(rng: random.Random, max_arcs: int, names: list[tuple[str, str]]):
    """One loop per (vertex, edge) name, each a closed walk on its own block
    of axis points and pages: the walk visits the block's points in shuffled
    order, on shuffled pages, starting at the vertex's point."""
    k = len(names)
    if max_arcs < 2 * k:
        return None
    points: list[BindingPoint] = []
    arcs: list[Arc] = []
    budget = max_arcs
    for j, (vname, ename) in enumerate(names):
        hi = budget - 2 * (k - 1 - j)
        n = rng.randint(2, max(2, min(hi, max_arcs // k)))
        budget -= n
        order = list(range(n))
        rng.shuffle(order)        # axis position of the walk's i-th visit
        pages = list(range(1, n + 1))
        rng.shuffle(pages)
        base = len(points)        # the block's first axis point and page
        block = [BindingPoint("interior", ename)] * n
        block[order[0]] = BindingPoint("vertex", vname)
        points.extend(block)
        arcs.extend(Arc(page=base + pages[i], ends=(base + order[i], base + order[(i + 1) % n]),
                        edge=ename) for i in range(n))
    graph = AbstractGraph.make([v for v, _ in names], [(e, v, v) for v, e in names])
    return ArcPresentation(graph=graph, binding_points=tuple(points), arcs=tuple(arcs))


def _sample_multi(rng: random.Random, max_arcs: int):
    n_comp = rng.randint(2, 3)
    return _sample_loops(rng, max_arcs, [(f"v{j + 1}", f"l{j + 1}") for j in range(n_comp)])


def _sample_hub(rng: random.Random, max_arcs: int, hubs: tuple[str, ...], prefix: str,
                edge_range: tuple[int, int], min_interior: int):
    """Parallel edges from hubs[0] to hubs[-1], each a path through at least
    min_interior interior points (a loop needs one, so that its arcs have
    distinct ends); the arc budget is spread over the edges at random."""
    n_edges = rng.randint(*edge_range)
    least = n_edges * (1 + min_interior)
    if max_arcs < least:
        return None
    budget = rng.randint(least, max_arcs)
    interiors = [min_interior] * n_edges
    for _ in range(budget - least):
        interiors[rng.randrange(n_edges)] += 1
    positions = list(range(len(hubs) + sum(interiors)))
    rng.shuffle(positions)
    points: list[BindingPoint | None] = [None] * len(positions)
    for v, pos in zip(hubs, positions):
        points[pos] = BindingPoint("vertex", v)
    start, stop = positions[0], positions[len(hubs) - 1]
    free = positions[len(hubs):]
    edges = [(f"{prefix}{i + 1}", hubs[0], hubs[-1]) for i in range(n_edges)]
    graph = AbstractGraph.make(hubs, edges)
    pages = list(range(1, budget + 1))
    rng.shuffle(pages)
    arcs: list[Arc] = []
    cursor = 0
    for (name, _, _), r in zip(edges, interiors):
        mine = free[cursor:cursor + r]
        cursor += r
        for p in mine:
            points[p] = BindingPoint("interior", name)
        path = [start] + mine + [stop]
        for a, b in zip(path, path[1:]):
            arcs.append(Arc(page=pages[len(arcs)], ends=(a, b), edge=name))
    return ArcPresentation(graph=graph, binding_points=tuple(points), arcs=tuple(arcs))


_SAMPLERS = {
    "knot": partial(_sample_loops, names=[("v", "l")]),
    "theta": partial(_sample_hub, hubs=("u", "w"), prefix="e", edge_range=(3, 5), min_interior=0),
    "bouquet": partial(_sample_hub, hubs=("v",), prefix="l", edge_range=(2, 4), min_interior=1),
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
