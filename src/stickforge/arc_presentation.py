"""Arc presentations: axis binding points plus one simple arc per page.

A presentation lists binding points in axis order (index 0 lowest) and arcs
in page order (list position i holds page i + 1).  Each binding point is
either the unique axis point of a vertex or an interior point of one edge;
each edge traces a simple path (a cycle for a loop) through its interior
points.  The validator enforces that structure and the count identity
m = n - e + v.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph_core import (
    AbstractGraph,
    SpatialParams,
    ValidatedGraph,
    ensure_params_consistent,
    validate_graph,
)


class PresentationError(ValueError):
    """Base class for arc presentation validation failures."""


class PageGap(PresentationError):
    """Arc pages do not form 1..n in list order."""


class SharedEndpoints(PresentationError):
    """An arc joins a binding point to itself."""


class BrokenEdgePath(PresentationError):
    """The arcs of an edge do not form one simple path/cycle through its
    interior points."""


class DegreeMismatch(PresentationError):
    """Arc ends at a vertex point disagree with the vertex degree."""


class BindingCountMismatch(PresentationError):
    """Binding point count differs from n - e + v."""


class UnknownCatalogEntry(PresentationError):
    """No catalog entry under that name."""


@dataclass(frozen=True)
class BindingPoint:
    kind: str  # "vertex" | "interior"
    ref: str   # vertex id or edge id

    def __post_init__(self):
        if self.kind not in ("vertex", "interior"):
            raise PresentationError(f"bad binding point kind {self.kind!r}")


@dataclass(frozen=True)
class Arc:
    page: int
    ends: tuple[int, int]  # axis indices of the two endpoints
    edge: str


@dataclass(frozen=True)
class ArcPresentation:
    graph: AbstractGraph
    binding_points: tuple[BindingPoint, ...]
    arcs: tuple[Arc, ...]
    params: SpatialParams | None = None


@dataclass(frozen=True)
class ValidatedPresentation:
    presentation: ArcPresentation
    vgraph: ValidatedGraph
    n: int
    e: int
    v: int
    m: int

    @property
    def graph(self) -> AbstractGraph:
        return self.presentation.graph

    @property
    def binding_points(self) -> tuple[BindingPoint, ...]:
        return self.presentation.binding_points

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return self.presentation.arcs

    @property
    def params(self) -> SpatialParams | None:
        return self.presentation.params


def validate_presentation(ap: ArcPresentation) -> ValidatedPresentation:
    vg = validate_graph(ap.graph)
    bps = ap.binding_points
    arcs = ap.arcs
    m, n = len(bps), len(arcs)

    for pos, arc in enumerate(arcs):
        if arc.page != pos + 1:
            raise PageGap(f"arc at position {pos} carries page {arc.page}, expected {pos + 1}")

    vertices = set(ap.graph.vertices)
    edge_ends = {eid: (a, b) for eid, a, b in ap.graph.edges}

    vertex_point: dict[str, int] = {}
    interior: dict[str, list[int]] = {eid: [] for eid in edge_ends}   # edge -> its points
    for idx, bp in enumerate(bps):
        if bp.kind == "vertex":
            if bp.ref not in vertices:
                raise PresentationError(f"binding point {idx} names unknown vertex {bp.ref!r}")
            if bp.ref in vertex_point:
                raise PresentationError(f"vertex {bp.ref!r} appears twice on the axis")
            vertex_point[bp.ref] = idx
        else:
            if bp.ref not in edge_ends:
                raise PresentationError(f"binding point {idx} names unknown edge {bp.ref!r}")
            interior[bp.ref].append(idx)
    for vid in ap.graph.vertices:
        if vid not in vertex_point:
            raise PresentationError(f"vertex {vid!r} has no binding point")

    incident: list[list[int]] = [[] for _ in range(m)]   # point -> arc positions ending there
    positions: dict[str, list[int]] = {eid: [] for eid in edge_ends}  # edge -> its arcs
    for pos, arc in enumerate(arcs):
        a, b = arc.ends
        if a == b:
            raise SharedEndpoints(f"arc page {arc.page} joins point {a} to itself")
        for end in (a, b):
            if not 0 <= end < m:
                raise PresentationError(f"arc page {arc.page} end {end} out of range 0..{m - 1}")
        if arc.edge not in edge_ends:
            raise PresentationError(f"arc page {arc.page} names unknown edge {arc.edge!r}")
        incident[a].append(pos)
        incident[b].append(pos)
        positions[arc.edge].append(pos)

    # interior points carry exactly two ends, both from their own edge
    for idx, bp in enumerate(bps):
        if bp.kind != "interior":
            continue
        owners = [arcs[pos].edge for pos in incident[idx]]
        if len(owners) != 2 or any(eid != bp.ref for eid in owners):
            raise BrokenEdgePath(
                f"interior point {idx} of edge {bp.ref!r} has arc ends {owners}, expected two from its edge"
            )

    # each edge's arcs form one simple path (cycle for a loop)
    for eid, (u, w) in edge_ends.items():
        if not positions[eid]:
            raise BrokenEdgePath(f"edge {eid!r} has no arcs")
        pu, pw = vertex_point[u], vertex_point[w]
        allowed = {pu, pw, *interior[eid]}
        local: dict[int, list[int]] = {}
        for pos in positions[eid]:
            for end in arcs[pos].ends:
                if end not in allowed:
                    raise BrokenEdgePath(
                        f"edge {eid!r} arc touches point {end}, which belongs elsewhere"
                    )
                local.setdefault(end, []).append(pos)
        if u == w:
            if len(local.get(pu, [])) != 2:
                raise BrokenEdgePath(f"loop {eid!r} needs exactly two arc ends at its vertex")
        else:
            if len(local.get(pu, [])) != 1 or len(local.get(pw, [])) != 1:
                raise BrokenEdgePath(f"edge {eid!r} needs exactly one arc end at each endpoint")
        # walk from u until w (u again for a loop); every arc must be used
        # once and interior points visited once
        path = [pu]
        used = set()
        while nxt := [pos for pos in local.get(path[-1], []) if pos not in used]:
            used.add(nxt[0])
            a, b = arcs[nxt[0]].ends
            path.append(b if a == path[-1] else a)
            if path[-1] == pw:
                break
        if len(used) != len(positions[eid]) or path[-1] != pw:
            raise BrokenEdgePath(f"arcs of edge {eid!r} do not chain into one path")
        interior_expected = len(positions[eid]) - 1
        interior_seen = len(path) - 2
        if interior_seen != interior_expected or len(set(path[1:-1])) != interior_expected:
            raise BrokenEdgePath(f"arcs of edge {eid!r} revisit a point")

    for vid in ap.graph.vertices:
        want = vg.degree(vid)
        got = len(incident[vertex_point[vid]])
        if got != want:
            raise DegreeMismatch(f"vertex {vid!r} has {got} arc ends, degree is {want}")

    if m != n - vg.e + vg.v:
        raise BindingCountMismatch(f"m={m} but n-e+v = {n}-{vg.e}+{vg.v} = {n - vg.e + vg.v}")

    if ap.params is not None:
        ensure_params_consistent(ap.params, vg)

    return ValidatedPresentation(presentation=ap, vgraph=vg, n=n, e=vg.e, v=vg.v, m=m)


def split_components(vp: ValidatedPresentation) -> list[ValidatedPresentation]:
    """One sub-presentation per abstract component, axis and page orders kept."""
    out = []
    for ci, comp in enumerate(vp.vgraph.components):
        edge_ids = {eid for eid, a, _ in vp.graph.edges if a in comp}
        point_map: dict[int, int] = {}
        new_bps: list[BindingPoint] = []
        for idx, bp in enumerate(vp.binding_points):
            keep = (bp.kind == "vertex" and bp.ref in comp) or (
                bp.kind == "interior" and bp.ref in edge_ids
            )
            if keep:
                point_map[idx] = len(new_bps)
                new_bps.append(bp)
        new_arcs = []
        for arc in vp.arcs:
            if arc.edge in edge_ids:
                new_arcs.append(
                    Arc(len(new_arcs) + 1, (point_map[arc.ends[0]], point_map[arc.ends[1]]), arc.edge)
                )
        sub = ArcPresentation(
            AbstractGraph.make(
                [v for v in vp.graph.vertices if v in comp],
                [t for t in vp.graph.edges if t[0] in edge_ids],
            ),
            tuple(new_bps),
            tuple(new_arcs),
            params=None,
        )
        out.append(validate_presentation(sub))
    return out


def equal_length_parts(vp: ValidatedPresentation) -> list[ValidatedPresentation]:
    """The pieces an equal-length build reduces one by one: every abstract
    component on its own when the declared split count k equals their
    number, else the whole presentation.  A smaller k means some components
    are linked through each other, so the finer per-component stick count
    does not apply."""
    n_comp = len(vp.vgraph.components)
    k = vp.params.k if vp.params is not None else 1
    return split_components(vp) if n_comp > 1 and k == n_comp else [vp]


# ---------------------------------------------------------------------------
# catalog


def _unknot() -> ArcPresentation:
    g = AbstractGraph.make(["v"], [("l", "v", "v")])
    bps = (BindingPoint("vertex", "v"), BindingPoint("interior", "l"))
    arcs = (Arc(1, (0, 1), "l"), Arc(2, (0, 1), "l"))
    return ArcPresentation(g, bps, arcs, SpatialParams(c=0, b=1, k=1))


def _trefoil() -> ArcPresentation:
    # five axis points, page k joins k mod 5 to (k + 2) mod 5
    g = AbstractGraph.make(["v"], [("l", "v", "v")])
    bps = [BindingPoint("vertex", "v")] + [BindingPoint("interior", "l")] * 4
    arcs = tuple(Arc(k, (k % 5, (k + 2) % 5), "l") for k in range(1, 6))
    return ArcPresentation(g, tuple(bps), arcs, SpatialParams(c=3, b=1, k=1))


def _hopf() -> ArcPresentation:
    # two loops on interleaved axis points and interleaved pages; the pair
    # is non-splittable, so k = 1 and there is no bouquet cut-component
    g = AbstractGraph.make(["va", "vb"], [("la", "va", "va"), ("lb", "vb", "vb")])
    bps = (
        BindingPoint("vertex", "va"),
        BindingPoint("vertex", "vb"),
        BindingPoint("interior", "la"),
        BindingPoint("interior", "lb"),
    )
    arcs = (
        Arc(1, (0, 2), "la"),
        Arc(2, (1, 3), "lb"),
        Arc(3, (0, 2), "la"),
        Arc(4, (1, 3), "lb"),
    )
    return ArcPresentation(g, bps, arcs, SpatialParams(c=2, b=0, k=1))


def _theta_trivial(n: int) -> ArcPresentation:
    if n < 1:
        raise UnknownCatalogEntry("theta_trivial needs at least one edge")
    g = AbstractGraph.make(["u", "w"], [(f"e{i}", "u", "w") for i in range(1, n + 1)])
    bps = (BindingPoint("vertex", "u"), BindingPoint("vertex", "w"))
    arcs = tuple(Arc(i, (0, 1), f"e{i}") for i in range(1, n + 1))
    return ArcPresentation(g, bps, arcs, SpatialParams(c=0, b=0, k=1))


def _unlink(n: int) -> ArcPresentation:
    if n < 1:
        raise UnknownCatalogEntry("unlink needs at least one component")
    g = AbstractGraph.make(
        [f"v{i}" for i in range(1, n + 1)],
        [(f"l{i}", f"v{i}", f"v{i}") for i in range(1, n + 1)],
    )
    bps = []
    arcs = []
    for i in range(1, n + 1):
        base = 2 * (i - 1)
        bps.append(BindingPoint("vertex", f"v{i}"))
        bps.append(BindingPoint("interior", f"l{i}"))
        arcs.append(Arc(len(arcs) + 1, (base, base + 1), f"l{i}"))
        arcs.append(Arc(len(arcs) + 1, (base, base + 1), f"l{i}"))
    return ArcPresentation(g, tuple(bps), tuple(arcs), SpatialParams(c=0, b=n, k=n))


def _theta51() -> ArcPresentation:
    # theta-curve with eight pages on seven axis points whose clockwise
    # initiating page numbers read 1 2 6 3 1 4 2; found by exhaustive search
    # over chord sets realizing exactly those minima with a theta path
    # structure (see tests for the search reconstruction)
    g = AbstractGraph.make(["u", "w"], [("e1", "u", "w"), ("e2", "u", "w"), ("e3", "u", "w")])
    chords = _THETA51_CHORDS
    kinds = _THETA51_POINT_KINDS
    bps = tuple(BindingPoint(kind, ref) for kind, ref in kinds)
    arcs = tuple(Arc(k + 1, ends, eid) for k, (ends, eid) in enumerate(chords))
    return ArcPresentation(g, bps, arcs, SpatialParams(c=5, b=0, k=1))


# chord ends and edge assignment for the 5_1 theta-curve entry, the
# lexicographically first chord set realizing the published initiating data;
# edge paths: e1 = pages 1,7,6 (0-4-2-1), e2 = pages 3,5 (0-3-1),
# e3 = pages 4,8,2 (0-5-6-1)
_THETA51_CHORDS: tuple[tuple[tuple[int, int], str], ...] = (
    ((0, 4), "e1"),
    ((1, 6), "e3"),
    ((3, 0), "e2"),
    ((5, 0), "e3"),
    ((1, 3), "e2"),
    ((2, 1), "e1"),
    ((2, 4), "e1"),
    ((5, 6), "e3"),
)
_THETA51_POINT_KINDS: tuple[tuple[str, str], ...] = (
    ("vertex", "u"),
    ("vertex", "w"),
    ("interior", "e1"),
    ("interior", "e2"),
    ("interior", "e1"),
    ("interior", "e3"),
    ("interior", "e3"),
)


_PARAM_RE = re.compile(r"^(theta_trivial|unlink)\((\d+)\)$")


def catalog(name: str) -> ArcPresentation:
    """Built-in presentations; parametric entries use name(n) syntax."""
    if name == "unknot":
        return _unknot()
    if name == "trefoil":
        return _trefoil()
    if name == "hopf":
        return _hopf()
    if name == "theta51":
        return _theta51()
    match = _PARAM_RE.match(name)
    if match:
        fn = _theta_trivial if match.group(1) == "theta_trivial" else _unlink
        return fn(int(match.group(2)))
    raise UnknownCatalogEntry(f"no catalog entry {name!r}")


def catalog_names() -> tuple[str, ...]:
    """Representative concrete entries, useful for sweeps."""
    return ("unknot", "trefoil", "hopf", "theta_trivial(3)", "theta_trivial(5)", "unlink(2)",
            "unlink(3)", "theta51")
