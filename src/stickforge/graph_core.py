"""Combinatorial multigraph model plus declared spatial parameters.

Vertex and edge ids are strings.  Loops and parallel edges are allowed.
Validated objects are immutable and safe to share between pipeline stages.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    """Base class for graph validation failures."""


class DuplicateId(GraphError):
    """A vertex or edge id occurs more than once."""


class DanglingEndpoint(GraphError):
    """An edge endpoint references an undeclared vertex."""


class ComponentOutOfRange(GraphError):
    """A component index does not exist."""


@dataclass(frozen=True)
class AbstractGraph:
    """Multigraph given by vertex ids and (edge id, endpoint, endpoint) triples."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    @staticmethod
    def make(vertices, edges) -> "AbstractGraph":
        return AbstractGraph(
            tuple(str(x) for x in vertices),
            tuple((str(e), str(a), str(b)) for e, a, b in edges),
        )


@dataclass(frozen=True)
class SpatialParams:
    """Declared spatial quantities of an embedding.

    c: minimal crossing number, b: number of bouquet cut-components,
    k: number of split (non-splittable) components.  b and k describe the
    embedding in space, not the abstract graph, so defaults derived from
    the graph alone are flagged heuristic and reported as such.
    """

    c: int
    b: int
    k: int
    heuristic: bool = False

    def __post_init__(self):
        if self.c < 0:
            raise GraphError("crossing number c must be non-negative")
        if self.b < 0:
            raise GraphError("bouquet count b must be non-negative")
        if self.k < 1:
            raise GraphError("split component count k must be at least 1")


@dataclass(frozen=True)
class ValidatedGraph:
    """An AbstractGraph together with counts and its connected components."""

    graph: AbstractGraph
    e: int
    v: int
    components: tuple[frozenset[str], ...]

    def degree(self, vertex: str) -> int:
        # loops count twice
        d = 0
        for _, a, b in self.graph.edges:
            if a == vertex:
                d += 1
            if b == vertex:
                d += 1
        return d


def equivalence_classes(items, pairs) -> list[list]:
    """Classes of items under the equivalence the pairs generate, each in
    item order, in order of first appearance (path-halving union-find)."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def validate_graph(graph: AbstractGraph) -> ValidatedGraph:
    """Check id uniqueness and endpoint existence, compute components."""
    seen_v = set()
    for vid in graph.vertices:
        if vid in seen_v:
            raise DuplicateId(f"duplicate vertex id {vid!r}")
        seen_v.add(vid)
    seen_e = set()
    for eid, a, b in graph.edges:
        if eid in seen_e:
            raise DuplicateId(f"duplicate edge id {eid!r}")
        seen_e.add(eid)
        for end in (a, b):
            if end not in seen_v:
                raise DanglingEndpoint(f"edge {eid!r} endpoint {end!r} is not a vertex")

    pairs = ((a, b) for _, a, b in graph.edges)
    components = tuple(frozenset(c) for c in equivalence_classes(graph.vertices, pairs))
    return ValidatedGraph(graph, e=len(graph.edges), v=len(graph.vertices), components=components)


def is_abstract_bouquet(vg: ValidatedGraph, component_index: int) -> bool:
    """True iff the component is a single vertex whose edges are all loops."""
    if not 0 <= component_index < len(vg.components):
        raise ComponentOutOfRange(f"no component {component_index}")
    comp = vg.components[component_index]
    if len(comp) != 1:
        return False
    (vertex,) = comp
    for _, a, b in vg.graph.edges:
        if (a == vertex or b == vertex) and a != b:
            return False
    return True


def default_spatial_params(vg: ValidatedGraph) -> SpatialParams:
    """Heuristic parameters from the abstract graph alone: c = 0, one split
    component per abstract component, one bouquet per single-vertex loop
    component.  Undercounts b for embeddings that only decompose along cut
    vertices after spatial moves (e.g. connected sums), hence the flag.
    """
    k = max(1, len(vg.components))
    b = sum(1 for i in range(len(vg.components)) if is_abstract_bouquet(vg, i))
    return SpatialParams(c=0, b=b, k=k, heuristic=True)


def ensure_params_consistent(params: SpatialParams, vg: ValidatedGraph) -> None:
    """A splitting sphere cannot cut a connected graph, so k is capped by the
    number of abstract components."""
    if params.k > max(1, len(vg.components)):
        raise GraphError(
            f"k={params.k} exceeds the {len(vg.components)} abstract component(s)"
        )
