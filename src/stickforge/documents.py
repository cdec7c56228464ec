"""Serialization: presentation and embedding documents, plus OBJ export.

One JSON dialect covers everything.  Exact coordinates travel as "p/q"
strings so round-trips are lossless; decimal coordinates rely on Python's
shortest-repr floats, which preserve all 17 significant digits.  Output is
freshly sorted and indented so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .arc_presentation import Arc, ArcPresentation, BindingPoint
from .equilateral_builder import (
    CertificateReport,
    ComponentInfo,
    EquilateralEmbedding,
    EStick,
    SweepMove,
    ToleranceReport,
)
from .graph_core import AbstractGraph, SpatialParams
from .stick_builder import Stick, StickEmbedding

PRESENTATION_FORMAT = "stickforge/presentation/1"
EMBEDDING_FORMAT = "stickforge/embedding/1"


class DocumentError(ValueError):
    """Malformed or mislabeled document."""


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _parse_frac(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# presentations


def presentation_to_doc(ap: ArcPresentation) -> dict:
    doc: dict[str, Any] = {
        "format": PRESENTATION_FORMAT,
        "graph": {
            "vertices": list(ap.graph.vertices),
            "edges": [list(edge) for edge in ap.graph.edges],
        },
        "binding_points": [[bp.kind, bp.ref] for bp in ap.binding_points],
        "arcs": [{"page": a.page, "ends": list(a.ends), "edge": a.edge} for a in ap.arcs],
        "params": None,
    }
    if ap.params is not None:
        doc["params"] = {
            "c": ap.params.c, "b": ap.params.b, "k": ap.params.k,
            "heuristic": ap.params.heuristic,
        }
    return doc


def presentation_from_doc(doc: dict) -> ArcPresentation:
    if doc.get("format") != PRESENTATION_FORMAT:
        raise DocumentError(f"not a presentation document: {doc.get('format')!r}")
    graph = AbstractGraph.make(
        vertices=doc["graph"]["vertices"],
        edges=[tuple(e) for e in doc["graph"]["edges"]],
    )
    points = tuple(BindingPoint(kind, ref) for kind, ref in doc["binding_points"])
    arcs = tuple(Arc(a["page"], tuple(a["ends"]), a["edge"]) for a in doc["arcs"])
    params = None
    if doc.get("params") is not None:
        p = doc["params"]
        params = SpatialParams(c=p["c"], b=p["b"], k=p["k"],
                               heuristic=p.get("heuristic", False))
    return ArcPresentation(graph=graph, binding_points=points, arcs=arcs, params=params)


# ---------------------------------------------------------------------------
# exact embeddings


def _pt_exact(p) -> list[str]:
    return [_frac_str(c) for c in p]


def embedding_to_doc(se: StickEmbedding) -> dict:
    return {
        "format": EMBEDDING_FORMAT,
        "mode": "exact",
        "sticks": [
            {"a": _pt_exact(s.a), "b": _pt_exact(s.b),
             "page": s.page, "edge": s.edge, "piece": s.piece}
            for s in se.sticks
        ],
        "junctions": {str(i): _pt_exact(p) for i, p in se.junctions.items()},
        "heights": {str(page): z for page, z in se.heights.items()},
    }


def embedding_from_doc(doc: dict) -> StickEmbedding:
    _expect_embedding(doc, "exact")
    sticks = [
        Stick(
            a=tuple(_parse_frac(c) for c in s["a"]),
            b=tuple(_parse_frac(c) for c in s["b"]),
            page=s["page"], edge=s["edge"], piece=s["piece"],
        )
        for s in doc["sticks"]
    ]
    junctions = {int(i): tuple(_parse_frac(c) for c in p)
                 for i, p in doc["junctions"].items()}
    heights = {int(page): int(z) for page, z in doc["heights"].items()}
    return StickEmbedding(sticks=sticks, junctions=junctions, heights=heights)


def _expect_embedding(doc: dict, mode: str) -> None:
    if doc.get("format") != EMBEDDING_FORMAT:
        raise DocumentError(f"not an embedding document: {doc.get('format')!r}")
    if doc.get("mode") != mode:
        raise DocumentError(f"expected {mode} coordinates, found {doc.get('mode')!r}")


# ---------------------------------------------------------------------------
# decimal embeddings


def equilateral_to_doc(emb: EquilateralEmbedding) -> dict:
    doc: dict[str, Any] = {
        "format": EMBEDDING_FORMAT,
        "mode": "decimal",
        "M": emb.M,
        "sticks": [
            {"a": list(s.a), "b": list(s.b), "component": s.component,
             "tag": s.tag, "ja": s.ja, "jb": s.jb}
            for s in emb.sticks
        ],
        "components": [
            {"index": c.index, "n_arcs": c.n_arcs, "n_points": c.n_points,
             "reduced": c.reduced, "deleted_tags": list(c.deleted_tags),
             "moves": [
                 {"tag": mv.tag, "pivot": list(mv.pivot), "page_angle": mv.page_angle,
                  "phi_start": mv.phi_start, "phi_end": mv.phi_end,
                  "hub": list(mv.hub) if mv.hub is not None else None}
                 for mv in c.moves
             ],
             "offset": list(c.offset)}
            for c in emb.components
        ],
        "tolerance": None,
        "certificate": None,
    }
    if emb.tolerance is not None:
        t = emb.tolerance
        doc["tolerance"] = {
            "max_length_dev_rel": t.max_length_dev_rel,
            "min_clearance": t.min_clearance,
            "min_clearance_rel": t.min_clearance_rel,
        }
    if emb.certificate is not None:
        c = emb.certificate
        doc["certificate"] = {
            "passed": c.passed,
            "moves": [[tag, clearance] for tag, clearance in c.moves],
            "detail": c.detail,
        }
    return doc


def equilateral_from_doc(doc: dict) -> EquilateralEmbedding:
    _expect_embedding(doc, "decimal")
    sticks = [
        EStick(a=tuple(map(float, s["a"])), b=tuple(map(float, s["b"])),
               component=s["component"], tag=s["tag"], ja=s["ja"], jb=s["jb"])
        for s in doc["sticks"]
    ]
    components = [
        ComponentInfo(
            index=c["index"], n_arcs=c["n_arcs"], n_points=c["n_points"],
            reduced=c["reduced"], deleted_tags=tuple(c["deleted_tags"]),
            moves=tuple(
                SweepMove(tag=mv["tag"], pivot=tuple(mv["pivot"]),
                          page_angle=mv["page_angle"], phi_start=mv["phi_start"],
                          phi_end=mv["phi_end"],
                          hub=tuple(mv["hub"]) if mv["hub"] is not None else None)
                for mv in c["moves"]
            ),
            offset=tuple(c["offset"]),
        )
        for c in doc["components"]
    ]
    emb = EquilateralEmbedding(sticks=sticks, M=doc["M"], components=components)
    if doc.get("tolerance") is not None:
        t = doc["tolerance"]
        emb.tolerance = ToleranceReport(
            max_length_dev_rel=t["max_length_dev_rel"],
            min_clearance=t["min_clearance"],
            min_clearance_rel=t["min_clearance_rel"],
        )
    if doc.get("certificate") is not None:
        c = doc["certificate"]
        emb.certificate = CertificateReport(
            passed=c["passed"],
            moves=[(tag, clearance) for tag, clearance in c["moves"]],
            detail=c["detail"],
        )
    return emb


# ---------------------------------------------------------------------------
# OBJ export


def to_obj(emb: StickEmbedding | EquilateralEmbedding) -> str:
    """Wavefront polylines: two v records and one l record per stick."""
    lines = ["# stickforge polylines"]
    idx = 0
    for s in emb.sticks:
        for p in (s.a, s.b):
            x, y, z = (float(c) for c in p)
            lines.append(f"v {x!r} {y!r} {z!r}")
        idx += 2
        lines.append(f"l {idx - 1} {idx}")
    return "\n".join(lines) + "\n"
