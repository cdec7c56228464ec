"""Serialization: presentation and embedding documents, plus OBJ export.

One JSON dialect covers everything.  Exact coordinates travel as "p/q"
strings so round-trips are lossless; decimal coordinates rely on Python's
shortest-repr floats, which preserve all 17 significant digits.  Output is
freshly sorted and indented so identical inputs give byte-identical files.

dumps_document writes a document with a recursive writer of its own, whose
bytes are json.dumps(doc, sort_keys=True, indent=2) plus a newline: dicts
with str keys, in sorted order, lists and tuples, strings escaped to ASCII
by json's own escaper, ints, floats spelled as json spells them (NaN and
Infinity included), booleans and None.  json.dumps takes its pure-Python
path whenever it indents, and that path cost more than the writer.

Reading checks the kind of every value an embedding's checks use: exact
coordinates must be "p/q" strings or integers, heights, pages and counts
integers, tags strings (deleted_tags a list of them), and decimal
coordinates, angles and M JSON numbers (an integer literal reads as a
float).  A missing field or a value of the wrong kind raises
DocumentError, which names the field.  A presentation document is read
the same way, with pages and arc ends integers; what the
presentation's own types reject raises their PresentationError or
GraphError unchanged.

An exact document's coordinates repeat (a random-large one has about
three strings for every distinct one), so reading one parses each distinct
coordinate string once, in a dict local to the call whose keys are strings
and points of three strings only: true, 1.5 or a list never meets a parsed
value and raises as any other bad value does.  Each distinct point of
strings comes back as one tuple, however often it is listed, so that the
verifier converts it once.  That reader formats a field's name only when the
field is malformed.  The index keys of junctions and heights must be
canonical integers, with no leading zero, so that "1" and "01" cannot
both name one entry and leave one of them unchecked.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import wraps
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .arc_presentation import Arc, ArcPresentation, BindingPoint, PresentationError
from .equilateral_builder import (
    CertificateReport,
    ComponentInfo,
    EquilateralEmbedding,
    EStick,
    SweepMove,
    ToleranceReport,
)
from .graph_core import AbstractGraph, GraphError, SpatialParams
from .stick_builder import Stick, StickEmbedding

PRESENTATION_FORMAT = "stickforge/presentation/1"
EMBEDDING_FORMAT = "stickforge/embedding/1"


class DocumentError(ValueError):
    """Malformed or mislabeled document."""


def dumps_document(doc: dict) -> str:
    return _json(doc, "\n") + "\n"


def _json(x, nl: str) -> str:
    """x as json.dumps(x, sort_keys=True, indent=2) writes it, with nl, a
    newline and the indent of x's own line, before each item and after the
    last one."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [f"{_quote(k)}: {_quote(v) if type(v) is str else _json(v, inner)}"
             for k, v in sorted(x.items())]) + nl + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(
            [_quote(v) if type(v) is str else _json(v, inner) for v in x]) + nl + "]"
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _frac_str(x: Fraction | int) -> str:
    p, q = x.as_integer_ratio()
    return f"{p}/{q}" if q != 1 else str(p)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _rational(x) -> Fraction | None:
    """x as a Fraction when it is a "p/q" string or an integer, else None."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        p, _, q = x.partition("/")
        return Fraction(int(p), int(q or 1))
    return None


def _typed(x, types: tuple, name: str, what: str, at=None):
    """x, when its type is one of types (a boolean is not an int here).
    The field's name is name, or name.format(at) when at is given."""
    if type(x) in types:
        return x
    raise DocumentError(f"{name if at is None else name.format(at)} must be {what}, found {x!r}")


def _number(x, name: str) -> float:
    return float(_typed(x, (int, float), name, "a JSON number"))


def _integer(x, name: str, at=None) -> int:
    return _typed(x, (int,), name, "an integer", at)


def _text(x, name: str, at=None) -> str:
    return _typed(x, (str,), name, "a string", at)


def _texts(x, name: str) -> tuple[str, ...]:
    if not isinstance(x, list):
        raise DocumentError(f"{name} must be a list of strings, found {x!r}")
    return tuple(_text(t, f"{name}[{j}]") for j, t in enumerate(x))


def _point(p, parse, name: str) -> tuple:
    if not isinstance(p, list) or len(p) != 3:
        raise DocumentError(f"{name} must be a list of three coordinates, found {p!r}")
    return tuple(parse(c, f"{name}[{i}]") for i, c in enumerate(p))


def _exact_point(p, parsed: dict, name: str, at) -> tuple:
    """p as three exact coordinates.  parsed maps each coordinate string
    read so far in this document to its value, and each point of three such
    strings to its one tuple, and gains the new ones.  The field's name is
    name.format(at)."""
    if type(p) is list and len(p) == 3:
        key = p[0], p[1], p[2]
        try:
            return parsed[key]
        except (KeyError, TypeError):   # a point not read yet, or an unhashable value
            pass
    if not isinstance(p, list) or len(p) != 3:
        raise DocumentError(f"{name.format(at)} must be a list of three coordinates, found {p!r}")
    point = []
    for i, c in enumerate(p):
        x = parsed.get(c) if type(c) is str else None
        if x is None:
            x = _rational(c)
            if x is None:
                raise DocumentError(f'{name.format(at)}[{i}] must be a "p/q" string or an '
                                    f"integer, found {c!r}")
            if type(c) is str:
                parsed[c] = x
        point.append(x)
    point = tuple(point)
    if all(type(c) is str for c in p):
        parsed[key] = point   # only strings: true, 1.5 or 1 never meets a key
    return point


def _index(k: str, name: str) -> int:
    if k.isascii() and k.isdigit() and (k[0] != "0" or k == "0"):
        return int(k)
    raise DocumentError(f"{name} must be a non-negative integer key without leading zeros,"
                        f" found {k!r}")


def _reading(parse):
    """parse, raising a missing field or a malformed container as DocumentError;
    the errors the parsed types raise themselves pass through."""
    @wraps(parse)
    def read(doc: dict):
        try:
            return parse(doc)
        except (DocumentError, PresentationError, GraphError):
            raise
        except KeyError as err:
            raise DocumentError(f"missing field {err.args[0]!r}") from None
        except (TypeError, ValueError, AttributeError) as err:
            raise DocumentError(f"malformed document: {err}") from None
    return read


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


def _arc(a: dict, at: str) -> Arc:
    ends = a["ends"]
    if not isinstance(ends, list) or len(ends) != 2:
        raise DocumentError(f"{at}.ends must be a list of two axis indices, found {ends!r}")
    return Arc(_integer(a["page"], f"{at}.page"),
               tuple(_integer(e, f"{at}.ends[{j}]") for j, e in enumerate(ends)), a["edge"])


@_reading
def presentation_from_doc(doc: dict) -> ArcPresentation:
    if doc.get("format") != PRESENTATION_FORMAT:
        raise DocumentError(f"not a presentation document: {doc.get('format')!r}")
    graph = AbstractGraph.make(
        vertices=doc["graph"]["vertices"],
        edges=[tuple(e) for e in doc["graph"]["edges"]],
    )
    points = tuple(BindingPoint(kind, ref) for kind, ref in doc["binding_points"])
    arcs = tuple(_arc(a, f"arcs[{i}]") for i, a in enumerate(doc["arcs"]))
    params = None
    if doc.get("params") is not None:
        p = doc["params"]
        c, b, k = (_integer(p[f], f"params.{f}") for f in "cbk")
        heuristic = _typed(p.get("heuristic", False), (bool,), "params.heuristic", "a boolean")
        params = SpatialParams(c=c, b=b, k=k, heuristic=heuristic)
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


@_reading
def embedding_from_doc(doc: dict) -> StickEmbedding:
    _expect_embedding(doc, "exact")
    parsed: dict[str, Fraction] = {}
    sticks = [
        Stick(
            a=_exact_point(s["a"], parsed, "sticks[{}].a", i),
            b=_exact_point(s["b"], parsed, "sticks[{}].b", i),
            page=_integer(s["page"], "sticks[{}].page", i),
            edge=_text(s["edge"], "sticks[{}].edge", i),
            piece=_text(s["piece"], "sticks[{}].piece", i),
        )
        for i, s in enumerate(doc["sticks"])
    ]
    junctions = {_index(i, "junction"): _exact_point(p, parsed, "junctions[{}]", i)
                 for i, p in doc["junctions"].items()}
    heights = {_index(page, "height page"): _integer(z, "heights[{}]", page)
               for page, z in doc["heights"].items()}
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
            "moves": [[tag, bound] for tag, bound in c.moves],
            "detail": c.detail,
        }
    return doc


def _move(mv: dict, at: str) -> SweepMove:
    hub = mv["hub"]
    return SweepMove(tag=_text(mv["tag"], f"{at}.tag"), pivot=_point(mv["pivot"], _number, f"{at}.pivot"),
                     page_angle=_number(mv["page_angle"], f"{at}.page_angle"),
                     phi_start=_number(mv["phi_start"], f"{at}.phi_start"),
                     phi_end=_number(mv["phi_end"], f"{at}.phi_end"),
                     hub=None if hub is None else _point(hub, _number, f"{at}.hub"))


@_reading
def equilateral_from_doc(doc: dict) -> EquilateralEmbedding:
    _expect_embedding(doc, "decimal")
    sticks = [
        EStick(a=_point(s["a"], _number, f"sticks[{i}].a"),
               b=_point(s["b"], _number, f"sticks[{i}].b"),
               component=_integer(s["component"], f"sticks[{i}].component"),
               tag=_text(s["tag"], f"sticks[{i}].tag"),
               ja=_text(s["ja"], f"sticks[{i}].ja"), jb=_text(s["jb"], f"sticks[{i}].jb"))
        for i, s in enumerate(doc["sticks"])
    ]
    components = [
        ComponentInfo(
            index=_integer(c["index"], f"components[{i}].index"),
            n_arcs=_integer(c["n_arcs"], f"components[{i}].n_arcs"),
            n_points=_integer(c["n_points"], f"components[{i}].n_points"),
            reduced=_typed(c["reduced"], (bool,), f"components[{i}].reduced", "true or false"),
            deleted_tags=_texts(c["deleted_tags"], f"components[{i}].deleted_tags"),
            moves=tuple(_move(mv, f"components[{i}].moves[{j}]")
                        for j, mv in enumerate(c["moves"])),
            offset=_point(c["offset"], _number, f"components[{i}].offset"),
        )
        for i, c in enumerate(doc["components"])
    ]
    emb = EquilateralEmbedding(sticks=sticks, M=_number(doc["M"], "M"), components=components)
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
            moves=[(tag, bound) for tag, bound in c["moves"]],
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
