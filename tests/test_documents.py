from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

import parity
from stickforge import documents
from stickforge.arc_presentation import PresentationError, catalog, validate_presentation
from stickforge.circular_diagram import to_circular
from stickforge.documents import (
    DocumentError,
    dumps_document,
    embedding_from_doc,
    embedding_to_doc,
    equilateral_from_doc,
    equilateral_to_doc,
    presentation_from_doc,
    presentation_to_doc,
    to_obj,
)
from stickforge.equilateral_builder import build_equilateral
from stickforge.graph_core import GraphError
from stickforge.randgen import random_presentation
from stickforge.stick_builder import build
from stickforge.verifier import check_simplicity


def roundtrip(doc: dict) -> dict:
    return json.loads(dumps_document(doc))


# ---------------------------------------------------------------------------
# the writer


@pytest.mark.parametrize("doc", [
    {},
    {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {"f": [{}]}}},
    {"edges": [["e\u00e9\u2603\U0001f600", "v\x00\x01\x1f\x7f", 'q"\\/\b\f\n\r\t']],
     "\u00e9": 1, "Z": 2, "a": 3},
    {"x": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 0.1, 1.0, -2.5e-7]},
    {"n": [2 ** 64, -(2 ** 64) - 1, 3 ** 200, 0, -1]},
    {"t": (1, (2, "three"), ()), "b": [True, False, None], "none": None, "yes": True},
], ids=["empty", "nested-empty", "labels", "floats", "big-ints", "tuples-bools-none"])
def test_writer_matches_json_dumps(doc):
    assert dumps_document(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name, digest", [
    ("exact-docs", "9973186d3f357258672073f91e98099abb26c6e4429df46d9bd40faf599673de"),
    ("presentations", "b8165ae19000d9b155bafefa2db2ee9211abefbeae556819f9a51ff774c50fee"),
])
def test_written_bytes_pinned(name, digest):
    # sets of tests/parity.py that dumps_document writes, taken when
    # json.dumps still wrote them; eq-docs is pinned by
    # test_equal_length_documents_pinned
    assert parity.SETS[name]() == digest


# ---------------------------------------------------------------------------
# presentations


def test_presentation_roundtrip_identical():
    ap = catalog("theta51")
    doc = presentation_to_doc(ap)
    text1 = dumps_document(doc)
    ap2 = presentation_from_doc(json.loads(text1))
    text2 = dumps_document(presentation_to_doc(ap2))
    assert text1 == text2
    assert ap2.arcs == ap.arcs
    assert ap2.binding_points == ap.binding_points
    assert ap2.params == ap.params
    validate_presentation(ap2)  # still validator-clean


def test_presentation_without_params_roundtrips():
    ap = catalog("trefoil")
    ap = type(ap)(graph=ap.graph, binding_points=ap.binding_points, arcs=ap.arcs, params=None)
    doc = roundtrip(presentation_to_doc(ap))
    assert doc["params"] is None
    assert presentation_from_doc(doc).params is None


def test_presentation_format_guard():
    with pytest.raises(DocumentError):
        presentation_from_doc({"format": "stickforge/embedding/1"})
    with pytest.raises(DocumentError):
        presentation_from_doc({})


def test_presentation_reader_lets_the_types_own_errors_through():
    # a bad binding point kind or a negative crossing number is the
    # presentation's own error, not a malformed document
    doc = roundtrip(presentation_to_doc(catalog("trefoil")))
    doc["binding_points"][0][0] = "nowhere"
    with pytest.raises(PresentationError, match="bad binding point kind"):
        presentation_from_doc(doc)
    doc = roundtrip(presentation_to_doc(catalog("theta51")))
    doc["params"]["c"] = -1
    with pytest.raises(GraphError, match="must be non-negative"):
        presentation_from_doc(doc)


@pytest.mark.parametrize("params, field", [
    ({"c": 1.5, "b": True, "k": 2.0, "heuristic": "yes"}, "params.c must be an integer, found 1.5"),
    ({"c": 3.0}, "params.c must be an integer, found 3.0"),
    ({"b": True}, "params.b must be an integer, found True"),
    ({"k": 1.0}, "params.k must be an integer, found 1.0"),
    ({"k": None}, "params.k must be an integer, found None"),
    ({"heuristic": "yes"}, "params.heuristic must be a boolean, found 'yes'"),
    ({"heuristic": 0}, "params.heuristic must be a boolean, found 0"),
])
def test_presentation_params_are_read_typed(params, field):
    doc = roundtrip(presentation_to_doc(catalog("trefoil")))
    doc["params"].update(params)
    with pytest.raises(DocumentError) as err:
        presentation_from_doc(doc)
    assert str(err.value) == field
    # heuristic may be left out; c, b and k may not
    del doc["params"]["heuristic"]
    doc["params"].update(c=3, b=1, k=1)
    assert presentation_from_doc(doc).params.heuristic is False
    del doc["params"]["k"]
    with pytest.raises(DocumentError, match="missing field 'k'"):
        presentation_from_doc(doc)


# ---------------------------------------------------------------------------
# exact embeddings


def test_exact_embedding_roundtrip_identical():
    se = build(to_circular(validate_presentation(catalog("trefoil"))))
    text1 = dumps_document(embedding_to_doc(se))
    se2 = embedding_from_doc(json.loads(text1))
    text2 = dumps_document(embedding_to_doc(se2))
    assert text1 == text2
    assert list(se2.sticks) == list(se.sticks)
    assert se2.junctions == se.junctions
    assert se2.heights == se.heights


def test_exact_coordinates_survive_as_fractions():
    se = build(to_circular(validate_presentation(catalog("theta51"))))
    se2 = embedding_from_doc(roundtrip(embedding_to_doc(se)))
    for s, t in zip(se.sticks, se2.sticks):
        assert s.a == t.a and s.b == t.b
        assert all(isinstance(c, Fraction) for c in t.a + t.b)


def test_exact_reading_parses_each_distinct_coordinate_string_once(monkeypatch):
    se = build(to_circular(validate_presentation(random_presentation(0, "bouquet", 150))))
    doc = roundtrip(embedding_to_doc(se))
    strings = [c for s in doc["sticks"] for p in (s["a"], s["b"]) for c in p]
    strings += [c for p in doc["junctions"].values() for c in p]
    calls = []
    real = documents._rational

    def spy(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(documents, "_rational", spy)
    se2 = embedding_from_doc(doc)
    assert list(se2.sticks) == list(se.sticks) and se2.junctions == se.junctions
    assert sorted(calls) == sorted(set(strings)) and len(calls) < len(strings) / 2


def test_exact_reads_pinned():
    # the exact-reads set of tests/parity.py: what the reader makes of the
    # 240 exact documents and of seeded bad, unreduced, integer and missing
    # fields in each, error messages included
    assert parity.exact_reads() == "611516364ab287df297ed874fb371eef544af3bd8d908a47505563ecc33d5516"


def test_exact_mode_guard():
    emb = build_equilateral(validate_presentation(catalog("unknot")))
    doc = equilateral_to_doc(emb)
    with pytest.raises(DocumentError):
        embedding_from_doc(doc)  # decimal payload in the exact lane
    with pytest.raises(DocumentError):
        embedding_from_doc({"format": "nope", "mode": "exact"})


# ---------------------------------------------------------------------------
# decimal embeddings


def test_decimal_embedding_roundtrip_identical():
    emb = build_equilateral(validate_presentation(catalog("trefoil")))
    text1 = dumps_document(equilateral_to_doc(emb))
    emb2 = equilateral_from_doc(json.loads(text1))
    text2 = dumps_document(equilateral_to_doc(emb2))
    assert text1 == text2
    assert emb2.M == emb.M
    assert emb2.sticks == emb.sticks


def test_decimal_floats_lossless():
    emb = build_equilateral(validate_presentation(catalog("theta51")))
    emb2 = equilateral_from_doc(roundtrip(equilateral_to_doc(emb)))
    for s, t in zip(emb.sticks, emb2.sticks):
        assert s.a == t.a and s.b == t.b  # bit-for-bit float equality


def test_decimal_integer_literals_read_as_floats():
    # a decimal document may spell 0.0 as 0; its sticks must still be all
    # floats, or simplicity fails them as mixing rational and float
    emb = build_equilateral(validate_presentation(catalog("trefoil")))
    doc = roundtrip(equilateral_to_doc(emb))
    for s in doc["sticks"]:
        s["a"] = [int(c) if c == int(c) else c for c in s["a"]]
    emb2 = equilateral_from_doc(doc)
    assert emb2.sticks == emb.sticks
    assert all(type(c) is float for s in emb2.sticks for c in s.a + s.b)
    assert check_simplicity([(s.a, s.b) for s in emb2.sticks], scale=emb2.M).ok


def test_decimal_reports_travel_along():
    emb = build_equilateral(validate_presentation(catalog("unlink(2)")))
    emb2 = equilateral_from_doc(roundtrip(equilateral_to_doc(emb)))
    assert emb2.tolerance == emb.tolerance
    assert emb2.certificate is not None
    assert emb2.certificate.passed == emb.certificate.passed
    assert emb2.certificate.moves == emb.certificate.moves
    assert [c.moves for c in emb2.components] == [c.moves for c in emb.components]


def test_decimal_mode_guard():
    se = build(to_circular(validate_presentation(catalog("unknot"))))
    with pytest.raises(DocumentError):
        equilateral_from_doc(embedding_to_doc(se))


# ---------------------------------------------------------------------------
# OBJ export


def test_obj_counts_and_shape():
    se = build(to_circular(validate_presentation(catalog("trefoil"))))
    text = to_obj(se)
    lines = text.strip().splitlines()
    vs = [ln for ln in lines if ln.startswith("v ")]
    ls = [ln for ln in lines if ln.startswith("l ")]
    assert len(vs) == 2 * len(se.sticks)
    assert len(ls) == len(se.sticks)
    assert ls[0] == "l 1 2"
    assert ls[-1] == f"l {2 * len(se.sticks) - 1} {2 * len(se.sticks)}"


def test_obj_floats_parse_back():
    emb = build_equilateral(validate_presentation(catalog("unknot")))
    for ln in to_obj(emb).splitlines():
        if ln.startswith("v "):
            x, y, z = map(float, ln.split()[1:])
            assert all(abs(c) < 1e6 for c in (x, y, z))
