from __future__ import annotations

import hashlib

import pytest

from stickforge.arc_presentation import validate_presentation
from stickforge.documents import dumps_document, presentation_to_doc
from stickforge.randgen import PROFILES, GenerationExhausted, random_presentation


def test_same_seed_same_presentation():
    for profile in PROFILES:
        a = random_presentation(7, profile=profile)
        b = random_presentation(7, profile=profile)
        assert a.arcs == b.arcs
        assert a.binding_points == b.binding_points
        assert a.graph.edges == b.graph.edges


def test_different_seeds_usually_differ():
    draws = {random_presentation(s, profile="knot").arcs for s in range(12)}
    assert len(draws) > 6


def test_profiles_are_validator_clean():
    for profile in PROFILES:
        for seed in range(30):
            ap = random_presentation(seed, profile=profile)
            vp = validate_presentation(ap)
            assert vp.n >= 2
            assert vp.params is not None


def test_profile_shapes():
    for seed in range(10):
        knot = random_presentation(seed, profile="knot")
        assert knot.graph.vertices == ("x",) or len(knot.graph.vertices) == 1
        theta = validate_presentation(random_presentation(seed, profile="theta"))
        # theta profile keeps two vertices joined by parallel edges
        assert theta.vgraph.v == 2
        assert theta.m == theta.n - theta.vgraph.e + 2
        multi = validate_presentation(random_presentation(seed, profile="multi"))
        assert len(multi.vgraph.components) >= 2


def test_max_arcs_cap_respected():
    for seed in range(20):
        ap = random_presentation(seed, profile="knot", max_arcs=5)
        assert len(ap.arcs) <= 5


def test_exhaustion_below_profile_minimum():
    with pytest.raises(GenerationExhausted):
        random_presentation(0, profile="knot", max_arcs=1)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        random_presentation(0, profile="pretzel")


def test_random_presentations_pinned():
    # every draw of a grid of profiles, sizes and seeds, concatenated: any
    # change to the samplers' rng calls or to their output shows here
    digest = hashlib.sha256()
    for profile in PROFILES:
        for max_arcs in (2, 3, 4, 6, 12, 40, 150):
            for seed in range(30):
                try:
                    ap = random_presentation(seed, profile, max_arcs)
                except GenerationExhausted as err:
                    digest.update(type(err).__name__.encode())
                    continue
                digest.update(dumps_document(presentation_to_doc(ap)).encode())
    assert digest.hexdigest() == "87d9fe8725cb8de979517af40e4f9f18e2d07e336465e01e4fc03a35b9b3dd63"
