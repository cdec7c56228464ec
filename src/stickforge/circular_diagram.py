"""Circular form of an arc presentation: chords of a disk.

The axis closes up through a point at infinity into the boundary circle, so
the boundary order is the axis order read cyclically (clockwise, with the
closing gap just before index 0).  A chord of page k is the straight segment
joining its two boundary points; chords cross exactly when their endpoint
pairs interleave, and the lower page passes under.  The initiating page of a
binding point is the minimal page among its chords; a chord is bi-, uni- or
non-initiating according to how many of its ends it initiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arc_presentation import ValidatedPresentation

R2 = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Chord:
    page: int
    ends: tuple[int, int]  # axis indices in arc order
    edge: str


@dataclass(frozen=True)
class ChordClass:
    kind: str  # "bi" | "uni" | "non"
    initiating_end: int | None = None  # axis index, set for "uni"


@dataclass(frozen=True)
class CircularDiagram:
    m: int
    boundary: tuple[R2, ...]            # rational unit-circle points, axis order
    chords: tuple[Chord, ...]           # page order, chords[k-1].page == k
    crossings: tuple[tuple[int, int], ...]  # (i, j) with i < j: page i under page j
    initiating: tuple[int, ...]         # p(b) per axis index
    classes: tuple[ChordClass, ...]     # per chord, page order
    counts: tuple[int, int, int]        # (n2, n1, n0)


def boundary_points(m: int) -> tuple[R2, ...]:
    """Exact rational points on the unit circle for axis indices 0..m-1.

    Axis order maps to strictly decreasing angles (clockwise), with the
    half-angle parametrization pole kept inside the gap that closes the
    axis, one half-step beyond both extremes.  Only the cyclic order is
    load-bearing; it is asserted exactly on the rationalized parameters.
    """
    if m < 1:
        raise ValueError("need at least one binding point")
    ts: list[Fraction] = []
    for i in range(m):
        theta = math.pi - math.pi / m - (2.0 * math.pi * i) / m
        ts.append(Fraction(math.tan(theta / 2.0)).limit_denominator(1 << 24))
    for i in range(m - 1):
        if ts[i] <= ts[i + 1]:
            raise AssertionError("rationalized boundary parameters lost their order")
    pts = []
    for t in ts:
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return tuple(pts)


def chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Strict interleaving of endpoint pairs in the cyclic boundary order.

    Chords sharing a boundary point never cross.
    """
    p, q = sorted(a)
    r, s = sorted(b)
    if len({p, q, r, s}) < 4:
        return False
    return (p < r < q) != (p < s < q)


def _initiating(chords: tuple[Chord, ...], m: int) -> tuple[int, ...]:
    best = [0] * m
    for chord in chords:
        for end in chord.ends:
            if best[end] == 0 or chord.page < best[end]:
                best[end] = chord.page
    return tuple(best)


def _classify(chords: tuple[Chord, ...], initiating: tuple[int, ...]):
    classes: list[ChordClass] = []
    n2 = n1 = n0 = 0
    for chord in chords:
        hits = [end for end in chord.ends if initiating[end] == chord.page]
        if len(hits) == 2:
            classes.append(ChordClass("bi"))
            n2 += 1
        elif len(hits) == 1:
            classes.append(ChordClass("uni", initiating_end=hits[0]))
            n1 += 1
        else:
            classes.append(ChordClass("non"))
            n0 += 1
    return tuple(classes), n2, n1, n0


def to_circular(vp: ValidatedPresentation) -> CircularDiagram:
    chords = tuple(Chord(arc.page, arc.ends, arc.edge) for arc in vp.arcs)
    crossings = tuple(
        (ci.page, cj.page)
        for a, ci in enumerate(chords)
        for cj in chords[a + 1 :]
        if chords_cross(ci.ends, cj.ends)
    )
    initiating = _initiating(chords, vp.m)
    classes, n2, n1, n0 = _classify(chords, initiating)
    return CircularDiagram(
        m=vp.m,
        boundary=boundary_points(vp.m),
        chords=chords,
        crossings=crossings,
        initiating=initiating,
        classes=classes,
        counts=(n2, n1, n0),
    )
