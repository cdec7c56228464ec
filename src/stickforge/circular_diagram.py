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
    A parameter t = p/q in lowest terms gives the point
    (q^2 - p^2, 2pq) / (q^2 + p^2).
    """
    if m < 1:
        raise ValueError("need at least one binding point")
    ts = []
    for i in range(m):
        theta = math.pi - math.pi / m - (2.0 * math.pi * i) / m
        ts.append(_nearest(*math.tan(theta / 2.0).as_integer_ratio(), 1 << 24))
    for (p0, q0), (p1, q1) in zip(ts, ts[1:]):
        if p0 * q1 <= p1 * q0:
            raise AssertionError("rationalized boundary parameters lost their order")
    return tuple((Fraction(q * q - p * p, q * q + p * p), Fraction(2 * p * q, q * q + p * p))
                 for p, q in ts)


def _nearest(n: int, d: int, limit: int) -> tuple[int, int]:
    """Fraction(n, d).limit_denominator(limit) as (p, q), for d > 0, in
    integers: of the best lower and upper approximations with q <= limit,
    the closer one, and the one with the smaller q on a tie."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if d <= limit:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    x, y = n, d
    while True:
        a, r = divmod(x, y)
        if q0 + a * q1 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        x, y = y, r
    k = (limit - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, both sides times d q1 q2
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


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
    # chords_cross on every pair, in order: p < q and r < s interleave
    # exactly when p < r < q < s or r < p < s < q, and neither holds when
    # two ends coincide
    spans = [(min(c.ends), max(c.ends), c.page) for c in chords]
    crossings = tuple(
        (k, page)
        for a, (p, q, k) in enumerate(spans)
        for r, s, page in spans[a + 1 :]
        if (p < r < q < s) or (r < p < s < q)
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
