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
    load-bearing, so each point takes the fewest bits that keep it.  Its
    parameter is the rational of least denominator (and least numerator)
    in an open window around its ideal tangent tan(theta / 2), read exactly
    off the float: the window reaches a quarter of the way to each
    neighbour's ideal tangent, and an end point, with one neighbour, takes
    that gap on both sides (a lone point's window is (-1/4, 1/4)).  A
    window that holds 0 gives 0, and a negative one is mirrored.  The ideal
    tangents decrease strictly, so half of each gap lies between the two
    windows on its sides: the windows are disjoint, in axis order, and so
    are the parameters.  The order is asserted exactly all the same.  A
    parameter t = p/q in lowest terms gives the point
    (q^2 - p^2, 2pq) / (q^2 + p^2).
    """
    if m < 1:
        raise ValueError("need at least one binding point")
    ratios = [math.tan((math.pi - math.pi / m - (2.0 * math.pi * i) / m) / 2.0).as_integer_ratio()
              for i in range(m)]
    D = max(d for _, d in ratios)   # float denominators are powers of two, so each divides D
    T = [n * (D // d) for n, d in ratios]   # the ideal tangents over D
    # with a mirrored neighbour past each end: window i is (3 T_i + T_i+1, 3 T_i + T_i-1) / 4D
    T = [2 * T[0] - T[1], *T, 2 * T[-1] - T[-2]] if m > 1 else [1, 0, -1]
    ts = []
    for up, t, down in zip(T, T[1:], T[2:]):
        lo, hi = 3 * t + down, 3 * t + up
        if lo >= 0:
            ts.append(_simplest(lo, hi, 4 * D))
        elif hi <= 0:
            p, q = _simplest(-hi, -lo, 4 * D)
            ts.append((-p, q))
        else:
            ts.append((0, 1))
    for (p0, q0), (p1, q1) in zip(ts, ts[1:]):
        if p0 * q1 <= p1 * q0:
            raise AssertionError("rationalized boundary parameters lost their order")
    return tuple((Fraction(q * q - p * p, q * q + p * p), Fraction(2 * p * q, q * q + p * p))
                 for p, q in ts)


def _simplest(a: int, b: int, d: int) -> tuple[int, int]:
    """(p, q) in lowest terms, of least q and then least p, with
    a/d < p/q < b/d, for 0 <= a < b and d > 0: the Stern-Brocot descent,
    one continued-fraction term per step (Graham, Knuth and Patashnik,
    Concrete Mathematics, section 4.5).  The open window is (a/c, b/d); at
    each step the result is (h1 x + h0) / (k1 x + k0) for the simplest x
    in it, and d = 0 stands for a window with no upper end."""
    c = d
    h0, k0, h1, k1 = 0, 1, 1, 0
    while True:
        f = a // c
        if (f + 1) * d < b:   # the least integer above a/c lies below b/d
            return h1 * (f + 1) + h0, k1 * (f + 1) + k0
        # x = f + 1/x', with x' in (d / (b - f d), c / (a - f c))
        h0, h1, k0, k1 = h1, f * h1 + h0, k1, f * k1 + k0
        a, c, b, d = d, b - f * d, c, a - f * c


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
