"""Exact stick embedding over a circular diagram.

Chords are lifted in page order above the disk.  A bi-initiating chord
becomes one horizontal stick one level above everything placed so far; its
ends become the junction points of its two binding points.  A uni-initiating
chord becomes one oblique stick from the existing junction over its
non-initiating end up to a fresh junction over the initiating end.  A
non-initiating chord becomes two sticks bent upward at the exact chord
midpoint, tied into the existing junctions at both ends.  Oblique and bent
lifts take the smallest integer height whose closed lift-to-horizontal
triangle region (minus the shared junction corners) misses all earlier
sticks, which forces every crossing to come out lower-page-under and keeps
the union embedded.  That height has a closed form: all earlier sticks lie
at or below the level of the previous page, and whether an earlier point
blocks a level is linear in the point, so each obstacle bounds the height
from below by one exact threshold.  Only the sticks of earlier chords that
cross chord k are obstacles.  A chord i's sticks lie over chord i, and two
chords with distinct pairs of ends meet in at most one point:

- If chord i misses chord k, its sticks pass the plane over chord k
  outside the chord, at relative position u outside (0, 1] of every anchor.
- If it shares one end p, its sticks meet the plane only in the junction
  over p: u = 0 at the anchor there (its exempt corner), u = 2 at a bent
  chord's far anchor.  A uni chord's initiating end has no earlier chord:
  the initiating page is the least page at its point.
- If it has both ends of chord k (then bent), it lies in the plane at or
  below z_prev < z.  Against each anchor, each of its sticks either runs
  from the corner to a point below z at or past the top side's end, so
  under the new hypotenuse, or lies at or past that end, where the
  triangle is one point at level z.
- If it crosses chord k, each of its sticks has an end over a boundary
  point off chord k's line, so none lies in the plane.

Of the obstacles, a stick whose ends both lie at or below the lowest
anchor's level z_lo is dropped before it is projected: its punch-through
point is at or below the level z_lo of every anchor, so
wn = (z_pt - z_lo) wp w <= 0, and the test passes over it before it could
block a level or raise.

All coordinates are rational, and every predicate runs on integers.  Each
point becomes homogeneous integers (X, Y, Z, W) with W > 0 the lcm of its
denominators.  Only the boundary points are converted, once per build; a
placed end over boundary point (X, Y, W) at integer level z is
(X, Y, z W, W), and an apex is the sum of its chord ends' forms divided by
the gcd of its entries, which is again the canonical form (that form is
the one primitive tuple with W > 0).  A difference b - a
taken as b_i W_a - a_i W_b is the true vector times W_a W_b > 0, and every
in-plane quantity below is the true one times a known positive factor, so
each sign and zero test, each cross-multiplied comparison and each floor is
exactly the rational one.  Fractions are made only for the stored
coordinates.  The integer kernel (_hom, _diff, _cross, _dot) is the
verifier's, imported from _verifier_exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._verifier_exact import _cross, _diff, _dot, _hom
from .circular_diagram import CircularDiagram
from .graph_core import equivalence_classes

R3 = tuple[Fraction, Fraction, Fraction]


class BuildError(ValueError):
    """Base class for stick construction failures."""


class MissingJunction(BuildError):
    """A non-initiating end has no junction yet; valid diagrams cannot do
    this, so it signals internal corruption."""


@dataclass(frozen=True)
class Stick:
    a: R3
    b: R3
    page: int
    edge: str
    piece: str  # "whole" | "left" | "right"


@dataclass(frozen=True)
class StickEmbedding:
    sticks: tuple[Stick, ...]
    junctions: dict[int, R3]  # axis index -> the single point over it
    heights: dict[int, int]   # page -> top integer level of its lift


class _Lift:
    """build()'s partial embedding as it grows, read like a StickEmbedding;
    ends maps each placed page to its sticks' homogeneous ends (place keeps
    it in step with sticks), boundary holds the boundary points' homogeneous
    forms (X, Y, W), and near lists per page the earlier pages whose chords
    cross it, the lift's only obstacles (_near_pages); both are built once."""

    def __init__(self, cd: CircularDiagram) -> None:
        self.sticks: list[Stick] = []
        self.junctions: dict[int, R3] = {}
        self.heights: dict[int, int] = {}
        self.ends: dict[int, list] = {}
        self.boundary = [_hom(p) for p in cd.boundary]
        self.near = _near_pages(cd)

    def place(self, stick: Stick, a, b) -> None:
        """Add stick, whose ends are a and b in homogeneous form."""
        self.sticks.append(stick)
        self.ends.setdefault(stick.page, []).append((a, b))


def _near_pages(cd: CircularDiagram) -> list[list[int]]:
    """Per page k (index 0 unused), the earlier pages whose chords cross
    chord k, read off cd.crossings."""
    near: list[list[int]] = [[] for _ in range(len(cd.chords) + 1)]
    for i, j in cd.crossings:
        near[j].append(i)
    return near


class _ChordFrame:
    """Vertical plane over one chord, with in-plane integer coordinates.

    The chord ends a, b are homogeneous 2D points (X, Y, W).  With them
    over one denominator w, a = A / w and d = D / w.
    A homogeneous point (X, Y, Z, W) lies at side
    w cross(D, (X, Y)) - W cross(D, A) of the chord line, scaled by w^2 W,
    and maps to the homogeneous in-plane point (S, Z, W) with
    S = 2 (w dot(D, (X, Y)) - W dot(D, A)): its parameter s along the chord
    direction (0 at a, s_max at b) is S / W, scaled by 2 w^2.  Both
    functionals are linear in (X, Y, Z, W).
    """

    def __init__(self, a, b):
        w = math.lcm(a[2], b[2])
        A = (a[0] * (w // a[2]), a[1] * (w // a[2]))
        D = (b[0] * (w // b[2]) - A[0], b[1] * (w // b[2]) - A[1])
        self.w, self.D = w, D
        self.side0 = D[0] * A[1] - D[1] * A[0]
        self.param0 = D[0] * A[0] + D[1] * A[1]
        self.s_max = 2 * (D[0] * D[0] + D[1] * D[1])
        if self.s_max == 0:
            raise BuildError("degenerate chord")

    def side(self, p) -> int:
        return self.w * (self.D[0] * p[1] - self.D[1] * p[0]) - p[3] * self.side0

    def point(self, p) -> tuple[int, int, int]:
        s = 2 * (self.w * (self.D[0] * p[0] + self.D[1] * p[1]) - p[3] * self.param0)
        return (s, p[2], p[3])


def _anchor(s_lo: int, s_hi: int, z) -> tuple[int, int, int, int]:
    """An anchor at (s_lo, z) whose triangle's top side ends over s_hi, as
    (s_lo, s_hi, z) over z's denominator."""
    n, w = z.as_integer_ratio()
    return (s_lo * w, s_hi * w, n, w)


def _project_earlier(frame: _ChordFrame, earlier):
    """Punch-through points of the placed sticks, given by homogeneous ends,
    in the plane over the chord, once per chord.  No obstacle lies in the
    plane (see the module docstring), so one that does is an error.

    The side functional is linear, so fa b - fb a is a homogeneous point of
    the line ab at side zero; its W is positive when fa > fb.
    """
    pts = []
    for a, b in earlier:
        fa, fb = frame.side(a), frame.side(b)
        if (fa > 0 and fb > 0) or (fa < 0 and fb < 0):
            continue
        if fa == 0 and fb == 0:
            raise BuildError("earlier stick lies in the chord's plane")
        if fa < fb:
            fa, fb, a, b = fb, fa, b, a
        pts.append(frame.point(tuple(fa * y - fb * x for x, y in zip(a, b))))
    return pts


def _min_clear_height(frame: _ChordFrame, lows, z_prev: int, earlier) -> int:
    """Smallest integer z > z_prev whose lift triangles are clear.

    Every earlier stick lies at or below z_prev < z, so a point at relative
    position u = (s - s_lo)/(s_hi - s_lo) in (0, 1] of an anchor's triangle
    blocks exactly the levels z <= z_lo + (z_pt - z_lo)/u, and nothing when
    z_pt <= z_lo.  An obstacle meets the plane in its punch-through point
    only.  Points are homogeneous, anchors (s_lo, s_hi, z_lo) over one w,
    and the floors are taken in integers by cross-multiplication.  Sticks
    at or below the lowest z_lo are dropped first (see the module
    docstring).
    """
    z_min, w_min = lows[0][2:]
    for _, _, z, w in lows[1:]:
        if z * w_min < z_min * w:
            z_min, w_min = z, w
    pts = _project_earlier(frame, [
        (a, b) for a, b in earlier if a[2] * w_min > z_min * a[3] or b[2] * w_min > z_min * b[3]])
    z = z_prev + 1
    for s_lo, s_hi, z_lo, w in lows:
        span = s_hi - s_lo
        if span == 0:
            raise BuildError("degenerate clearance triangle")
        sgn = 1 if span > 0 else -1
        for s, zp, wp in pts:
            # (z_pt - z_lo) and sgn (s - s_lo), both times wp w
            wn = zp * w - z_lo * wp
            if wn <= 0:
                continue
            an = sgn * (s * w - s_lo * wp)
            if an == 0:
                raise BuildError("earlier stick over the anchor blocks every height")
            if an < 0 or an > sgn * span * wp:
                continue
            # z_lo + (z_pt - z_lo) / u with u = an / (wp sgn span), floored, plus one
            z = max(z, (z_lo * an + wn * sgn * span) // (w * an) + 1)
    return z


def clearance_height(cd: CircularDiagram, k: int, partial: _Lift) -> int:
    """Minimal admissible top level for chord of page k given the sticks
    already placed (pages below k).  Only the sticks of earlier chords that
    cross chord k are obstacles (see the module docstring)."""
    chord = cd.chords[k - 1]
    cls = cd.classes[k - 1]
    z_prev = max(partial.heights.values(), default=0)
    if cls.kind == "bi":
        return z_prev + 1
    earlier = [e for page in partial.near[k] for e in partial.ends.get(page, ())]
    if cls.kind == "uni":
        other = chord.ends[1] if chord.ends[0] == cls.initiating_end else chord.ends[0]
        frame = _ChordFrame(partial.boundary[other], partial.boundary[cls.initiating_end])
        base = partial.junctions.get(other)
        if base is None:
            raise MissingJunction(f"no junction over point {other} for page {k}")
        lows = (_anchor(0, frame.s_max, base[2]),)
        return _min_clear_height(frame, lows, z_prev, earlier)
    e0, e1 = chord.ends
    frame = _ChordFrame(partial.boundary[e0], partial.boundary[e1])
    j0, j1 = partial.junctions.get(e0), partial.junctions.get(e1)
    if j0 is None or j1 is None:
        raise MissingJunction(f"missing junction for page {k}")
    mid = frame.s_max // 2
    lows = (_anchor(0, mid, j0[2]), _anchor(frame.s_max, mid, j1[2]))
    return _min_clear_height(frame, lows, z_prev, earlier)


def build(cd: CircularDiagram) -> StickEmbedding:
    """Lift every chord in page order."""
    partial = _Lift(cd)
    place, junctions, heights = partial.place, partial.junctions, partial.heights
    boundary = partial.boundary
    hom = {}   # axis index -> its junction's homogeneous form

    def rise(e: int, z: int, zf: Fraction) -> None:
        """Set the junction over axis index e at level z."""
        x, y, w = boundary[e]
        junctions[e], hom[e] = (*cd.boundary[e], zf), (x, y, z * w, w)

    for chord, cls in zip(cd.chords, cd.classes):
        k = chord.page
        z = clearance_height(cd, k, partial)
        zf = Fraction(z)
        e0, e1 = chord.ends
        if cls.kind == "bi":
            rise(e0, z, zf)
            rise(e1, z, zf)
            place(Stick(junctions[e0], junctions[e1], k, chord.edge, "whole"), hom[e0], hom[e1])
        elif cls.kind == "uni":
            top = cls.initiating_end
            other = e1 if e0 == top else e0
            rise(top, z, zf)
            place(Stick(junctions[other], junctions[top], k, chord.edge, "whole"),
                  hom[other], hom[top])
        else:
            (x0, y0, w0), (x1, y1, w1) = boundary[e0], boundary[e1]
            apex = (x0 * w1 + x1 * w0, y0 * w1 + y1 * w0, 2 * z * w0 * w1, 2 * w0 * w1)
            g = math.gcd(*apex)
            apex = tuple(c // g for c in apex)
            pt = (Fraction(apex[0], apex[3]), Fraction(apex[1], apex[3]), zf)
            place(Stick(junctions[e0], pt, k, chord.edge, "left"), hom[e0], apex)
            place(Stick(pt, junctions[e1], k, chord.edge, "right"), apex, hom[e1])
        heights[k] = z
    return StickEmbedding(tuple(partial.sticks), junctions, heights)


def count_sticks(se: StickEmbedding) -> int:
    """Number of maximal straight segments: collinear segments that continue
    through a shared endpoint merge into one stick.  Ends are compared as
    homogeneous integers, and directions from a shared end carry positive
    scales, which keep both the parallel and the opposite tests."""
    ends: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for i, s in enumerate(se.sticks):
        a, b = _hom(s.a), _hom(s.b)
        ends.setdefault(a, []).append((i, b))
        ends.setdefault(b, []).append((i, a))

    def straight_through():
        for point, members in ends.items():
            for (ia, far_a), (ib, far_b) in combinations(members, 2):
                va, vb = _diff(point, far_a), _diff(point, far_b)
                if _cross(va, vb) == (0, 0, 0) and _dot(va, vb) < 0:
                    yield ia, ib

    return len(equivalence_classes(range(len(se.sticks)), straight_through()))
