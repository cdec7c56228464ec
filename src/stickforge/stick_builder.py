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
cross chord k or share an end with it are obstacles: any other chord's
closed segment misses chord k's (its ends do not interleave with chord k's
on the circle), so its sticks pass the plane over chord k outside the
chord, at relative position u outside (0, 1] of every anchor, and never
bind.  All coordinates are rational, so every predicate here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circular_diagram import CircularDiagram, chords_cross

R3 = tuple[Fraction, Fraction, Fraction]
P2 = tuple[Fraction, Fraction]


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


def _sub2(a: P2, b: P2) -> P2:
    return (a[0] - b[0], a[1] - b[1])


def _cross2(a: P2, b: P2) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _dot2(a: P2, b: P2) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


class _ChordFrame:
    """Vertical plane over one chord, with exact in-plane coordinates.

    s is the unnormalized parameter along the chord direction (0 at the
    first endpoint, s_max at the second); z stays the height.
    """

    def __init__(self, a2: P2, b2: P2):
        self.a2 = a2
        self.d = _sub2(b2, a2)
        self.s_max = _dot2(self.d, self.d)
        if self.s_max == 0:
            raise BuildError("degenerate chord")

    def side(self, p: R3) -> Fraction:
        # signed offset of the xy-projection from the chord line
        return _cross2(self.d, _sub2((p[0], p[1]), self.a2))

    def param(self, p: R3) -> Fraction:
        return _dot2(_sub2((p[0], p[1]), self.a2), self.d)


def _project_earlier(frame: _ChordFrame, earlier: tuple[Stick, ...]):
    """In-plane view of the placed sticks: segments lying over the chord and
    punch-through points of transversal ones.  Independent of the lift
    height, so computed once per chord."""
    segs, pts = [], []
    for stick in earlier:
        fa, fb = frame.side(stick.a), frame.side(stick.b)
        if fa == 0 and fb == 0:
            segs.append(((frame.param(stick.a), Fraction(stick.a[2])),
                         (frame.param(stick.b), Fraction(stick.b[2]))))
        elif (fa > 0 and fb > 0) or (fa < 0 and fb < 0):
            continue
        else:
            t = fa / (fa - fb)
            hit3 = tuple(stick.a[i] + t * (stick.b[i] - stick.a[i]) for i in range(3))
            pts.append((frame.param(hit3), Fraction(hit3[2])))
    return segs, pts


def _min_clear_height(frame: _ChordFrame, lows, z_prev: int, earlier: tuple[Stick, ...]) -> int:
    """Smallest integer z > z_prev whose lift triangles are clear.

    Two facts give it in one pass.  Every earlier stick lies at or below
    z_prev < z, so a point at relative position u = (s - s_lo)/(s_hi - s_lo)
    in (0, 1] of an anchor's triangle blocks exactly the levels
    z <= z_lo + (z_pt - z_lo)/u, and nothing when z_pt <= z_lo.  That test
    is linear in the point, so a segment blocks what the ends of its part
    over u in [0, 1] block: its own ends and its crossing of s = s_lo (a
    crossing of s = s_hi has threshold z_pt <= z_prev and never binds).
    The floors are taken in integers by cross-multiplication.
    """
    segs, pts = _project_earlier(frame, earlier)
    z = z_prev + 1
    for (s_lo, z_lo), s_hi in lows:
        span = s_hi - s_lo
        if span == 0:
            raise BuildError("degenerate clearance triangle")
        cands = list(pts)
        for p, q in segs:
            cands += (p, q)
            if (p[0] - s_lo) * (q[0] - s_lo) < 0:
                cands.append((s_lo, p[1] + (s_lo - p[0]) * (q[1] - p[1]) / (q[0] - p[0])))
        sgn = 1 if span > 0 else -1
        dn, dd = sgn * span.numerator, span.denominator
        ln, ld = s_lo.numerator, s_lo.denominator
        zn, zd = z_lo.numerator, z_lo.denominator
        for s, zp in cands:
            wn, wd = zp.numerator * zd - zn * zp.denominator, zp.denominator * zd
            if wn <= 0:
                continue
            an, ad = sgn * (s.numerator * ld - ln * s.denominator), s.denominator * ld
            if an == 0:
                raise BuildError("earlier stick over the anchor blocks every height")
            if an < 0 or an * dd > dn * ad:
                continue
            # z_lo + (wn/wd) * (dn/dd) / (an/ad), floored, plus one
            num, den = wn * dn * ad, wd * dd * an
            z = max(z, (zn * den + num * zd) // (zd * den) + 1)
    return z


def clearance_height(cd: CircularDiagram, k: int, partial: StickEmbedding) -> int:
    """Minimal admissible top level for chord of page k given the sticks
    already placed (pages below k)."""
    chord = cd.chords[k - 1]
    cls = cd.classes[k - 1]
    z_prev = max(partial.heights.values(), default=0)
    if cls.kind == "bi":
        return z_prev + 1
    ends = set(chord.ends)
    near = {c.page for c in cd.chords[:k - 1]
            if ends & set(c.ends) or chords_cross(c.ends, chord.ends)}
    earlier = tuple(s for s in partial.sticks if s.page in near)
    if cls.kind == "uni":
        other = chord.ends[1] if chord.ends[0] == cls.initiating_end else chord.ends[0]
        frame = _ChordFrame(cd.boundary[other], cd.boundary[cls.initiating_end])
        base = partial.junctions.get(other)
        if base is None:
            raise MissingJunction(f"no junction over point {other} for page {k}")
        lows = (((Fraction(0), base[2]), frame.s_max),)
        return _min_clear_height(frame, lows, z_prev, earlier)
    e0, e1 = chord.ends
    frame = _ChordFrame(cd.boundary[e0], cd.boundary[e1])
    j0, j1 = partial.junctions.get(e0), partial.junctions.get(e1)
    if j0 is None or j1 is None:
        raise MissingJunction(f"missing junction for page {k}")
    mid = frame.s_max / 2
    lows = (
        ((Fraction(0), j0[2]), mid),
        ((frame.s_max, j1[2]), mid),
    )
    return _min_clear_height(frame, lows, z_prev, earlier)


def build(cd: CircularDiagram) -> StickEmbedding:
    """Lift every chord in page order."""
    sticks: list[Stick] = []
    junctions: dict[int, R3] = {}
    heights: dict[int, int] = {}
    partial = StickEmbedding((), junctions, heights)
    for chord, cls in zip(cd.chords, cd.classes):
        k = chord.page
        partial = StickEmbedding(tuple(sticks), junctions, heights)
        z = clearance_height(cd, k, partial)
        zf = Fraction(z)
        if cls.kind == "bi":
            pa = (*cd.boundary[chord.ends[0]], zf)
            pb = (*cd.boundary[chord.ends[1]], zf)
            sticks.append(Stick(pa, pb, k, chord.edge, "whole"))
            junctions[chord.ends[0]] = pa
            junctions[chord.ends[1]] = pb
        elif cls.kind == "uni":
            other = chord.ends[1] if chord.ends[0] == cls.initiating_end else chord.ends[0]
            top = (*cd.boundary[cls.initiating_end], zf)
            sticks.append(Stick(junctions[other], top, k, chord.edge, "whole"))
            junctions[cls.initiating_end] = top
        else:
            e0, e1 = chord.ends
            p0, p1 = cd.boundary[e0], cd.boundary[e1]
            apex = ((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2, zf)
            sticks.append(Stick(junctions[e0], apex, k, chord.edge, "left"))
            sticks.append(Stick(apex, junctions[e1], k, chord.edge, "right"))
        heights[k] = z
    return StickEmbedding(tuple(sticks), junctions, heights)


def _sub3(a: R3, b: R3) -> R3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross3(a: R3, b: R3) -> R3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def count_sticks(se: StickEmbedding) -> int:
    """Number of maximal straight segments: collinear segments that continue
    through a shared endpoint merge into one stick."""
    ends: dict[R3, list[int]] = {}
    for i, s in enumerate(se.sticks):
        ends.setdefault(s.a, []).append(i)
        ends.setdefault(s.b, []).append(i)

    parent = list(range(len(se.sticks)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for point, members in ends.items():
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                sa, sb = se.sticks[members[ai]], se.sticks[members[bi]]
                va = _sub3(sa.b if sa.a == point else sa.a, point)
                vb = _sub3(sb.b if sb.a == point else sb.a, point)
                straight_through = _cross3(va, vb) == (0, 0, 0) and (
                    va[0] * vb[0] + va[1] * vb[1] + va[2] * vb[2] < 0
                )
                if straight_through:
                    ra, rb = find(members[ai]), find(members[bi])
                    if ra != rb:
                        parent[rb] = ra
    return len({find(i) for i in range(len(se.sticks))})
