"""The float distance kernel, vector helpers and bounds of
equilateral_builder's motion certificate.

tolerance_report measures its frame through the verifier's pair cull,
_verifier_float._near_pairs, with _seg_distance as its kernel.  That
module proves that the cull loses no pair for any kernel whose result is
at least the true distance less 40uC, which the kernel section shows for
_seg_distance.  The builder keeps no cull of its own.  Write u = 2^-53, let C be
the largest coordinate magnitude, and assume no overflow or underflow.

Kernel.  _seg_distance returns the computed length of cp1 - cp2, where
cp1 = p + sc (q - p) and cp2 = r + tc (s - r) with sc, tc clamped to
[0, 1]: each lies within 6uC of a point of its stick in every coordinate,
and the length is off by under 5u of itself, so the result is at least the
true distance less 40uC.  It is not symmetric to the last bit, so every
pair is measured lower index first.

Half-planes.  Every stick that build_tents puts down, and every swinging
stick of the reduction, runs from an axis point out into its arc's page
(Cromwell, "Embedding knots and links in an open book I", 1995).
- Shape (_half_plane).  The axis is a vertical line x = x0, y = y0.  A
  half-plane stick has exactly one end p on it (px = x0 and py = y0
  exactly); its other end q then sets the half-plane it lies in, at
  azimuth psi = atan2(dy, dx) for dx = qx - x0 and dy = qy - y0, and its
  angle theta from the horizontal, cos theta = rho / |q - p| with
  rho = hypot(dx, dy) and |q - p| = hypot(dx, dy, qz - pz).
- For points x, y at distances rx, ry from the axis in half-planes an
  angle g <= pi apart, |x - y|^2 = dz^2 + (rx - ry)^2 + 4 rx ry sin^2(g/2),
  which is at least sin^2(g/2) (dz^2 + (rx + ry)^2): sin^2(g/2) times the
  squared distance, in x's half-plane drawn as a plane, from x to y
  mirrored across the axis.  The segment from x to mirrored y crosses the
  axis at some w, and the distance from w to a stick with its axis end at
  height z0 is at least that to the stick's line, |zw - z0| cos theta.  So
  two half-plane sticks with axis ends at heights z0, z1 lie at least
  sin(g/2) min(cos theta) |z0 - z1| apart (_plane_gap, the pairwise
  half-plane bound).  For azimuths in [-pi, pi], sin(|psi - psi'|/2) is
  sin(g/2) for the gap g = min(|psi - psi'|, 2 pi - |psi - psi'|).
- Rounding: dx and dy are within u of themselves (exact when
  x0 = y0 = 0), which moves psi by under 3u and cos theta by under 3u of
  itself; each atan2 is within 2 ulps of pi, so |psi - psi'|/2 is within
  25u of g/2 and sin(g/2) within 25u; cos theta is within 9u of itself and
  |z0 - z1| within u of itself, so the computed bound is within 40u |z0 -
  z1| <= 80uC of the true one.

Cones.  _cone gives the distance, arc of directions and cone of a segment
seen from a point, as equilateral_builder._horizon describes them.
"""

from __future__ import annotations

import math

V3 = tuple[float, float, float]

SNAP_REL = 1e-9


def _vsub(a: V3, b: V3) -> V3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _norm(a: V3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _dist(a: V3, b: V3) -> float:
    return _norm(_vsub(a, b))


def _dot(a: V3, b: V3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: V3, b: V3) -> V3:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _unit(a: V3) -> V3:
    n = _norm(a)
    return (a[0] / n, a[1] / n, a[2] / n)


def _angle(u: V3, v: V3) -> float:
    """Angle between unit vectors, accurate near 0 and pi."""
    return math.atan2(_norm(_cross(u, v)), _dot(u, v))


def _seg_distance(p: V3, q: V3, r: V3, s: V3) -> float:
    """Closest-point distance between segments pq and rs; the module
    docstring bounds its rounding."""
    d1, d2, w = _vsub(q, p), _vsub(s, r), _vsub(p, r)
    a = d1[0] ** 2 + d1[1] ** 2 + d1[2] ** 2
    b = d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2]
    c = d2[0] ** 2 + d2[1] ** 2 + d2[2] ** 2
    d = d1[0] * w[0] + d1[1] * w[1] + d1[2] * w[2]
    e = d2[0] * w[0] + d2[1] * w[1] + d2[2] * w[2]
    den = a * c - b * b
    if den > 1e-14 * a * c:
        sc = min(max((b * e - c * d) / den, 0.0), 1.0)
    else:
        sc = 0.0
    tn = e + sc * b
    if c > 0:
        tc = min(max(tn / c, 0.0), 1.0)
    else:
        tc = 0.0
    if a > 0:
        sc = min(max((b * tc - d) / a, 0.0), 1.0)
    cp1 = (p[0] + sc * d1[0], p[1] + sc * d1[1], p[2] + sc * d1[2])
    cp2 = (r[0] + tc * d2[0], r[1] + tc * d2[1], r[2] + tc * d2[2])
    return _dist(cp1, cp2)


def _cone(F: V3, pa: V3, pb: V3):
    """(r, arc, c, h) of the segment pa pb seen from F, as _horizon
    describes them."""
    r = _seg_distance(F, F, pa, pb)
    va, vb = _vsub(pa, F), _vsub(pb, F)
    if _norm(va) == 0.0 or _norm(vb) == 0.0:
        return r, None, (0.0, 0.0, 1.0), math.pi   # h = pi: any c will do
    a, b = _unit(va), _unit(vb)
    n = _cross(a, b)
    thin = _norm(n) < 1e-3    # near a pole the normal carries rounding error
    ab = _angle(a, b)
    arc = (a, b, None if thin else _unit(n), ab)
    if thin and _dot(a, b) < 0.0:
        return r, arc, a, math.pi
    return r, arc, _unit((a[0] + b[0], a[1] + b[1], a[2] + b[2])), ab / 2


def _half_plane(a: V3, b: V3, line):
    """(z, psi, cos theta) of the stick ab when exactly one end p lies on
    the vertical line through line = (x, y), exactly: the height of p, the
    azimuth about the line of the half-plane the stick lies in and the
    cosine of its angle from the horizontal (Half-planes, in the module
    docstring); None for any other stick."""
    x, y = line
    at_a = a[0] == x and a[1] == y
    if at_a == (b[0] == x and b[1] == y):
        return None
    p, q = (a, b) if at_a else (b, a)
    dx, dy = q[0] - x, q[1] - y
    return p[2], math.atan2(dy, dx), math.hypot(dx, dy) / math.hypot(dx, dy, q[2] - p[2])


def _plane_gap(s, t) -> float:
    """sin(g/2) min(cos theta) |dz|, the pairwise half-plane bound between
    two sticks whose _half_plane data are s and t; sin(|psi - psi'|/2) is
    sin(g/2) for the gap g <= pi on the circle."""
    return math.sin(abs(s[1] - t[1]) / 2) * min(s[2], t[2]) * abs(s[0] - t[0])
