"""The float pair cull of equilateral_builder.tolerance_report, and the
float distance kernel and vector helpers it shares with its motion
certificate.

tolerance_report measures only the stick pairs that could hold the least
clearance, in one call of _near_pairs, and its minimum is that of every
pair, float for float.  Each pair is measured at most once, lower index
first, because _seg_distance is not symmetric to the last bit.  Write
u = 2^-53, let C be the largest coordinate magnitude, and assume no
overflow or underflow.

Half-planes.  Every stick that build_tents puts down, and every swinging
stick of the reduction, runs from an axis point out into its arc's page
(Cromwell, "Embedding knots and links in an open book I", 1995).
- Shape (_half_plane).  The axis is a vertical line x = x0, y = y0 (The
  passes say which).  A half-plane stick has exactly one end p on it
  (px = x0 and py = y0 exactly); its other end q then sets the half-plane
  it lies in, at azimuth psi = atan2(dy, dx) for dx = qx - x0 and
  dy = qy - y0, and its angle theta from the horizontal,
  cos theta = rho / |q - p| with rho = hypot(dx, dy) and
  |q - p| = hypot(dx, dy, qz - pz).
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

Box gaps.  The gap of two sticks is the largest of lo' - hi and lo - hi'
over x, y and z, for the boxes [lo, hi] and [lo', hi'] of their computed
ends, raised to the pairwise half-plane bound when both are half-plane
sticks.  _near_pairs walks pairs in ascending gap, popping them from a
heap (_walk), and stops at the first gap above pad = m + SNAP_REL (C + m),
m the least distance measured so far.
- A stick lies in the box of its computed ends, so a pair lies at least
  its true box gap apart, and the computed box gap is within 2uC of that;
  the computed half-plane bound is within 80uC of a true lower bound.
- _seg_distance returns the computed length of cp1 - cp2, where
  cp1 = p + sc (q - p) and cp2 = r + tc (s - r) with sc, tc clamped to
  [0, 1]: each lies within 6uC of a point of its stick in every
  coordinate, and the length is off by under 5u of itself, so the result
  is at least the true distance less 40uC.
- pad itself is computed to within 3u (C + m).
All of it is below 130u (C + m), and the margin SNAP_REL (C + m) is over
10^4 times more, so a skipped pair measures more than m.  m only falls, so
a pair past pad once stays past it, and the least distance is measured.

The passes.  The reduction moves only the swept sticks: the sticks of each
component's recorded moves, and its joiners.  tolerance_report picks them
by tag, and the tags choose the passes and nothing else.  _near_pairs
first reads the frame once: the corners of every stick's box, and from
per-axis columns of those C (min, max and negation do not round, so it is
exact).  Then it cuts the frame into slabs wherever no box spans an x-gap
(_slabs): with the lower and the upper x bounds of the boxes each sorted,
the first k boxes by lower bound lie apart from the rest exactly when the
k-th upper bound lies below the (k + 1)-th lower bound, by the gap between
the two.  A frame with no such cut is one slab.  Each slab takes its
pairs in the passes below, from the m of the slabs before it, with its own
spread of the boxes and longest stick, and with its own axis: the vertical
line through its lowest end (that of the first stick, by index, whose box
reaches the slab's least height).  The longest stick comes from math.dist,
which may differ from _dist in the last bit, as it only picks which of two
exact culls runs.
1. When the boxes of the whole sticks all lie within _SHORTEST times the
   longest stick of each other, the sticks crowd one spot and box gaps
   cannot prune them (theta-fan, where every stick reaches the axis point
   bp0 or the hub): the fan cull (_fan_pairs) takes every pair.
2. Otherwise every pair that holds a swept stick is walked by gap.  The
   swinging sticks are half-plane sticks, and so are the tent sticks they
   pass, so most of their pairs are keyed by the half-plane bound.
3. The pairs of two unmoved sticks are walked the same way, continuing
   from the m of the second pass, unless the unmoved bound B (below)
   exceeds m + SNAP_REL (C + m).
Every vertical line gives true bounds, so the choice of axis only sets how
much is pruned.  build_tents stands each part on x = y = 0 with bp0 at
height 0, its lowest end, and assemble_split moves the part along x by a
shift, which puts bp0 at x = 0 + shift = shift exactly and every other
axis point on the same line; so each part is walked about its own axis,
read from coordinates alone, never from ComponentInfo.offset.  A frame of
one part is one slab about x = y = 0.
4. Across slabs.  Two sticks of different slabs lie on either side of a
   cut, so at least its gap apart in x, and the least cut gap G bounds
   every such pair; the computed gaps are within 2uC of the true ones.
   When G exceeds the final m + SNAP_REL (C + m), no pair across slabs is
   measured, by the margin above.  Otherwise their pairs are walked by box
   gap, from that m (assemble_split puts parts about M apart, so this
   happens only when no part holds a pair below about M, as in unlink(n)).
Each pair lies in one slab or across two, so it is walked once, and the
minimum is that of every pair, float for float.  At seed 1 the 28
assembled random-small frames measure 255 pairs from 4,375 rows per pass
(5,692 from 30,953 as one slab about x = y = 0); their parts, walked in
build_component, 619 from 16,293.

The fan cull works with t = m + SNAP_REL (C + m) in place of pad.  A
center is the point that the most ends of the sticks still left share
exactly, and at least three must share it.  The sticks with an end at the
center are its rays; the others stay for the next center, and the pairs
that no center holds are all measured.  So each pair is decided once, at
the first center that holds one of its sticks.
- Two rays meet at the center.  When their ends there carry one key they
  share a junction, visit would skip them, and they are skipped; the other
  pairs of rays are measured.
- A ray and a stick that stays: seen from the center F, the ray's
  directions are the unit d to its far end (any direction when it has no
  length: d = 0 then, at angle 0 to everything), and the stick's lie
  within h of a unit c (_cone, as equilateral_builder._horizon gives them)
  at distance r or more from F.  By the certificate's bound (for x on a
  ray from F and y at angle g from it, |x - y| >= |y - F| sin g when
  g <= pi/2, and |y - F| beyond; see equilateral_builder), the pair is at
  least B = r sin(min(max(angle(d, c) - h, 0), pi/2)) apart (_ray_bound),
  and it is measured when B <= t.
- B is not computed for every such pair.  Let Z be the unit along the sum
  of the rays' d, and X, Y complete an orthonormal frame.  A unit d has
  height z = d . Z, distance s = |(d . X, d . Y)| from the axis and azimuth
  psi.  The rays with s at least half the largest form the band, sorted by
  psi; the others are bounded against every stick that stays.  For d in the
  band and c at height zc, distance sc and azimuth gap g from d,
  |d - c|^2 = (z - zc)^2 + (s - sc)^2 + 4 s sc sin^2(g/2).  With s in
  [slo, shi] and z in [zlo, zhi] over the band, and ds, dz the distances
  of sc and zc from those ranges, |d - c| >= chi(g) =
  sqrt(dz^2 + ds^2 + 4 slo sc sin^2(g/2)), so angle(d, c) =
  2 asin(|d - c|/2) >= 2 asin(chi(g)/2), and every ray of the band at gap
  g or more from c, up to pi, has B >= L(g) = r sin(min(max(2 asin(chi(g)/2)
  - h, 0), pi/2)), which grows with g.  Each stick that stays walks the band
  from its own azimuth both ways, computing B ray by ray, and stops a way
  at the first ray past gap pi, or with B > t and L > t there: every ray
  further that way lies as far.  The two ways share one count of rays, so
  no ray is taken twice, and a ray past pi one way lies within pi the
  other.
m only falls, so a pair dropped against an earlier t lies above the final
m.  Rounding: every point lies within 2C of F in each coordinate, so
r < 4C.  Each computed unit lies within 4u of the direction it stands for,
c within 2e-12 (the cone is used only where _horizon trusts it), h and
every atan2 angle within 10u, so B is off by under 4C (3e-12).  chi is
built from dot products and hypot, each within a few u, and from the gap
g, off by under 12u/s + 12u/sc, which moves 2 sqrt(slo sc) sin(g/2) by
under q min(1, 8u/slo + 8u/sc), q = 2 sqrt(slo sc); the walk takes that
allowance and 16u more off chi before asin, so the computed L lies below
the true one, up to 4C (100u).  SNAP_REL (C + m) is far above both, so a
dropped pair lies more than m apart.  On theta_trivial(32) the cull
measures 242 of the 1,953 pairs.

The unmoved bound.  Every stick that did not move stands where build_tents
put it, from an axis point out to an apex in its arc's page, so the pairs
of two unmoved sticks are bounded all at once, from their coordinates.
- Shape.  Every unmoved stick must be a half-plane stick (above).
- Two unmoved sticks whose keys are disjoint have different keys at their
  axis ends, and so, by the pairwise half-plane bound, lie at least
  B = sin(gmin/2) cos(theta_max) dzmin apart (_unmoved_bound): gmin is the least gap on the circle between the
  distinct azimuths, which is at most pi once there are two; theta_max is
  the steepest unmoved stick; dzmin is the least gap between axis ends
  with different keys, taken between neighbours in height order.  Sticks
  at one azimuth must share a key, as the two sticks of a tent share
  their apex.  With one azimuth, or one axis key, no such pair is left
  and B is infinite.  The sticks are sorted once by azimuth and once by
  height alone: any height order gives the same dzmin, float for float,
  since between two ends with different keys lie two neighbours with
  different keys, and a rounded difference of two heights within theirs
  is no larger.
B is 0 when an unmoved stick of the slab fails the shape about the slab's
axis (as when two parts touch in x and one slab holds both), or when two
unmoved sticks at one azimuth share no key; such a slab always takes the
third pass.  Rounding: each azimuth is within 5u of its true value (dx and
dy included), so every gap, the wrap 2 pi - (last - first) included, is
within 50u of the true one and sin(g/2) within 30u; cos theta is within 9u
of itself and dzmin within u, so B is within 80uC of the true bound.  With the 40uC of _seg_distance and the
3u (C + m) of the margin, a pair the third pass skips measures more than m,
far inside SNAP_REL (C + m).  Over the four random-large frames at seed 1
the second pass visits 37 of the 2,688 pairs that hold a swept stick
(1,204 when keyed by box gap alone), and the third is never taken, so none
of the 98,365 junction-disjoint pairs of two unmoved sticks is measured.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import heapify, heappop
from itertools import combinations, compress, groupby
from operator import lt

V3 = tuple[float, float, float]

SNAP_REL = 1e-9
# a frame whose stick boxes all lie within this share of its longest stick
# of each other crowds one spot (see the module docstring)
_SHORTEST = 0.125


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


def _near_pairs(segs, ends, swept, visit) -> float:
    """Call visit(i, ks) for rows of pairs (i, k), k in ks, each k > i, that
    hold every pair of segs that could lie within m of each other, each
    pair once, and return m: the least value visit returned, or inf.  visit
    returns the least distance it measures over its row, or inf, and skips
    every pair whose sticks share a key of ends, which holds the keys of
    each stick's ends a and b.  swept lists the sticks that moved.  The
    module docstring proves that no skipped pair comes that close."""
    n = len(segs)
    if n < 2:
        return math.inf
    # min and max of each coordinate, as min(a, b) and max(a, b) pick them
    lo = [(bx if bx < ax else ax, by if by < ay else ay, bz if bz < az else az)
          for (ax, ay, az), (bx, by, bz) in segs]
    hi = [(bx if bx > ax else ax, by if by > ay else ay, bz if bz > az else az)
          for (ax, ay, az), (bx, by, bz) in segs]
    los, his = [*zip(*lo)], [*zip(*hi)]   # one column per axis
    size = max(max(map(max, his)), -min(map(min, los)))
    slabs, cut = _slabs(segs, lo, hi, los, his)
    planes = [None] * n   # the _half_plane data of each stick, about its slab's axis line
    lines = []   # the axis line of each slab, or None for the fan cull
    for idx, part, sl, sh in slabs:
        if max(max(l) - min(h) for l, h in zip(sl, sh)) <= _SHORTEST * max(map(math.dist, *zip(*part))):
            lines.append(None)   # box gaps cannot prune (theta-fan)
            continue
        a, b = part[sl[2].index(min(sl[2]))]
        line = (b if b[2] < a[2] else a)[:2]   # the vertical line through the slab's lowest end
        for i, (a, b) in zip(idx, part):
            planes[i] = _half_plane(a, b, line)
        lines.append(line)
    boxes = [*zip(lo, hi, planes)]
    moved, least = set(swept), math.inf
    for (idx, *_), line in zip(slabs, lines):
        if line is None:
            least = _fan_pairs(segs, ends, visit, size, idx, least)
            continue
        least = _walk([r for j in idx if j in moved for r in _rows(boxes, j, [k for k in idx if k > j or k not in moved])],
                      least, size, visit)
        unmoved = [k for k in idx if k not in moved]
        if _unmoved_bound(segs, planes, ends, unmoved, line) <= least + SNAP_REL * (size + least):
            least = _walk([r for x, j in enumerate(unmoved) for r in _rows(boxes, j, unmoved[x + 1:])], least, size, visit)
    if cut == math.inf or cut > least + SNAP_REL * (size + least):
        return least   # one slab, or no pair across slabs lies within pad
    home = [0] * n   # the slab of each stick
    for x, (idx, *_) in enumerate(slabs):
        for i in idx:
            home[i] = x
    boxes = [(l, h, None) for l, h in zip(lo, hi)]   # keyed by box gap alone
    return _walk([r for j in range(n) for r in _rows(boxes, j, [k for k in range(j + 1, n) if home[k] != home[j]])],
                 least, size, visit)


def _slabs(segs, lo, hi, los, his):
    """The frame cut wherever no stick box spans an x-gap: (indices, sticks,
    box corner columns) of each slab, and the least cut gap, inf when the
    frame is one slab; los and his are the columns of the box corners lo
    and hi.  With the lower and the upper x bounds of the boxes each
    sorted, the first k boxes by lower bound lie apart from the rest
    exactly when the k-th upper bound lies below the (k + 1)-th lower
    bound."""
    L, H = sorted(los[0]), sorted(his[0])
    cuts = [*compress(range(1, len(L)), map(lt, H, L[1:]))]
    if not cuts:
        return [(range(len(segs)), segs, los, his)], math.inf
    slabs = [[] for _ in range(len(cuts) + 1)]
    bounds = [L[k] for k in cuts]
    for i, x in enumerate(los[0]):
        slabs[bisect_right(bounds, x)].append(i)
    return ([(idx, [segs[i] for i in idx], [*zip(*map(lo.__getitem__, idx))], [*zip(*map(hi.__getitem__, idx))])
             for idx in slabs], min(L[k] - H[k - 1] for k in cuts))


def _rows(boxes, j, ks):
    """(gap, i, k), i < k, for the pair of stick j and each stick k of ks:
    the box gap, raised to the half-plane bound when both hang from the
    axis line; boxes holds each stick's box corners and _half_plane data,
    or None."""
    (xl, yl, zl), (xh, yh, zh), s = boxes[j]
    return [(max(l[0] - xh, l[1] - yh, l[2] - zh, xl - h[0], yl - h[1], zl - h[2],
                 _plane_gap(s, t) if s and t else -math.inf),
             k if k < j else j, j if k < j else k)
            for k, (l, h, t) in zip(ks, map(boxes.__getitem__, ks))]


def _walk(rows, least, size, visit) -> float:
    """Call visit(i, (k,)) for the rows (gap, i, k) in ascending gap, up to
    the first gap above m + SNAP_REL (size + m), and return m: the least
    value visit returned, or least if none is below it.  The rows are
    popped from a heap, so those past that gap are never ordered."""
    pad = least + SNAP_REL * (size + least)
    heapify(rows)
    while rows and rows[0][0] <= pad:
        _, i, k = heappop(rows)
        d = visit(i, (k,))
        if d < least:
            least, pad = d, d + SNAP_REL * (size + d)
    return least


def _ray_bound(d, r, c, h):
    """r sin(min(max(angle(d, c) - h, 0), pi/2)), the cone bound between a
    stick whose directions from a center are the unit d (any direction when
    d = 0) and a stick at distance r from it whose directions lie within h
    of the unit c."""
    g = _angle(d, c) - h
    return r * math.sin(min(g, math.pi / 2)) if g > 0.0 else 0.0


def _fan_pairs(segs, ends, visit, size, idx, least):
    """_near_pairs by the fan cull of the module docstring over the sticks
    idx, from the least distance least found so far; size is the largest
    coordinate magnitude."""
    t = least + SNAP_REL * (size + least)
    u = 2.0 ** -53

    def see(i, k):
        nonlocal least, t
        d = visit(min(i, k), (max(i, k),))
        if d < least:
            least, t = d, d + SNAP_REL * (size + d)

    rest = list(idx)
    while True:
        count = Counter(p for i in rest for p in {*segs[i]})
        F, most = max(count.items(), key=lambda e: e[1], default=(None, 0))
        if most < 3:
            break
        groups = {}   # the rays of F by their key at F: (index, unit or 0)
        for i in rest:
            a, b = segs[i]
            if F in (a, b):
                v = _vsub(b if a == F else a, F)
                groups.setdefault(ends[i][a != F], []).append((i, _unit(v) if _norm(v) else (0.0, 0.0, 0.0)))
        rest = [i for i in rest if F not in segs[i]]
        keyed = list(groups.values())
        for x, group in enumerate(keyed):   # rays with different keys at F; the others share a junction
            for other in keyed[x + 1:]:
                for i, _ in group:
                    for k, _ in other:
                        see(i, k)
        if not rest:
            continue
        # the frame: Z along the rays' summed direction, X and Y across it
        rays = [ray for group in keyed for ray in group]
        Z = tuple(map(sum, zip(*(d for _, d in rays))))
        Z = _unit(Z) if _norm(Z) else (0.0, 0.0, 1.0)
        X = _unit(_cross(Z, (0.0, 0.0, 1.0) if abs(Z[2]) < 0.5 else (1.0, 0.0, 0.0)))
        Y = _cross(Z, X)
        ring = [(math.atan2(_dot(d, Y), _dot(d, X)), math.hypot(_dot(d, X), _dot(d, Y)),
                 _dot(d, Z), i, d) for i, d in rays]
        top = max(f[1] for f in ring)
        polar = [f for f in ring if not f[1] >= top / 2 > 0.0]   # near the axis, or no length
        ring = sorted(f for f in ring if f[1] >= top / 2 > 0.0)
        if ring:
            psi, s, z, _, _ = zip(*ring)
            slo, shi, zlo, zhi = min(s), max(s), min(z), max(z)
        for k in rest:
            r, _, c, h = _cone(F, *segs[k])
            for *_, i, d in polar:
                if _ray_bound(d, r, c, h) <= t:
                    see(i, k)
            if not ring:
                continue
            x, y, z = _dot(c, X), _dot(c, Y), _dot(c, Z)
            sv, pv = math.hypot(x, y), math.atan2(y, x)
            near = math.hypot(max(zlo - z, z - zhi, 0.0), max(slo - sv, sv - shi, 0.0))
            q = 2.0 * math.sqrt(slo * sv)
            slack = q * min(1.0, 8 * u / slo + 8 * u / max(sv, u)) + 16 * u
            start, taken, n = bisect_left(psi, pv), 0, len(ring)
            for step in (1, -1):
                j = start - (step < 0)
                while taken < n:
                    g, _, _, i, d = ring[j % n]
                    gap = (g - pv) * step + (0.0 if 0 <= j < n else 2 * math.pi)
                    if gap > math.pi:
                        break
                    if _ray_bound(d, r, c, h) <= t:
                        see(i, k)
                    elif r * math.sin(min(max(2 * math.asin(min(1.0, max(
                            math.hypot(near, q * math.sin(gap / 2)) - slack, 0.0) / 2)) - h, 0.0),
                            math.pi / 2)) > t:
                        break    # every ray further this way lies as far
                    taken += 1
                    j += step
    return min([least, *(visit(i, rest[x + 1:]) for x, i in enumerate(rest[:-1]))])


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


def _unmoved_bound(segs, planes, ends, unmoved, line) -> float:
    """B of the module docstring: a lower bound on the distance between any
    two sticks of segs listed in unmoved whose keys of ends are disjoint;
    planes holds the _half_plane data of every stick about the axis line
    line = (x, y).  0 when one fails
    the shape test or two such sticks share an azimuth.  The sticks are
    sorted by azimuth and by height once."""
    rows = [planes[i] for i in unmoved]
    if None in rows:
        return 0.0   # no end on the axis, or both
    if not rows:
        return math.inf
    zs, psis, coss = zip(*rows)
    by_psi = sorted(range(len(rows)), key=psis.__getitem__)
    for _, group in groupby(by_psi, key=psis.__getitem__):
        if any({*ends[unmoved[x]]}.isdisjoint(ends[unmoved[y]]) for x, y in combinations(group, 2)):
            return 0.0
    psi = [psis[x] for x in by_psi]
    gaps = [b - a for a, b in zip(psi, psi[1:]) if b != a]
    if not gaps:
        return math.inf
    axis = [(zs[x], ends[i][b[0] == line[0] and b[1] == line[1]])   # the height and key of each axis end
            for x in sorted(range(len(rows)), key=zs.__getitem__) for i in [unmoved[x]] for b in [segs[i][1]]]
    dz = min((z1 - z0 for (z0, k0), (z1, k1) in zip(axis, axis[1:]) if k0 != k1), default=math.inf)
    return math.sin(min(2 * math.pi - (psi[-1] - psi[0]), *gaps) / 2) * min(1.0, *coss) * dz
