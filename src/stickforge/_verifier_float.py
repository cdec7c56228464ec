"""The float pair culls, the verifier's fold pass, and the one float
distance kernel, seg_distance.

Three callers measure only the stick pairs that _near_pairs hands them,
and lose nothing by it: this docstring proves it.  They are
check_equilateral's clearance and equilateral_builder.tolerance_report,
which both measure through _clearance, and the float branch of
check_simplicity.  All three measure with seg_distance, and the proof asks
one thing of it: that a measured value is at least the true distance less
40uC (see the sweep below).  Like _verifier_exact, this module imports
nothing of the package, no builder code and not the verifier, so its
vector helpers are its own.  The boundary runs one way: the builder
imports this module's kernel, vector helpers, half-plane bound
(_half_plane, _plane_gap) and cone bound (_cone, _ray_bound) for its
motion certificate, and keeps no copy.

The float checks fail any coordinate or scale that is not finite, a length
scale that is not positive, and any input outside the range below, before
they measure anything.  Then they cull their pairs.  Each caller keys the
ends of its sticks: check_equilateral and tolerance_report by component
and junction label, check_simplicity by the coordinates themselves, and
none measures a pair that shares a key.  Let m be the larger of the least
distance measured so far and the check's floor clearance_min, C the
largest coordinate magnitude, pad = m + junction_rel (C + m), and
u = 2^-53.  Each cull below hands over every pair with disjoint keys that
could lie within pad, so every pair at the least distance is measured,
and so is every pair below clearance_min.  Since clearance_rel exceeds
junction_rel, so is every pair with disjoint keys and ends within the
snap, which check_simplicity gives the fold-back test instead.  A minimum
does not depend on the order it is taken in, and failing pairs are sorted
back into lexicographic order, so minima, verdicts and witnesses are
those of testing every pair.  Each pair is measured once, lower index
first, as the all-pairs loop measured it.  So the culls are about
distance alone; the pairs that share a key and could fold back come from
the fold pass.

Range.  The float checks fail a coordinate of magnitude above 2^200, and
a scale (M, or the scale given to check_simplicity or derived there)
outside [2^-200, 2^200].  So no distance, bound or unit here overflows: a
coordinate difference is below 2^201, a squared length below 2^404, and
the largest products, the a c, b e and c d of seg_distance, lie below
2^812 (only a width of the fold pass may reach inf, as it does for a
stick with no length).  Two sticks may still be so short that a c
underflows, and den = a c - b^2 with it, which would send two crossing
sticks into the near-parallel branch and measure them apart.  So
seg_distance measures a pair whose a c lies below 2^-900 scaled by 2^k,
when k > 0: k brings the largest coordinate difference of its sticks and
of p - r into [1/2, 1), or is less, so that every coordinate stays below
2^1022.  Then it scales the result back.  When a or c is at least 1,
some coordinate difference is at least 1/2 and k is at most 0, so the
guard tests a and c first and skips such pairs (the point queries of a
stick of no length among them) unscaled.  Scaling by a power of two is exact
and commutes with every rounded operation that neither overflows nor
underflows, so a pair whose computation underflows nowhere measures the
same, bit for bit, either way; one with a c in the normal range is not
scaled at all.  Ends may still lie closer than 2^-480; then a
product, quotient or square root may underflow and be off by up to
2^-1074 rather than by u of itself, while a sum or difference stays
exact.  So each bound below moves by under 2^-470: seg_distance's result,
the root of a sum of squares, by under 2^-535; a box gap, cut gap or pad by
under 2^-1070, and a half-plane bound or K cos theta by under 2^-870; and a unit
of a vector longer than 2^-480 stays within 4u of its direction.  Shorter
vectors do no harm: against a ray that short, every bound of the fan cull
is at most r, and the pair lies at least r - 2^-480 apart; a stick that
stays within 2^-480 of a center has r below clearance_min and is measured
against every ray; and a stick that short gets a fold width above 2, so
the fold pass pairs it with every other.  The margin junction_rel (C + m) is at least junction_rel
clearance_rel 2^-200 > 2^-250, so every argument below holds as it would
without underflow.

Builder frames.  tolerance_report runs no input check and culls with
floor 0, so m is the least distance measured so far, pad is infinite until
visit returns a distance, and no pair lies below the floor; the rest holds
as written.  A frame gets the proof while its coordinates stay within
2^200: a built part's points lie within 5M of its axis point at the
origin (equilateral_builder, Rounding), so a frame of one part does for
M <= 2^197; none is checked.  Its axis points stand 1 apart, so C >= 1
and the margin junction_rel (C + m) exceeds 2^-250 without the floor; a
stick within 2^-480 of a center then has every fan bound below t and is
measured against every ray.

The culls read the input in one scan of the stick boxes: their corners,
and from per-axis columns of those C (min, max and negation do not round,
so it is exact).  Then they cut the frame into slabs wherever no box spans
an x-gap (_slabs): with the lower and the upper x bounds of the boxes each
sorted, the first k boxes by lower bound lie apart from the rest exactly
when the k-th upper bound lies below the (k + 1)-th lower bound, by the
gap between the two.  A frame with no such cut is one slab.  Each slab
takes its pairs by one of the culls below, from the m of the slabs before
it, chosen from its own spread of the boxes and longest stick.  The
longest stick is taken with math.dist, whose last bit may differ from
seg_distance's, as it only picks which of two culls runs, and each cull
is exact.
1. When the boxes of the whole sticks all lie within _SHORTEST times the
   longest stick of each other, the sticks crowd one spot, boxes cannot
   prune them (theta-fan, where every stick reaches the axis point or the
   hub), and the fan cull (_fan_pairs) takes every pair.
2. Otherwise the axis walk (_axis_pairs) takes them, about the vertical
   line through the slab's lowest end (that of the first stick, by index,
   whose box reaches the slab's least height), unless its rows would
   outnumber _WALK_ROWS per stick.
3. Then the sweep (_sweep) takes the pairs not yet walked.
Two sticks of different slabs lie on either side of a cut, so at least its
gap apart in x, and the least cut gap G bounds every such pair; the
computed gaps are within 2uC of the true ones.  When G exceeds the final
pad, no pair across slabs is handed over, by the margins below.  Otherwise
the sweep takes the pairs across slabs, from the least distance so far.
Each pair lies in one slab or across two, so it is handed over once.
The slabs and axes come from coordinates alone.  An assembled frame has
its parts about M apart in x, each about the vertical line through its
bp0, and each is its own slab walked about that line: over the 28
assembled random-small frames at seed 1, each check measures 658 pairs
(5,970 as one slab, which takes the sweep).  A frame of one part is one
slab about x = y = 0.

The sweep.  Each stick gets the closed box of its ends, and a sweep in z
measures a pair of sticks only when the box of one lies within pad of the
box of the other in x, y and z.
- A stick lies in the box of its ends, which are the input coordinates.
- A box test fails only when a computed bound such as lo - pad lies past
  the other box's bound, and the rounding of that sum is below
  2u (C + pad).  So the two sticks lie more than pad - 2u (C + pad) apart,
  and pad itself is computed to within 3u (C + m).
- seg_distance returns the computed length of cp1 - cp2, where
  cp1 = p + sc (q - p) and cp2 = r + tc (s - r) with sc, tc clamped to
  [0, 1]: each lies within 6uC of a point of its stick in every
  coordinate, and the length is off by under 5u of itself, so the result
  is at least the true distance less 40uC.  This is the kernel condition,
  and every cull below uses no more of the kernel.
All of it is below 50u (C + m), and the margin junction_rel (C + m) is
over 10^5 times more, so a skipped pair measures more than m.  m only
falls, so a stick the sweep drops once is past every later box as well.

The axis walk.  An equal-length frame stands in an open book: the sticks
of its tents run from an axis point out into their arc's page (Cromwell,
"Embedding knots and links in an open book I", 1995), so most pairs are
bounded at once, from their coordinates.
- Shape.  The axis is the slab's vertical line x = x0, y = y0.  A stick
  of the slab with exactly one end p on it (px = x0 and py = y0 exactly)
  is an axis stick; the others form S.  The other end q of an axis stick
  sets the half-plane it lies in, at azimuth psi = atan2(dy, dx) for
  dx = qx - x0 and dy = qy - y0, and its angle theta from the horizontal,
  cos theta = rho / |q - p| with rho = hypot(dx, dy) and
  |q - p| = hypot(dx, dy, qz - pz) (_half_plane).  Any vertical line
  gives true bounds; the one through the lowest end holds the axis points
  of a built part.
- For points x, y at distances rx, ry from the axis in half-planes an
  angle g <= pi apart, |x - y|^2 = dz^2 + (rx - ry)^2 + 4 rx ry sin^2(g/2),
  which is at least sin^2(g/2) (dz^2 + (rx + ry)^2): sin^2(g/2) times the
  squared distance, in x's half-plane drawn as a plane, from x to y
  mirrored across the axis.  The segment from x to mirrored y crosses the
  axis at some w, and the distance from w to a stick with its axis end at
  height z0 is at least that to the stick's line, |zw - z0| cos theta.  So
  two axis sticks with axis ends at heights z0, z1 lie at least
  sin(g/2) min(cos theta) |z0 - z1| apart, the pairwise half-plane bound
  (_plane_gap).  For azimuths in [-pi, pi], sin(|psi - psi'|/2) is
  sin(g/2) for the gap g = min(|psi - psi'|, 2 pi - |psi - psi'|) on the
  circle.
- Two axis sticks whose keys are disjoint have different keys at their
  axis ends.  Let K = sin(gmin/2) dzmin over all the axis sticks
  (_axis_bound): gmin is the least gap on the circle between the distinct
  azimuths, which is at most pi once there are two; dzmin is the least gap
  between axis ends with different keys, taken between neighbours in
  height order.  Any height order gives the same float: between two ends
  with different keys lie two neighbours with different keys, and a
  rounded difference of two heights within theirs is no larger.  When
  every two axis sticks at one azimuth share a key, two with disjoint keys
  lie an azimuth gap of gmin or more and a height gap of dzmin or more
  apart, so two of a set R of axis sticks lie at least K cos theta_R
  apart, theta_R the steepest of R.  With one azimuth, or one axis key, no
  such pair is left and K is infinite.  K is 0 when two axis sticks at one
  azimuth share no key.
- The box gap of two sticks is the largest of lo' - hi and lo - hi' over
  x, y and z, for the boxes [lo, hi] and [lo', hi'] of their computed ends.
  A stick lies in its box, so a pair lies at least its true gap apart, and
  the computed gap is within 2uC of that.  A row is a pair, keyed by its
  box gap raised to the pairwise half-plane bound when it holds two axis
  sticks (_rows).
- The walk is one best-first loop over a heap (Hjaltason and Samet,
  "Distance browsing in spatial databases", 1999).  The heap starts with
  the rows that hold a stick of S and, when K is finite, one entry for the
  axis sticks not yet moved, keyed K cos theta of the steepest of them.
  The loop pops the least key until it exceeds pad.  A popped row is
  measured.  The popped entry moves the steepest axis stick left to S: it
  pushes the rows of that stick with the axis sticks still left, and the
  entry for those, keyed by the next steepest.  So each pair is pushed
  once, and when the loop stops every key left exceeds pad: the rows left
  lie more than pad apart, and of the pairs of two axis sticks left, those
  with disjoint keys lie at least the entry's key apart and the others
  share a key.  (pad is infinite while visit has returned only inf, and
  then every axis stick moves while K is finite; with K infinite none
  needs to.)  On a built frame the steepest axis stick, e1, hugs the axis
  at cos theta about 0.01, so it moves first; on every random-large frame
  the entry's key then clears pad, and each check measures 1 to 7 pairs.
- The walk's rows, the pairs that hold a stick of S or a moved one, are
  kept only while they number at most _WALK_ROWS per stick: on a slab
  with few axis sticks, or one whose K cos theta does not clear pad
  before the moves reach that count, the sweep takes over from the least
  distance so far and skips the pairs already walked.
Rounding: dx and dy are within u of themselves (exact when x0 = y0 = 0),
which moves psi by under 3u and cos theta by under 3u of itself; each
atan2 is within 2 ulps of pi, so |psi - psi'|/2 is within 25u of g/2 and
every azimuth gap, the wrap 2 pi - (last - first) included, within 50u of
the true one; sin(g/2) is within 30u, cos theta within 9u of itself and a
height gap within u, so the pairwise half-plane bound is within 80uC of
the true one, and K cos theta within 90uC (a few uC for two sticks whose
true azimuths agree).  With the 40uC of seg_distance and
the 3u (C + m) of pad, a pair that the walk leaves out measures more than
m, far inside junction_rel (C + m).

The fan cull works with t = pad.  A center is the point that the most
ends of the sticks still left share exactly, and at least three must
share it.  The sticks with an end at the center are its rays; the others
stay for the next center, and the pairs that no center holds are all
measured.  So each pair is decided once, at the first center that holds
one of its sticks.  No pair whose sticks share a key is handed over:
visit would measure nothing for it.
- Two rays with different keys at the center are measured; two with one
  key there share it and are not.
- A ray and a stick that stays: seen from the center F, the ray's
  directions are the unit d to its far end (any direction when it has no
  length: d = 0 then, at angle 0 to everything), and the stick's lie
  within h of a unit c (_cone) at distance r or more from F.  For x on a
  ray from F and y at angle g from that ray, |x - y| >= |y - F| sin g
  when g <= pi/2, and |x - y| >= |y - F| beyond, so the pair is at least
  B = r sin(min(max(angle(d, c) - h, 0), pi/2)) apart (_ray_bound), and it
  is measured when B <= t.  The directions from F to a segment that misses
  F fill the shorter great-circle arc between those of its ends a and b,
  within h = ab/2 of c = (a + b)/|a + b|; c is trusted only when a x b is
  not too short or a . b >= 0, else h = pi, as when the segment reaches F.
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
r < 4C, and r, the length of va + t d for the clamped projection t, lies
within 100uC of the true distance: the computed point lies within 50uC
of va + t d on the true segment, and t's rounding moves it by under 30uC
along it.  Each computed unit lies within 4u of the direction it stands for,
c within 2e-12 (|a + b| is about 1e-3 or more where c is trusted), h and
every atan2 angle within 10u, so B is off by under 4C (3e-12).  chi is
built from dot products and hypot, each within a few u, and from the gap
g, off by under 12u/s + 12u/sc, which moves 2 sqrt(slo sc) sin(g/2) by
under q min(1, 8u/slo + 8u/sc), q = 2 sqrt(slo sc); the walk takes that
allowance and 16u more off chi before asin, so the computed L lies below
the true one, up to 4C (100u).  junction_rel (C + m) is far above both,
so a dropped pair lies more than m apart.

The fold pass (_fold_pairs), which check_simplicity runs after
_near_pairs.  There a key is a point, so a pair that shares a key shares
an end F exactly; its ends lie within the snap, so visit gives it the
fold-back test and measures nothing, and the culls need not hand it over.
Let d, e be the units from F towards the two sticks' far ends.  The test
takes as shared the last end of the lower stick that lies within the snap
of an end of the other.  When that is F, it fails the pair only when the
directions have cosine above 1 - _FOLD, so |d - e| is under
sqrt(2 _FOLD) up to rounding.  Otherwise the lower stick's far end lies
within the snap of the other's far end, so |d - e| <= 2 snap / its length
(for vectors a, b, |a/|a| - b/|b|| <= 2 |a - b| / |a|), or within the
snap of F, so the stick is no longer than the snap.  So each stick with an
end at F gets the width w = sqrt(_FOLD) + 2 floor / length (infinite when
it has no length, and above 2 >= |d - e| when it is no longer than the
snap), and at every point that two or more ends share exactly, a sweep
over the first coordinate of the units (two units within the sum of their
widths have first coordinates within it) hands over every pair whose
units lie within the sum of their widths (at a point of two ends, the
sweep's one comparison is made directly): floor = clearance_rel scale
exceeds the snap junction_rel scale, 2 sqrt(_FOLD) exceeds sqrt(2 _FOLD),
and a width is over 10^5 times the rounding of the units it compares.
Each stick's unit and width are computed once, from end a: from end b the
difference, and so the unit, is the exact negation.  A pair that shares
both ends, or that a cull handed over as well, is tested
twice, which adds a failing entry that sorts beside its twin and changes
no verdict or witness.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, compress, groupby
from operator import itemgetter, lt


@dataclass(frozen=True)
class Tolerances:
    """Relative to the length scale (exact checks ignore these)."""

    length_rel: float = 1e-9
    clearance_rel: float = 1e-6
    junction_rel: float = 1e-9


TOLERANCES = Tolerances()

# sticks that share an end fold back when the cosine between them exceeds 1 - _FOLD
_FOLD = 1e-12
# a frame whose stick boxes all lie within this share of its longest stick
# of each other crowds one spot (see the module docstring)
_SHORTEST = 0.125
# the axis walk sorts at most this many rows per stick before the sweep takes over
_WALK_ROWS = 6
# the float checks take coordinates up to 2^200 in magnitude and scales in
# [2^-200, 2^200], where the module docstring's bounds hold
_RANGE = 2.0 ** 200


def _vsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm(a):
    return math.sqrt(_dot(a, a))


def seg_distance(p, q, r, s) -> float:
    """Closest-point distance between segments pq and rs.  The vector
    arithmetic is written out, in the order of the vector helpers."""
    (px, py, pz), (rx, ry, rz) = p, r
    ux, uy, uz = q[0] - px, q[1] - py, q[2] - pz
    vx, vy, vz = s[0] - rx, s[1] - ry, s[2] - rz
    wx, wy, wz = px - rx, py - ry, pz - rz
    a, b, c = ux * ux + uy * uy + uz * uz, ux * vx + uy * vy + uz * vz, vx * vx + vy * vy + vz * vz
    d, e = ux * wx + uy * wy + uz * wz, vx * wx + vy * wy + vz * wz
    if a * c < 2.0 ** -900 and a < 1.0 and c < 1.0:   # a c may underflow: measure the pair scaled up by 2^k (Range)
        k = min(-math.frexp(max(map(abs, (ux, uy, uz, vx, vy, vz, wx, wy, wz))))[1],
                1022 - math.frexp(max(map(abs, (*p, *q, *r, *s))))[1])
        if k > 0:
            return math.ldexp(seg_distance(*([math.ldexp(x, k) for x in pt] for pt in (p, q, r, s))), -k)
    den = a * c - b * b
    sn, sd = (0.0, 1.0) if den <= 1e-14 * a * c else ((b * e - c * d), den)
    if sn < 0.0:
        sn, sd = 0.0, 1.0
    elif sn > sd:
        sn, sd = sd, sd
    sc = 0.0 if sd == 0.0 else sn / sd
    tn = e + sc * b
    if tn < 0.0 or c == 0.0:   # r, where rs has no length, projects onto pq
        tc = 0.0
        sc = min(max(-d / a if a > 0 else 0.0, 0.0), 1.0)
    elif tn > c:
        tc = 1.0
        sc = min(max((b - d) / a if a > 0 else 0.0, 0.0), 1.0)
    else:
        tc = tn / c if c > 0 else 0.0
    x, y = (px + sc * ux) - (rx + tc * vx), (py + sc * uy) - (ry + tc * vy)
    z = (pz + sc * uz) - (rz + tc * vz)
    return math.sqrt(x * x + y * y + z * z)


def _clearance(segs, ends, floor: float):
    """(least, failing): the least distance between two sticks of segs
    whose keys of ends are disjoint, or inf, and (i, k, distance) of each
    such pair i < k below floor, all as measuring every pair would give
    them (_near_pairs hands over the pairs); ends holds the keys of each
    stick's ends a and b."""
    keys = [{*e} for e in ends]
    failing = []

    def visit(i: int, ks) -> float:
        (p, q), key = segs[i], keys[i]
        least = math.inf
        for k in ks:
            if key.isdisjoint(keys[k]):
                r, s = segs[k]
                dist = seg_distance(p, q, r, s)
                if dist < floor:
                    failing.append((i, k, dist))
                if dist < least:
                    least = dist
        return least

    return _near_pairs(segs, ends, floor, visit), failing


def _pad(least, floor, size):
    """pad = m + junction_rel (size + m), with m = max(least, floor)."""
    m = max(least, floor)
    return m + TOLERANCES.junction_rel * (size + m)


def _near_pairs(segs, ends, floor: float, visit) -> float:
    """Call visit(i, ks) for rows of pairs (i, k), k in ks, each k > i, that
    hold every pair of segs with disjoint keys of ends that could lie
    within max(m, floor) of each other, each pair once, and return m: the
    least value visit returned, or inf.  ends holds the keys of each
    stick's ends a and b; visit measures no pair that shares a key, and
    returns the least distance it measures over its row, or inf.  The
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
    planes = [None] * n   # the _axis_sticks data of each axis stick, about its slab's axis line
    axes = []   # the axis sticks of each slab, or None for the fan cull
    for idx, part, sl, sh in slabs:
        if max(max(l) - min(h) for l, h in zip(sl, sh)) <= _SHORTEST * max(map(math.dist, *zip(*part))):
            axes.append(None)   # boxes cannot prune (theta-fan)
            continue
        a, b = part[sl[2].index(min(sl[2]))]
        axes.append(_axis_sticks(segs, ends, idx, (b if b[2] < a[2] else a)[:2]))   # about the line through its lowest end
        for f in axes[-1]:
            planes[f[-1]] = f
    boxes = [*zip(lo, hi, planes)]
    least = math.inf
    for (idx, *_), axis in zip(slabs, axes):
        least = (_fan_pairs(segs, ends, floor, visit, size, idx, least) if axis is None else
                 _axis_pairs(segs, ends, floor, visit, lo, hi, planes, boxes, size, idx, axis, least))
    if cut == math.inf or cut > _pad(least, floor, size):
        return least   # one slab, or no pair across slabs lies within pad
    home = [0] * n   # the slab of each stick
    for x, (idx, *_) in enumerate(slabs):
        for i in idx:
            home[i] = x
    return _sweep(segs, floor, visit, lo, hi, size, least, range(n), lambda ik: home[ik[0]] == home[ik[1]])


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


def _axis_pairs(segs, ends, floor, visit, lo, hi, planes, boxes, size, idx, axis, least) -> float:
    """_near_pairs over the pairs of the sticks idx by the axis walk of the
    module docstring about their axis sticks axis, or by the sweep once the
    walk's rows would outnumber _WALK_ROWS per stick, from the least
    distance least found so far; lo and hi are the corners of each stick's
    box, planes its _axis_sticks data or None and boxes the three together,
    size the largest coordinate magnitude."""
    n = len(idx)
    seen = set()   # (i, k) for each pair walked

    def walked(left):
        """Whether the pairs that hold a stick of S, with left axis sticks
        left, number at most _WALK_ROWS per stick."""
        return n * (n - 1) // 2 - left * (left - 1) // 2 <= _WALK_ROWS * n

    if not walked(len(axis)):
        return _sweep(segs, floor, visit, lo, hi, size, least, idx, seen.__contains__)
    heap = [r for j in idx if planes[j] is None
            for r in _rows(boxes, j, [k for k in idx if k > j or planes[k]])]
    K = _axis_bound(axis, ends)
    if K < math.inf:   # (key, -1, m): the entry of the axis sticks axis[m:] not yet moved
        heap.append((K * axis[0][0], -1, 0))
    heapify(heap)
    pad = _pad(least, floor, size)   # infinite until visit returns a distance
    while heap and heap[0][0] <= pad:
        _, i, k = heappop(heap)
        if i >= 0:
            seen.add((i, k))
            d = visit(i, (k,))
            if d < least:
                least, pad = d, _pad(d, floor, size)
        elif not walked(len(axis) - k - 1):
            return _sweep(segs, floor, visit, lo, hi, size, least, idx, seen.__contains__)
        else:   # move axis[k] to S
            for r in _rows(boxes, axis[k][-1], [f[-1] for f in axis[k + 1:]]):
                heappush(heap, r)
            if k + 1 < len(axis):
                heappush(heap, (K * axis[k + 1][0], -1, k + 1))
    return least


def _rows(boxes, j, ks):
    """(key, i, k), i < k, for the pair of stick j and each stick k of ks:
    the box gap, raised to the pairwise half-plane bound when both are axis
    sticks; boxes holds each stick's box corners and _axis_sticks data, or
    None."""
    (xl, yl, zl), (xh, yh, zh), s = boxes[j]
    return [(max(l[0] - xh, l[1] - yh, l[2] - zh, xl - h[0], yl - h[1], zl - h[2],
                 _plane_gap(s, t) if s and t else -math.inf),
             k if k < j else j, j if k < j else k)
            for k, (l, h, t) in zip(ks, map(boxes.__getitem__, ks))]


def _axis_sticks(segs, ends, idx, line):
    """(cos theta, azimuth, axis end height, key there, index) of each axis
    stick among the sticks idx of segs, about the vertical line through
    line = (x, y), steepest first; ends holds the keys of each stick's
    ends."""
    axis = []
    for i in idx:
        plane = _half_plane(*segs[i], line)
        if plane:
            axis.append((*plane[:3], ends[i][plane[3]], i))
    axis.sort(key=itemgetter(0, 4))
    return axis


def _half_plane(a, b, line):
    """(cos theta, azimuth, axis end height, axis end) of the stick ab when
    exactly one end lies on the vertical line through line = (x, y),
    exactly: the Shape of the axis walk in the module docstring, the axis
    end given as 0 for a and 1 for b; None for any other stick."""
    x, y = line
    at_a = a[0] == x and a[1] == y
    if at_a == (b[0] == x and b[1] == y):
        return None
    p, q = (a, b) if at_a else (b, a)
    dx, dy = q[0] - x, q[1] - y
    return math.hypot(dx, dy) / math.hypot(dx, dy, q[2] - p[2]), math.atan2(dy, dx), p[2], int(not at_a)


def _plane_gap(s, t) -> float:
    """sin(g/2) min(cos theta) |dz|, the pairwise half-plane bound of the
    module docstring between two sticks whose data s and t begin as
    _half_plane's; sin(|psi - psi'|/2) is sin(g/2) for the gap g <= pi on
    the circle."""
    return math.sin(abs(s[1] - t[1]) / 2) * min(s[0], t[0]) * abs(s[2] - t[2])


def _axis_bound(axis, ends) -> float:
    """K of the module docstring for the axis sticks axis, each as (cos
    theta, azimuth, axis end height, key there, index); ends holds the keys
    of every stick's ends.  0 when two at one azimuth share no key, inf when
    there is one azimuth or one axis key.  The sticks are sorted once by
    azimuth and once by height."""
    by_psi = sorted(axis, key=itemgetter(1))
    for _, group in groupby(by_psi, key=itemgetter(1)):
        if any({*ends[f[-1]]}.isdisjoint(ends[g[-1]]) for f, g in combinations(group, 2)):
            return 0.0
    psi = [f[1] for f in by_psi]
    gaps = [b - a for a, b in zip(psi, psi[1:]) if b != a]
    by_z = sorted(axis, key=itemgetter(2))
    dz = min((g[2] - f[2] for f, g in zip(by_z, by_z[1:]) if f[3] != g[3]), default=math.inf)
    if not gaps or dz == math.inf:
        return math.inf
    return math.sin(min(2 * math.pi - (psi[-1] - psi[0]), *gaps) / 2) * dz


def _sweep(segs, floor, visit, lo, hi, size, least, idx, skip) -> float:
    """_near_pairs by the sweep of the module docstring, over the pairs
    (i, k) of the sticks idx for which skip((i, k)) is false, from the
    least distance least that visit returned."""
    pad = _pad(least, floor, size)
    active: list[int] = []
    for j in sorted(idx, key=lambda i: lo[i][2]):
        (xl, yl, zl), (xh, yh, _) = lo[j], hi[j]
        active = [o for o in active if hi[o][2] >= zl - pad]
        xl, xh, yl, yh = xl - pad, xh + pad, yl - pad, yh + pad
        for o in [o for o in active if lo[o][0] <= xh and xl <= hi[o][0] and lo[o][1] <= yh and yl <= hi[o][1]]:
            i, k = (o, j) if o < j else (j, o)
            if not skip((i, k)):
                d = visit(i, (k,))
                if d < least:
                    least, pad = d, _pad(d, floor, size)
        active.append(j)
    return least


def _unit(v):
    """v / |v|, or 0.0 when |v| is zero or overflows."""
    n = _norm(v)
    return (v[0] / n, v[1] / n, v[2] / n) if 0.0 < n < math.inf else 0.0


def _cone(F, pa, pb):
    """(r, c, h) of the segment pa pb seen from F: r is its distance from
    F, and every direction from F to it lies within h of the unit c; h = pi,
    the whole sphere, when it reaches F or a + b is too short to trust (see
    the module docstring)."""
    va, vb = _vsub(pa, F), _vsub(pb, F)
    d = _vsub(vb, va)
    dd = _dot(d, d)
    t = min(max(-_dot(d, va) / dd, 0.0), 1.0) if dd > 0.0 else 0.0
    r = _norm((va[0] + t * d[0], va[1] + t * d[1], va[2] + t * d[2]))
    a, b = _unit(va), _unit(vb)
    if not (a and b) or _norm(_cross(a, b)) < 1e-3 and _dot(a, b) < 0.0:
        return r, (1.0, 0.0, 0.0), math.pi    # reaches F, or an untrusted plane near a pole
    c = _unit((a[0] + b[0], a[1] + b[1], a[2] + b[2]))
    return r, c, math.atan2(_norm(_cross(a, b)), _dot(a, b)) / 2


def _ray_bound(d, r, c, h):
    """r sin(min(max(angle(d, c) - h, 0), pi/2)), the cone bound between a
    stick whose directions from a center are the unit d (any direction when
    d = 0) and a stick at distance r from it whose directions lie within h
    of the unit c."""
    g = math.atan2(_norm(_cross(d, c)), _dot(d, c)) - h
    return r * math.sin(min(g, math.pi / 2)) if g > 0.0 else 0.0


def _fan_pairs(segs, ends, floor, visit, size, idx, least):
    """_near_pairs by the fan cull of the module docstring over the sticks
    idx, from the least distance least found so far; size is the largest
    coordinate magnitude."""
    t = _pad(least, floor, size)
    u = 2.0 ** -53

    def see(i, k):
        nonlocal least, t
        a, b = ends[i]
        if a not in ends[k] and b not in ends[k]:   # visit measures no pair that shares a key
            d = visit(min(i, k), (max(i, k),))
            if d < least:
                least, t = d, _pad(d, floor, size)

    rest = list(idx)
    while True:
        count = Counter(p for i in rest for p in {*segs[i]})
        F, most = max(count.items(), key=lambda e: e[1], default=(None, 0))
        if most < 3:
            break
        groups = {}   # the rays of F by their key at F: (index, unit)
        for i in rest:
            a, b = segs[i]
            if F in (a, b):
                d = _unit(_vsub(b if a == F else a, F)) or (0.0, 0.0, 0.0)
                groups.setdefault(ends[i][a != F], []).append((i, d))
        rest = [i for i in rest if F not in segs[i]]
        keyed = list(groups.values())
        for x, group in enumerate(keyed):
            for other in keyed[x + 1:]:   # rays with different keys at F
                for i, _ in group:
                    for k, _ in other:
                        see(i, k)
        if not rest:
            continue
        # the frame: Z along the rays' summed direction, X and Y across it
        rays = [ray for group in keyed for ray in group]
        Z = _unit(tuple(map(sum, zip(*(d for _, d in rays))))) or (0.0, 0.0, 1.0)
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
            r, c, h = _cone(F, *segs[k])
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


def _fold_pairs(segs, floor, visit) -> None:
    """Call visit(i, (k,)), i < k, for every pair of segs with an end at
    one point whose directions from it could fold back (the fold pass of
    the module docstring); floor is clearance_min."""
    rays = {}   # each end point: (unit from it, half-width, index) of its sticks
    for i, (a, b) in enumerate(segs):
        v = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        d, w = ((v[0] / n, v[1] / n, v[2] / n), math.sqrt(_FOLD) + 2 * floor / n) if n else (v, math.inf)
        rays.setdefault(a, []).append((d, w, i))
        if b != a:   # the unit from b is the exact negation of the unit from a
            rays.setdefault(b, []).append(((-d[0], -d[1], -d[2]), w, i))
    for group in rays.values():
        if len(group) == 2:   # the sweep's one comparison, made directly
            (d, w, i), (e, v, k) = group
            if _norm(_vsub(d, e)) <= w + v:
                visit(min(i, k), (max(i, k),))
            continue
        active = []   # the boxes whose units could still lie within reach
        for box in sorted((d[0] - w, i, w, d) for d, w, i in group):
            lo, i, w, d = box
            active = [o for o in active if o[3][0] + o[2] >= lo]
            for _, k, ow, od in active:
                if _norm(_vsub(od, d)) <= ow + w:
                    visit(min(i, k), (max(i, k),))
            active.append(box)
