"""Equal-length stick embeddings via open-book tents and top-point reduction.

The binding axis becomes the vertical coordinate axis with point i at height
i; page p is the half-plane at angle 2*pi*p/n.  Each arc stretches into a
tent of two sticks of length M meeting at an apex inside its own page, so
tents in distinct pages touch only along the axis at shared binding points.

The reduction removes the stick count the top binding point wastes: delete
every stick d_i that meets the top point, rotate the first partner stick
e_1 inside its page until its free end hugs the axis high above everything,
rotate each remaining partner e_i until its free end sits at distance
exactly M from e_1's free end (bisection), and glue a joining stick f_i
between those ends.  That trades deg sticks for deg - 1 and keeps every
stick at length M, giving 2n - 1 sticks per component.

Rotations are certified by sampled sweeps (engineering surrogate for the
continuous isotopy): the moving stick, and the stretching joiner with it,
must clear every parked stick at each sampled angle.  A pair's clearance
there is trimmed: when an end of the mover pq lies within snap of an end
of the parked stick rs (the first such pair of (p, r), (p, s), (q, r),
(q, s)), TRIM_FRACTION of each stick is cut away at that end (_trimmed)
before the segment distance is taken.  Any certificate or
bracketing failure makes build_parts double M and retry, at most MAX_RETRIES
times.  That cures a bracket M is too short for, but not a pinch: e_1's hug
passes the next axis point about AXIS_HUG_FRACTION * sin(page gap) away at
every M (the axis spacing is 1), while the certificate floor
CERT_CLEARANCE_REL * M doubles with M.  So the hug fraction must clear that
floor at the first M.

The sweep does not test every parked stick at every sample; it skips the
samples a bound proves clear.  Each mover has a fixed end F: the pivot for
the swinging stick, the hub for the stretching joiner.  For x on a ray from
F and y at angle g from that ray, |x - y| >= max(|x - F|, |y - F|) sin g
when g <= pi/2, and |x - y| >= max(|x - F|, |y - F|) beyond.  Take
R = max(rho, r), where rho is where the mover starts after the clearance's
trim (TRIM_FRACTION of its least length when F is a junction the parked
stick shares, else 0) and r is the distance from F to the parked stick,
trimmed at F in the shared case (any other trim only shortens it).  Let G
be the least angle at F between the mover at sample s and the parked stick,
and T the mover's turning summed over the samples from s to s'.  Then the
pair is at least R sin(min(G - T, pi/2)) apart at every later sample s'.
The verdict needs only whether every clearance clears the floor,
CERT_CLEARANCE_REL * M, so the bounds cull against the fixed target
floor + snap (snap absorbs the rounding of the bound).  A pair bounded at
s is due again only at the first sample where that bound could fall to
the target, and at T = 0 the bound covers s itself: a pair due at a sample
is evaluated there only when its bound there does not clear the target.
Every (pair, sample) skipped lies above the target, so the least clearance
evaluated, or the target when that is lower, is at most snap above the
least clearance of every pair at every sample: a lower bound on it up to
the rounding snap absorbs.  It lies at or below the floor exactly when
that least clearance does, and is then that clearance, float for float,
so the verdict and detail are those of testing every pair at every
sample.  When the parked stick's line passes through F without sharing
it, its directions from F collapse to one point, or to two opposite
points when F lies on it; G is then bounded by the triangle inequality,
which gives 0 in the second case, and the pair is evaluated at the next
sample.

A cone bound covers the whole sweep at once, which conservative
advancement (Mirtich 1996; Tang, Kim and Manocha, C2A, 2009) exploits.
Angles between unit vectors obey the triangle inequality.
- The directions from F to a segment that misses F fill the shorter
  great-circle arc from a to b, the directions of its ends, and every point
  of that arc lies within h = ab/2 of its midpoint c = (a + b)/|a + b|.
  When the segment reaches F, or |a + b| is too short to trust (below), the
  cone is the whole sphere, h = pi.
- The swing from an axis pivot: its direction at sample s lies within
  |Theta_s - Theta_mid| of its direction c_m at sample mid, where Theta is
  the summed turning, in closed form (see Rounding).  mid is the first
  sample whose turning reaches half the sweep's total Theta_end, so
  h_m = max(Theta_mid, Theta_end - Theta_mid) covers every sample.
- Any other mover (the joiner, or a swing whose pivot is off the axis):
  the free end runs along an arc of the circle of radius M about the axis
  point at the pivot's height, in the page's vertical plane, at every
  angle of the sweep.  Cut the arc at the nine samples 0, steps/8, ...,
  steps (integer division), and let D be the largest angle a cut spans,
  taken no larger than 2 pi.  Every point x of a cut arc lies within
  2M sin^2(D/4) of the cut's chord: within that of the chord's line, with
  its foot on the chord, or, past the chord's ends when D > pi, nearer an
  end.  Let sigma be that plus snap, which covers the rounding of the
  computed ends, and l the least distance from F to the chords, less sigma.
  When l > sigma no chord reaches F: the directions from F to a chord fill
  the shorter great-circle arc between the directions u_j, u_j+1 of its
  ends, |x - F| >= l, and x's direction lies within asin(sigma / l) of
  that of its nearest point y on a chord, since |y - F| > l.  Let c_m be
  u_4, the middle cut, and H the largest angle from it to a u_j.  When
  H < pi/2 the cap of radius H about c_m is convex, so it holds every
  chord's arc, and h_m = H + asin(sigma / l) covers the mover at every
  angle of the sweep; rho is TRIM_FRACTION l.  Otherwise the hull
  degenerates: h_m = pi, the whole sphere, and rho = TRIM_FRACTION
  max(l, 0).
So at every sample the least angle at F between the pair is at least
G = angle(c_m, c) - h_m - h, and the pair is at least
W = R sin(min(max(G, 0), pi/2)) apart.  A sweep draws its pairs in
ascending order of W, and evaluates sample 0 in ascending order of
B = R sin(min(G0, pi/2)), G0 the least angle at sample 0.  It computes a
pair's B only when it draws the pair, and draws the next pair whenever its
W is no larger than the least B waiting, so every pair not drawn has W
above the least B waiting.  Sample 0 stops at the first B, or the first W,
above the target: the pairs waiting then lie above it at sample 0, and the
pairs not drawn lie above it at every sample; they are never evaluated.
The drawn pairs are scheduled from sample 0 by the rule above, and B is
computed for few pairs.  Only G0 and that schedule read the per-sample
rays, each mover's unit direction at every sample and its summed turning
(in closed form for the swing from an axis pivot, else summed from the
angles between the units of the sampled ends), so a mover's rays are
built when its first pair is drawn, and a mover with no pair drawn builds
none.  A sampled end is computed where a pair is evaluated there.

Rounding.  Write u = 2^-53.  Every point the certificate sees lies within
5M of every other: the tents stand within M of the axis points 0 .. m - 1,
m - 1 < 2M, every swept stick has its pivot on the axis and length M, and
every joiner hangs from the first sweep's end.  So R < 5M, and an angle
off by d moves a bound by under 5Md.  Each computed unit vector lies within
4u of the direction of the computed points it stands for, and angles come
from atan2 (_angle), which is within 10u of the angle between its computed
arguments even near 0 and pi.  So h is off by under 10u, c = unit(a + b)
by under 16u/|a + b|, and Theta by under (18 + Theta_end)u per sample.
The swinging stick's rays come in closed form when its pivot lies exactly
on the axis: at sample s the unit is (cos phi_s d, sin phi_s), d the page
direction, its summed turning is |phi_s - phi_start| and rho is
TRIM_FRACTION M.  The computed free end then lies within 6uM of pivot +
M (cos phi_s d, sin phi_s) in each coordinate (x and y subtract an exact
0, z a height below 2M), so the closed-form unit lies within 16u of the
direction of the computed points; the stick turns in one plane with phi
monotone, so |phi_s - phi_start| lies within 40u of the turning between
the directions it stands for, with no error summed over samples; and
f M lies within 8u f M of f times the least computed length.  Each
stays inside the allowances above.
The cone is used only when _horizon trusts the arc's plane (|a x b| >=
1e-3, so ab <= pi - 1e-3) or a . b >= 0 (ab <= pi/2); either way
|a + b| = 2 cos(ab/2) is about 1e-3 or more, and c is off by under 2e-12.
For a sweep of under 10^4 samples turning under 100 rad (a builder's
sweep has a few hundred samples and turns under pi), G is off by under
1.4e-10 and W by under 7e-10 M, which snap = 1e-9 M absorbs, as it absorbs
the rounding of the per-sample bound.  In the nine-point hull, the snap in
sigma exceeds the distance of a computed end from the arc (6uM) and the
rounding of the chord distances (40uC), so the hull holds for the computed
ends with l as computed, and H and asin(sigma / l) are off by under 20u.

Pre-bounds.  W needs the parked stick's horizon (_horizon: a segment
distance, its arc and its cone), which is most of a pair's cost.  So a pair
whose slot must be computed first gets a pre-bound P from coordinates
alone, a lower bound on its trimmed clearance at every sample.  When P > 0
the pair enters the pool at P; only when it is drawn does it get its
horizon, slot and W, and it then re-enters at max(P, W).  Both are bounds
over the whole sweep, so the draw rule above holds as stated, and a pair
never drawn never calls _horizon.  A pair whose slot is kept from an
earlier move enters at W as before.  P is the larger of two bounds.
- Heights.  At every sample the mover with fixed end F is the segment from
  F to the sampled free end, at height z + M sin phi for the pivot height
  z.  sin is monotone on [-pi/2, pi/2], so when |phi_start| and |phi_end|
  are at most pi/2 every free end lies between the heights of the sweep's
  two ends, and otherwise within z +- M; the mover lies within that range
  widened to F's height, and the parked stick within the heights of its
  ends.  Two sets lie at least the gap between their height ranges apart.
- Half-planes, for the swinging stick when its pivot lies exactly on the
  axis and |phi_start|, |phi_end| <= pi/2.  At every sample the stick then
  runs from the pivot into its page's half-plane, at azimuth psi =
  atan2 of the page direction, at an angle theta from the horizontal with
  cos theta = cos phi.  cos rises and then falls on [-pi/2, pi/2], so
  cos phi >= c = min(cos phi_start, cos phi_end) over the sweep.  Against a
  parked stick with exactly one end on the axis (_half_plane), the
  pairwise half-plane bound of _verifier_float's axis walk (_plane_gap)
  gives sin(g/2) min(c, cos theta') |z - z'| for the axis-end heights z, z'.
Trimming only shortens a stick, so both bound the trimmed clearance.
Rounding: the height gap is off by under 5uM, and the trimmed clearance is
at least the true distance of the sticks less 40uC (C < 5M) as
_verifier_float's sweep shows for seg_distance, the trim adding under 4uC.
Every sample's phi lies within a few ulps of [phi_start, phi_end], and its
computed end within a few u of the page's half-plane, at cos theta >=
c - 2e-15; where cos theta is that close to 0, an end may stray an ulp
across the axis, but then c < 2e-15 and the bound is under 1e-14 M.  So
P is off by under 1e-13 M, which snap absorbs, and a pair that is never
drawn lies above the target at every sample.

Fans.  Most parked sticks at a fixed end F hang from it into a vertical
half-plane about F's vertical line, as in an open book (Cromwell,
"Embedding knots and links in an open book I", 1995): the tent sticks at
a binding point, and e_1 and the joiners at the hub.  So each fixed end
keeps a fan (_fan): its members are the sticks with an end exactly at F
that lie in such a half-plane (_half_plane about F's line), sorted by
azimuth psi; every other stick is in the rest.  The fan lives as long as
the slots below and is brought up to date by comparing state entries by
identity, so only a moved or new stick is reclassified.  A member shares
F, so the clearance trims the mover at F: its trimmed part runs from
F + f (E - F) to the free end E, f = TRIM_FRACTION.  Two movers get a
group bound (rho_h, I):
- the swing from an axis pivot with |phi_start|, |phi_end| <= pi/2: its
  trimmed part lies at horizontal distance t M cos phi, t in [f, 1], from
  F's line, at least rho_h = f M min(cos phi_start, cos phi_end), at the
  page's azimuth, the one point of I;
- its joiner, from the hub F: E's xy runs along the segment S from
  M c d to M c' d, d the page direction, c the least and c' the largest
  cos phi of the sweep (1 when it passes phi = 0), so the trimmed joiner
  lies at horizontal distance t |E_xy - F_xy| >= rho_h = f times the
  distance in the plane from F's line to S, at azimuths in I, those of S
  seen from F's line, written as centre +- w.
A member lies in its half-plane, which meets the horizontal plane in a ray
from F's line at azimuth psi, and a point at horizontal distance r from
that line, at an azimuth g from psi, lies at least r sin(min(g, pi/2))
from the ray.  So a member at a gap g on the circle from I lies at least
rho_h sin(min(g, pi/2)) from the trimmed mover at every angle of the
sweep, and the trim only shortens the member.  _walk goes outward from I
both ways, each way up to the first member whose bound clears
floor + snap.  The bound rises with g, and each member beyond lies past
both stopping members, so its gap is at least the smaller of theirs
measured on their own side: it clears too, and gets no slot, no horizon,
no pre-bound and no pool entry.  The walked members and the rest take the
per-pair path above; a mover without a group bound walks every member.
Rounding: azimuths come from atan2 within 3u, centre, w and the gaps
within a few u of 2 pi, rho_h within 10u of itself, and S within 6uM of
the sampled free ends, so the group bound is off by under 1e-13 M, which
snap absorbs.

Of R and the cone, only rho depends on the mover.  r, the arc of
directions, the cone and the parked stick trimmed at F depend on F and the
stick alone, so one certificate keeps them in one slot list per fixed end
F, in state order, beside F's fan; a slot is refreshed only when its state
entry is a different object, and then only once its pair has no positive
pre-bound or is drawn.  A stick that moves enters the state as a new entry, so
no slot outlives its stick; a parked stick keeps its slot from move to
move, and on theta-fan every move shares its pivot and every joiner its
hub.  Fixed ends that compare equal give the same values up to the sign of
a zero, which no comparison in the sweep sees.  Clearances go through
_slot_clearance, which reads the slot's trimmed stick, trims the mover at
F only when the slot shares F, and equals the trimmed clearance float for
float.

tolerance_report measures its frame by the verifier's clearance pass,
_verifier_float._clearance, with floor 0: the pairs that the verifier's
cull hands over, each measured with seg_distance.  That module proves its
minimum that of every pair, float for float.  The builder measures with
the verifier's float code alone: the kernel seg_distance, the vector
helpers and the half-plane bound come from _verifier_float, and _cone's
point distance is the kernel's query with one end of no length.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from dataclasses import dataclass, field, replace
from operator import sub

from ._verifier_float import _clearance, _cross, _dot, _half_plane, _norm, _plane_gap, _unit, _vsub, seg_distance
from .arc_presentation import ValidatedPresentation, equal_length_parts

V3 = tuple[float, float, float]

SNAP_REL = 1e-9

DEFAULT_M_FACTOR = 4.0
AXIS_HUG_FRACTION = 1e-2      # e_1 free end ends up this * M from the axis
BISECT_REL_TOL = 1e-12
SWEEP_STEP_RAD = 1e-2
CERT_CLEARANCE_REL = 1e-6
TRIM_FRACTION = 0.01          # clearances ignore this much of a stick at a shared junction
MAX_RETRIES = 8


class EquilateralError(ValueError):
    """Base class for equal-length construction failures."""


class MTooSmall(EquilateralError):
    """M cannot span the axis: apexes would degenerate onto the axis."""


class NoRotationSolution(EquilateralError):
    """Bisection bracket failed (M is too small relative to the axis spread).
    A rotation gap that overflows floats raises a plain EquilateralError,
    which build_parts does not retry: a larger M only overflows sooner."""


class CertificateFailure(EquilateralError):
    """A sampled sweep came too close to a parked stick."""


@dataclass
class EStick:
    a: V3
    b: V3
    component: int
    tag: str   # "arc<p>.lower" | "arc<p>.upper" | "join<p>"
    ja: str    # junction label of endpoint a
    jb: str    # junction label of endpoint b


@dataclass
class SweepMove:
    """One recorded rotation: stick pivoting in its page, plus the joiner
    stretching toward the hub while it moves (hub is None for the first)."""

    tag: str
    pivot: V3
    page_angle: float
    phi_start: float
    phi_end: float
    hub: V3 | None


@dataclass
class ComponentInfo:
    index: int
    n_arcs: int
    n_points: int
    reduced: bool
    deleted_tags: tuple[str, ...] = ()
    moves: tuple[SweepMove, ...] = ()
    offset: V3 = (0.0, 0.0, 0.0)


@dataclass
class CertificateReport:
    """Sweep verdict.  `moves` holds (tag, bound) per sweep replayed: the
    least clearance the sweep evaluated, or floor + snap when that is
    lower, so floor + snap on a sweep every bound clears, and the sampled
    minimum itself on a sweep that pinches (see the module docstring).
    `tolerance` is the final-clearance pass the certificate ran, with the
    exact least clearance, handed on to the builder and not written into
    documents."""

    passed: bool
    moves: list[tuple[str, float]] = field(default_factory=list)
    detail: str = ""
    tolerance: ToleranceReport | None = None


@dataclass
class ToleranceReport:
    max_length_dev_rel: float
    min_clearance: float
    min_clearance_rel: float


@dataclass
class EquilateralEmbedding:
    sticks: list[EStick]
    M: float
    components: list[ComponentInfo]
    tolerance: ToleranceReport | None = None
    certificate: CertificateReport | None = None


def _page_angle(page: int, n_arcs: int) -> float:
    return 2.0 * math.pi * page / n_arcs


def _page_dir(angle: float) -> tuple[float, float]:
    """Unit direction in the xy plane of the page at this angle."""
    return (math.cos(angle), math.sin(angle))


def _dist(a: V3, b: V3) -> float:
    return _norm(_vsub(a, b))


def _angle(u: V3, v: V3) -> float:
    """Angle between unit vectors, accurate near 0 and pi."""
    return math.atan2(_norm(_cross(u, v)), _dot(u, v))


def _trimmed(a: V3, b: V3, cut: V3):
    """Segment ab with TRIM_FRACTION of it cut away at the endpoint near cut."""
    f = TRIM_FRACTION
    if _dist(a, cut) <= _dist(b, cut):
        return ((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]), a[2] + f * (b[2] - a[2])), b)
    return (a, (b[0] + f * (a[0] - b[0]), b[1] + f * (a[1] - b[1]), b[2] + f * (a[2] - b[2])))


# ---------------------------------------------------------------------------
# tents


def build_tents(vp: ValidatedPresentation, M: float, component: int = 0) -> EquilateralEmbedding:
    """Two sticks of length M per arc, apex in the arc's own page."""
    n, m = vp.n, vp.m
    if not M > (m - 1) / 2.0:
        raise MTooSmall(f"M={M} cannot span {m} axis points; need M > {(m - 1) / 2}")
    sticks: list[EStick] = []
    for arc in vp.arcs:
        lo, hi = sorted(arc.ends)
        half = (hi - lo) / 2.0
        d = math.sqrt(M * M - half * half)
        ux, uy = _page_dir(_page_angle(arc.page, n))
        apex = (d * ux, d * uy, (lo + hi) / 2.0)
        plo: V3 = (0.0, 0.0, float(lo))
        phi: V3 = (0.0, 0.0, float(hi))
        sticks.append(EStick(plo, apex, component, f"arc{arc.page}.lower", f"bp{lo}", f"apex{arc.page}"))
        sticks.append(EStick(apex, phi, component, f"arc{arc.page}.upper", f"apex{arc.page}", f"bp{hi}"))
    info = ComponentInfo(index=component, n_arcs=n, n_points=m, reduced=False)
    return EquilateralEmbedding(sticks=sticks, M=float(M), components=[info])


# ---------------------------------------------------------------------------
# top point reduction


def _page(tag: str) -> int:
    """Page p of a tent stick tagged "arc<p>.lower" or "arc<p>.upper"."""
    return int(tag[3:].split(".")[0])


def _free_end(pivot: V3, page_dir, M: float, phi: float) -> V3:
    r = M * math.cos(phi)
    return (r * page_dir[0], r * page_dir[1], pivot[2] + M * math.sin(phi))


def reduce_top(emb: EquilateralEmbedding) -> EquilateralEmbedding:
    """Delete the top point's sticks, rotate partners, glue joiners."""
    if len(emb.components) != 1 or emb.components[0].reduced:
        raise EquilateralError("reduce_top needs exactly one unreduced component")
    comp = emb.components[0]
    M = emb.M
    top = comp.n_points - 1
    top_label = f"bp{top}"
    doomed = sorted((s for s in emb.sticks if top_label in (s.ja, s.jb)),
                    key=lambda s: _page(s.tag))
    if len(doomed) < 2:
        raise EquilateralError("top binding point has fewer than 2 sticks; nothing to trade")

    sticks = [s for s in emb.sticks if top_label not in (s.ja, s.jb)]   # no EStick is changed in place
    at = {s.tag: i for i, s in enumerate(sticks)}   # one component, so tags are unique
    moves: list[SweepMove] = []

    hub = None
    for d in doomed:
        # the partner stick ei: same arc, other role; it moves only here
        page = _page(d.tag)
        ei = sticks[at[f"arc{page}.lower" if d.tag.endswith(".upper") else f"arc{page}.upper"]]
        # pivot is the axis endpoint; phi measured in its page from horizontal
        pivot, free = (ei.a, ei.b) if ei.ja.startswith("bp") else (ei.b, ei.a)
        phi_start = math.atan2(free[2] - pivot[2], math.hypot(free[0], free[1]))
        angle = _page_angle(page, comp.n_arcs)
        diri = _page_dir(angle)
        if hub is None:
            # the first partner rotates up until its free end hugs the axis
            phi_end = math.acos(AXIS_HUG_FRACTION)
            if phi_end <= phi_start:
                raise NoRotationSolution(f"arc {page} stick already steeper than the axis hug angle")
        else:
            # the others rotate until their free end is at distance M from the hub
            def gap(phi: float) -> float:
                g = _dist(_free_end(pivot, diri, M, phi), hub) - M
                if not math.isfinite(g):
                    raise EquilateralError(f"arc {page}: the rotation gap overflows floats at M={M}")
                return g

            g_lo, g_hi = gap(phi_start), gap(math.pi / 2.0)
            if not (g_lo > 0.0 > g_hi):
                raise NoRotationSolution(
                    f"arc {page}: no rotation bracket (gap {g_lo:.3e} .. {g_hi:.3e}); M too small")
            lo, hi = phi_start, math.pi / 2.0
            # stop at the tolerance, or when no float lies between lo and hi
            while abs(g := gap(mid := (lo + hi) / 2.0)) > BISECT_REL_TOL * M and lo < mid < hi:
                if g > 0.0:
                    lo = mid
                else:
                    hi = mid
            phi_end = (lo + hi) / 2.0
        free = _free_end(pivot, diri, M, phi_end)
        moves.append(SweepMove(ei.tag, pivot, angle, phi_start, phi_end, hub))
        if hub is None:
            hub, label = free, "hub"
        else:
            label = f"end{page}"
            sticks.append(EStick(hub, free, ei.component, f"join{page}", "hub", label))
        sticks[at[ei.tag]] = EStick(pivot, free, ei.component, ei.tag, _axis_label(ei), label)

    info = replace(comp, reduced=True, deleted_tags=tuple(d.tag for d in doomed),
                   moves=tuple(moves))
    return EquilateralEmbedding(sticks=sticks, M=M, components=[info])


def _axis_label(stick: EStick) -> str:
    return stick.ja if stick.ja.startswith("bp") else stick.jb


# ---------------------------------------------------------------------------
# certification


def tolerance_report(emb: EquilateralEmbedding) -> ToleranceReport:
    M = emb.M
    segs = [(s.a, s.b) for s in emb.sticks]
    max_dev = max([0.0, *(abs(math.sqrt(x * x + y * y + z * z) - M) / M   # _dist(a, b)
                          for x, y, z in (map(sub, a, b) for a, b in segs))])
    min_clear, _ = _clearance(segs, [((s.component, s.ja), (s.component, s.jb)) for s in emb.sticks], 0.0)
    if min_clear is math.inf:
        min_clear = M
    return ToleranceReport(max_dev, min_clear, min_clear / M)


def _same_seg(u, v, snap: float) -> bool:
    (ua, ub), (va, vb) = u, v
    return (max(_dist(ua, va), _dist(ub, vb)) <= snap
            or max(_dist(ua, vb), _dist(ub, va)) <= snap)


def _horizon(F: V3, pa: V3, pb: V3, snap: float):
    """(r, shared, arc, c, h, seg) for a mover with fixed end F against the
    parked stick pa pb; none of it depends on the mover.  shared says
    whether F is an end of the stick; seg is then the stick trimmed there as
    the trimmed clearance trims it, else the stick itself (any trim the
    clearance makes then only shortens it).  r is the distance from F to seg.  arc holds the
    directions from F to seg: (a, b, unit normal of their plane or None when
    that plane is too thin to trust, angle from a to b), or None when seg
    reaches F.  Every direction from F to seg lies within h of the unit c;
    h = pi, the whole sphere, when seg reaches F or a + b is too short to
    trust (see the module docstring)."""
    y = next((y for y in (pa, pb) if _dist(F, y) <= snap), None)
    shared = y is not None
    seg = _trimmed(pa, pb, y) if shared else (pa, pb)   # _trimmed's cut at F
    r, arc, c, h = _cone(F, *seg)
    return r, shared, arc, c, h, seg


def _cone(F: V3, pa: V3, pb: V3):
    """(r, arc, c, h) of the segment pa pb seen from F, as _horizon
    describes them; r comes from the segment distance kernel."""
    r = seg_distance(F, F, pa, pb)
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


def _least_angle(u: V3, arc) -> float:
    """A lower bound on the angle between the unit direction u and the
    directions of the arc; exact when the arc's plane is trusted."""
    if arc is None:
        return 0.0
    a, b, n, ab = arc
    if n is None:
        # every direction of the arc lies within ab of a and of b
        return max(_angle(u, a), _angle(u, b)) - ab
    if _dot(_cross(a, u), n) >= 0.0 and _dot(_cross(u, b), n) >= 0.0:
        return math.asin(min(1.0, abs(_dot(u, n))))   # u projects into the arc
    return min(_angle(u, a), _angle(u, b))


def _slot_clearance(F: V3, end: V3, slot, snap: float) -> float:
    """The trimmed clearance of the mover F end against the parked stick
    pa pb of slot, float for float (see the module docstring): the slot holds the stick already trimmed when F is its
    end, and the mover F end is then trimmed at F as _trimmed cuts it."""
    _, _, shared, _, _, _, (pa, pb) = slot
    if shared:
        f = TRIM_FRACTION
        start = (F[0] + f * (end[0] - F[0]), F[1] + f * (end[1] - F[1]), F[2] + f * (end[2] - F[2]))
        return seg_distance(start, end, pa, pb)
    for y in (pa, pb):
        if _dist(end, y) <= snap:
            return seg_distance(*_trimmed(F, end, end), *_trimmed(pa, pb, y))
    return seg_distance(F, end, pa, pb)


def _fan(F: V3, entries: list, horizons: dict):
    """(slots, members, rest) of the fixed end F, brought up to date with
    the state entries in state order: slots as _sweep_bound keeps them, the
    members (azimuth, position), sorted, of the sticks with an end at F
    that lie in a vertical half-plane about F's vertical line, and the
    positions of every other stick, as the keys of rest.  Only a position
    whose entry is a different object from the last move is reclassified."""
    slots, seen, psis, members, rest = horizons.setdefault(F, ([], [], {}, [], {}))
    grow = len(entries) - len(slots)
    slots += [(None,)] * grow
    seen += [None] * grow
    for i in [i for i, (e, s) in enumerate(zip(entries, seen)) if e is not s]:
        entry = seen[i] = entries[i]
        if i in psis:
            del members[bisect_left(members, (psis.pop(i), i))]
        rest.pop(i, None)
        if F in entry and (plane := _half_plane(*entry, F[:2])):
            insort(members, (plane[1], i))
            psis[i] = plane[1]
        else:
            rest[i] = None
    return slots, members, rest


def _walk(members, group, target: float) -> list:
    """The positions of the members, (azimuth, position) sorted, that the
    group bound rho sin(min(g, pi/2)) does not clear target, g the gap on
    the circle from the mover's azimuths, centre +- w, for group = (rho,
    centre, w): walked outward from the centre both ways, each up to the
    first member it clears (see the module docstring)."""
    rho, centre, w = group
    tau, n, walked = 2 * math.pi, len(members), []
    j = bisect_left(members, (math.remainder(centre, tau),))
    for step in (1, -1):
        i = j if step > 0 else j - 1
        while len(walked) < n:
            psi, pos = members[i % n]
            x = (psi - centre) % tau
            if rho * math.sin(min(max(min(x, tau - x) - w, 0.0), math.pi / 2)) > target:
                break
            walked.append(pos)
            i += step
    return walked


def _sweep_bound(move: SweepMove, state: dict[str, tuple[V3, V3]], M: float,
                 snap: float, floor: float, horizons: dict) -> float:
    """A lower bound on the least trimmed clearance between the moving
    sticks and the parked ones over the sampled sweep, up to snap: the
    least clearance evaluated, or floor + snap when that is lower.  A
    parked stick at the mover's fixed end that the group bound clears is
    never looked at; any other (mover, parked) pair is dropped for the whole
    sweep when its cone bound clears floor + snap, else it is evaluated at
    sample 0 only when its bound there could reach floor + snap, and again
    only at the first sample where its horizon bound could fall that far
    (see the module docstring); a pair that needs a new slot is first led
    by its pre-bound, and gets its horizon only when drawn.  So the bound
    lies at or below the floor exactly when the least clearance of every
    pair at every sample does, and is then that clearance.
    horizons holds per fixed end the slots, (state entry, *_horizon) in
    state order, and its fan (_fan), shared by the sweeps of one
    certificate."""
    diri = _page_dir(move.page_angle)
    steps = max(2, int(math.ceil(abs(move.phi_end - move.phi_start) / SWEEP_STEP_RAD)) + 1)
    phis = [move.phi_start + (move.phi_end - move.phi_start) * step / steps for step in range(steps + 1)]
    start = _free_end(move.pivot, diri, M, phis[0])
    fixed = [move.pivot] if move.hub is None else [move.pivot, move.hub]
    f, half = TRIM_FRACTION, math.pi / 2
    target = floor + snap
    on_axis = move.pivot[0] == 0.0 == move.pivot[1]
    low, high = move.pivot[2] - M, move.pivot[2] + M
    plane = None   # the swinging stick as a half-plane stick, at every angle
    groups = [None, None]   # per mover: (rho_h, centre, w) of the group bound
    if max(abs(move.phi_start), abs(move.phi_end)) <= half:
        low, high = sorted(move.pivot[2] + M * math.sin(phi) for phi in (phis[0], phis[-1]))
        if on_axis:
            cos = [math.cos(move.phi_start), math.cos(move.phi_end)]
            plane = (min(cos), math.atan2(diri[1], diri[0]), move.pivot[2])
            groups[0] = (f * M * plane[0], plane[1], 0.0)
            if move.hub:   # the free end's xy runs along S, seen from the hub's line
                cos += [1.0] if move.phi_start * move.phi_end <= 0.0 else []
                S = [(M * r * diri[0] - move.hub[0], M * r * diri[1] - move.hub[1], 0.0) for r in (plane[0], max(cos))]
                a, b = (math.atan2(y, x) for x, y, _ in S)
                d = math.remainder(b - a, 2 * math.pi)
                groups[1] = (f * seg_distance(*[(0.0, 0.0, 0.0)] * 2, *S), a + d / 2, abs(d) / 2)

    def swing(phi):   # the swing's unit direction from an axis pivot, in closed form
        return (math.cos(phi) * diri[0], math.cos(phi) * diri[1], math.sin(phi))

    def ray(k):   # the mover's unit directions and summed turning at every sample
        if k == 0 and on_axis:
            return [swing(phi) for phi in phis], swung
        units = [_unit(_vsub(_free_end(move.pivot, diri, M, phi), fixed[k])) for phi in phis]
        turned = [0.0]
        for u, v in zip(units, units[1:]):
            turned.append(turned[-1] + _angle(u, v))
        return units, turned

    rays = [None, None]    # per mover, built when its first pair is drawn
    cones = []   # per mover: c_m, h_m and rho
    pool = []    # every pair, led by its bound over the whole sweep
    entries, mover = list(state.values()), state.get(move.tag)
    for k, F in enumerate(fixed):
        if k == 0 and on_axis:
            swung = [abs(phi - move.phi_start) for phi in phis]
            mid = bisect_left(swung, swung[-1] / 2)
            cm, hm, rho = swing(phis[mid]), max(swung[mid], swung[-1] - swung[mid]), f * M
        else:   # the hull of nine samples, widened by the cut arcs' sagitta and snap
            cuts = [steps * j // 8 for j in range(9)]
            ends = [_free_end(move.pivot, diri, M, phis[s]) for s in cuts]
            span = max(abs(phis[t] - phis[s]) for s, t in zip(cuts, cuts[1:]))
            sag = 2 * M * math.sin(min(span, 2 * math.pi) / 4) ** 2 + snap
            ell = min(seg_distance(F, F, p, q) for p, q in zip(ends, ends[1:])) - sag
            cm, hm, rho = (0.0, 0.0, 1.0), math.pi, f * max(ell, 0.0)
            if ell > sag:
                units = [_unit(_vsub(p, F)) for p in ends]
                cm, hm = units[4], max(_angle(units[4], u) for u in units)
                hm = hm + math.asin(sag / ell) if hm < half else math.pi
        cones.append((cm, hm, rho))
        (mx, my, mz), hm, rho = cones[-1]   # rho: where the trimmed mover starts
        lo, hi = min(low, F[2]), max(high, F[2])
        slots, members, rest = _fan(F, entries, horizons)
        walked = _walk(members, groups[k], target) if groups[k] else [i for _, i in members]
        for i in (*rest, *walked):
            entry = entries[i]
            if entry is not mover:
                slot = slots[i]
                if slot[0] is not entry:
                    (_, _, za), (_, _, zb) = entry
                    pre = max(min(za, zb) - hi, lo - max(za, zb))
                    if k == 0 and plane and (other := _half_plane(*entry, (0.0, 0.0))):
                        pre = max(pre, _plane_gap(plane, other))
                    if pre > 0.0:   # the horizon waits until the pair is drawn
                        pool.append((pre, len(pool), k, (slots, i, entry), None))
                        continue
                    slot = slots[i] = (entry, *_horizon(F, *entry, snap))
                _, r, shared, _, (cx, cy, cz), h, _ = slot
                R = max(rho, r) if shared else r
                # G, with _angle(c_m, c) written out: this loop sees most pairs
                ux, uy, uz = my * cz - mz * cy, mz * cx - mx * cz, mx * cy - my * cx
                g = math.atan2(math.sqrt(ux * ux + uy * uy + uz * uz), mx * cx + my * cy + mz * cz) - hm - h
                pool.append((R * math.sin(min(max(g, 0.0), half)), len(pool), k, slot, R))
    heapify(pool)
    waiting = []     # pairs by their bound at sample 0
    first = []       # the pairs that got one
    least = math.inf
    while pool or waiting:
        if pool and (not waiting or pool[0][0] <= waiting[0][0]):
            bound, i, k, slot, R = heappop(pool)
            if bound > target:
                break    # this pair and every later one clear every sample
            if R is None:   # a pre-bound: the horizon, then back at max(pre-bound, W)
                slots, x, entry = slot
                slot = slots[x] = (entry, *_horizon(fixed[k], *entry, snap))
                c_m, hm, rho = cones[k]
                _, r, shared, _, c, h, _ = slot
                R = max(rho, r) if shared else r
                W = R * math.sin(min(max(_angle(c_m, c) - hm - h, 0.0), half))
                heappush(pool, (max(bound, W), i, k, slot, R))
                continue
            rays[k] = rays[k] or ray(k)
            g0 = _least_angle(rays[k][0][0], slot[3])
            first.append((k, slot, R, g0))
            heappush(waiting, (R * math.sin(min(g0, half)), i, first[-1]))
        else:
            bound, _, (k, slot, _, _) = heappop(waiting)
            if bound > target:
                break    # this pair and every later one clear sample 0
            least = min(least, _slot_clearance(fixed[k], start, slot, snap))
    due = [first] + [[] for _ in range(steps)]
    for step, pairs in enumerate(due):
        for pair in pairs:
            k, slot, R, g0 = pair
            nxt, slack = step + 1, 0.0
            if R > target:
                units, turned = rays[k]
                g = g0 if step == 0 else _least_angle(units[step], slot[3])
                slack = g - math.asin(target / R)
                if slack > 0.0:
                    nxt = bisect_left(turned, turned[step] + slack, step + 1)
            if step and slack <= 0.0:
                least = min(least, _slot_clearance(fixed[k], _free_end(move.pivot, diri, M, phis[step]), slot, snap))
            if nxt <= steps:
                due[nxt].append(pair)
    return min(least, target)


def isotopy_certificate(before: EquilateralEmbedding, after: EquilateralEmbedding,
                        layout=None) -> CertificateReport:
    """Replay the recorded sweeps against the parked sticks, sampled at
    SWEEP_STEP_RAD (skipping only samples proved clear, see the module
    docstring), then check final clearances.  Contacts at the pivot and
    hub junctions are trimmed out; everything else must keep a positive
    margin of CERT_CLEARANCE_REL * M.  Each sweep must also start where its
    stick is parked and end exactly where the claimed embedding puts it,
    every sweep but the first must stretch its joiner from the first
    sweep's end, and sticks without a recorded sweep must not have moved at
    all.  Each replayed sweep adds (tag, bound) to `moves`, bound from
    _sweep_bound: floor + snap, or a lower clearance the sweep evaluated;
    the sweep passes when bound is above the floor.

    `after` must hold exactly one component; it may be read back from a
    document.  `layout` is ignored: it is kept only so that callers that
    pass a third argument positionally still work."""
    if len(after.components) != 1:
        raise EquilateralError("the certificate replays exactly one component")
    M = after.M
    snap = SNAP_REL * M
    floor = CERT_CLEARANCE_REL * M
    comp = after.components[0]

    # state: parked stick positions by tag, starting from tents minus deletions
    state: dict[str, tuple[V3, V3]] = {}
    for s in before.sticks:
        if s.tag not in comp.deleted_tags:
            state[s.tag] = (s.a, s.b)
    final = {s.tag: (s.a, s.b) for s in after.sticks}

    report = CertificateReport(passed=True)
    horizons: dict = {}    # slots and fans by fixed end
    hub = None             # where the first sweep ends
    for move in comp.moves:
        parked = state.get(move.tag)
        start_free = _free_end(move.pivot, _page_dir(move.page_angle), M, move.phi_start)
        if parked is None or not _same_seg(parked, (move.pivot, start_free), snap):
            report.passed = False
            report.detail = f"{move.tag} does not start where it is parked"
            return report
        if hub is None:
            hangs = move.hub is None
        else:
            hangs = move.hub is not None and _dist(move.hub, hub) <= snap
        if not hangs:
            report.passed = False
            report.detail = f"{move.tag} does not hang from the first sweep's end"
            return report
        bound = _sweep_bound(move, state, M, snap, floor, horizons)
        report.moves.append((move.tag, bound))
        if bound <= floor:
            report.passed = False
            report.detail = f"sweep of {move.tag} pinched to {bound:.3e} (floor {floor:.3e})"
            return report
        end_free = _free_end(move.pivot, _page_dir(move.page_angle), M, move.phi_end)
        claimed = final.get(move.tag)
        if claimed is None or not _same_seg(claimed, (move.pivot, end_free), snap):
            report.passed = False
            report.detail = f"{move.tag} does not end where its sweep stops"
            return report
        state[move.tag] = claimed
        if hub is None:
            hub = end_free
        else:
            page = _page(move.tag)
            joiner = final.get(f"join{page}")
            if joiner is None or not _same_seg(joiner, (move.hub, end_free), snap):
                report.passed = False
                report.detail = f"join{page} does not glue the hub to the swept end"
                return report
            state[f"join{page}"] = joiner

    if set(state) != set(final):
        report.passed = False
        report.detail = "stick tags differ from the swept state"
        return report
    for tag, seg in state.items():
        if not _same_seg(seg, final[tag], snap):
            report.passed = False
            report.detail = f"{tag} moved without a recorded sweep"
            return report

    tol = report.tolerance = tolerance_report(after)
    if tol.min_clearance < floor:
        report.passed = False
        report.detail = f"final clearance {tol.min_clearance:.3e} below floor {floor:.3e}"
    else:
        report.detail = f"{len(comp.moves)} sweeps clean; final clearance {tol.min_clearance:.3e}"
    return report


# ---------------------------------------------------------------------------
# drivers


def build_component(vp: ValidatedPresentation, M: float,
                    component: int = 0) -> EquilateralEmbedding:
    """One attempt: tents, reduction and certificate for one component at
    stick length M.  Raises the attempt's failure; build_parts retries."""
    tents = build_tents(vp, M, component=component)
    red = reduce_top(tents)
    cert = isotopy_certificate(tents, red)
    if not cert.passed:
        raise CertificateFailure(cert.detail)
    red.tolerance = cert.tolerance
    red.certificate = cert
    return red


def build_parts(vps: list[ValidatedPresentation], M: float | None = None) -> EquilateralEmbedding:
    """Build each presentation as component i, all at one shared stick
    length, doubling it for every part together until all of them certify;
    after MAX_RETRIES doublings the last attempt's failure propagates.  One
    part comes back as built, several through assemble_split.  The default M
    is DEFAULT_M_FACTOR times the largest axis point count; a given M must
    be finite and positive."""
    M0 = float(M) if M is not None else DEFAULT_M_FACTOR * max(p.m for p in vps)
    if not 0.0 < M0 < math.inf:
        raise EquilateralError(f"M={M0} is not a finite positive length")
    for attempt in range(MAX_RETRIES + 1):
        try:
            parts = [build_component(p, M0 * 2.0 ** attempt, component=i)
                     for i, p in enumerate(vps)]
        except (MTooSmall, NoRotationSolution, CertificateFailure):
            if attempt == MAX_RETRIES:
                raise
            continue
        return parts[0] if len(parts) == 1 else assemble_split(parts)


def assemble_split(parts: list[EquilateralEmbedding]) -> EquilateralEmbedding:
    """Translate component builds into boxes separated by at least M along x.

    All parts must share the same stick length; an equal-length embedding
    has exactly one.
    """
    if not parts:
        raise EquilateralError("nothing to assemble")
    M = parts[0].M
    for p in parts:
        if abs(p.M - M) > 1e-9 * M:
            raise EquilateralError("components were built with different stick lengths")
    sticks: list[EStick] = []
    components: list[ComponentInfo] = []
    cursor = 0.0
    for idx, part in enumerate(parts):
        xs = [c for s in part.sticks for c in (s.a[0], s.b[0])]
        lo, hi = min(xs), max(xs)
        shift = cursor - lo
        for s in part.sticks:
            sticks.append(EStick(
                (s.a[0] + shift, s.a[1], s.a[2]),
                (s.b[0] + shift, s.b[1], s.b[2]),
                idx, s.tag, s.ja, s.jb))
        info = replace(part.components[0], index=idx, offset=(shift, 0.0, 0.0))
        components.append(info)
        cursor += (hi - lo) + M
    out = EquilateralEmbedding(sticks=sticks, M=M, components=components)
    out.tolerance = tolerance_report(out)
    certs = [p.certificate for p in parts]
    out.certificate = CertificateReport(
        passed=all(c is None or c.passed for c in certs),
        moves=[mv for c in certs if c for mv in c.moves],
        detail=f"{len(parts)} component certificates combined",
    )
    return out


def build_equilateral(vp: ValidatedPresentation, M: float | None = None) -> EquilateralEmbedding:
    """Build one presentation, each piece of equal_length_parts(vp) as its
    own boxed component at one shared stick length (see build_parts)."""
    return build_parts(equal_length_parts(vp), M)
