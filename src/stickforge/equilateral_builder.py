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
W = R sin(min(max(G, 0), pi/2)) apart (_verifier_float._ray_bound, with
h_m + h as one cone).  A pair whose bound over the whole sweep, max(P, W)
with P its pre-bound (below), clears the target lies above it at every
sample and is never evaluated.  Every other pair goes onto the schedule
from sample 0, where the rule above evaluates it when its bound there
does not clear the target.  Only the schedule reads the per-sample rays,
each mover's unit direction at every sample and its summed turning (in
closed form for the swing from an axis pivot, else summed from the angles
between the units of the sampled ends), so a mover's rays are built when
its first pair goes onto the schedule, and a mover with no pair scheduled
builds none.  Likewise a mover's cone (c_m, h_m and rho) is built when the
first of its pairs needs W, so a mover whose every pair is cleared by a
group bound or a pre-bound never samples its hull.  A sampled end is
computed where a pair is evaluated there.

Rounding.  Write u = 2^-53.  Every point the certificate sees lies within
5M of every other: the tents stand within M of the axis points 0 .. m - 1,
m - 1 < 2M, every swept stick has its pivot on the axis and length M, and
every joiner hangs from the first sweep's end.  So R < 5M, and an angle
off by d moves a bound by under 5Md.  r comes from _verifier_float's
_cone, within 100uC of the true distance when every point lies within 2C
of F in each coordinate (that module's cone proof); C = 5M will do here.
Each computed unit vector lies within 4u of the direction of the computed
points it stands for, and angles come from atan2 (_angle), which is within
10u of the angle between its computed arguments even near 0 and pi.  So h
is off by under 10u, c = unit(a + b) by under 16u/|a + b|, and Theta by
under (18 + Theta_end)u per sample.
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
_cone trusts c only when |a x b| >= 1e-3 (so ab <= pi - 1e-3) or
a . b >= 0 (ab <= pi/2), and is the whole sphere otherwise; either way
|a + b| = 2 cos(ab/2) is about 1e-3 or more, and c is off by under 2e-12.
For a sweep of under 10^4 samples turning under 100 rad (a builder's
sweep has a few hundred samples and turns under pi), G is off by under
1.4e-10 and W by under 7e-10 M, which snap = 1e-9 M absorbs, as it absorbs
the rounding of the per-sample bound.  In the nine-point hull, the snap in
sigma exceeds the distance of a computed end from the arc (6uM) and the
rounding of the chord distances (40uC), so the hull holds for the computed
ends with l as computed, and H and asin(sigma / l) are off by under 20u.

Pre-bounds.  W needs the parked stick's horizon (_horizon: its cone and
its arc), which is most of a pair's cost.  So a pair whose slot must be
computed first gets a pre-bound P from coordinates alone, a lower bound on
its trimmed clearance at every sample.  A pair whose P clears the target
is dropped there and never calls _horizon; any other gets its horizon,
slot and W.  A pair whose slot is kept from an earlier move gets W alone.
P is the larger of two bounds.
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
P is off by under 1e-13 M, which snap absorbs, and a pair that P drops
lies above the target at every sample.

Fans.  Most parked sticks at a fixed end F hang from it into a vertical
half-plane about F's vertical line, as in an open book (Cromwell,
"Embedding knots and links in an open book I", 1995): the tent sticks at
a binding point, and e_1 and the joiners at the hub.  So each fixed end
keeps a fan (_fan): its members are the sticks with an end exactly at F
that lie in such a half-plane (_half_plane about F's line), sorted by
azimuth psi, and the heights of their other ends are kept sorted beside
them for the cross bounds below; every other stick is in the rest.  The
fan lives as long as the slots below and is brought up to date by
comparing state entries by identity, so only a moved or new stick is
reclassified.  A member shares F, so the clearance trims the mover at F:
its trimmed part runs from F + f (E - F) to the free end E,
f = TRIM_FRACTION.  Two movers get a group bound (rho_h, I):
- the swing from an axis pivot with |phi_start|, |phi_end| <= pi/2: its
  trimmed part lies at horizontal distance t M cos phi, t in [f, 1], from
  F's line, at least rho_h = f M c, c = min(cos phi_start, cos phi_end)
  (cos rises and then falls on [-pi/2, pi/2]), at the page's azimuth psi,
  the one point of I;
- its joiner, from the hub F.  Let d be the page direction, at azimuth
  psi, e the unit at psi + pi/2, and a d + b e the hub's xy (a along the
  page, b across it).  E's xy is r d with r = M cos phi >= M c, so seen
  from F's line the trimmed joiner's points lie at v ((r - a) d - b e),
  v in [f, 1].  A wedge (_wedge) is a set of points p d + q e with
  p >= x > 0 and q / p between 0 and y / x: they lie at least p >= x from
  0, at azimuths between psi and psi + atan2(y, x), since atan2(q, p) is
  monotone in q / p for p > 0.  When M c > a the trimmed joiner lies in
  the wedge with x = f (M c - a) and y = -f b at every angle of the
  sweep, which gives rho_h = x and I, written as centre +- w.
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
no pre-bound and no W.  The walked members and the rest take the
per-pair path above; a mover without a group bound walks every member.

Cross bounds.  The same two movers also get a group bound against the fan
at the other fixed end: the hub's for the swing, the pivot's for the
joiner.  Let P be the pivot, on the axis, H the hub, a and b as above,
low and high the least and largest free-end heights (the heights of the
sweep's two ends, as |phi| <= pi/2), and tau = 2 (floor + snap).
- The joiner against C, the members of the pivot's fan that are not in
  the hub's.  Every point of C lies at or below Z, the highest of their
  ends and P, so a joiner point above Z + tau lies more than floor + snap
  from C.  When min(low, H_z) >= Z + tau no joiner point lies lower, and
  all of C clears.  Otherwise a joiner point X = (1 - u) H + u E at or
  below Z + tau has u >= t = (H_z - Z - tau) / (H_z - low) when
  H_z > Z + tau, as then u (H_z - E_z) >= H_z - Z - tau and
  0 < H_z - E_z <= H_z - low; else take t = 0.  X's xy, seen from the
  axis, is p d + q e with p = (1 - u) a + u r and q = (1 - u) b.  Over
  u in [t, 1] and r >= M c, p >= min(t M c + (1 - t) a, M c) (p is linear
  in u and rises with r) and |q| <= (1 - t) |b| with q of b's sign: so X
  lies in the wedge with x that minimum and y = (1 - t) b, at every
  angle of the sweep.  It holds the trapezoid conv((1 - t) H_xy + t S, S), S the
  segment along which E's xy runs.
- The swing against C', the members of the hub's fan that are not in the
  pivot's.  Every point of C' lies at or above Z', the lowest of their
  ends and H, so a swing point below Z' - tau lies more than
  floor + snap from C', and
  all of C' clears when max(high, P_z) <= Z' - tau.  Otherwise a swing
  point P + u (E - P) at or above Z' - tau has u >= s =
  (Z' - tau - P_z) / (high - P_z) when Z' - tau > P_z, else s = 0.  Its
  xy is u r d, seen from H's line (u r - a) d - b e with u r >= s M c,
  so it lies in the wedge with x = s M c - a and y = -b at every angle
  of the sweep.
Either way a member at a gap g from the wedge's azimuths lies at least
min(tau, x sin(min(g, pi/2))) from the untrimmed mover at every angle of
the sweep, which bounds the trimmed clearance, so _walk over the other end's fan with
(x, I) clears members as above, and a cleared member of C or C' gets no
slot, no horizon, no pre-bound and no W for that mover.  A member
of both fans, such as e_1 from P to H, is in neither C nor C' and keeps its
own end's walk; every other stick keeps its path.  The wedge needs no test
of which side of a line the trapezoid's corners lie: on the page opposite
the hub (b about 0, theta_trivial(2k) at page k + 1) it spans under 1e-15
rad on either side, where signs of cross products would mix.
Rounding: azimuths come from atan2 within 3u, centre, w and the gaps
within a few u of 2 pi, a and b within 4u |H| and x within 10u of itself,
and the sampled free ends lie within 6uM of r d, so each group bound is off
by under 1e-13 M, which snap absorbs.  t and s are off by a few u, and a
mover point that rounding moves out of the wedge lies within 10uM of the
cut height, so it lies more than tau - 10uM > floor + snap from the other
fan by height.

Of R and the cone, only rho depends on the mover.  r, the arc of
directions, the cone and the parked stick trimmed at F depend on F and the
stick alone, so one certificate keeps them in one slot list per fixed end
F, in state order, beside F's fan; a slot is refreshed only when its state
entry is a different object, and then only when its pair's pre-bound does
not clear the target.  A stick that moves enters the state as a new entry, so
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
helpers, the half-plane bound (_half_plane, _plane_gap) and the cone and
its bound (_cone, _ray_bound) come from _verifier_float.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from operator import sub

from ._verifier_float import (_clearance, _cone, _cross, _dot, _half_plane, _norm, _plane_gap, _ray_bound,
                              _unit, _vsub, seg_distance)
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
    clearance makes then only shortens it).  r, c and h are seg's cone seen
    from F (_verifier_float._cone): r its distance from F, and every
    direction from F to it lies within h of the unit c.  arc holds those
    directions: (a, b, unit normal of their plane or None when that plane is
    too thin to trust, angle from a to b), or None when seg reaches F."""
    y = next((y for y in (pa, pb) if _dist(F, y) <= snap), None)
    shared = y is not None
    seg = _trimmed(pa, pb, y) if shared else (pa, pb)   # _trimmed's cut at F
    r, c, h = _cone(F, *seg)
    a, b = (_unit(_vsub(p, F)) for p in seg)
    if not (a and b):
        return r, shared, None, c, h, seg
    n = _cross(a, b)
    return r, shared, (a, b, None if _norm(n) < 1e-3 else _unit(n), _angle(a, b)), c, h, seg


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
    """(slots, at, members, ends, rest) of the fixed end F, brought up to
    date with the state entries in state order: slots as _sweep_bound keeps
    them; for the sticks with an end at F that lie in a vertical half-plane
    about F's vertical line, the members, their (azimuth, position) sorted,
    ends, the (height, position) of their other ends sorted, and at, their
    (azimuth, height) by position; and the positions of every other stick,
    as the keys of rest.  Only a position whose entry is a different object
    from the last move is reclassified."""
    slots, seen, at, members, ends, rest = horizons.setdefault(F, ([], [], {}, [], [], {}))
    grow = len(entries) - len(slots)
    slots += [(None,)] * grow
    seen += [None] * grow
    for i in [i for i, (e, s) in enumerate(zip(entries, seen)) if e is not s]:
        entry = seen[i] = entries[i]
        if i in at:
            psi, z = at.pop(i)
            del members[bisect_left(members, (psi, i))]
            del ends[bisect_left(ends, (z, i))]
        rest.pop(i, None)
        if F in entry and (plane := _half_plane(*entry, F[:2])):
            at[i] = psi, z = plane[1], entry[1 - plane[3]][2]
            insort(members, (psi, i))
            insort(ends, (z, i))
        else:
            rest[i] = None
    return slots, at, members, ends, rest


def _wedge(x: float, y: float, psi: float):
    """The group (rho, centre, w) of the points p d + q e with p >= x and
    q / p between 0 and y / x, d the unit at azimuth psi and e the unit at
    psi + pi/2: their azimuths lie between psi and psi + atan2(y, x), and
    they lie at least x from 0 (see the module docstring); None unless
    x > 0."""
    w = math.atan2(abs(y), x) / 2
    return (x, psi + math.copysign(w, y), w) if x > 0.0 else None


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
    parked stick in the fan at either fixed end that the mover's group
    bound for that fan clears is never looked at for that mover; any other
    (mover, parked) pair is dropped for the whole sweep when its pre-bound
    (asked first of a pair that needs a new slot, which then gets its
    horizon only when the pre-bound does not clear floor + snap) or its
    cone bound clears floor + snap, else it is evaluated at sample 0 only
    when its bound there could reach floor + snap, and again only at the
    first sample where its horizon bound could fall that far (see the
    module docstring).  So the bound
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
    entries, mover = list(state.values()), state.get(move.tag)
    fans = [_fan(F, entries, horizons) for F in fixed]
    plane = None   # the swinging stick as a half-plane stick, at every angle
    groups = [None, None]   # per mover: (rho_h, centre, w) of the group bound at its own end
    kept = [None, None]     # per mover with a cross bound: the other end's members it leaves
    if max(abs(move.phi_start), abs(move.phi_end)) <= half:
        low, high = sorted(move.pivot[2] + M * math.sin(phi) for phi in (phis[0], phis[-1]))
        if on_axis:
            c, psi, pz = min(math.cos(move.phi_start), math.cos(move.phi_end)), math.atan2(diri[1], diri[0]), move.pivot[2]
            plane = (c, psi, pz)
            groups[0] = (f * M * c, psi, 0.0)
            if move.hub:   # the hub's xy along and across the page
                (hx, hy, hz), tau = move.hub, 2 * target
                along, across = hx * diri[0] + hy * diri[1], hy * diri[0] - hx * diri[1]
                groups[1] = _wedge(f * (M * c - along), -f * across, psi)
                (_, at0, fan0, tops, _), (_, at1, fan1, bottoms, _) = fans
                # the joiner against the pivot's members off the hub, below their top Z + tau
                if (Z := next((z for z, i in reversed(tops) if i not in at1), None)) is not None:
                    Z = max(Z, pz) + tau
                    if min(low, hz) >= Z:
                        kept[1] = []
                    else:
                        t = (hz - Z) / (hz - low) if hz > Z else 0.0
                        g = _wedge(min(t * M * c + (1 - t) * along, M * c), (1 - t) * across, psi)
                        kept[1] = _walk(fan0, g, target) if g else None
                # the swing against the hub's members off the pivot, above their bottom Z' - tau
                if (Z := next((z for z, i in bottoms if i not in at0), None)) is not None:
                    Z = min(Z, hz) - tau
                    if max(high, pz) <= Z:
                        kept[0] = []
                    else:
                        s = (Z - pz) / (high - pz) if Z > pz else 0.0
                        g = _wedge(s * M * c - along, -across, psi)
                        kept[0] = _walk(fan1, g, target) if g else None

    def swing(phi):   # the swing's unit direction from an axis pivot, in closed form
        return (math.cos(phi) * diri[0], math.cos(phi) * diri[1], math.sin(phi))

    def ray(k):   # the mover's unit directions and summed turning at every sample
        if k == 0 and on_axis:
            return [swing(phi) for phi in phis], [abs(phi - move.phi_start) for phi in phis]
        units = [_unit(_vsub(_free_end(move.pivot, diri, M, phi), fixed[k])) for phi in phis]
        turned = [0.0]
        for u, v in zip(units, units[1:]):
            turned.append(turned[-1] + _angle(u, v))
        return units, turned

    def cone(k):   # c_m, h_m and rho of mover k
        F = fixed[k]
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
        return cm, hm, rho

    rays = [None, None]    # per mover, built when its first pair is due
    cones = [None, None]   # per mover, built when its first pair needs W
    due = [[] for _ in range(steps + 1)]   # per sample, the pairs to bound there
    for k, F in enumerate(fixed):
        lo, hi = min(low, F[2]), max(high, F[2])
        slots, _, members, _, rest = fans[k]
        walked = _walk(members, groups[k], target) if groups[k] else [i for _, i in members]
        if kept[k] is not None and (cleared := fans[1 - k][1].keys() - kept[k]):
            rest = rest.keys() - cleared   # the other end's members that the cross bound clears
        for i in (*rest, *walked):
            entry = entries[i]
            if entry is not mover:
                slot = slots[i]
                if slot[0] is not entry:
                    (_, _, za), (_, _, zb) = entry
                    pre = max(min(za, zb) - hi, lo - max(za, zb))
                    if k == 0 and plane and (other := _half_plane(*entry, (0.0, 0.0))):
                        pre = max(pre, _plane_gap(plane, other))
                    if pre > target:
                        continue    # clear at every sample, so no horizon
                    slot = slots[i] = (entry, *_horizon(F, *entry, snap))
                _, r, shared, _, c, h, _ = slot
                cones[k] = cones[k] or cone(k)
                c_m, hm, rho = cones[k]   # rho: where the trimmed mover starts
                R = max(rho, r) if shared else r
                if _ray_bound(c_m, R, c, hm + h) <= target:
                    rays[k] = rays[k] or ray(k)
                    due[0].append((k, slot, R))
    least = math.inf
    for step, pairs in enumerate(due):
        for pair in pairs:
            k, slot, R = pair
            nxt, slack = step + 1, 0.0
            if R > target:
                units, turned = rays[k]
                slack = _least_angle(units[step], slot[3]) - math.asin(target / R)
                if slack > 0.0:
                    nxt = bisect_left(turned, turned[step] + slack, step + 1)
            if slack <= 0.0:
                end = _free_end(move.pivot, diri, M, phis[step]) if step else start
                least = min(least, _slot_clearance(fixed[k], end, slot, snap))
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
