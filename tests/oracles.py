"""Independent brute-force oracles the tests check the library against.

Everything here is written straight from definitions and shares no code
with the package: interleaving by walking the circle once, segment
intersection by solving the parametric equations with Cramer's rule, knot
invariants (Fox 3-colorings, linking number) read off a generic exact shear
projection of the finished 3D sticks, lift clearance by brute-force
triangle tests at a given level, and the lift's least clear level in
closed form over every earlier chord that crosses or shares an end with
the lifted one (project_earlier reads the builder's chord frame).  Known invariant values (trefoil 9
colorings, hopf |lk| = 1) then pin down the whole pipeline from outside.
The exact verifier's witness strings are rebuilt here in Fraction
arithmetic, every pair and every crossing, as the reference its integer
kernel must match word for word.

All arithmetic is over Fraction, or over the integer numerators and
denominators of rationals (the boundary windows and their least
denominator search); float inputs are dyadic rationals and convert
exactly, so the same predicates certify both builders.  The
exceptions are the float references, each of which tests everything its
culled counterpart may skip: sampled_certificate, the equal-length
builder's motion certificate with every parked stick tested at every
sample, and the all-pairs loops of tolerance_report, check_equilateral's
clearance and float check_simplicity.  They call the package's one float
distance kernel, vf.seg_distance, so that the culled passes must match
their minima, verdicts and details float for float.  The last section
keeps cull steps as they were first written, before they sorted once or
tested two ends directly, so that their rewrites can be held to the same
floats and the same pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from stickforge import equilateral_builder as eb
from stickforge import verifier as vf


# ---------------------------------------------------------------------------
# circular interleaving


def circle_walk_crossing(m: int, ends_a, ends_b) -> bool:
    """Walk the m boundary positions once; crossing means the four endpoint
    labels read ABAB or BABA.  Chords sharing an endpoint never cross."""
    if set(ends_a) & set(ends_b):
        return False
    labels = []
    for pos in range(m):
        if pos in ends_a:
            labels.append("a")
        elif pos in ends_b:
            labels.append("b")
    return labels in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


def boundary_windows(m: int):
    """The open window of each boundary parameter, in axis order, as the
    integers (lo_n, lo_d, hi_n, hi_d) of lo_n/lo_d < t < hi_n/hi_d: a
    quarter of the way from the ideal tangent tan(theta / 2), read exactly
    off the float, to each neighbour's, an end point's one gap taken on both
    sides, and (-1/4, 1/4) for a lone point."""
    ideal = [math.tan((math.pi - math.pi / m - (2.0 * math.pi * i) / m) / 2.0).as_integer_ratio()
             for i in range(m)]
    if m == 1:
        return [(-1, 4, 1, 4)]
    windows = []
    for i, (n, d) in enumerate(ideal):
        # t -/+ (t - t') / 4 for a neighbour t' = n'/d', over 4 d d'
        (bn, bd) = ideal[i + 1] if i < m - 1 else ideal[i - 1]
        (an, ad) = ideal[i - 1] if i > 0 else ideal[i + 1]
        lo = 4 * n * bd - abs(n * bd - bn * d), 4 * d * bd
        hi = 4 * n * ad + abs(an * d - n * ad), 4 * d * ad
        windows.append((*lo, *hi))
    return windows


def least_denominator(ln, ld, hn, hd) -> tuple[int, int]:
    """(p, q): (0, 1) if ln/ld < 0 < hn/hd, else the p/q with
    ln/ld < p/q < hn/hd of least q, and of least |p| for it, found by
    trying q = 1, 2, ... in integers (ld, hd > 0)."""
    if ln < 0 < hn:
        return 0, 1
    q = 0
    while True:
        q += 1
        if ln >= 0:
            p = ln * q // ld + 1          # the least p with p/q > lo
            if p * hd < hn * q:
                return p, q
        else:
            p = -(-hn * q // hd) - 1      # the greatest p with p/q < hi
            if p * ld > ln * q:
                return p, q


def boundary_points(m: int):
    """circular_diagram.boundary_points by a plain search: the least
    denominator parameter t = p/q of each window, then
    ((1 - t^2), 2t) / (1 + t^2), as (q^2 - p^2, 2pq) / (q^2 + p^2)."""
    pts = []
    for window in boundary_windows(m):
        p, q = least_denominator(*window)
        r = q * q + p * p
        pts.append((Fraction(q * q - p * p, r), Fraction(2 * p * q, r)))
    return tuple(pts)


# ---------------------------------------------------------------------------
# exact 3D segment meeting


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _lerp(p, d, t):
    return (p[0] + t * d[0], p[1] + t * d[1], p[2] + t * d[2])


def _fr3(p):
    return tuple(Fraction(c) for c in p)


def segments_meet(p, q, r, s) -> str:
    """Exact closed-segment test: "none", "endpoint" (one shared declared
    endpoint), "point" (interior contact), "overlap", or "degenerate" (a
    segment of zero length, which no simple embedding has)."""
    p, q, r, s = _fr3(p), _fr3(q), _fr3(r), _fr3(s)
    if p == q or r == s:
        return "degenerate"
    d1, d2, w = _sub(q, p), _sub(s, r), _sub(r, p)
    n = _cross(d1, d2)
    if n != (0, 0, 0):
        if _dot(w, n) != 0:
            return "none"
        nn = _dot(n, n)
        t = Fraction(_dot(_cross(w, d2), n), nn)
        u = Fraction(_dot(_cross(w, d1), n), nn)
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return "none"
        x = _lerp(p, d1, t)
        if x in (p, q) and x in (r, s):
            return "endpoint"
        return "point"
    # parallel
    if _cross(w, d1) != (0, 0, 0):
        return "none"
    dd = _dot(d1, d1)
    tr = Fraction(_dot(_sub(r, p), d1), dd)
    ts = Fraction(_dot(_sub(s, p), d1), dd)
    lo, hi = min(tr, ts), max(tr, ts)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return "none"
    if lo == hi:
        x = _lerp(p, d1, lo)
        if x in (p, q) and x in (r, s):
            return "endpoint"
        return "point"
    return "overlap"


def embedding_is_simple(segments) -> tuple[bool, str]:
    """All-pairs check: only single shared endpoints allowed, and no stick
    of zero length, even a lone one."""
    segs = list(segments)
    if len(segs) == 1 and _fr3(segs[0][0]) == _fr3(segs[0][1]):
        return False, "stick 0: degenerate"
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            kind = segments_meet(*segs[i], *segs[j])
            if kind not in ("none", "endpoint"):
                return False, f"pair ({i}, {j}): {kind}"
    return True, ""


# ---------------------------------------------------------------------------
# lift clearance in a chord's vertical plane, by triangle tests


def _orient2(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segment_hits_triangle(p, q, tri, exempt) -> bool:
    """Closed segment pq meets the closed triangle somewhere besides the
    exempt points: clip the parameter window [0, 1] to each edge's inner
    half-plane."""
    sgn = 1 if _orient2(*tri) > 0 else -1
    lo, hi = Fraction(0), Fraction(1)
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        g0, g1 = sgn * _orient2(a, b, p), sgn * _orient2(a, b, q)
        if g0 == g1:
            if g0 < 0:
                return False
            continue
        t = Fraction(-g0) / (g1 - g0)
        if g1 > g0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    if lo != hi:
        return lo < hi  # a positive-length overlap cannot be all exempt points
    return (p[0] + lo * (q[0] - p[0]), p[1] + lo * (q[1] - p[1])) not in exempt


def _point_in_triangle(q, tri, exempt) -> bool:
    sgn = 1 if _orient2(*tri) > 0 else -1
    return (all(sgn * _orient2(tri[i], tri[(i + 1) % 3], q) >= 0 for i in range(3))
            and q not in exempt)


def lift_clear(segs, pts, lows, z) -> bool:
    """Is level z clear for a chord lift?  In the chord's (s, z) plane each
    anchor ((s_lo, z_lo), s_hi) sweeps the closed triangle (s_lo, z_lo),
    (s_hi, z), (s_lo, z); less its anchor corner, it must meet no earlier
    in-plane segment and no punch-through point."""
    for (s_lo, z_lo), s_hi in lows:
        tri = ((s_lo, z_lo), (s_hi, z), (s_lo, z))
        exempt = ((s_lo, z_lo),)
        if any(_segment_hits_triangle(p, q, tri, exempt) for p, q in segs):
            return False
        if any(_point_in_triangle(q, tri, exempt) for q in pts):
            return False
    return True


def all_near_pages(cd):
    """Per page k (index 0 unused), the earlier pages whose chords cross
    chord k or share an end with it: the lift's obstacles before they were
    cut to the crossing chords, a superset of them."""
    crossings = set(cd.crossings)
    near = [[] for _ in range(len(cd.chords) + 1)]
    for j, later in enumerate(cd.chords, 1):
        for i, chord in enumerate(cd.chords[:j - 1], 1):
            if (i, j) in crossings or set(chord.ends) & set(later.ends):
                near[j].append(i)
    return near


def project_earlier(frame, earlier):
    """In-plane view of sticks, given by homogeneous ends (X, Y, Z, W), in
    the builder's chord frame: segments lying in the plane over the chord
    and punch-through points of transversal ones, as homogeneous (S, Z, W).
    The side functional is linear, so fa b - fb a is a homogeneous point of
    the line ab at side zero; its W is positive when fa > fb."""
    segs, pts = [], []
    for a, b in earlier:
        fa, fb = frame.side(a), frame.side(b)
        if fa == 0 and fb == 0:
            segs.append((frame.point(a), frame.point(b)))
        elif (fa > 0 and fb > 0) or (fa < 0 and fb < 0):
            continue
        else:
            if fa < fb:
                fa, fb, a, b = fb, fa, b, a
            pts.append(frame.point(tuple(fa * y - fb * x for x, y in zip(a, b))))
    return segs, pts


def lift_height(segs, pts, lows, z_prev) -> int:
    """The least integer z > z_prev at which lift_clear holds, for earlier
    segments and points all at or below z_prev.  A point at relative
    position u = (s - s_lo)/(s_hi - s_lo) in (0, 1] of an anchor, above
    z_lo, blocks the levels up to z_lo + (z_pt - z_lo)/u, and one straight
    over the anchor (u = 0) blocks every level.  A segment blocks what the
    ends of its part over u in [0, 1] block: its own ends and its crossing
    of s = s_lo (its crossing of s = s_hi is at or below z_prev)."""
    z = z_prev + 1
    for (s_lo, z_lo), s_hi in lows:
        cands = list(pts)
        for p, q in segs:
            cands += (p, q)
            if (p[0] - s_lo) * (q[0] - s_lo) < 0:
                t = (s_lo - p[0]) / (q[0] - p[0])
                cands.append((s_lo, p[1] + t * (q[1] - p[1])))
        for s, z_pt in cands:
            u = (s - s_lo) / (s_hi - s_lo)
            if z_pt <= z_lo or not 0 <= u <= 1:
                continue
            if u == 0:
                raise ValueError("a point over the anchor blocks every level")
            z = max(z, math.floor(z_lo + (z_pt - z_lo) / u) + 1)
    return z


# ---------------------------------------------------------------------------
# heights at a projected point, straight from raw sticks


def height_over_point(sticks, x2d) -> Fraction:
    """z of the unique stick whose projection covers the 2D point; linear
    interpolation in exact arithmetic."""
    hits = []
    for (a, b) in sticks:
        ax, ay, az = _fr3(a)
        bx, by, bz = _fr3(b)
        dx, dy = bx - ax, by - ay
        wx, wy = Fraction(x2d[0]) - ax, Fraction(x2d[1]) - ay
        if wx * dy - wy * dx != 0:
            continue
        dd = dx * dx + dy * dy
        if dd == 0:
            continue
        t = (wx * dx + wy * dy) / dd
        if 0 <= t <= 1:
            hits.append(az + t * (bz - az))
    if len(hits) != 1:
        raise AssertionError(f"{len(hits)} sticks over point {x2d}")
    return hits[0]


def chord_meeting_param(boundary, ends_i, ends_j) -> tuple[Fraction, Fraction]:
    """(t_i, t_j) of the meeting point of two straight chords, parameters
    measured from each chord's first endpoint.  2x2 Cramer solve."""
    a, b = boundary[ends_i[0]], boundary[ends_i[1]]
    c, d = boundary[ends_j[0]], boundary[ends_j[1]]
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (d[0] - c[0], d[1] - c[1])
    rhs = (c[0] - a[0], c[1] - a[1])
    det = d1[0] * (-d2[1]) - (-d2[0]) * d1[1]
    if det == 0:
        raise AssertionError("parallel chords")
    t = (rhs[0] * (-d2[1]) - (-d2[0]) * rhs[1]) / det
    u = (d1[0] * rhs[1] - rhs[0] * d1[1]) / det
    return Fraction(t), Fraction(u)


# ---------------------------------------------------------------------------
# 3D walks and generic shear projection


def chain_walks(segments) -> list[list[tuple[int, tuple, tuple]]]:
    """Chain sticks into closed walks by exact endpoint equality.

    Each 3D endpoint value must occur exactly twice (knots and links, not
    theta graphs).  Returns walks as lists of (segment_index, tail, head)."""
    segs = [(_fr3(a), _fr3(b)) for a, b in segments]
    incid: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segs):
        incid.setdefault(a, []).append(idx)
        incid.setdefault(b, []).append(idx)
    for pt, ids in incid.items():
        if len(ids) != 2:
            raise AssertionError(f"endpoint {pt} has degree {len(ids)}, want 2")
    seen: set[int] = set()
    walks = []
    for start in range(len(segs)):
        if start in seen:
            continue
        walk = []
        idx, tail = start, segs[start][0]
        while True:
            a, b = segs[idx]
            head = b if tail == a else a
            walk.append((idx, tail, head))
            seen.add(idx)
            nxt = [i for i in incid[head] if i != idx]
            idx, tail = nxt[0], head
            if idx == start:
                break
        walks.append(walk)
    return walks


_SHEARS = (
    (Fraction(1, 97), Fraction(1, 89)),
    (Fraction(2, 101), Fraction(3, 103)),
    (Fraction(5, 107), Fraction(7, 109)),
    (Fraction(11, 113), Fraction(13, 127)),
)


class _Crossing:
    __slots__ = ("under", "over", "sign")

    def __init__(self, under, over, sign):
        self.under = under      # (walk, step, param) of the lower strand
        self.over = over
        self.sign = sign


def _shear_diagram(walks, px, py):
    """Project (x, y, z) -> (x + px z, y + py z), depth = z.  Returns the
    crossings of a regular diagram or None when this shear is degenerate."""
    flat = []      # (walk_idx, step_idx, p2, q2, z_p, z_q)
    for wi, walk in enumerate(walks):
        for si, (_, tail, head) in enumerate(walk):
            p2 = (tail[0] + px * tail[2], tail[1] + py * tail[2])
            q2 = (head[0] + px * head[2], head[1] + py * head[2])
            if p2 == q2:
                return None
            flat.append((wi, si, p2, q2, tail[2], head[2]))

    crossings = []
    points = set()
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            wi, si, p, q, zp, zq = flat[i]
            wj, sj, r, s, zr, zs = flat[j]
            d1 = (q[0] - p[0], q[1] - p[1])
            d2 = (s[0] - r[0], s[1] - r[1])
            det = d1[0] * d2[1] - d1[1] * d2[0]
            # contacts are legitimate only at junctions shared in 3D
            shared_3d = {(p, zp), (q, zq)} & {(r, zr), (s, zs)}
            if det == 0:
                w = (r[0] - p[0], r[1] - p[1])
                if w[0] * d1[1] - w[1] * d1[0] == 0:
                    # collinear projections: abutting at one shared 3D
                    # junction is fine, anything else is degenerate
                    dd = d1[0] ** 2 + d1[1] ** 2
                    tr = Fraction((r[0] - p[0]) * d1[0] + (r[1] - p[1]) * d1[1], dd)
                    ts = Fraction((s[0] - p[0]) * d1[0] + (s[1] - p[1]) * d1[1], dd)
                    lo, hi = max(min(tr, ts), Fraction(0)), min(max(tr, ts), Fraction(1))
                    if lo < hi:
                        return None
                    if lo == hi:
                        x2 = (p[0] + lo * d1[0], p[1] + lo * d1[1])
                        if not any(pt == x2 for (pt, _) in shared_3d):
                            return None
                continue
            w = (r[0] - p[0], r[1] - p[1])
            t = Fraction(w[0] * d2[1] - w[1] * d2[0], det)
            u = Fraction(w[0] * d1[1] - w[1] * d1[0], det)
            if not (0 <= t <= 1 and 0 <= u <= 1):
                continue
            x2 = (p[0] + t * d1[0], p[1] + t * d1[1])
            if t in (0, 1) or u in (0, 1):
                if t in (0, 1) and u in (0, 1) and any(pt == x2 for (pt, _) in shared_3d):
                    continue        # the declared junction
                return None         # endpoint grazing the other segment
            if x2 in points:
                return None         # triple point
            points.add(x2)
            zi = zp + t * (zq - zp)
            zj = zr + u * (zs - zr)
            if zi == zj:
                raise AssertionError("projected crossing with equal depths")
            # epsilon = sign of cross2(d_over, d_under); det is cross2(d1, d2)
            if zi < zj:
                crossings.append(_Crossing((wi, si, t), (wj, sj, u),
                                           -1 if det > 0 else 1))
            else:
                crossings.append(_Crossing((wj, sj, u), (wi, si, t),
                                           1 if det > 0 else -1))
    return crossings


def generic_diagram(segments):
    """Walks plus regular-diagram crossings under the first good shear."""
    walks = chain_walks(segments)
    for (px, py) in _SHEARS:
        crossings = _shear_diagram(walks, px, py)
        if crossings is not None:
            return walks, crossings
    raise AssertionError("no shear direction gave a regular diagram")


def _strands(walks, crossings):
    """Cut each walk at its under-points; returns (count, strand lookup)."""
    cuts: dict[int, list[tuple[int, Fraction, _Crossing]]] = {w: [] for w in range(len(walks))}
    for c in crossings:
        wi, si, t = c.under
        cuts[wi].append((si, t, c))
    strand = 0
    under_pair: dict[int, tuple[int, int]] = {}
    cover: dict[int, list[tuple[int, Fraction, Fraction, int]]] = {}
    for wi, walk in enumerate(walks):
        mine = sorted(cuts[wi], key=lambda x: (x[0], x[1]))
        k = len(mine)
        first = strand
        strand += k if k else 1
        cur = first
        pieces: list[tuple[int, Fraction, Fraction, int]] = []
        pos = 0
        ptr = 0
        for si in range(len(walk)):
            lo = Fraction(0)
            while ptr < len(mine) and mine[ptr][0] == si:
                _, t, c = mine[ptr]
                pieces.append((si, lo, t, cur))
                nxt = first + (pos + 1) % k
                under_pair[id(c)] = (cur, nxt)
                cur, lo, pos, ptr = nxt, t, pos + 1, ptr + 1
            pieces.append((si, lo, Fraction(1), cur))
        cover[wi] = pieces
    return strand, under_pair, cover


def _strand_at(cover, walk, step, t) -> int:
    for (si, lo, hi, s) in cover[walk]:
        if si == step and lo <= t <= hi:
            return s
    raise AssertionError(f"no strand at walk {walk} step {step} t={t}")


def _rank_mod3(rows, cols) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % 3), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 if mat[rank][col] % 3 == 1 else 2
        mat[rank] = [(x * inv) % 3 for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % 3:
                f = mat[r][col] % 3
                mat[r] = [(x - f * y) % 3 for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def tricolor_count(segments) -> int:
    """Fox 3-colorings of the link the 3D sticks form: at every crossing
    under_in + under_out + over = 0 (mod 3); count = 3^nullity."""
    walks, crossings = generic_diagram(segments)
    n_strands, under_pair, cover = _strands(walks, crossings)
    rows = []
    for c in crossings:
        under_in, under_out = under_pair[id(c)]
        over = _strand_at(cover, *c.over)
        row = [0] * n_strands
        for s in (under_in, under_out, over):
            row[s] = (row[s] + 1) % 3
        rows.append(row)
    return 3 ** (n_strands - _rank_mod3(rows, n_strands))


def linking_number_abs(segments) -> Fraction:
    """|lk| of a 2-component link: half the signed crossing sum between the
    two walks.  The sign convention cancels inside the absolute value."""
    walks, crossings = generic_diagram(segments)
    if len(walks) != 2:
        raise AssertionError(f"need 2 components, found {len(walks)}")
    total = 0
    for c in crossings:
        if c.under[0] != c.over[0]:
            total += c.sign
    return abs(Fraction(total, 2))


# ---------------------------------------------------------------------------
# the exact verifier's witnesses, every pair and every crossing in Fractions


def _pair_meet(p, q, r, s):
    """("none" | "point" | "overlap", point) for closed segments of positive
    length, the meeting point when it is one."""
    d1, d2, w = _sub(q, p), _sub(s, r), _sub(r, p)
    c = _cross(d1, d2)
    if c != (0, 0, 0):
        if _dot(w, c) != 0:
            return "none", None
        cc = _dot(c, c)
        t = Fraction(_dot(_cross(w, d2), c), cc)
        u = Fraction(_dot(_cross(w, d1), c), cc)
        if 0 <= t <= 1 and 0 <= u <= 1:
            return "point", _lerp(p, d1, t)
        return "none", None
    if _cross(w, d1) != (0, 0, 0):
        return "none", None
    dd = _dot(d1, d1)
    t0 = Fraction(_dot(_sub(r, p), d1), dd)
    t1 = Fraction(_dot(_sub(s, p), d1), dd)
    lo, hi = max(min(t0, t1), Fraction(0)), min(max(t0, t1), Fraction(1))
    if lo > hi:
        return "none", None
    if lo == hi:
        return "point", _lerp(p, d1, lo)
    return "overlap", None


def _pair_witness(segs, i: int, j: int) -> str:
    (p, q), (r, s) = segs[i], segs[j]
    if p == q or r == s:
        return f"sticks {i} and {j} overlap along a segment"
    for x in (p, q):
        if x == r or x == s:
            u = _sub(q if x == p else p, x)
            v = _sub(s if x == r else r, x)
            if _cross(u, v) != (0, 0, 0) or _dot(u, v) <= 0:
                return ""
            return f"sticks {i} and {j} overlap along a segment"
    kind, pt = _pair_meet(p, q, r, s)
    if kind == "none":
        return ""
    if kind == "overlap":
        return f"sticks {i} and {j} overlap along a segment"
    return (f"sticks {i} and {j} meet at {tuple(str(x) for x in pt)}"
            " away from a shared endpoint")


def simplicity_witness(segments) -> str:
    """The exact check_simplicity witness, or '' for a simple embedding:
    every pair in lexicographic order, the first failing one named."""
    segs = [(_fr3(a), _fr3(b)) for a, b in segments]
    if len(segs) == 1 and segs[0][0] == segs[0][1]:
        return "stick 0 has zero length"
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            witness = _pair_witness(segs, i, j)
            if witness:
                return witness
    return ""


def _page_pieces(boundary, ends, sticks):
    """Per stick of one page, its ends as (t, point) in parameter order
    along the chord from boundary[ends[0]]; None when an end leaves the
    chord or the page has no sticks."""
    a, b = boundary[ends[0]], boundary[ends[1]]
    d = (b[0] - a[0], b[1] - a[1])
    dd = d[0] * d[0] + d[1] * d[1]
    pieces = []
    for s in sticks:
        entry = []
        for pt in map(_fr3, (s.a, s.b)):
            if d[0] * (pt[1] - a[1]) - d[1] * (pt[0] - a[0]) != 0:
                return None
            t = ((pt[0] - a[0]) * d[0] + (pt[1] - a[1]) * d[1]) / dd
            if not 0 <= t <= 1:
                return None
            entry.append((t, pt))
        pieces.append(sorted(entry))
    return pieces or None


def _heights_at(pieces, t):
    """The least and greatest height over t of every piece that covers it,
    both ends of a vertical one, or None."""
    zs = []
    for (t0, p0), (t1, p1) in pieces or ():
        if t0 <= t <= t1:
            if t0 == t1:
                zs += [p0[2], p1[2]]
            else:
                zs.append(p0[2] + (p1[2] - p0[2]) * (t - t0) / (t1 - t0))
    return (min(zs), max(zs)) if zs else None


def crossing_order_witness(se, cd) -> tuple[bool, str]:
    """check_crossing_order's verdict and detail, straight from the
    definition: the chords' meeting parameters by a 2x2 solve, and the
    heights over them by interpolation along every stick of each page
    there; page i's highest must lie below page j's lowest."""
    problems = []
    by_page: dict = {}
    for s in se.sticks:
        by_page.setdefault(s.page, []).append(s)
    pieces = {ch.page: _page_pieces(cd.boundary, ch.ends, by_page.get(ch.page, []))
              for ch in cd.chords}
    for i, j in cd.crossings:
        ci, cj = cd.chords[i - 1], cd.chords[j - 1]
        a, b = cd.boundary[ci.ends[0]], cd.boundary[ci.ends[1]]
        c, d = cd.boundary[cj.ends[0]], cd.boundary[cj.ends[1]]
        di, dj = (b[0] - a[0], b[1] - a[1]), (d[0] - c[0], d[1] - c[1])
        den = di[0] * dj[1] - di[1] * dj[0]
        if den == 0:
            problems.append(f"crossing ({i},{j}): chords parallel")
            continue
        w = (c[0] - a[0], c[1] - a[1])
        ti = Fraction(w[0] * dj[1] - w[1] * dj[0]) / den
        tj = Fraction(w[0] * di[1] - w[1] * di[0]) / den
        zi, zj = _heights_at(pieces[i], ti), _heights_at(pieces[j], tj)
        if zi is None or zj is None:
            problems.append(f"crossing ({i},{j}): geometry missing over the crossing")
        elif not zi[1] < zj[0]:
            zi, zj = zi[1], zj[0]
            problems.append(f"crossing ({i},{j}): page {i} at height {zi} not under page {j} at {zj}")
    return (not problems,
            "; ".join(problems[:3]) if problems else f"{len(cd.crossings)} crossings ordered")


# ---------------------------------------------------------------------------
# the equal-length motion certificate, every pair at every sample


def clearance(p, q, r, s, snap: float) -> float:
    """The certificate's trimmed clearance, by its definition: the segment
    distance after both sticks are trimmed at the first pair of ends
    within snap of each other."""
    for x in (p, q):
        for y in (r, s):
            if eb._dist(x, y) <= snap:
                return vf.seg_distance(*eb._trimmed(p, q, x), *eb._trimmed(r, s, y))
    return vf.seg_distance(p, q, r, s)


def sampled_certificate(before, after):
    """isotopy_certificate's verdict with clearance evaluated for every
    (mover, parked) pair at every SWEEP_STEP_RAD sample."""
    M = after.M
    snap = eb.SNAP_REL * M
    floor = eb.CERT_CLEARANCE_REL * M
    comp = after.components[0]
    state = {s.tag: (s.a, s.b) for s in before.sticks if s.tag not in comp.deleted_tags}
    final = {s.tag: (s.a, s.b) for s in after.sticks}

    report = eb.CertificateReport(passed=True)
    hub = None   # where the first sweep ends
    for move in comp.moves:
        diri = (math.cos(move.page_angle), math.sin(move.page_angle))
        parked = state.get(move.tag)
        start_free = eb._free_end(move.pivot, diri, M, move.phi_start)
        if parked is None or not eb._same_seg(parked, (move.pivot, start_free), snap):
            report.passed = False
            report.detail = f"{move.tag} does not start where it is parked"
            return report
        if hub is None:
            hangs = move.hub is None
        else:
            hangs = move.hub is not None and eb._dist(move.hub, hub) <= snap
        if not hangs:
            report.passed = False
            report.detail = f"{move.tag} does not hang from the first sweep's end"
            return report
        steps = max(2, int(math.ceil(abs(move.phi_end - move.phi_start) / eb.SWEEP_STEP_RAD)) + 1)
        min_seen = math.inf
        for step in range(steps + 1):
            phi = move.phi_start + (move.phi_end - move.phi_start) * step / steps
            free = eb._free_end(move.pivot, diri, M, phi)
            movers = [(move.pivot, free)]
            if move.hub is not None:
                movers.append((move.hub, free))
            for tag, (pa, pb) in state.items():
                if tag == move.tag:
                    continue
                for (qa, qb) in movers:
                    min_seen = min(min_seen, clearance(qa, qb, pa, pb, snap))
        report.moves.append((move.tag, min_seen))
        if min_seen <= floor:
            report.passed = False
            report.detail = f"sweep of {move.tag} pinched to {min_seen:.3e} (floor {floor:.3e})"
            return report
        end_free = eb._free_end(move.pivot, diri, M, move.phi_end)
        claimed = final.get(move.tag)
        if claimed is None or not eb._same_seg(claimed, (move.pivot, end_free), snap):
            report.passed = False
            report.detail = f"{move.tag} does not end where its sweep stops"
            return report
        state[move.tag] = claimed
        if hub is None:
            hub = end_free
        else:
            page = move.tag[3:].split(".")[0]
            joiner = final.get(f"join{page}")
            if joiner is None or not eb._same_seg(joiner, (move.hub, end_free), snap):
                report.passed = False
                report.detail = f"join{page} does not glue the hub to the swept end"
                return report
            state[f"join{page}"] = joiner

    if set(state) != set(final):
        report.passed = False
        report.detail = "stick tags differ from the swept state"
        return report
    for tag, seg in state.items():
        if not eb._same_seg(seg, final[tag], snap):
            report.passed = False
            report.detail = f"{tag} moved without a recorded sweep"
            return report

    tol = report.tolerance = all_pairs_tolerance(after)
    if tol.min_clearance < floor:
        report.passed = False
        report.detail = f"final clearance {tol.min_clearance:.3e} below floor {floor:.3e}"
    else:
        report.detail = f"{len(comp.moves)} sweeps clean; final clearance {tol.min_clearance:.3e}"
    return report


# ---------------------------------------------------------------------------
# the float clearance passes, every pair in lexicographic order


def _fsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _fdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def verifier_seg_distance(p, q, r, s) -> float:
    """The verifier's float segment distance as first written, through
    vector helpers and generator expressions; verifier.seg_distance writes
    the same operations out and must equal it float for float."""
    d1, d2, w = _fsub(q, p), _fsub(s, r), _fsub(p, r)
    a, b, c = _fdot(d1, d1), _fdot(d1, d2), _fdot(d2, d2)
    d, e = _fdot(d1, w), _fdot(d2, w)
    den = a * c - b * b
    sn, sd = (0.0, 1.0) if den <= 1e-14 * a * c else ((b * e - c * d), den)
    if sn < 0.0:
        sn, sd = 0.0, 1.0
    elif sn > sd:
        sn, sd = sd, sd
    sc = 0.0 if sd == 0.0 else sn / sd
    tn = e + sc * b
    if tn < 0.0 or c == 0.0:
        tc = 0.0
        sc = min(max(-d / a if a > 0 else 0.0, 0.0), 1.0)
    elif tn > c:
        tc = 1.0
        sc = min(max((b - d) / a if a > 0 else 0.0, 0.0), 1.0)
    else:
        tc = tn / c if c > 0 else 0.0
    cp1 = tuple(p[i] + sc * d1[i] for i in range(3))
    cp2 = tuple(r[i] + tc * d2[i] for i in range(3))
    return math.sqrt(_fdot(_fsub(cp1, cp2), _fsub(cp1, cp2)))


def guarded_seg_distance(p, q, r, s) -> float:
    """vf.seg_distance with its underflow guard as first written: entered
    whenever a c < 2^-900, point queries included, it scales the pair by
    2^k when k > 0 and measures it by verifier_seg_distance."""
    u, v, w = _fsub(q, p), _fsub(s, r), _fsub(p, r)
    if _fdot(u, u) * _fdot(v, v) < 2.0 ** -900:
        k = min(-math.frexp(max(map(abs, (*u, *v, *w))))[1],
                1022 - math.frexp(max(map(abs, (*p, *q, *r, *s))))[1])
        if k > 0:
            return math.ldexp(guarded_seg_distance(*(tuple(math.ldexp(x, k) for x in pt)
                                                     for pt in (p, q, r, s))), -k)
    return verifier_seg_distance(p, q, r, s)


def _all_pairs_minimum(emb, floor: float):
    """The least vf.seg_distance over every pair of sticks that share no
    junction, lower index first, or inf, and "sticks i/j at d" for each
    such pair below floor."""
    sticks = list(emb.sticks)
    least = math.inf
    problems = []
    keys = [{(s.component, s.ja), (s.component, s.jb)} for s in sticks]
    for i in range(len(sticks)):
        for j in range(i + 1, len(sticks)):
            if not keys[i].isdisjoint(keys[j]):
                continue
            si, sj = sticks[i], sticks[j]
            dist = vf.seg_distance(si.a, si.b, sj.a, sj.b)
            least = min(least, dist)
            if dist < floor:
                problems.append(f"sticks {i}/{j} at {dist:.3e}")
    return least, problems


def all_pairs_tolerance(emb):
    """tolerance_report with vf.seg_distance evaluated for every pair of
    sticks that share no junction, lower index first."""
    M = emb.M
    max_dev = 0.0
    for s in emb.sticks:
        max_dev = max(max_dev, abs(eb._dist(s.a, s.b) - M) / M)
    min_clear, _ = _all_pairs_minimum(emb, 0.0)
    if min_clear is math.inf:
        min_clear = M
    return eb.ToleranceReport(max_dev, min_clear, min_clear / M)


def all_pairs_clearance(emb) -> tuple[bool, str]:
    """check_equilateral's equilateral.clearance verdict and detail, with
    vf.seg_distance evaluated for every pair sharing no junction."""
    M = float(emb.M)
    clearance_min, problems = _all_pairs_minimum(emb, vf.TOLERANCES.clearance_rel * M)
    return (not problems,
            "; ".join(problems[:3]) if problems
            else f"min non-adjacent clearance {clearance_min:.3e}"
                 f" (>= {vf.TOLERANCES.clearance_rel * M:.3e})")


def all_pairs_float_simplicity(segments, scale=None) -> tuple[bool, str]:
    """The float branch of check_simplicity, verdict and detail, with every
    pair tested in lexicographic order."""
    segs = [(tuple(a), tuple(b)) for a, b in segments]
    if scale is None:
        scale = max(max(abs(c) for c in a + b) for a, b in segs) or 1.0
    snap = vf.TOLERANCES.junction_rel * scale
    clearance_min = vf.TOLERANCES.clearance_rel * scale
    bad = 0
    witness = ""
    min_clear = math.inf
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            (p, q), (r, s) = segs[i], segs[j]
            shared = None
            for x in (p, q):
                for y in (r, s):
                    if vf._norm(vf._vsub(x, y)) <= snap:
                        shared = x
            if shared is not None:
                u = vf._vsub(q if shared == p else p, shared)
                v = vf._vsub(s if vf._norm(vf._vsub(shared, r)) <= snap else r, shared)
                nu, nv = vf._norm(u), vf._norm(v)
                if nu > 0 and nv > 0 and vf._dot(u, v) / (nu * nv) > 1.0 - 1e-12:
                    bad += 1
                    witness = witness or f"sticks {i} and {j} fold back along each other"
                continue
            dist = vf.seg_distance(p, q, r, s)
            min_clear = min(min_clear, dist)
            if dist < clearance_min:
                bad += 1
                witness = witness or f"sticks {i} and {j} at distance {dist:.3e} < {clearance_min:.3e}"
    return bad == 0, witness if bad else f"min non-adjacent clearance {min_clear:.3e}"


# ---------------------------------------------------------------------------
# cull steps as first written: the references of their rewrites


def axis_bound(axis, ends) -> float:
    """K of the verifier's axis walk for the axis sticks axis, each as
    (cos theta, azimuth, axis end height, key there, index), taken over
    every pair of them rather than over neighbours in sorted order: the
    least gap on the circle between two distinct azimuths, and the least
    height gap between two axis ends with different keys."""
    gap = dz = math.inf
    for f, g in combinations(axis, 2):
        if f[1] == g[1]:
            if {*ends[f[-1]]}.isdisjoint(ends[g[-1]]):
                return 0.0
        else:
            d = abs(f[1] - g[1])
            gap = min(gap, d, 2 * math.pi - d)
        if f[3] != g[3]:
            dz = min(dz, abs(f[2] - g[2]))
    return math.inf if math.inf in (gap, dz) else math.sin(gap / 2) * dz


def box_sweep_fold_pairs(segs, floor, visit) -> None:
    """The verifier's fold pass as first written: a unit and a width for
    every stick end, and at every point that ends share, a sweep of their
    boxes over the units' first coordinate, two ends included."""
    rays = {}
    for i, (a, b) in enumerate(segs):
        for F, far in {a: b, b: a}.items():
            v = vf._vsub(far, F)
            n = vf._norm(v)
            w = math.sqrt(vf._FOLD) + 2 * floor / n if n else math.inf
            d = (v[0] / n, v[1] / n, v[2] / n) if n else v
            rays.setdefault(F, []).append((d[0] - w, i, w, d))
    for group in rays.values():
        active = []
        for box in sorted(group):
            lo, i, w, d = box
            active = [o for o in active if o[3][0] + o[2] >= lo]
            for _, k, ow, od in active:
                if vf._norm(vf._vsub(od, d)) <= ow + w:
                    visit(min(i, k), (max(i, k),))
            active.append(box)
