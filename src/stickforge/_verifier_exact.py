"""The verifier's exact kernel, and its simplicity check on it.

Exact checks compute in integers.  Each rational point becomes homogeneous
integers (X, Y, Z, W) with W > 0 the lcm of its denominators, the first
time a check reads it (a verify bundle's checks share one page index,
verifier._PageIndex); for reduced Fractions that form is canonical, so
point equality is tuple equality.  A difference b - a taken as
b_i W_a - a_i W_b is the true vector times W_a W_b > 0, so every zero or
sign test on cross and dot products is unchanged, and a parameter test
such as 0 <= t <= 1 becomes an integer comparison with the positive
scales put back.  A Fraction is built only to print a witness.

The exact simplicity check tests only some pairs, and loses nothing by it.
A common point of two segments lies in both closed bounding boxes, so a
sweep over exact boxes that drops a stick only once the sweep is strictly
past it, and compares y and z with <=, skips no pair that meets.  The boxes
may be rounded to nearest floats: rounding is monotone, so x <= y gives
fl(x) <= fl(y), and fl(x) < fl(y) gives x < y.  Two
segments with a common endpoint p lie on lines through p; unless the lines
are parallel they meet only at p, and when they are, the segments overlap
exactly when their directions from p agree.  A zero-length stick fails
wherever it lies: against every other stick, and alone as well.

_profile, _along and _family_ordered read the pages of a family, chords
with the same two ends, as height profiles over the chord, for the verify
bundle to settle simplicity without a sweep; the proof is in the
verifier's module docstring.

Like the verifier, this module imports no builder code.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _hom(p):
    """p as integers (X, ..., W): W > 0 is the lcm of the denominators and
    p = (X, ...) / W.  Canonical, so equal points give equal tuples."""
    ratios = [c.as_integer_ratio() for c in p]
    if len(ratios) == 3:   # a stick end or a junction, written out
        (x, dx), (y, dy), (z, dz) = ratios
        w = math.lcm(dx, dy, dz)
        return (x * (w // dx), y * (w // dy), z * (w // dz), w)
    w = math.lcm(*(d for _, d in ratios))
    return tuple(n * (w // d) for n, d in ratios) + (w,)


def _diff(a, b):
    """(b - a) W_a W_b for homogeneous 3D points a, b."""
    wa, wb = a[3], b[3]
    return (b[0] * wa - a[0] * wb, b[1] * wa - a[1] * wb, b[2] * wa - a[2] * wb)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _point_on(p, q, t):
    """p + t (q - p) as Fractions, for homogeneous p, q and t = n/d, d > 0."""
    n, d = t
    wp, wq = p[3], q[3]
    return tuple(Fraction(p[i] * wq * d + n * (q[i] * wp - p[i] * wq), wp * wq * d)
                 for i in range(3))


def _seg_meet_exact(p, q, r, s):
    """('none', None) | ('point', pt) | ('overlap', None) for closed segments
    of positive length with homogeneous ends; pt is in Fractions.

    The differences carry positive scales: d1 = (q - p) Wp Wq,
    d2 = (s - r) Wr Ws, w = (r - p) Wp Wr.  Zero tests are unchanged, and
    the parameters t on pq and u on rs come out scaled by Wr/Wq and Wp/Ws.
    """
    d1, d2, w = _diff(p, q), _diff(r, s), _diff(p, r)
    c = _cross(d1, d2)
    if c != (0, 0, 0):
        if _dot(w, c) != 0:
            return ("none", None)
        cc = _dot(c, c)
        tn, td = _dot(_cross(w, d2), c) * q[3], cc * r[3]
        un, ud = _dot(_cross(w, d1), c) * s[3], cc * p[3]
        if 0 <= tn <= td and 0 <= un <= ud:
            return ("point", _point_on(p, q, (tn, td)))
        return ("none", None)
    if _cross(w, d1) != (0, 0, 0):
        return ("none", None)
    length2 = _dot(d1, d1)
    t0 = (_dot(w, d1) * q[3], length2 * r[3])
    t1 = (_dot(_diff(p, s), d1) * q[3], length2 * s[3])
    lo, hi = (t0, t1) if t0[0] * t1[1] <= t1[0] * t0[1] else (t1, t0)
    if lo[0] < 0:
        lo = (0, 1)
    if hi[0] > hi[1]:
        hi = (1, 1)
    gap = lo[0] * hi[1] - hi[0] * lo[1]
    if gap > 0:
        return ("none", None)
    if gap == 0:
        return ("point", _point_on(p, q, lo))
    return ("overlap", None)


def _exact_pair_failure(segs, i: int, j: int) -> str:
    """Witness that sticks i < j meet other than at one shared endpoint, or ''."""
    (p, q), (r, s) = segs[i], segs[j]
    if p == q or r == s:
        return f"sticks {i} and {j} overlap along a segment"   # one has zero length
    for x in (p, q):
        if x == r or x == s:
            # lines through x meet only at x unless they are parallel
            u = _diff(x, q if x == p else p)
            v = _diff(x, s if x == r else r)
            if _cross(u, v) != (0, 0, 0) or _dot(u, v) <= 0:
                return ""
            kind, pt = "overlap", None
            break
    else:
        kind, pt = _seg_meet_exact(p, q, r, s)
    if kind == "none":
        return ""
    if kind == "overlap":
        return f"sticks {i} and {j} overlap along a segment"
    return (f"sticks {i} and {j} meet at {tuple(str(x) for x in pt)}"
            " away from a shared endpoint")


def _to_float(n: int, w: int) -> float:
    """n / w rounded to nearest, or an infinity past the float range."""
    try:
        return n / w
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _first_exact_failure(segs) -> str:
    """Witness of the lexicographically first failing pair, or ''.

    segs holds homogeneous ends.  Sweep and prune on closed bounding boxes
    of the coordinates rounded to floats: sticks enter in order of their
    least x and leave once the sweep has passed their greatest x; only
    pairs whose boxes meet in y and z as well are tested, exactly.
    """
    lo, hi = [], []
    for p, q in segs:
        fp = [_to_float(p[i], p[3]) for i in range(3)]
        fq = [_to_float(q[i], q[3]) for i in range(3)]
        lo.append(tuple(map(min, fp, fq)))
        hi.append(tuple(map(max, fp, fq)))
    best, witness = None, ""
    # a zero-length stick fails against every other one, so the least pair
    # holding one is (0, k), or (0, 1) when k = 0
    k = next((k for k, (p, q) in enumerate(segs) if p == q), None)
    if k is not None:
        if len(segs) == 1:
            return "stick 0 has zero length"
        best = (0, k or 1)
        witness = _exact_pair_failure(segs, *best)
    active: list[int] = []
    for j in sorted(range(len(segs)), key=lambda n: lo[n][0]):
        (lx, ly, lz), (_, hy, hz) = lo[j], hi[j]
        kept = []
        for i in active:
            if hi[i][0] < lx:
                continue
            kept.append(i)
            if lo[i][1] <= hy and ly <= hi[i][1] and lo[i][2] <= hz and lz <= hi[i][2]:
                pair = (i, j) if i < j else (j, i)
                if best is None or pair < best:
                    found = _exact_pair_failure(segs, *pair)
                    if found:
                        best, witness = pair, found
        kept.append(j)
        active = kept
    return witness


def _profile(pieces, one, flip: bool):
    """A tiled page with no vertical piece as its height profile (nodes,
    one): the nodes (t, z) of its sorted pieces from chord parameter 0 to
    one, read from the other chord end (t -> one - t) when flip."""
    order = sorted(pieces, key=lambda e: e[0][0])
    nodes = [(t, z) for t, _, z in (order[0][0], *(e[1] for e in order))]
    return ([(one - t, z) for t, z in reversed(nodes)] if flip else nodes), one


def _along(profile, params):
    """A profile's heights (n, d), d > 0, at the sorted chord parameters
    p/q, 0 <= p/q <= 1, given as (p, q) with q > 0: one merge walk."""
    nodes, one = profile
    heights, i = [], 1
    for p, q in params:
        while nodes[i][0] * q < p * one:
            i += 1
        (t0, (z0, w0)), (t1, (z1, w1)) = nodes[i - 1], nodes[i]
        ln, ld = p * one - t0 * q, (t1 - t0) * q
        heights.append((z0 * w1 * ld + ln * (z1 * w0 - z0 * w1), w0 * w1 * ld))
    return heights


def _family_ordered(profiles) -> bool:
    """Whether the profiles of one family lie strictly one above another at
    every interior node: sorted by height at parameter 1/2, each adjacent
    pair strictly, at the interior nodes of both, and not both straight
    (the proof is in the verifier's module docstring)."""
    order = sorted(profiles, key=lambda f: Fraction(*_along(f, [(1, 2)])[0]))
    for lo, hi in zip(order, order[1:]):
        if len(lo[0]) == len(hi[0]) == 2:
            return False   # one straight segment between the same junctions, twice
        for f, g, sign in ((lo, hi, 1), (hi, lo, -1)):
            inner = f[0][1:-1]
            for (_, (n, d)), (m, e) in zip(inner, _along(g, [(t, f[1]) for t, _ in inner])):
                if sign * (m * d - n * e) <= 0:
                    return False
    return True
