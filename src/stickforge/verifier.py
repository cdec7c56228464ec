"""Independent geometric certification of built embeddings.

Every check here recomputes its facts from the embedding coordinates and
the circular diagram alone; nothing is trusted from the builders, and this
module imports none of their code.  Exact checks run on rational inputs
with zero tolerance.  Floating-point embeddings are judged against
TOLERANCES (kept in _verifier_float), all relative to the stick length
scale.  A simplicity check whose input mixes rational and float
coordinates fails.

Exact checks compute in integers, on the homogeneous points of
_verifier_exact, which also holds the exact simplicity check and proves
its pruning.  A Fraction is built only to print a witness.

A passing simplicity + projection + crossing-order report certifies that
the embedded union of sticks projects to a diagram identical to the given
circular one (same crossings, same over/under, same incidences), which
pins down the spatial graph type.  Projection fails any stick on a page
the diagram lacks, so no stick escapes that comparison.

Crossing order computes a crossing's point only when the pages' heights
could reach each other there.  Say the pieces of a page tile its chord:
sorted, they start at parameter 0, end at 1 and leave no gap.  Then every
parameter t lies in a piece, and every height there, read from each piece
that covers t as z0 + (z1 - z0) u with u = (t - t0)/(t1 - t0) in [0, 1]
(both z0 and z1 when t0 = t1), lies between that piece's end heights, so
within the least and greatest end heights of the page.  The chords of a
diagram crossing have ends that interleave on the circle, so they meet
inside both.  So when both pages tile their chords and the greatest end
height of page i lies below the least of page j, page i passes under page
j at the crossing, which passes as it would with its point computed.  Any
other crossing is computed, so a page with a missing or gapped stick still
reports the geometry missing where it is.  _chord_pieces divides a page's
parameters by their gcd and keeps heights in lowest terms; both leave
every comparison and every printed height as it was.

verify_stick_embedding hands the three checks one _PageIndex of the
embedding; alone, projection and crossing order build their own, and
simplicity sweeps its segments.  The index converts a stick end or
junction to homogeneous form the first time a check reads it, settles each
page's pieces, and whether they tile its chord, on first use, and keeps
both.  A point converts, or raises, the same wherever it is read, so the
bundle reports or raises as the checks alone do, in any order.

The bundle runs simplicity last, and settles it from the diagram, with no
pair sweep, when every coordinate is rational, projection and crossing
order have passed on the index, no piece is vertical (t0 = t1, as for a
zero-length stick) and every family is ordered as below.  Otherwise it
sweeps as alone, so every failing entry and witness comes from the sweep.
Under those conditions each stick lies over its page's chord on a
parameter interval of positive length, one point over each parameter, and
two sticks meet only where their shadows meet:
- Same page: sorted, the pieces tile the chord, so two of them share at
  most the parameter where one ends and the next starts, and the chain
  makes that one 3D point, an end of both.
- Chords that cross: they meet at one point, inside both, where each page
  has one height, and crossing order has shown the lower page strictly
  below the upper there.
- Chords that share exactly one end: they meet only over that boundary
  point (three points of a circle are never collinear), where both pages
  end at its one junction, an end of the one stick of each page there.
- A family, chords with the same two ends: each page's height is
  piecewise linear in the chord parameter s, read from one boundary point
  of the family (at 1 - s for a member whose chord lists its ends the
  other way; parameters are integers on each page's own scale one), and
  every member takes the two junctions' heights at s = 0 and 1.  If one
  member lies strictly below another at every interior breakpoint of
  either, it lies strictly below on the whole open chord: between
  neighbouring breakpoints, or a breakpoint and an end, both are linear,
  and the gap is positive at one end and at least 0 at the other.  So the
  members are sorted by height at s = 1/2, and each adjacent pair is
  tested at the interior breakpoints of both; strict order is transitive,
  so that orders the whole family, in O(k log k + breakpoints) for k
  members instead of C(k, 2) pair tests.  A tie at 1/2 fails at some
  breakpoint by the same argument, and a pair with no interior breakpoint
  is one straight segment twice; either falls back to the sweep.
- Any other pair: the chords' four ends are distinct and do not
  interleave on the circle, so the chords, and the shadows on them, are
  disjoint.
This trusts cd exactly as far as crossing order already does: its
crossings are the pairs of chords whose ends interleave, and its boundary
points are distinct and lie on the circle in cyclic order.  It is the
open-book fact that arcs on distinct pages meet only in the binding
(Cromwell, "Embedding knots and links in an open book I", 1995), read in
projection.

The float checks, check_equilateral's clearance and the float branch of
check_simplicity, fail any coordinate or scale that is not finite, a
length scale that is not positive, and a coordinate beyond 2^200 in
magnitude or a scale outside [2^-200, 2^200], before they measure
anything.  Then they measure only the pairs that
_verifier_float._near_pairs hands them: every pair with no key of ends in
common that could come within the least distance or the floor, and no
pair twice.  check_simplicity also fold-tests the pairs that its fold
pass, _verifier_float._fold_pairs, hands it: every pair with an end in
common whose directions from there could fold back.  That module holds
the culls, the fold pass, the clearance pass that check_equilateral
measures with (_clearance), the distance kernel and the float
tolerances, and its docstring proves, over that range, that minima,
verdicts and witnesses are those of testing every pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import le, sub

from ._verifier_exact import _family_ordered, _first_exact_failure, _hom, _profile
from ._verifier_float import (_FOLD, _RANGE, TOLERANCES, Tolerances, _clearance, _dot, _fold_pairs,
                              _near_pairs, _norm, _vsub, seg_distance)


@dataclass
class ReportEntry:
    check: str
    passed: bool
    witness: str = ""


@dataclass
class VerificationReport:
    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if not e.passed]

    def add(self, check: str, passed: bool, witness: str = "") -> None:
        self.entries.append(ReportEntry(check, passed, witness))

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        self.entries.extend(other.entries)
        return self

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            suffix = f"  [{e.witness}]" if (e.witness and not e.passed) else ""
            lines.append(f"{e.check}: {mark}{suffix}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# float input checks


def _coordinates(segs):
    """Every coordinate of segs, stick by stick, end a before end b."""
    return chain.from_iterable(chain.from_iterable(segs))


def _mixed_witness(segs) -> str:
    """Name stick 0 and the first stick whose coordinates differ from its
    first one in kind."""
    rational = [isinstance(c, (Fraction, int)) for c in _coordinates(segs)]
    k = rational.index(not rational[0]) // 6
    if k == 0:
        return "stick 0 mixes rational and float coordinates"
    return f"sticks 0 and {k} mix rational and float coordinates"


def _bad_coordinate(segs) -> str:
    """Witness naming the first coordinate that is not finite or lies beyond
    2^200 in magnitude, or ''."""
    if all(map(le, map(abs, _coordinates(segs)), repeat(_RANGE))):
        return ""
    for k, (a, b) in enumerate(segs):
        for end, pt in (("a", a), ("b", b)):
            for c in pt:
                if not abs(c) <= _RANGE:
                    beyond = " beyond 2^200" if math.isfinite(c) else ""
                    return f"stick {k} end {end} has coordinate {c}{beyond}"
    return ""


def _bad_length(label: str, value) -> str:
    """Witness for a length scale, named by label, that is not finite and
    positive or lies outside [2^-200, 2^200], or ''."""
    if not (math.isfinite(value) and value > 0):
        return f"{label} is not a finite positive length"
    return "" if 1 / _RANGE <= value <= _RANGE else f"{label} lies outside [2^-200, 2^200]"


# ---------------------------------------------------------------------------
# checks


def check_simplicity(segments, scale: float | None = None, *, _index=None) -> VerificationReport:
    """Pairwise disjointness, except single shared endpoints.

    segments: iterable of (a, b) point pairs.  Rational coordinates get the
    exact test; floats get clearance >= clearance_rel * scale for pairs not
    sharing an endpoint, and a non-overlap direction test for pairs that do.
    A list that mixes the two fails, and so does a float coordinate or scale
    that is not finite, a scale that is not positive, a coordinate beyond
    2^200 in magnitude, or a scale, given or derived (the largest
    coordinate magnitude, or 1 when all are 0), outside [2^-200, 2^200].
    _index is verify_stick_embedding's _PageIndex of the embedding whose
    sticks the segments are, which changes no result: once projection and
    crossing order have passed on it, a rational PASS may come from the
    diagram without a sweep (see the module docstring).
    """
    segs = [(tuple(a), tuple(b)) for a, b in segments]
    report = VerificationReport()
    kinds = set(map(type, _coordinates(segs)))
    rational = {False} if kinds == {float} else {issubclass(t, (Fraction, int)) for t in kinds}
    if False not in rational:   # every coordinate rational, or none at all
        witness = "" if _index and _index.settles_simplicity() else _first_exact_failure(
            _index.ends() if _index else [(_hom(a), _hom(b)) for a, b in segs])
        report.add("simplicity", not witness,
                   witness or f"{len(segs)} sticks pairwise disjoint away from junctions")
        return report
    if True in rational:
        report.add("simplicity", False, _mixed_witness(segs))
        return report

    witness = _bad_coordinate(segs)
    if not witness:
        if scale is None:
            scale = max(map(abs, _coordinates(segs))) or 1.0
        witness = _bad_length(f"scale {scale}", scale)
    if witness:
        report.add("simplicity", False, witness)
        return report
    snap = TOLERANCES.junction_rel * scale
    clearance_min = TOLERANCES.clearance_rel * scale
    failing = []

    def visit(i: int, ks) -> float:
        p, q = segs[i]
        least = math.inf
        for j in ks:
            r, s = segs[j]
            shared = None
            for x in (p, q):
                for y in (r, s):
                    dx, dy, dz = x[0] - y[0], x[1] - y[1], x[2] - y[2]   # _norm(_vsub(x, y))
                    if math.sqrt(dx * dx + dy * dy + dz * dz) <= snap:
                        shared = x
            if shared is not None:
                u = _vsub(q if shared == p else p, shared)
                v = _vsub(s if _norm(_vsub(shared, r)) <= snap else r, shared)
                nu, nv = _norm(u), _norm(v)
                if nu > 0 and nv > 0 and _dot(u, v) / (nu * nv) > 1.0 - _FOLD:
                    failing.append((i, j, f"sticks {i} and {j} fold back along each other"))
                continue
            dist = seg_distance(p, q, r, s)
            if dist < clearance_min:
                failing.append((i, j, f"sticks {i} and {j} at distance {dist:.3e} < {clearance_min:.3e}"))
            if dist < least:
                least = dist
        return least

    min_clear = _near_pairs(segs, segs, clearance_min, visit)
    _fold_pairs(segs, clearance_min, visit)
    detail = min(failing)[2] if failing else f"min non-adjacent clearance {min_clear:.3e}"
    report.add("simplicity", not failing, detail)
    return report


def _chord_pieces(k: int, a, b, ends):
    """The sticks of page k, given by their ends, as parameter intervals
    along its chord from a to b, each with its ends in parameter order as
    (t, point, height), and the parameter of the far chord end; or a
    failure string.  Verifies on-line projection and in-segment parameters.

    a and b are homogeneous 2D points, stick ends homogeneous 3D points,
    heights (n, d) in lowest terms, and parameters integers on one scale per
    page: with d = (b - a) Wa Wb, a point's parameter along the chord is
    dot((p - a) Wa W, d) Wb / (W |d|^2), and the page's scale multiplies
    every parameter by the lcm of its ends' W times |d|^2, then divides them
    all by their gcd.
    """
    d = (b[0] * a[2] - a[0] * b[2], b[1] * a[2] - a[1] * b[2])
    if not ends:
        return None, 0, f"page {k} has no sticks"
    scale = math.lcm(*(pt[3] for pair in ends for pt in pair))
    one = scale * (d[0] * d[0] + d[1] * d[1])
    pieces = []
    for pair in ends:
        entry = []
        for pt in pair:
            w = (pt[0] * a[2] - a[0] * pt[3], pt[1] * a[2] - a[1] * pt[3])
            if d[0] * w[1] - d[1] * w[0] != 0:
                return None, 0, f"page {k} stick endpoint projects off the chord line"
            t = (w[0] * d[0] + w[1] * d[1]) * b[2] * (scale // pt[3])
            if not 0 <= t <= one:
                return None, 0, f"page {k} stick endpoint projects outside the chord"
            g = math.gcd(pt[2], pt[3])
            entry.append((t, pt, (pt[2] // g, pt[3] // g)))
        (t0, _, z0), (t1, _, z1) = entry
        if t0 > t1 or (t0 == t1 and z0[0] * z1[1] > z1[0] * z0[1]):
            entry.reverse()
        pieces.append(entry)
    g = math.gcd(one, *(t for entry in pieces for t, _, _ in entry))
    return [tuple((t // g, pt, z) for t, pt, z in entry) for entry in pieces], one // g, ""


class _PageIndex:
    """The one view of se over cd that the exact checks read: the sticks of
    each page, grouped in one pass, and the boundary points in homogeneous
    form.  A point object (a stick end or a junction) is converted the first
    time a check reads it, and a page is settled on first use; all of it is
    kept.  The document reader hands back one tuple per distinct point, so
    a read embedding converts each distinct point once.  passed holds the
    names of the checks that passed on this index."""

    def __init__(self, se, cd):
        self.se, self.cd = se, cd
        self.passed: set = set()
        self.boundary = [_hom(p) for p in cd.boundary]
        self.sticks: dict = {}   # page -> its sticks
        for s in se.sticks:
            self.sticks.setdefault(s.page, []).append(s)
        self._points: dict = {}   # id of a point that se holds -> its homogeneous form
        self._pages: dict = {}

    def _point(self, p):
        """p in homogeneous form, converted on the first read of the object."""
        h = self._points.get(id(p))
        if h is None:
            h = self._points[id(p)] = _hom(p)
        return h

    def ends(self):
        """Every stick's homogeneous ends (a, b), in stick order."""
        return [(self._point(s.a), self._point(s.b)) for s in self.se.sticks]

    def junction(self, e):
        """The homogeneous junction over axis index e, or None."""
        pt = self.se.junctions.get(e)
        return None if pt is None else self._point(pt)

    def page(self, k: int):
        """Page k as (pieces, one, tiling, chains, ends, tiled): _chord_pieces'
        pieces in stick order and far chord end; projection's problem with
        the page's tiling or its chain, the first along the chord, or ''; the
        chain's end points; and whether the pieces tile the chord."""
        if k not in self._pages:
            a, b = self.cd.chords[k - 1].ends
            pieces, one, tiling = _chord_pieces(k, self.boundary[a], self.boundary[b], [
                (self._point(s.a), self._point(s.b)) for s in self.sticks.get(k, ())])
            chains, ends, tiled = "", None, False
            if pieces is not None:
                order = sorted(pieces, key=lambda e: (e[0][0], e[1][0]))
                ends = order[0][0][1], order[-1][1][1]
                # one flag per step to the next piece that changes the point:
                # whether it keeps the parameter (the chain breaks) or not (a gap)
                steps = [x[1][0] == y[0][0] for x, y in zip(order, order[1:]) if x[1] != y[0]]
                if order[0][0][0] != 0 or order[-1][1][0] != one:
                    tiling = f"page {k} shadow does not span its chord"
                elif steps and not steps[0]:
                    tiling = f"page {k} shadows leave a gap or overlap"
                elif steps:
                    chains = f"page {k} sticks break apart in space"
                tiled = not tiling and all(steps)
            self._pages[k] = pieces, one, tiling, chains, ends, tiled
        return self._pages[k]

    def settles_simplicity(self) -> bool:
        """Whether the module docstring's proof gives simplicity: projection
        and crossing order passed on this index, no piece is vertical, and
        the pages of every family are strictly ordered."""
        if self.passed != {"projection", "crossing-order"}:
            return False
        families: dict = {}
        for chord in self.cd.chords:
            pieces, one = self.page(chord.page)[:2]
            if any(x[0] == y[0] for x, y in pieces):
                return False   # a vertical piece, or a zero-length stick
            families.setdefault(frozenset(chord.ends), []).append((pieces, one, chord.ends))
        return all(_family_ordered([_profile(pieces, one, a > b) for pieces, one, (a, b) in f])
                   for f in families.values() if len(f) > 1)


def check_projection(se, cd, *, _index=None) -> VerificationReport:
    """Projection fidelity: every chord is tiled exactly by its sticks'
    shadows and every stick lies on a chord's page, chains are 3D-continuous
    between its junction endpoints, the junction table projects onto the
    boundary points and names only them, and the heights table matches the
    geometry (integral, strictly increasing in page order) and names only
    the diagram's pages.  _index is verify_stick_embedding's _PageIndex of
    se and cd, which changes no result."""
    report = VerificationReport()
    problems: list[str] = []

    for b, pt in se.junctions.items():
        if b not in range(cd.m):
            problems.append(f"junction key {b} names no boundary point (the diagram has {cd.m})")
        elif (pt[0], pt[1]) != cd.boundary[b]:
            problems.append(f"junction over point {b} projects off its boundary point")
    for b in range(cd.m):
        if b not in se.junctions:
            problems.append(f"no junction recorded over point {b}")
    report.add("projection.junctions", not problems, "; ".join(problems[:3]))

    index = _index or _PageIndex(se, cd)
    tile_problems: list[str] = []
    chain_problems: list[str] = []
    for chord in cd.chords:
        _, _, tiling, chains, ends, _ = index.page(chord.page)
        if tiling:
            tile_problems.append(tiling)
        elif chains:
            chain_problems.append(chains)
        elif set(ends) != {index.junction(e) for e in chord.ends}:
            chain_problems.append(f"page {chord.page} does not end at its junctions")
    pages = {chord.page for chord in cd.chords}
    tile_problems.extend(f"page {k} has sticks but no chord in the diagram"
                         for k in index.sticks if k not in pages)
    report.add("projection.tiling", not tile_problems, "; ".join(tile_problems[:3]))
    report.add("projection.chains", not chain_problems, "; ".join(chain_problems[:3]))

    height_problems: list[str] = []
    prev = 0
    for chord in cd.chords:
        k = chord.page
        z = se.heights.get(k)
        if z is None or z != int(z):
            height_problems.append(f"page {k} height missing or non-integer")
            continue
        if z <= prev:
            height_problems.append(f"page {k} height {z} not above page {k - 1}")
        prev = z
        tops = [max(s.a[2], s.b[2]) for s in index.sticks.get(k, ())]
        if tops and max(tops) != z:
            height_problems.append(f"page {k} geometry tops out at {max(tops)}, table says {z}")
    height_problems.extend(f"page {k} has a height but no chord in the diagram"
                           for k in se.heights if k not in pages)
    report.add("projection.heights", not height_problems, "; ".join(height_problems[:3]))
    if report.ok:
        index.passed.add("projection")
    return report


def _span(pieces):
    """The least and greatest end heights (n, d) of a page's pieces."""
    zs = sorted([z for e in pieces for _, _, z in e],
                key=lambda z: z[0] if z[1] == 1 else Fraction(*z))
    return zs[0], zs[-1]


def _heights_on_chord(page, t):
    """The least and greatest heights (zn, zd), zd > 0, of a page's pieces
    over chord parameter t = n/d, d > 0, or None.  Every piece that covers t
    is read, a vertical one at both ends, so the stick order does not
    matter; on a page whose pieces tile the chord, a parameter inside a
    piece lies in no other, and that piece alone is read."""
    pieces, one = page[:2]
    if pieces is None:
        return None
    n, d = t
    nt = n * one
    zs = []
    for (t0, _, (z0, w0)), (t1, _, (z1, w1)) in pieces:
        if t0 * d <= nt <= t1 * d:
            if t0 == t1:
                zs += (z0, w0), (z1, w1)
                continue
            ln, ld = nt - t0 * d, (t1 - t0) * d
            z = z0 * w1 * ld + ln * (z1 * w0 - z0 * w1), w0 * w1 * ld
            if 0 < ln < ld and page[5]:
                return z, z
            zs.append(z)
    if len(zs) > 1:
        zs.sort(key=lambda z: Fraction(*z))
    return (zs[0], zs[-1]) if zs else None


def check_crossing_order(se, cd, *, _index=None) -> VerificationReport:
    """At every diagram crossing the earlier page passes strictly under:
    its greatest height over the crossing lies below the later page's least.

    With homogeneous boundary points, the chords' directions and offset
    carry the positive scales Wa Wb, Wc Wd and Wa Wc, so the crossing's
    parameters come out as ti = cross(w, dj) Wb / (den Wc) and
    tj = cross(w, di) Wd / (den Wa).  A crossing whose page i lies wholly
    below page j passes without them (see the module docstring).  _index
    is as in check_projection; the boundary points come from it.
    """
    report = VerificationReport()
    problems: list[str] = []
    index = _index or _PageIndex(se, cd)
    chords = []   # page k's chord ends and direction, the page and its span, at k - 1
    if cd.crossings:
        for k, chord in enumerate(cd.chords, 1):
            a, b = index.boundary[chord.ends[0]], index.boundary[chord.ends[1]]
            page = index.page(k)
            chords.append((a, b, (b[0] * a[2] - a[0] * b[2], b[1] * a[2] - a[1] * b[2]),
                           page, _span(page[0]) if page[5] else None))
    for (i, j) in cd.crossings:
        (a, b, di, page_i, top), (c, d, dj, page_j, low) = chords[i - 1], chords[j - 1]
        den = di[0] * dj[1] - di[1] * dj[0]
        if den == 0:
            problems.append(f"crossing ({i},{j}): chords parallel")
            continue
        if top and low and top[1][0] * low[0][1] < low[0][0] * top[1][1]:
            continue   # page i lies wholly below page j (module docstring)
        w = (c[0] * a[2] - a[0] * c[2], c[1] * a[2] - a[1] * c[2])
        sign = 1 if den > 0 else -1
        ti = (sign * (w[0] * dj[1] - w[1] * dj[0]) * b[2], sign * den * c[2])
        tj = (sign * (w[0] * di[1] - w[1] * di[0]) * d[2], sign * den * a[2])
        zi = _heights_on_chord(page_i, ti)
        zj = _heights_on_chord(page_j, tj)
        if zi is None or zj is None:
            problems.append(f"crossing ({i},{j}): geometry missing over the crossing")
            continue
        (top, w), (low, v) = zi[1], zj[0]   # page i's greatest height there, page j's least
        if not top * v < low * w:
            problems.append(f"crossing ({i},{j}): page {i} at height {Fraction(top, w)}"
                            f" not under page {j} at {Fraction(low, v)}")
    report.add("crossing-order", not problems,
               "; ".join(problems[:3]) if problems else f"{len(cd.crossings)} crossings ordered")
    if not problems:
        index.passed.add("crossing-order")
    return report


def verify_stick_embedding(se, cd) -> VerificationReport:
    """Full exact certification bundle: the entries of check_simplicity,
    check_projection and check_crossing_order, each as it reports alone,
    all reading one _PageIndex.  Simplicity runs last, so that it can be
    settled from the other two (see the module docstring)."""
    index = _PageIndex(se, cd)
    projection = check_projection(se, cd, _index=index)
    order = check_crossing_order(se, cd, _index=index)
    report = check_simplicity([(s.a, s.b) for s in se.sticks], _index=index)
    return report.merge(projection).merge(order)


def check_equilateral(emb) -> VerificationReport:
    """Equal lengths, per-component counts, junction coincidence, clearance.

    emb needs: sticks (each with a, b, component, ja, jb), M, components
    (each with index, n_arcs, reduced).  Counts accept 2n for embeddings
    flagged unreduced and 2n - 1 after reduction; a stick of a component
    not listed, or a component index listed twice, fails them.  An M that
    is not finite and positive or lies outside [2^-200, 2^200], or a
    coordinate that is not finite or lies beyond 2^200 in magnitude, fails
    equilateral.input and nothing else is checked.
    """
    report = VerificationReport()
    tol = TOLERANCES
    M = float(emb.M)
    sticks = list(emb.sticks)
    segs = [(s.a, s.b) for s in sticks]
    witness = _bad_length(f"M = {M}", M) or _bad_coordinate(segs)
    if witness:
        report.add("equilateral.input", False, witness)
        return report

    worst = max([0.0, *(abs(math.sqrt(x * x + y * y + z * z) - M) / M   # _norm(_vsub(b, a))
                        for x, y, z in (map(sub, b, a) for a, b in segs))])
    report.add("equilateral.lengths", worst <= tol.length_rel,
               f"max relative length deviation {worst:.3e} vs {tol.length_rel:.0e}")

    per_component = Counter(s.component for s in sticks)
    listed = Counter(c.index for c in emb.components)
    count_problems = [f"component {index} is listed {times} times"
                      for index, times in listed.items() if times > 1]
    for comp in emb.components:
        have = per_component[comp.index]
        want = 2 * comp.n_arcs - 1 if comp.reduced else 2 * comp.n_arcs
        note = "" if comp.reduced else " (pre-reduction)"
        if have != want:
            count_problems.append(
                f"component {comp.index}: {have} sticks, expected {want}{note}")
    for index, have in per_component.items():
        if index not in listed:
            count_problems.append(f"component {index}: {have} sticks, not a listed component")
    unreduced = [c.index for c in emb.components if not c.reduced]
    detail = "; ".join(count_problems[:3]) if count_problems else (
        f"pre-reduction components: {unreduced}" if unreduced else "all components reduced")
    report.add("equilateral.counts", not count_problems, detail)

    snap = tol.junction_rel * M
    junction_problems = []
    groups: dict[tuple[int, str], list] = {}
    for s in sticks:
        groups.setdefault((s.component, s.ja), []).append(s.a)
        groups.setdefault((s.component, s.jb), []).append(s.b)
    for (compi, label), pts in groups.items():
        for pt in pts[1:]:
            if _norm(_vsub(pt, pts[0])) > snap:
                junction_problems.append(
                    f"component {compi} junction {label} spread over {_norm(_vsub(pt, pts[0])):.3e}")
                break
    report.add("equilateral.junctions", not junction_problems, "; ".join(junction_problems[:3]))

    floor = tol.clearance_rel * M
    ends = [((s.component, s.ja), (s.component, s.jb)) for s in sticks]
    clearance_min, failing = _clearance(segs, ends, floor)
    problems = [f"sticks {i}/{j} at {dist:.3e}" for i, j, dist in sorted(failing)[:3]]
    report.add("equilateral.clearance", not problems,
               "; ".join(problems) if problems
               else f"min non-adjacent clearance {clearance_min:.3e} (>= {floor:.3e})")
    return report
