"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Tolerances are pinned here, not imported, so a drive-by constant change in
the package cannot silently weaken the gate: exact checks use zero
tolerance, equal-length builds must hit 1e-9 relative length deviation and
1e-6 relative clearance, and the timing budgets are hard limits.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import replace
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

import oracles
from stickforge.arc_presentation import catalog, catalog_names, validate_presentation
from stickforge.bounds import (
    arc_index_upper,
    equilateral_upper_main,
    stick_upper_from_arc,
    stick_upper_main,
)
from stickforge.circular_diagram import to_circular
from stickforge.cli import main
from stickforge.equilateral_builder import EStick, build_equilateral
from stickforge.randgen import PROFILES, random_presentation
from stickforge.stick_builder import build
from stickforge.verifier import check_crossing_order, check_equilateral, verify_stick_embedding

LENGTH_REL = 1e-9
CLEARANCE_REL = 1e-6


def criterion(cid: str, text: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"{cid} FAIL  {text}"
                ACCEPTANCE_LINES.append(line)
                print(line)
                raise
            line = f"{cid} PASS  {text} ({time.perf_counter() - t0:.2f}s)"
            ACCEPTANCE_LINES.append(line)
            print(line)
        return wrapper
    return deco


@criterion("C1", "classification identities on catalog + 1000 random presentations")
def test_c1_classification_identities():
    t0 = time.perf_counter()
    cases = [validate_presentation(catalog(name)) for name in catalog_names()]
    for seed in range(250):
        for profile in PROFILES:
            cases.append(validate_presentation(random_presentation(seed, profile=profile)))
    assert len(cases) >= 1000 + len(catalog_names())
    for vp in cases:
        cd = to_circular(vp)
        n2, n1, n0 = cd.counts
        n, e, v = vp.n, vp.vgraph.e, vp.vgraph.v
        assert n2 + n1 + n0 == n
        assert 2 * n2 + n1 == n - e + v
        assert cd.m == n - e + v
        assert Fraction(n0) <= Fraction(n + e - v, 2)
    assert time.perf_counter() - t0 < 5.0


@criterion("C2", "trefoil: 7 exact sticks, verifier + independent oracle, bound floor 7")
def test_c2_trefoil_exact_build():
    t0 = time.perf_counter()
    vp = validate_presentation(catalog("trefoil"))
    cd = to_circular(vp)
    se = build(cd)
    assert len(se.sticks) == 7

    report = verify_stick_embedding(se, cd)
    assert report.ok
    order = check_crossing_order(se, cd)
    assert order.ok and "5" in order.entries[0].witness  # all five crossings

    ok, why = oracles.embedding_is_simple([(s.a, s.b) for s in se.sticks])
    assert ok, why

    bound = stick_upper_from_arc(5, 1, 1)
    assert bound == Fraction(15, 2)
    assert len(se.sticks) <= bound.__floor__() == 7
    assert time.perf_counter() - t0 < 1.0


@criterion("C3", "theta_trivial(n), n=2..50: exactly 2n-1 sticks = 2e + 3b/2 - v/2")
def test_c3_theta_tightness():
    t0 = time.perf_counter()
    for n in range(2, 51):
        vp = validate_presentation(catalog(f"theta_trivial({n})"))
        se = build(to_circular(vp))
        assert len(se.sticks) == 2 * n - 1
        assert Fraction(len(se.sticks)) == stick_upper_main(0, n, 2, 0)
    assert time.perf_counter() - t0 < 5.0


@criterion("C4", "unlink(n), n=1..20: 3n sticks in both pipelines, exactly the bound")
def test_c4_unlink_tightness():
    for n in range(1, 21):
        vp = validate_presentation(catalog(f"unlink({n})"))
        se = build(to_circular(vp))
        assert len(se.sticks) == 3 * n
        assert Fraction(3 * n) == stick_upper_main(0, n, n, n)
        emb = build_equilateral(vp)
        assert len(emb.sticks) == 3 * n
        assert 3 * n == equilateral_upper_main(0, n, n, k=n)


@criterion("C5", "equal-length trefoil: 9 sticks within pinned tolerances; theta_trivial to n=20")
def test_c5_equilateral_builds():
    t0 = time.perf_counter()
    emb = build_equilateral(validate_presentation(catalog("trefoil")))
    assert len(emb.sticks) == 9 == equilateral_upper_main(3, 1, 1, 1)
    assert emb.tolerance is not None
    assert emb.tolerance.max_length_dev_rel <= LENGTH_REL
    assert emb.tolerance.min_clearance >= CLEARANCE_REL * emb.M
    assert emb.certificate is not None and emb.certificate.passed
    assert time.perf_counter() - t0 < 2.0

    for n in range(2, 21):
        t0 = time.perf_counter()
        emb = build_equilateral(validate_presentation(catalog(f"theta_trivial({n})")))
        assert len(emb.sticks) == 2 * n - 1
        assert emb.tolerance.max_length_dev_rel <= LENGTH_REL
        assert emb.tolerance.min_clearance >= CLEARANCE_REL * emb.M
        assert emb.certificate.passed
        assert time.perf_counter() - t0 < 2.0


@criterion("C6", "formula chain on 10^4 random tuples: exact rational equality")
def test_c6_formula_chain():
    rng = random.Random(20260814)
    for _ in range(10_000):
        c = rng.randrange(0, 200)
        e = rng.randrange(1, 40)
        v = rng.randrange(1, 30)
        b = rng.randrange(0, 20)
        alpha = arc_index_upper(c, e, b)
        assert stick_upper_main(c, e, v, b) == stick_upper_from_arc(alpha, e, v)
        assert equilateral_upper_main(c, e, b, 1) == 2 * alpha - 1


@criterion("C7", "knot rows: report prints (3/2)c+3 and 2c+3; torus (3,4) prints 8")
def test_c7_knot_specializations(capsys):
    for c in (3, 4, 7, 10):
        code = main(["bounds", "--c", str(c), "--e", "1", "--v", "1", "--b", "1"])
        out = capsys.readouterr().out
        assert code == 0
        want = Fraction(3, 2) * c + 3
        shown = str(want.numerator) if want.denominator == 1 else f"{want.numerator}/{want.denominator}"
        assert f"stick.main = {shown}" in out
        assert f"eq.main = {2 * c + 3}" in out
    code = main(["bounds", "--c", "12", "--e", "1", "--v", "1", "--b", "1",
                 "--torus", "3,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "knot.torus = 8" in out


@criterion("C8", "fault injection: 100 mutations per builder all caught with witnesses")
def test_c8_fault_injection():
    vp = validate_presentation(catalog("trefoil"))
    cd = to_circular(vp)

    rng = random.Random(8)
    for _ in range(100):
        se = build(cd)
        i = rng.randrange(len(se.sticks))
        which = rng.choice(["a", "b"])
        axis = rng.randrange(3)
        delta = Fraction(rng.choice([-1, 1]), rng.randrange(2, 1 << 20))
        stick = se.sticks[i]
        pt = list(getattr(stick, which))
        pt[axis] += delta
        sticks = list(se.sticks)
        sticks[i] = replace(stick, **{which: tuple(pt)})
        report = verify_stick_embedding(replace(se, sticks=tuple(sticks)), cd)
        assert not report.ok
        assert all(f.witness for f in report.failures())

    for _ in range(100):
        emb = build_equilateral(vp)
        i = rng.randrange(len(emb.sticks))
        which = rng.choice(["a", "b"])
        axis = rng.randrange(3)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(1e-4, 1e-2) * emb.M
        s = emb.sticks[i]
        pt = list(getattr(s, which))
        pt[axis] += delta
        a = tuple(pt) if which == "a" else s.a
        b = tuple(pt) if which == "b" else s.b
        emb.sticks[i] = EStick(a, b, s.component, s.tag, s.ja, s.jb)
        report = check_equilateral(emb)
        assert not report.ok
        assert all(f.witness for f in report.failures())


@criterion("C9", "theta51: initiating (1,2,6,3,1,4,2), classes bi/bi/uni/uni/non/uni/non/non, 11 <= 12 sticks")
def test_c9_theta51():
    vp = validate_presentation(catalog("theta51"))
    cd = to_circular(vp)
    assert cd.initiating == (1, 2, 6, 3, 1, 4, 2)
    kinds = tuple(c.kind for c in cd.classes)
    assert kinds == ("bi", "bi", "uni", "uni", "non", "uni", "non", "non")
    assert cd.counts == (2, 3, 3)

    se = build(cd)
    assert len(se.sticks) == 8 + 3 == 11
    bound = stick_upper_from_arc(8, 3, 2)
    assert bound == Fraction(25, 2) and len(se.sticks) <= bound.__floor__() == 12
    assert verify_stick_embedding(se, cd).ok
