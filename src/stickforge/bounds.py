"""Upper-bound formulas for stick counts of spatial graphs.

All formulas are evaluated as exact rationals (``Fraction``); integer floors
are reported separately and only for quantities that really are integers
(stick counts), so a 7.5 never silently becomes a 7 inside a computation.

Inputs follow one naming scheme throughout: c is the crossing number, e the
number of edges, v the number of vertices, b the number of bouquet
cut-components, k the number of split components, alpha the arc index
(number of pages), n0 the count of non-initiating chords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

Rational = Fraction | int


class BoundsError(ValueError):
    """Base class for bound evaluation failures."""


class NegativeInput(BoundsError):
    """An input lies outside the formula's domain."""


class FlagDomainError(BoundsError):
    """A specialized-bound flag was combined with inputs it does not cover."""


def _require_nonneg(**kwargs: int) -> None:
    for name, val in kwargs.items():
        if val < 0:
            raise NegativeInput(f"{name} must be non-negative, got {val}")


def arc_index_upper(c: int, e: int, b: int) -> int:
    """Pages suffice: alpha <= c + e + b."""
    _require_nonneg(c=c, e=e, b=b)
    return c + e + b


def stick_upper_main(c: int, e: int, v: int, b: int) -> Fraction:
    """s <= (3/2)c + 2e + (3/2)b - v/2."""
    _require_nonneg(c=c, e=e, b=b)
    if v < 1:
        raise NegativeInput(f"v must be at least 1, got {v}")
    return Fraction(3, 2) * c + 2 * e + Fraction(3, 2) * b - Fraction(v, 2)


def stick_upper_from_arc(alpha: int, e: int, v: int) -> Fraction:
    """s <= (3/2)alpha + e/2 - v/2."""
    _require_nonneg(alpha=alpha, e=e)
    if v < 1:
        raise NegativeInput(f"v must be at least 1, got {v}")
    return Fraction(3, 2) * alpha + Fraction(e, 2) - Fraction(v, 2)


def stick_upper_from_n0(alpha: int, n0: int) -> int:
    """s <= alpha + n0: one stick per page plus one extra per bent chord."""
    _require_nonneg(alpha=alpha, n0=n0)
    return alpha + n0


def equilateral_upper_main(c: int, e: int, b: int, k: int) -> int:
    """s_= <= 2c + 2e + 2b - k."""
    _require_nonneg(c=c, e=e, b=b)
    if k < 1:
        raise NegativeInput(f"k must be at least 1, got {k}")
    return 2 * c + 2 * e + 2 * b - k


def equilateral_upper_from_arc(alpha: int) -> int:
    """s_= <= 2*alpha - 1 for one non-splittable component."""
    _require_nonneg(alpha=alpha)
    if alpha < 1:
        raise NegativeInput(f"alpha must be at least 1, got {alpha}")
    return 2 * alpha - 1


@dataclass(frozen=True)
class BoundEntry:
    formula: str
    value: Rational | float
    floor: int | None = None
    ceil: int | None = None
    note: str = ""

    def line(self) -> str:
        if isinstance(self.value, Fraction) and self.value.denominator == 1:
            val = str(self.value.numerator)
        else:
            val = str(self.value)
        bits = [f"{self.formula} = {val}"]
        if self.floor is not None and not self._integral():
            bits.append(f"(floor {self.floor})")
        if self.ceil is not None and not self._integral():
            bits.append(f"(ceil {self.ceil})")
        if self.note:
            bits.append(f"-- {self.note}")
        return "  ".join(bits)

    def _integral(self) -> bool:
        return isinstance(self.value, int) or (
            isinstance(self.value, Fraction) and self.value.denominator == 1)


def knot_reference_bounds(c: int, two_bridge: bool = False,
                          torus: tuple[int, int] | None = None) -> list[BoundEntry]:
    """Published knot bounds for crossing number c >= 3.

    The general bracket (7 + sqrt(8c+1))/2 <= s <= (3/2)c + 3/2 always
    appears, along with the older equal-length bound 2c + 2.  The two-bridge
    refinement c + 2 needs c >= 6; the torus equality 2q needs 2 <= p <= q
    <= 2p.
    """
    if c < 3:
        raise NegativeInput(f"nontrivial knots need c >= 3, got {c}")
    entries: list[BoundEntry] = []
    disc = 8 * c + 1
    root = math.isqrt(disc)
    if root * root == disc:
        low: Rational | float = Fraction(7 + root, 2)
        ceil = math.ceil(Fraction(7 + root, 2))
    else:
        low = (7.0 + math.sqrt(disc)) / 2.0
        ceil = math.ceil(low)
    entries.append(BoundEntry("knot.lower", low, ceil=ceil, note="lower bound on s"))
    up = Fraction(3, 2) * c + Fraction(3, 2)
    entries.append(BoundEntry("knot.upper", up, floor=math.floor(up)))
    entries.append(BoundEntry("knot.eq_old", 2 * c + 2, note="older equal-length bound"))
    if two_bridge:
        if c < 6:
            raise FlagDomainError(f"two-bridge refinement needs c >= 6, got {c}")
        entries.append(BoundEntry("knot.two_bridge", c + 2))
    if torus is not None:
        p, q = torus
        if not (2 <= p <= q <= 2 * p):
            raise FlagDomainError(f"torus equality needs 2 <= p <= q <= 2p, got ({p}, {q})")
        entries.append(BoundEntry("knot.torus", 2 * q, note="equality, not just a bound"))
    return entries


@dataclass
class BoundsReport:
    inputs: dict
    entries: list[BoundEntry] = field(default_factory=list)

    def get(self, formula: str) -> BoundEntry:
        for entry in self.entries:
            if entry.formula == formula:
                return entry
        raise KeyError(formula)

    def lines(self) -> list[str]:
        head = ", ".join(f"{k}={v}" for k, v in self.inputs.items() if v is not None)
        out = [f"inputs: {head}"]
        out.extend(e.line() for e in self.entries)
        return out


def bounds_report(c: int, e: int, v: int, b: int, k: int = 1,
                  alpha: int | None = None, n0: int | None = None,
                  two_bridge: bool = False, torus: tuple[int, int] | None = None,
                  split_ns: list[int] | None = None) -> BoundsReport:
    """Evaluate every formula the inputs support."""
    inputs = {"c": c, "e": e, "v": v, "b": b, "k": k, "alpha": alpha, "n0": n0}
    report = BoundsReport(inputs=inputs)

    a_up = arc_index_upper(c, e, b)
    report.entries.append(BoundEntry("arc_index", a_up))
    main = stick_upper_main(c, e, v, b)
    report.entries.append(BoundEntry("stick.main", main, floor=math.floor(main)))
    eq_main = equilateral_upper_main(c, e, b, k)
    report.entries.append(BoundEntry("eq.main", eq_main))

    if alpha is not None:
        from_arc = stick_upper_from_arc(alpha, e, v)
        report.entries.append(BoundEntry("stick.from_arc", from_arc, floor=math.floor(from_arc)))
        report.entries.append(BoundEntry("eq.from_arc", equilateral_upper_from_arc(alpha)))
        if alpha > a_up:
            report.entries.append(BoundEntry(
                "alpha.check", alpha, note=f"declared alpha exceeds c+e+b = {a_up}"))
    if alpha is not None and n0 is not None:
        report.entries.append(BoundEntry("stick.from_n0", stick_upper_from_n0(alpha, n0)))

    if split_ns:
        total = sum(2 * nj - 1 for nj in split_ns)
        note = f"sum of per-component 2n-1 over {len(split_ns)} components"
        if sum(split_ns) > a_up:
            note += f"; inconsistent: total arcs {sum(split_ns)} > c+e+b = {a_up}"
        report.entries.append(BoundEntry("eq.split", total, note=note))

    if c >= 3 and (v, e, b) == (1, 1, 1):
        report.entries.extend(knot_reference_bounds(c, two_bridge=two_bridge, torus=torus))
    elif two_bridge or torus is not None:
        raise FlagDomainError("knot flags apply only to knot inputs (v=e=b=1, c >= 3)")
    return report
