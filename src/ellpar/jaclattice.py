"""Arithmetic on the Jacobian of an elliptic curve in the analytic model C/(Z + tau*Z).

A point s + t*tau is stored as its lattice coordinates (s, t) in [0, 1)^2:
Fractions when exact (torsion points, shifts), floats when approximate (line
intersections, holonomy logarithms).  All values are immutable; every
operation is pure.  Exact operations compute on the coordinates' integer
numerators and denominators and build each result coordinate once as a
reduced Fraction, passing a coordinate that is already reduced through as it
is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

DEFAULT_TOL = 1e-9
# the coincidence rule of every library decision on approximate points: p, q
# are one point when equal(p, q, EQ_TOL), and z is 3-torsion when 3z is 0 so
EQ_TOL = 1e-6

TWO_PI_I = 2j * math.pi


class CurveMismatchError(ValueError):
    """Operands defined over different lattice parameters."""


@dataclass(frozen=True)
class CurveSpec:
    """Lattice parameter tau with Im(tau) > 0, fixing the curve C/(Z + tau*Z)."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ValueError("tau must be finite")
        if tau.imag <= 0:
            raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
        object.__setattr__(self, "tau", tau)

    def same(self, other: "CurveSpec", tol: float = DEFAULT_TOL) -> bool:
        return abs(self.tau - other.tau) <= tol * max(1.0, abs(self.tau))


@dataclass(frozen=True)
class JacPoint:
    """A point s + t*tau of Jac(X) = C/(Z + tau*Z), stored as its lattice
    coordinates (s, t) with 0 <= s, t < 1.

    The point is exact when neither coordinate is a float (Fractions or ints,
    e.g. torsion points) and approximate when they are floats.  The
    constructor itself neither reduces nor converts, and exact points are
    compared by their stored coordinates (see equal), so an exact point must
    be built reduced, as canon and every library constructor build it.
    """

    curve: CurveSpec
    s: Optional[Union[Fraction, float]] = None
    t: Optional[Union[Fraction, float]] = None

    def __post_init__(self):
        if self.s is None or self.t is None:
            raise ValueError("a point requires both coordinates s and t")

    @property
    def is_exact(self) -> bool:
        return not (isinstance(self.s, float) or isinstance(self.t, float))

    def coords(self) -> tuple[float, float]:
        """Real lattice coordinates (s, t) in [0, 1) x [0, 1)."""
        s, t = self.s, self.t
        if self.is_exact:
            # the true division float(Fraction) makes, without its call
            return (s.numerator / s.denominator, t.numerator / t.denominator)
        return (float(s), float(t))

    def value(self) -> complex:
        """The complex representative s + t*tau."""
        s, t = self.coords()
        return s + t * self.curve.tau

    def approx(self) -> "JacPoint":
        return JacPoint(self.curve, *self.coords())

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        """equal(self, zero(curve), tol), without building the zero point."""
        if self.is_exact:
            return not self.s and not self.t
        s, t = self.coords()
        return math.hypot(min(s % 1.0, -s % 1.0), min(t % 1.0, -t % 1.0)) <= tol

    def __repr__(self):
        if self.is_exact:
            return f"JacPoint({self.s}, {self.t})"
        return f"JacPoint(z={self.value():.6g})"


_ZERO = Fraction(0)


def _fraction(n: int, d: int) -> Fraction:
    """n/d reduced into [0, 1), for d > 0."""
    n %= d
    return Fraction(n, d) if n else _ZERO


def _coord(x) -> Fraction:
    """An exact coordinate (a Fraction, an int, or what Fraction() reads)
    reduced into [0, 1); a reduced Fraction as it is."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    if 0 <= n < d and type(x) is Fraction:
        return x
    return _fraction(n, d)


def _sum(x: Union[Fraction, int], y: Union[Fraction, int]) -> Fraction:
    """x + y reduced into [0, 1), for exact coordinates."""
    n1, d1, n2, d2 = x.numerator, x.denominator, y.numerator, y.denominator
    if not n2:
        return _coord(x)
    return _fraction(n1 * d2 + n2 * d1, d1 * d2)


def _reduced(curve: CurveSpec, s, t) -> JacPoint:
    """The point s + t*tau with both coordinates reduced into [0, 1).

    ``% 1`` keeps Fractions exact.  For a tiny negative float it rounds up to
    1.0, which is the seam 0; canonical_sort relies on getting 0 there.
    """
    s, t = s % 1, t % 1
    return JacPoint(curve, s if s < 1 else 0.0, t if t < 1 else 0.0)


def zero(curve: CurveSpec) -> JacPoint:
    return JacPoint(curve, s=_ZERO, t=_ZERO)


def canon(raw: Union[tuple, complex, float, int], curve: CurveSpec) -> JacPoint:
    """Canonical fundamental-domain representative; exact inputs stay exact."""
    if isinstance(raw, JacPoint):
        if raw.is_exact:
            return JacPoint(curve, _coord(raw.s), _coord(raw.t))
        return _reduced(curve, raw.s, raw.t)
    if isinstance(raw, tuple):
        return JacPoint(curve, _coord(raw[0]), _coord(raw[1]))
    z = complex(raw)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite input")
    tau = curve.tau
    t = z.imag / tau.imag
    return _reduced(curve, z.real - t * tau.real, t)


def _check_curves(p: JacPoint, q: JacPoint):
    if p.curve is not q.curve and not p.curve.same(q.curve):
        raise CurveMismatchError(f"points over different curves: {p.curve.tau} vs {q.curve.tau}")


def add(p: JacPoint, q: JacPoint) -> JacPoint:
    """Group law of (C/Lambda, +).  Exact in, exact out; mixing yields approx."""
    _check_curves(p, q)
    if p.is_exact:
        if q.is_exact:
            return JacPoint(p.curve, _sum(p.s, q.s), _sum(p.t, q.t))
        p, q = q, p  # float addition commutes
    # float + Fraction adds float(Fraction): the same sums, without
    # Fraction's operator fallbacks
    qs, qt = (q.s, q.t) if type(q.s) is float else q.coords()
    return _reduced(p.curve, p.s + qs, p.t + qt)


def neg(p: JacPoint) -> JacPoint:
    if p.is_exact:
        s, t = p.s, p.t
        return JacPoint(p.curve, _fraction(-s.numerator, s.denominator),
                        _fraction(-t.numerator, t.denominator))
    return _reduced(p.curve, -p.s, -p.t)


def sub(p: JacPoint, q: JacPoint) -> JacPoint:
    return add(p, neg(q))


def mul(k: int, p: JacPoint) -> JacPoint:
    if p.is_exact:
        s, t = p.s, p.t
        return JacPoint(p.curve, _fraction(k * s.numerator, s.denominator),
                        _fraction(k * t.numerator, t.denominator))
    return _reduced(p.curve, k * p.s, k * p.t)


def equal(p: JacPoint, q: JacPoint, tol: float = DEFAULT_TOL) -> bool:
    """Equality mod Lambda.

    Exact/exact comparison is exact: it compares the stored coordinates, so
    it is equality mod Lambda only on reduced points (canon reduces).  Any
    other pair is compared at tolerance by its lattice distance, which
    reduces the difference mod Lambda itself."""
    _check_curves(p, q)
    if p.is_exact and q.is_exact:
        return p.s == q.s and p.t == q.t
    ps, pt = p.coords()
    qs, qt = q.coords()
    ds = min((ps - qs) % 1.0, (qs - ps) % 1.0)
    dt = min((pt - qt) % 1.0, (qt - pt) % 1.0)
    return math.hypot(ds, dt) <= tol


def torsion_points(n: int, curve: CurveSpec) -> list[JacPoint]:
    """The n^2 exact n-torsion points {(a/n, b/n)}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = [Fraction(a, n) for a in range(n)]
    return [JacPoint(curve, s=s, t=t) for s in coords for t in coords]


def from_holonomy(a: complex, b: complex, curve: CurveSpec) -> JacPoint:
    """The Jacobian class of b/a^tau under C*/<e^{2*pi*i*tau}> = Jac(X).

    Computed as (log b - tau * log a) / (2*pi*i) reduced mod Lambda, with the
    principal branch of the logarithm; the mod-Lambda reduction absorbs the
    branch ambiguity.
    """
    a, b = complex(a), complex(b)
    if a == 0 or b == 0:
        raise ValueError("holonomy entries must be nonzero")
    z = (cmath.log(b) - curve.tau * cmath.log(a)) / TWO_PI_I
    return canon(z, curve)


def canonical_sort(points: Iterable[JacPoint]) -> list[JacPoint]:
    """Deterministic ordering: lexicographic on fundamental-domain (s, t)."""
    return sorted(points, key=lambda p: p.coords())
