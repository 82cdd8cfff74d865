"""Arithmetic on the Jacobian of an elliptic curve in the analytic model C/(Z + tau*Z).

Points live either as exact rational pairs (s, t) meaning s + t*tau, or as
approximate complex numbers reduced to the fundamental parallelogram.  All
values are immutable; every operation is pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

DEFAULT_TOL = 1e-9

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


def _frac_mod1(x: Fraction) -> Fraction:
    return x - Fraction(math.floor(x))


@dataclass(frozen=True)
class JacPoint:
    """A point of Jac(X) = C/(Z + tau*Z).

    Exactly one representation is carried: exact rational coordinates
    ``(s, t)`` with 0 <= s, t < 1 meaning s + t*tau, or an approximate complex
    number already reduced to the fundamental parallelogram.
    """

    curve: CurveSpec
    s: Optional[Fraction] = None
    t: Optional[Fraction] = None
    z: Optional[complex] = None

    def __post_init__(self):
        if (self.s is None) != (self.t is None):
            raise ValueError("exact coordinates require both s and t")
        if (self.s is None) == (self.z is None):
            raise ValueError("exactly one of (s, t) or z must be given")

    @property
    def is_exact(self) -> bool:
        return self.s is not None

    def coords(self) -> tuple[float, float]:
        """Real lattice coordinates (s, t) in [0, 1) x [0, 1)."""
        if self.is_exact:
            return (float(self.s), float(self.t))
        tau = self.curve.tau
        t = self.z.imag / tau.imag
        s = self.z.real - t * tau.real
        return (s % 1.0, t % 1.0)

    def value(self) -> complex:
        """The complex representative s + t*tau."""
        if self.is_exact:
            return float(self.s) + float(self.t) * self.curve.tau
        return self.z

    def approx(self) -> "JacPoint":
        if self.is_exact:
            return JacPoint(self.curve, z=self.value())
        return self

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return equal(self, zero(self.curve), tol=tol)

    def __repr__(self):
        if self.is_exact:
            return f"JacPoint({self.s}, {self.t})"
        return f"JacPoint(z={self.z:.6g})"


def zero(curve: CurveSpec) -> JacPoint:
    return JacPoint(curve, s=Fraction(0), t=Fraction(0))


def canon(raw: Union[tuple, complex, float, int], curve: CurveSpec) -> JacPoint:
    """Canonical fundamental-domain representative; exact inputs stay exact."""
    if isinstance(raw, JacPoint):
        if raw.is_exact:
            return JacPoint(curve, s=_frac_mod1(raw.s), t=_frac_mod1(raw.t))
        raw = raw.z
    if isinstance(raw, tuple):
        s, t = Fraction(raw[0]), Fraction(raw[1])
        return JacPoint(curve, s=_frac_mod1(s), t=_frac_mod1(t))
    z = complex(raw)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite input")
    tau = curve.tau
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    s, t = s % 1.0, t % 1.0
    return JacPoint(curve, z=complex(s + t * tau))


def _check_curves(p: JacPoint, q: JacPoint):
    if not p.curve.same(q.curve):
        raise CurveMismatchError(f"points over different curves: {p.curve.tau} vs {q.curve.tau}")


def add(p: JacPoint, q: JacPoint) -> JacPoint:
    """Group law of (C/Lambda, +).  Exact in, exact out; mixing yields approx."""
    _check_curves(p, q)
    if p.is_exact and q.is_exact:
        return JacPoint(p.curve, s=_frac_mod1(p.s + q.s), t=_frac_mod1(p.t + q.t))
    return canon(p.value() + q.value(), p.curve)


def neg(p: JacPoint) -> JacPoint:
    if p.is_exact:
        return JacPoint(p.curve, s=_frac_mod1(-p.s), t=_frac_mod1(-p.t))
    return canon(-p.z, p.curve)


def sub(p: JacPoint, q: JacPoint) -> JacPoint:
    return add(p, neg(q))


def mul(k: int, p: JacPoint) -> JacPoint:
    if p.is_exact:
        return JacPoint(p.curve, s=_frac_mod1(k * p.s), t=_frac_mod1(k * p.t))
    return canon(k * p.z, p.curve)


def equal(p: JacPoint, q: JacPoint, tol: float = DEFAULT_TOL) -> bool:
    """Equality mod Lambda, decided at tolerance after canonical reduction.

    Exact/exact comparison is exact."""
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
    return [
        JacPoint(curve, s=Fraction(a, n), t=Fraction(b, n))
        for a in range(n)
        for b in range(n)
    ]


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
