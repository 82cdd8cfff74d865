"""Moduli-space models: the point-line incidence variety P(TP^2), the
cross-ratio chart onto parabolic data, S3-covering invariants of the
universal-family base, the Sym^2 X ruled-surface formulas, and the Torelli
decision via the j-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import jaclattice as jl
from .bundles import BundleClass, classify_triple, graded, tu_line, type_facts
from .jaclattice import CurveSpec, JacPoint
from .parabolic import ProjScalar
from .weierstrass import (PlaneLine, PlanePoint, curve_invariants, embed,
                          intersect_curve, lines_meet, multiplicities)


class ThreefoldCoincidenceError(ValueError):
    """Cross-ratio is undefined when three of the four points coincide."""


@dataclass(frozen=True)
class IncidencePoint:
    """A point of P(TP^2): a plane point on a plane line."""

    x: PlanePoint
    line: PlaneLine

    def __post_init__(self):
        if not self.line.contains(self.x, tol=1e-7):
            raise ValueError(f"point not on line (residual {abs(self.line.eval(self.x)):.3g})")


@dataclass(frozen=True)
class SymPair:
    """Unordered pair of Jacobian points; order-free equality via canonical sort."""

    p1: JacPoint
    p2: JacPoint

    def __post_init__(self):
        a, b = jl.canonical_sort([self.p1, self.p2])
        object.__setattr__(self, "p1", a)
        object.__setattr__(self, "p2", b)

    def close_to(self, other: "SymPair", tol: float = 1e-9) -> bool:
        return ((jl.equal(self.p1, other.p1, tol=tol) and jl.equal(self.p2, other.p2, tol=tol))
                or (jl.equal(self.p1, other.p2, tol=tol) and jl.equal(self.p2, other.p1, tol=tol)))


def cross_ratio(z1: ProjScalar, z2: ProjScalar, z3: ProjScalar,
                z4: ProjScalar) -> ProjScalar:
    """((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)), projectively (infinities allowed)."""
    zs = [z if isinstance(z, ProjScalar) else ProjScalar(z, 1) for z in (z1, z2, z3, z4)]

    def d(a: ProjScalar, b: ProjScalar) -> complex:
        return a.num * b.den - b.num * a.den

    z1, z2, z3, z4 = zs
    num = d(z1, z3) * d(z2, z4)
    den = d(z1, z4) * d(z2, z3)
    if num == 0 and den == 0:
        raise ThreefoldCoincidenceError("three of the four points coincide")
    return ProjScalar(num, den)


def _affine_param(q: PlanePoint, p1: PlanePoint, p2: PlanePoint) -> ProjScalar:
    """Parameter of q on the line framed by p1 (param 0) and p2 (param inf).

    q = alpha p1 + beta p2; the parameter is beta/alpha.
    """
    A = np.column_stack([p1.vec(), p2.vec()])
    coeff, *_ = np.linalg.lstsq(A, q.vec(), rcond=None)
    return ProjScalar(coeff[1], coeff[0])


def psi_plus(ip: IncidencePoint, curve: CurveSpec) -> tuple[BundleClass, ProjScalar]:
    """The cross-ratio chart M = P(TP^2) -> M^+: S-class plus fiber coordinate.

    The line's three curve parameters (canonically ordered) give the S-class;
    lambda is the cross-ratio (p1, p2; p3, p4) of the intersection points and
    ip.x on the line, matching the normalized parabolic point [lambda:1-lambda:1]
    on the standard line {Z1 + Z2 = Z3}.  Tangent lines (merged intersection
    points) are handled by the same limiting formula; they form the extension
    stratum and only boundary values {0, 1, inf} are exact there.
    """
    zs = jl.canonical_sort(intersect_curve(ip.line, curve))
    cls = classify_triple(zs[0], zs[1], zs[2])
    pts = [embed(z, curve) for z in zs]
    thetas = [_affine_param(q, pts[0], pts[1]) for q in pts] + \
             [_affine_param(ip.x, pts[0], pts[1])]
    lam = cross_ratio(*thetas)
    return cls, lam


def parabolic_point(lam: ProjScalar) -> PlanePoint:
    """[lambda : 1 - lambda : 1] on the standard line {Z1 + Z2 = Z3}."""
    if lam.is_inf:
        return PlanePoint.of(1, -1, 0)
    return PlanePoint.of(lam.num, 1 - lam.num, 1)


def _exact(x):
    if isinstance(x, (Rational, str)):
        return Fraction(x)
    return x


def covering_invariants(z1, z2, tol: float = 1e-9) -> tuple[complex, complex, bool]:
    """The S3-invariants F2, F3 of the covering base and the cusp test.

    F2 = z1^2 + z1 z2 + z2^2, F3 = z1 z2 (z1 + z2); on_cusp iff
    (F2/3)^3 = (F3/2)^2.  Exact on rational inputs.
    """
    z1, z2 = _exact(z1), _exact(z2)
    f2 = z1 * z1 + z1 * z2 + z2 * z2
    f3 = z1 * z2 * (z1 + z2)
    lhs = (f2 / 3) ** 3
    rhs = (f3 / 2) ** 2
    if isinstance(f2, Fraction) and isinstance(f3, Fraction):
        on_cusp = lhs == rhs
    else:
        scale = max(abs(complex(lhs)), abs(complex(rhs)), 1.0)
        on_cusp = abs(complex(lhs) - complex(rhs)) <= tol * scale
    return f2, f3, on_cusp


# the S3 action on the covering base, generated by the transpositions
S3_MAPS = {
    "id": lambda z1, z2: (z1, z2),
    "s12": lambda z1, z2: (z2, z1),
    "s23": lambda z1, z2: (z1, -z1 - z2),
    "s13": lambda z1, z2: (-z1 - z2, z2),
    "c123": lambda z1, z2: (z2, -z1 - z2),
    "c132": lambda z1, z2: (-z1 - z2, z1),
}


def abel(sp: SymPair) -> JacPoint:
    """Abel map of the ruled surface: {p1, p2} -> p1 + p2 in Jac(X)."""
    return jl.add(sp.p1, sp.p2)


def section_meet(p1: JacPoint, p2: JacPoint) -> SymPair:
    """The intersection of the sections s_{p1}, s_{p2} of Sym^2 X -> X."""
    return SymPair(p1, p2)


def sigma_cover_count(line: PlaneLine, curve: CurveSpec) -> int:
    """Number of Sigma-points over the S-class of a dual-plane line: 3, 2 or 1."""
    pts = intersect_curve(line, curve)
    cls = classify_triple(pts[0], pts[1], pts[2])
    return type_facts(cls.label)[2]


def curves_isomorphic(tau1: complex, tau2: complex, rel_tol: float = 1e-6) -> bool:
    """Torelli decision: the moduli pairs agree iff the j-invariants agree."""
    j1 = curve_invariants(CurveSpec(tau1))[2]
    j2 = curve_invariants(CurveSpec(tau2))[2]
    return abs(j1 - j2) <= rel_tol * max(1.0, abs(j1), abs(j2))


def incidence_parametrization(u1: complex, u2: complex, t: complex,
                              curve: CurveSpec) -> np.ndarray:
    """Moduli coordinates of the incidence point (x, l) in an affine chart.

    The line is l = {u1 Z1 + u2 Z2 + Z3 = 0} (a 2-parameter chart of the dual
    plane) and x = A + t B for the frame A = [1:0:-u1], B = [0:1:-u2] on l.
    Returns the complex 3-vector (a, b, lambda): the affine dual coordinates
    of the S-class line recovered through the moduli map, and the fiber
    cross-ratio.  Three honest continuous parameters; the Jacobian has rank 3
    at generic points.
    """
    line = PlaneLine.of(u1, u2, 1)
    x = PlanePoint.of(1, complex(t), -u1 - complex(t) * u2)
    cls, lam = psi_plus(IncidencePoint(x, line), curve)
    lrec = tu_line(cls, curve)
    if abs(lrec.w) < 1e-9:
        raise ValueError("recovered line leaves the affine chart")
    if lam.is_inf:
        raise ValueError("fiber coordinate at infinity; choose another t")
    return np.array([lrec.u / lrec.w, lrec.v / lrec.w, lam.num], dtype=complex)


def parametrization_rank(u1: complex, u2: complex, t: complex, curve: CurveSpec,
                         step: float = 1e-5, tol: float = 1e-6) -> int:
    """Numerical complex-Jacobian rank of incidence_parametrization at a point."""
    f0 = incidence_parametrization(u1, u2, t, curve)
    cols = []
    for k in range(3):
        d = [0, 0, 0]
        d[k] = step
        fp = incidence_parametrization(u1 + d[0], u2 + d[1], t + d[2], curve)
        fm = incidence_parametrization(u1 - d[0], u2 - d[1], t - d[2], curve)
        cols.append((fp - fm) / (2 * step))
    J = np.column_stack(cols)
    s = np.linalg.svd(J, compute_uv=False)
    # absolute threshold: the chart is scaled so generic derivatives are O(1),
    # and a relative cutoff would misread rank at ill-conditioned points
    return int(np.sum(s > tol))
