"""Moduli-space models: the point-line incidence variety P(TP^2), the
cross-ratio chart onto parabolic data, S3-covering invariants of the
universal-family base, the Sym^2 X ruled-surface formulas, and the Torelli
decision via the j-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from . import jaclattice as jl
from .bundles import BundleClass, _shared_class, tu_line, type_facts
from .jaclattice import (CHART_EDGE_TOL, CUSP_TOL, DEFAULT_TOL, INCIDENCE_POINT_TOL, J_TOL,
                         RANK_TOL, CurveSpec, JacPoint)
from .parabolic import PROJ_INF, ProjScalar
from .weierstrass import (PlaneLine, PlanePoint, _cross, _cubic_roots, _solved, _Solved,
                          curve_invariants, intersect_curve)


class ThreefoldCoincidenceError(ValueError):
    """Cross-ratio is undefined when three of the four points coincide."""


@dataclass(frozen=True)
class IncidencePoint:
    """A point of P(TP^2): a plane point on a plane line."""

    x: PlanePoint
    line: PlaneLine

    def __post_init__(self):
        if not self.line.contains(self.x, tol=INCIDENCE_POINT_TOL):
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

    def close_to(self, other: "SymPair", tol: float = DEFAULT_TOL) -> bool:
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


def _line_class(solved: _Solved) -> BundleClass:
    """The S-class of a line's intersection, built once and kept with it.  A
    triple that does not sum to zero is not kept: each call raises alike."""
    cls = solved.cls
    if cls is None:
        cls = solved.cls = _shared_class([z for z, _ in solved.hits])
    return cls


def _line_chart(line: PlaneLine) -> tuple[int, int]:
    """The two homogeneous coordinates kept when the line is projected to P^1
    from the coordinate vertex e_k farthest from it: k is where |u|, |v| or
    |w| is largest, so e_k is off the line, and the projection is a
    projective isomorphism of the line onto P^1, which keeps cross-ratios
    (Hartley and Zisserman, Multiple View Geometry, 2nd ed., section 2)."""
    u, v, w = abs(line.u), abs(line.v), abs(line.w)
    if u >= v and u >= w:
        return 1, 2
    return (0, 2) if v >= w else (0, 1)


def psi_plus(ip: IncidencePoint, curve: CurveSpec) -> tuple[BundleClass, ProjScalar]:
    """The cross-ratio chart M = P(TP^2) -> M^+: S-class plus fiber coordinate.

    The line's three curve parameters (canonically ordered) give the S-class;
    lambda is the cross-ratio (p1, p2; p3, p4) of the intersection points and
    ip.x on the line, matching the normalized parabolic point [lambda:1-lambda:1]
    on the standard line {Z1 + Z2 = Z3}.  The intersection points are the plane
    points the intersection solved for, not re-embedded, and the line object
    keeps that intersection and its class: sigma_cover_count on it and
    psi_plus at every point of its fiber share one solve and one class.
    lambda is read in one chart of the line (see _line_chart), as
    (d13 d24) / (d14 d23) from the 2x2 determinants d_ij of the points'
    kept coordinates.  A point ip.x off the line (IncidencePoint allows a
    residual of INCIDENCE_POINT_TOL) is thereby projected onto it centrally
    from e_k.  On a tangent line (a shared parameter: the extension stratum)
    lambda is the cross-ratio's value there, whatever ip.x is: exactly 1 when
    the double point sorts first and inf when it sorts last.  A flex tangent
    has no frame.
    """
    solved = _solved(ip.line, curve)
    cls = _line_class(solved)
    # the order of jl.canonical_sort, keeping each parameter's plane point
    (z1, p1), (z2, p2), (z3, p3) = sorted(solved.hits, key=lambda h: h[0].coords())
    if z1 is z3:
        raise ThreefoldCoincidenceError("three of the four points coincide")
    if z1 is z2:
        return cls, ProjScalar(1, 1)
    if z2 is z3:
        return cls, PROJ_INF
    i, j = _line_chart(ip.line)
    p4 = ip.x.vec()
    num = (p1[i] * p3[j] - p1[j] * p3[i]) * (p2[i] * p4[j] - p2[j] * p4[i])
    den = (p1[i] * p4[j] - p1[j] * p4[i]) * (p2[i] * p3[j] - p2[j] * p3[i])
    if num == 0 and den == 0:
        raise ThreefoldCoincidenceError("three of the four points coincide")
    return cls, ProjScalar(num, den)


def parabolic_point(lam: ProjScalar) -> PlanePoint:
    """[lambda : 1 - lambda : 1] on the standard line {Z1 + Z2 = Z3}."""
    if lam.is_inf:
        return PlanePoint.of(1, -1, 0)
    return PlanePoint.of(lam.num, 1 - lam.num, 1)


def _exact(x):
    if isinstance(x, (Rational, str)):
        return Fraction(x)
    return x


def covering_invariants(z1, z2, tol: float = CUSP_TOL) -> tuple[complex, complex, bool]:
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


def sigma_cover_count(line: PlaneLine, curve: CurveSpec) -> int:
    """Number of Sigma-points over the S-class of a dual-plane line: 3, 2 or 1."""
    # the line is solved in the intersection layer's public entry point, so
    # that the solve is timed there; the line keeps it, with its class
    intersect_curve(line, curve)
    return type_facts(_line_class(_solved(line, curve)).label)[2]


def curves_isomorphic(tau1: complex, tau2: complex, rel_tol: float = J_TOL) -> bool:
    """Torelli decision: the moduli pairs agree iff the j-invariants agree."""
    j1 = curve_invariants(CurveSpec(tau1))[2]
    j2 = curve_invariants(CurveSpec(tau2))[2]
    return abs(j1 - j2) <= rel_tol * max(1.0, abs(j1), abs(j2))


def incidence_parametrization(u1: complex, u2: complex, t: complex,
                              curve: CurveSpec) -> tuple[complex, complex, complex]:
    """Moduli coordinates of the incidence point (x, l) in an affine chart.

    The line is l = {u1 Z1 + u2 Z2 + Z3 = 0} (a 2-parameter chart of the dual
    plane) and x = A + t B for the frame A = [1:0:-u1], B = [0:1:-u2] on l.
    Returns the complex 3-tuple (a, b, lambda): the affine dual coordinates
    of the S-class line recovered through the moduli map, and the fiber
    cross-ratio.  Three honest continuous parameters; the Jacobian has rank 3
    at generic points.
    """
    return _chart(PlaneLine.of(u1, u2, 1), u1, u2, t, curve)


def _chart(line: PlaneLine, u1: complex, u2: complex, t: complex,
           curve: CurveSpec) -> tuple[complex, complex, complex]:
    """incidence_parametrization on the line l = PlaneLine.of(u1, u2, 1)."""
    x = PlanePoint.of(1, complex(t), -u1 - complex(t) * u2)
    cls, lam = psi_plus(IncidencePoint(x, line), curve)
    lrec = tu_line(cls, curve)
    if abs(lrec.w) < CHART_EDGE_TOL:
        raise ValueError("recovered line leaves the affine chart")
    if lam.is_inf:
        raise ValueError("fiber coordinate at infinity; choose another t")
    return (lrec.u / lrec.w, lrec.v / lrec.w, lam.num)


# parametrization_rank's central-difference step, which balances the
# truncation error O(step^2) against the roundoff O(eps / step)
_RANK_STEP = 1e-5


def parametrization_rank(u1: complex, u2: complex, t: complex, curve: CurveSpec,
                         tol: float = RANK_TOL) -> int:
    """Numerical complex-Jacobian rank of incidence_parametrization at a point:
    the number of singular values sigma of the central-difference Jacobian J
    above tol.  The sigma^2 are the eigenvalues of the Hermitian J^H J, the
    roots of its characteristic polynomial, so the cut is made on sigma^2 at
    tol^2."""
    # t +- step lie on the base point's line, which is intersected once
    line = PlaneLine.of(u1, u2, 1)
    step = _RANK_STEP
    cols = []
    for k in range(3):
        d = [0, 0, 0]
        d[k] = step
        lp, lm = (line, line) if k == 2 else (PlaneLine.of(u1 + d[0], u2 + d[1], 1),
                                             PlaneLine.of(u1 - d[0], u2 - d[1], 1))
        fp = _chart(lp, u1 + d[0], u2 + d[1], t + d[2], curve)
        fm = _chart(lm, u1 - d[0], u2 - d[1], t - d[2], curve)
        cols.append([(a - b) / (2 * step) for a, b in zip(fp, fm)])
    # G = J^H J: lambda^3 - tr(G) lambda^2 + c2 lambda - |det J|^2, c2 the sum
    # of G's principal 2x2 minors
    g = [[sum(a.conjugate() * b for a, b in zip(ck, cl)) for cl in cols] for ck in cols]
    c2 = sum((g[k][k] * g[m][m] - abs(g[k][m]) ** 2).real for k, m in ((0, 1), (0, 2), (1, 2)))
    det = sum(a * b for a, b in zip(cols[0], _cross(cols[1], cols[2])))
    sigma2 = _cubic_roots(1, -sum(g[k][k].real for k in range(3)), c2, -abs(det) ** 2)
    # absolute threshold: the chart is scaled so generic derivatives are O(1),
    # and a relative cutoff would misread rank at ill-conditioned points
    return sum(s.real > tol * tol for s in sigma2)
