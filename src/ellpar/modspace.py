"""Moduli-space models: the point-line incidence variety P(TP^2), the
cross-ratio chart onto parabolic data, S3-covering invariants of the
universal-family base, the Sym^2 X ruled-surface formulas, and the Torelli
decision via the j-invariant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from . import jaclattice as jl
from .bundles import BundleClass, _shared_class, tu_line, type_facts
from .jaclattice import (CHART_EDGE_TOL, CUSP_TOL, INCIDENCE_POINT_TOL, J_TOL, RANK_TOL,
                         CurveSpec, JacPoint, Value)
from .parabolic import PROJ_INF, ProjScalar, _exactify
from .weierstrass import (PlaneLine, PlanePoint, Vec, _cross, _cubic_roots, _solved, _Solved,
                          curve_invariants, intersect_curve)


class ThreefoldCoincidenceError(ValueError):
    """Cross-ratio is undefined when three of the four points coincide."""


class IncidencePoint(Value):
    """A point of P(TP^2): a plane point on a plane line."""

    x: PlanePoint
    line: PlaneLine

    def __init__(self, x, line):
        if not line.contains(x, tol=INCIDENCE_POINT_TOL):
            raise ValueError(f"point not on line (residual {abs(line.eval(x)):.3g})")
        d = self.__dict__
        d["x"], d["line"] = x, line


class SymPair(Value):
    """Unordered pair of Jacobian points; order-free equality via canonical sort."""

    p1: JacPoint
    p2: JacPoint

    def __init__(self, p1, p2):
        d = self.__dict__
        d["p1"], d["p2"] = jl.canonical_sort([p1, p2])


def cross_ratio(z1: ProjScalar, z2: ProjScalar, z3: ProjScalar,
                z4: ProjScalar) -> ProjScalar:
    """((z1-z3)(z2-z4)) / ((z1-z4)(z2-z3)), projectively (infinities allowed)."""
    return _cross_ratio((z1.num, z1.den), (z2.num, z2.den), (z3.num, z3.den), (z4.num, z4.den))


def _cross_ratio(a, b, c, d) -> ProjScalar:
    """cross_ratio of four points of P^1 given as homogeneous pairs (x, y):
    (ac)(bd) / ((ad)(bc)), (pq) the determinant p_x q_y - p_y q_x."""
    num = (a[0] * c[1] - a[1] * c[0]) * (b[0] * d[1] - b[1] * d[0])
    den = (a[0] * d[1] - a[1] * d[0]) * (b[0] * c[1] - b[1] * c[0])
    if num == 0 and den == 0:
        raise ThreefoldCoincidenceError("three of the four points coincide")
    return ProjScalar(num, den)


def _line_class(solved: _Solved) -> BundleClass:
    """The S-class of a line's intersection, built once and kept with it.  A
    triple that does not sum to zero is not kept: each call raises alike."""
    cls = solved.cls
    if cls is None:
        zs = [z for z, _ in solved.order]
        if not jl.sums_to_zero(*zs):
            raise ValueError("triple does not sum to zero in the Jacobian")
        cls = solved.cls = _shared_class(zs)
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
    lambda is cross_ratio's formula (_cross_ratio) on the points' coordinates
    kept in one chart of the line (see _line_chart).  A point ip.x off the
    line (IncidencePoint allows a residual of INCIDENCE_POINT_TOL) is thereby
    projected onto it centrally from e_k.  On a tangent line (a shared
    parameter: the extension stratum) lambda is the cross-ratio's value
    there, whatever ip.x is: exactly 1 when the double point sorts first and
    inf when it sorts last.  A flex tangent has no frame.
    """
    solved = _solved(ip.line, curve)
    cls = _line_class(solved)
    return cls, _framed(solved.order, ip.line, ip.x)


def _framed(hits: Sequence[tuple[JacPoint, Vec]], line: PlaneLine,
            x: PlanePoint) -> ProjScalar:
    """The cross-ratio (p1, p2; p3, x) of the line's three intersection points
    hits = [(parameter, plane point)], in the order given, and a point x on
    the line (see psi_plus).  Coincident points are shared parameters, so
    the double point gives exactly 1 in front and inf at the back."""
    (z1, p1), (z2, p2), (z3, p3) = hits
    if z1 is z2 is z3:
        raise ThreefoldCoincidenceError("three of the four points coincide")
    if z1 is z2:
        return ProjScalar(1, 1)
    if z2 is z3:
        return PROJ_INF
    i, j = _line_chart(line)
    p4 = x.vec()
    return _cross_ratio((p1[i], p1[j]), (p2[i], p2[j]), (p3[i], p3[j]), (p4[i], p4[j]))


def _nearest_order(hits: Sequence[tuple[JacPoint, Vec]],
                   frame: Sequence[JacPoint]) -> tuple[tuple[JacPoint, Vec], ...]:
    """hits in the order, of the 3! orders, whose parameters lie nearest the
    frame's position by position: the least sum of jl.distance."""
    d = [[jl.distance(z, f) for z, _ in hits] for f in frame]
    a, b, c = min(permutations(range(3)), key=lambda o: d[0][o[0]] + d[1][o[1]] + d[2][o[2]])
    return hits[a], hits[b], hits[c]


def parabolic_point(lam: ProjScalar) -> PlanePoint:
    """[lambda : 1 - lambda : 1] on the standard line {Z1 + Z2 = Z3}."""
    if lam.is_inf:
        return PlanePoint.of(1, -1, 0)
    return PlanePoint.of(lam.num, 1 - lam.num, 1)


def covering_invariants(z1, z2) -> tuple[complex, complex, bool]:
    """The S3-invariants F2, F3 of the covering base and the cusp test.

    F2 = z1^2 + z1 z2 + z2^2, F3 = z1 z2 (z1 + z2); on_cusp iff
    (F2/3)^3 = (F3/2)^2, exactly on exact inputs, as parabolic._exactify reads
    them, and to CUSP_TOL, relative, on others.
    """
    z1, z2 = _exactify(z1), _exactify(z2)
    f2 = z1 * z1 + z1 * z2 + z2 * z2
    f3 = z1 * z2 * (z1 + z2)
    lhs = (f2 / 3) ** 3
    rhs = (f3 / 2) ** 2
    if isinstance(f2, Fraction) and isinstance(f3, Fraction):
        on_cusp = lhs == rhs
    else:
        scale = max(abs(complex(lhs)), abs(complex(rhs)), 1.0)
        on_cusp = abs(complex(lhs) - complex(rhs)) <= CUSP_TOL * scale
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


def _chart(line: PlaneLine, u1: complex, u2: complex, t: complex, curve: CurveSpec,
           frame: Optional[Sequence[JacPoint]] = None) -> tuple[complex, complex, complex]:
    """incidence_parametrization on the line l = PlaneLine.of(u1, u2, 1).
    Given a frame, the canonically ordered parameters of a nearby line,
    lambda frames x with l's points in the order nearest the frame's (see
    _nearest_order) instead of in their own canonical order."""
    x = PlanePoint.of(1, complex(t), -u1 - complex(t) * u2)
    solved = _solved(line, curve)
    cls = _line_class(solved)
    lam = _framed(solved.order if frame is None else _nearest_order(solved.hits, frame), line, x)
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
    tol^2.

    lambda is differenced in the base line's frame: the canonical order of
    a line's points can change between the base line and a neighbour (two
    points swap, or one crosses the seam of the fundamental domain), and
    lambda then jumps by one of the maps that permute a cross-ratio's
    points, so each neighbour's points are put in the base line's order."""
    # t +- step lie on the base point's line, which is intersected once
    line = PlaneLine.of(u1, u2, 1)
    base = [z for z, _ in _solved(line, curve).order]
    step = _RANK_STEP
    cols = []
    for k in range(3):
        d = [0, 0, 0]
        d[k] = step
        lp, lm, frame = (line, line, None) if k == 2 else (
            PlaneLine.of(u1 + d[0], u2 + d[1], 1), PlaneLine.of(u1 - d[0], u2 - d[1], 1), base)
        fp = _chart(lp, u1 + d[0], u2 + d[1], t + d[2], curve, frame)
        fm = _chart(lm, u1 - d[0], u2 - d[1], t - d[2], curve, frame)
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
