import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import modspace as ms
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec, JacPoint
from ellpar.parabolic import ProjScalar

TAU = 0.3 + 1.1j


@pytest.fixture
def curve():
    return CurveSpec(TAU)


@pytest.fixture
def square_curve():
    return CurveSpec(1j)


def exact(curve, s, t) -> JacPoint:
    return JacPoint(curve, s=Fraction(s), t=Fraction(t))


def holonomy_scalars(p: JacPoint) -> tuple[complex, complex]:
    """(a, b) with from_holonomy(a, b) equal to p: a = e(-t), b = e(s)."""
    s, t = p.coords()
    e = lambda w: cmath.exp(2j * cmath.pi * w)
    return e(-t), e(s)


def random_unimodular(rng: np.random.RandomState) -> np.ndarray:
    M = rng.randn(3, 3) + 1j * rng.randn(3, 3)
    return M / np.linalg.det(M) ** (1.0 / 3.0)


def count_calls(monkeypatch, calls, cls, names):
    """Wrap the named methods of cls so that each call appends its name to calls."""
    for name in names:
        original = cls.__dict__[name]
        if isinstance(original, staticmethod):
            f = original.__func__
            wrapper = staticmethod(lambda *a, _n=name, _f=f: calls.append(_n) or _f(*a))
        else:
            wrapper = lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a)
        monkeypatch.setattr(cls, name, wrapper)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def frame_param(q, p1, p2) -> ProjScalar:
    """The parameter of q on the line framed by p1 (0) and p2 (inf), all
    homogeneous 3-vectors: q = alpha p1 + beta p2 gives p1 x q = beta c and
    p2 x q = -alpha c with c = p1 x p2, read along conj(c).  A reference for
    the fiber coordinate independent of psi_plus' chart of the line."""
    c = [x.conjugate() for x in _cross(p1, p2)]
    beta = sum(x * y for x, y in zip(_cross(p1, q), c))
    alpha = -sum(x * y for x, y in zip(_cross(p2, q), c))
    return ProjScalar(beta, alpha)


def frame_lambda(frame, x) -> ProjScalar:
    """The cross-ratio (p1, p2; p3, x) of three points and x on one line, by
    their parameters in the frame p1, p2 (see frame_param)."""
    return ms.cross_ratio(*(frame_param(q, frame[0], frame[1]) for q in (*frame, x)))


def wp_reference(z: complex, curve: CurveSpec) -> tuple[complex, complex]:
    """weierstrass.wp as it was before its per-curve series table: the nome's
    powers and the z-free terms formed at every call, powers by **, and the
    factors (2 pi i)^2, (2 pi i)^3 at the end.  The reference for wp's bits."""
    tau = curve.tau
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    z = (s - round(s)) + (t - round(t)) * tau
    if abs(z) < we.POLE_TOL:
        raise we.PoleProximityError(f"z = {z} within {we.POLE_TOL} of the lattice")

    q = cmath.exp(2j * math.pi * tau)
    w = 2j * math.pi * z
    u = cmath.exp(w)
    om = complex(2 * math.sin(w.imag / 2) ** 2 - math.expm1(w.real) * math.cos(w.imag),
                 -math.exp(w.real) * math.sin(w.imag))  # 1 - u
    p = 1.0 / 12.0 + u / om / om
    pp = u / om * (1 + u) / om / om
    qn = q
    for n in range(1, we._MAX_TERMS):
        qu = qn * u
        qiu = qn / u
        tp = qu / (1 - qu) ** 2 + qiu / (1 - qiu) ** 2 - 2 * qn / (1 - qn) ** 2
        tpp = qu * (1 + qu) / (1 - qu) ** 3 - qiu * (1 + qiu) / (1 - qiu) ** 3
        p = p + tp
        pp = pp + tpp
        if abs(tp) < 1e-17 and abs(tpp) < 1e-17:
            break
        qn *= q
    else:
        raise ArithmeticError("P series did not converge")
    c = 2j * math.pi
    return c**2 * p, c**3 * pp


# The value layer as it was before its primitives read attributes directly
# and its membership tests read integers: the references for the bits of
# contains, both close_to, equal, sums_to_zero, is_torsion and the torsion
# snap (see test_weierstrass, test_jaclattice, test_bundles and test_bench),
# classify_triple as it was before jaclattice.merge_triple, and the elliptic
# logarithm by Carlson's R_F, the reference for the AGM's accuracy.

def contains_reference(line: we.PlaneLine, p: we.PlanePoint, tol: float = we.INCIDENCE_TOL) -> bool:
    """PlaneLine.contains through vec(), map and max."""
    scale = max(map(abs, p.vec())) * max(map(abs, line.vec()))
    return abs(line.eval(p)) <= tol * max(scale, 1e-30)


def close_to_reference(a, b, tol: float = we.MERGE_TOL) -> bool:
    """PlanePoint.close_to and PlaneLine.close_to through vec() and _cross."""
    return math.hypot(*map(abs, we._cross(a.vec(), b.vec()))) <= tol


def equal_reference(p: JacPoint, q: JacPoint, tol: float = 1e-9) -> bool:
    """jaclattice.equal through is_exact and coords()."""
    jl._check_curves(p, q)
    if p.is_exact and q.is_exact:
        return p.s == q.s and p.t == q.t
    ps, pt = p.coords()
    qs, qt = q.coords()
    ds = min((ps - qs) % 1.0, (qs - ps) % 1.0)
    dt = min((pt - qt) % 1.0, (qt - pt) % 1.0)
    return math.hypot(ds, dt) <= tol


def sums_to_zero_reference(p: JacPoint, q: JacPoint, r: JacPoint, tol: float = 1e-9) -> bool:
    """jaclattice.sums_to_zero as the composition it is defined by."""
    return jl.add(jl.add(p, q), r).is_zero(tol)


def is_torsion_reference(p: JacPoint, n: int, tol: float = 1e-9) -> bool:
    """jaclattice.is_torsion as the composition it is defined by."""
    return jl.mul(n, p).is_zero(tol)


def snap_to_torsion_reference(p: JacPoint, n: int) -> JacPoint:
    """jaclattice.snap_to_torsion by rounding the float coordinates, exact
    points included."""
    s, t = p.coords()
    return JacPoint(p.curve, s=Fraction(round(s * n) % n, n), t=Fraction(round(t * n) % n, n))


# classify_triple_reference refuses a coincident triple that is not
# 3-torsion at this tol
REFERENCE_TORSION_TOL = 1e-4


def classify_triple_reference(z1: JacPoint, z2: JacPoint, z3: JacPoint,
                              tol: float = jl.EQ_TOL) -> bd.BundleClass:
    """bundles.classify_triple by counting the pairs equal at tol: none is
    T1, one is T21 at the first point of the pair as given, more is T31 at
    the flex of the first point.  The reference for the classes of triples
    whose pairs are all apart, or all one object."""
    if not sums_to_zero_reference(z1, z2, z3, tol):
        raise ValueError("triple does not sum to zero in the Jacobian")
    pts = [jl.canon(z, z1.curve) for z in (z1, z2, z3)]
    e12 = jl.equal(pts[0], pts[1], tol=tol)
    e13 = jl.equal(pts[0], pts[2], tol=tol)
    e23 = jl.equal(pts[1], pts[2], tol=tol)
    neq = sum((e12, e13, e23))
    if neq == 0:
        return bd.BundleClass("T1", triple=tuple(jl.canonical_sort(pts)))
    if neq >= 2:
        if not is_torsion_reference(pts[0], 3, REFERENCE_TORSION_TOL):
            raise ValueError("coincident triple is not 3-torsion")
        return bd.BundleClass("T31", point=jl.snap_to_torsion(pts[0], 3))
    return bd.BundleClass("T21", point=pts[0] if e12 or e13 else pts[1])


# carlson_rf's series finishes once its arguments agree to 1/RF_STOP ~ 1/79
RF_STOP = (3 * sys.float_info.epsilon) ** (-1 / 8)


def carlson_rf(x: complex, y: complex, z: complex, roots=()) -> complex:
    """Carlson's R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)), by duplication.

    weierstrass's elliptic logarithm before the complex AGM, and the
    reference its accuracy tests compare against.  Principal square roots;
    valid off the cut (-inf, 0] with at most one zero argument (Carlson,
    Numer. Algorithms 10, 1995; DLMF 19.36.1).  Each duplication step
    divides every difference a - x_i by exactly 4, so the spread is measured
    once, as q = RF_STOP max|a - x_i|, and q is divided by 4 per step: the
    loop stops when q < |a|, in exact arithmetic the test
    max|a - x_i| < |a| / RF_STOP of the current arguments.  It finishes
    with the 7th-order series

      R_F = (1 - E2/10 + E3/14 + E2^2/24 - 3 E2 E3/44 - 5 E2^3/208
             + 3 E3^2/104 + E2^2 E3/16) / sqrt(a)

    in the elementary symmetric functions E2, E3 of the differences 1 - x_i/a.
    Carlson bounds the relative error of the series cut after degree 5 by r
    once the arguments agree to (3r)^(1/6); cut after degree 7 the bound
    holds at (3r)^(1/8), so RF_STOP = (3 eps)^(-1/8), as in Boost's
    ellint_rf.  roots, if given, are cmath.sqrt of x, y, z, which the first
    step takes instead of computing them again.
    """
    a = (x + y + z) / 3
    q = RF_STOP * max(abs(a - x), abs(a - y), abs(a - z))
    for _ in range(100):
        if q < abs(a):
            break
        sx, sy, sz = roots or (cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z))
        roots = ()
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        q /= 4
    else:
        raise we.DegenerateGeometryError("Carlson duplication did not converge")
    # the mean of the final arguments, so that the three differences sum to 0
    a = (x + y + z) / 3
    dx, dy = 1 - x / a, 1 - y / a
    dz = -dx - dy
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    # the terms after 1 are small: summed first, they keep more of their bits
    return (1 + (-e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44 - 5 * e2 * e2 * e2 / 208
                 + 3 * e3 * e3 / 104 + e2 * e2 * e3 / 16)) / cmath.sqrt(a)


def invert_embedding_reference(x, y, e, curve: CurveSpec):
    """weierstrass._invert_embedding before the complex AGM, on the roots e of
    4t^3 - g2 t - g3: z = R_F(a1, a2, a3)/u with a_i = (x - e_i)/u^2,
    u^2 = x/|x|, integrates along the ray from x away from 0, and
    P'(z) = -2 u^3 sqrt(a1) sqrt(a2) sqrt(a3) picks z's sign by y; the
    parameter is reduced by canon."""
    u = cmath.sqrt(x / abs(x)) if x else 1.0
    a = [(x - ei) / u**2 for ei in e]
    z = carlson_rf(*a) / u
    pp = -2 * u**3 * cmath.sqrt(a[0]) * cmath.sqrt(a[1]) * cmath.sqrt(a[2])
    if abs(pp - y) > abs(pp + y):
        z, pp = -z, -pp
    return jl.canon(z, curve), pp


def cluster_reference(roots):
    """weierstrass._solve's root clustering as a loop over lists: the clusters
    of the sorted roots, each a list of its members.  The reference for
    weierstrass._clusters' decisions and the bits of its means,
    complex(sum(c) / len(c))."""
    clusters: list[list[complex]] = []
    for x in sorted(roots, key=lambda r: (r.real, r.imag)):
        for c in clusters:
            m = sum(c) / len(c)
            if abs(x - m) < 1e-4 * max(1.0, abs(x), abs(m)):
                c.append(x)
                break
        else:
            clusters.append([x])
    return clusters


def cluster_bits(clusters):
    """(mean, size) pairs by the hex of each part of the mean."""
    return [(m.real.hex(), m.imag.hex(), size) for m, size in clusters]


def duplication_steps(monkeypatch, triples) -> float:
    """The mean number of duplication steps carlson_rf takes on the argument
    triples: without roots given, a call takes three square roots per step
    and one for the result."""
    taken = []
    sqrt = cmath.sqrt
    with monkeypatch.context() as m:
        m.setattr(cmath, "sqrt", lambda v: taken.append(v) or sqrt(v))
        for args in triples:
            carlson_rf(*args)
    return (len(taken) - len(triples)) / 3 / len(triples)


def cubic_roots_reference(a3, a2, a1, a0):
    """weierstrass._cubic_roots with the unit cube roots w**k formed at every
    call and each Newton residual evaluated twice: the reference for its bits."""
    b, c, d = a2 / a3, a1 / a3, a0 / a3

    def f(x):
        return ((x + b) * x + c) * x + d

    p = c - b * b / 3
    q = (2 * b * b - 9 * c) * b / 27 + d
    s = cmath.sqrt(q * q / 4 + p * p * p / 27)
    big = -q / 2 - s if abs(-q / 2 - s) >= abs(-q / 2 + s) else -q / 2 + s
    x1 = complex(-b / 3)
    if big:
        u = big ** (1 / 3)
        w = complex(-0.5, math.sqrt(3) / 2)
        x1 = max((u * w**k - p / (3 * u * w**k) - b / 3 for k in range(3)), key=abs)
    if x1 == 0:
        return (0j, 0j, 0j)
    for _ in range(3):
        dp = (3 * x1 + 2 * b) * x1 + c
        if dp == 0:
            break
        x = x1 - f(x1) / dp
        if abs(f(x)) >= abs(f(x1)):
            break
        x1 = x
    q0 = -d / x1
    q1 = (q0 - c) / x1
    s = cmath.sqrt(q1 * q1 - 4 * q0)
    t = -(q1 + s) / 2 if abs(q1 + s) >= abs(q1 - s) else -(q1 - s) / 2
    return (x1, t, q0 / t if t else t)


def merge_triple_reference(zs, tol: float = jl.EQ_TOL, equal=equal_reference):
    """jaclattice.merge_triple before it decided three plain-float points in
    place: every pair through equal (equal_reference unless given), each
    compared once and identity first.  The reference for merge_triple's bits."""
    z1, z2, z3 = zs
    e12 = z1 is z2 or equal(z1, z2, tol)
    e13 = e12 if z2 is z3 else z1 is z3 or equal(z1, z3, tol)
    e23 = e13 if z1 is z2 else e12 if z1 is z3 else z2 is z3 or equal(z2, z3, tol)
    if not (e12 or e13 or e23):
        return zs
    if e12 + e13 + e23 == 1:
        (a, b), r = ((z1, z2), z3) if e12 else ((z1, z3), z2) if e13 else ((z2, z3), z1)
        if a is b:
            return zs
        if a.is_exact or b.is_exact:
            d = a if a.is_exact else b
        else:
            s, t = jl.add(jl.mul(2, a), r).coords()
            d = jl.sub(a, JacPoint(a.curve, (s - round(s)) / 2, (t - round(t)) / 2))
        if d is a or d is b or not equal(d, r, tol):
            return (d, d, z3) if e12 else (d, z2, d) if e13 else (z1, d, d)
        first = r if r is z1 else d
    elif z1 is z2 is z3:
        return zs
    else:
        first = z1
    d = next((z for z in zs if z.is_exact), None)
    if d is None:
        d = JacPoint(first.curve, *jl.snap_to_torsion(first, 3).coords())
    return (d, d, d)
