"""Weierstrass embedding of C/Lambda into the projective plane.

Provides lattice invariants g2, g3, j, the functions P and P', the cubic
embedding, chords/tangents, line-curve intersection, and membership in the
dual cuspidal sextic (tangent lines, with flex tangents as cusps).

P and P' are evaluated through their Fourier (q-series) expansions, truncated
adaptively; the direct lattice sums converge far too slowly for the 1e-8
residual targets.  Each intersection point is carried back to C/Lambda by
the elliptic logarithm, computed by the complex AGM from per-curve tables
(_log_tables) that the curve memo keeps and each solve hands to every
inversion.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Sequence

from .jaclattice import (AXIS_TOL, INCIDENCE_TOL, MERGE_TOL, POLE_TOL, ROOT_MERGE_TOL,
                         CurveSpec, JacPoint, Value, _from_complex, _sort_key, merge_triple,
                         neg, sums_to_zero, zero)

# method constants: _normalize divides by the first coordinate above _PIVOT
# of the largest, and a relative test on a scale that is 0 compares against
# _FLOOR instead
_PIVOT = 1e-14
_FLOOR = 1e-30

Vec = tuple[complex, complex, complex]


class PoleProximityError(ValueError):
    """Evaluation point too close to the lattice."""


class DegenerateGeometryError(ValueError):
    """Numerically degenerate projective configuration."""


def _normalize(v: Sequence[complex]) -> tuple[complex, complex, complex]:
    """v divided by its first coordinate of modulus above _PIVOT of the largest."""
    a, b, c = map(complex, v)
    ma, mb, mc = abs(a), abs(b), abs(c)
    # NaN compares false, so this refuses it in any position
    if not (ma < math.inf and mb < math.inf and mc < math.inf):
        raise DegenerateGeometryError("non-finite homogeneous coordinate")
    scale = max(ma, mb, mc)
    if scale == 0:
        raise DegenerateGeometryError("all homogeneous coordinates vanish")
    tiny = _PIVOT * scale
    x = a if ma > tiny else b if mb > tiny else c
    return (a / x, b / x, c / x)


def _cross(a: Sequence[complex], b: Sequence[complex]) -> tuple[complex, complex, complex]:
    """Cross product: the line through two points, or the meet of two lines."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


class PlanePoint(Value):
    """Homogeneous [x : y : z], normalized so the first nonzero coordinate is 1."""

    x: complex
    y: complex
    z: complex

    def __init__(self, x, y, z):
        d = self.__dict__
        d["x"], d["y"], d["z"] = x, y, z

    @staticmethod
    def of(x, y, z) -> "PlanePoint":
        return PlanePoint(*_normalize((x, y, z)))

    def vec(self) -> tuple[complex, complex, complex]:
        return (self.x, self.y, self.z)

    def close_to(self, other: "PlanePoint", tol: float = MERGE_TOL) -> bool:
        """|self x other| <= tol: _cross's products, written out."""
        x, y, z, ox, oy, oz = self.x, self.y, self.z, other.x, other.y, other.z
        return math.hypot(abs(y * oz - z * oy), abs(z * ox - x * oz), abs(x * oy - y * ox)) <= tol


class PlaneLine(Value):
    """Homogeneous coefficients [u : v : w], same normalization as PlanePoint."""

    u: complex
    v: complex
    w: complex

    def __init__(self, u, v, w):
        d = self.__dict__
        d["u"], d["v"], d["w"] = u, v, w
        # this line's intersection with each curve it has been intersected
        # with; not a field, so outside eq, hash and repr
        d["_intersections"] = {}

    @staticmethod
    def of(u, v, w) -> "PlaneLine":
        return PlaneLine(*_normalize((u, v, w)))

    def vec(self) -> tuple[complex, complex, complex]:
        return (self.u, self.v, self.w)

    def eval(self, p: PlanePoint) -> complex:
        return self.u * p.x + self.v * p.y + self.w * p.z

    def contains(self, p: PlanePoint, tol: float = INCIDENCE_TOL) -> bool:
        """Incidence p in L relative to the coordinates: |l.p| <= tol max|p_i| max|l_i|."""
        x, y, z, u, v, w = p.x, p.y, p.z, self.u, self.v, self.w
        scale = max(abs(x), abs(y), abs(z)) * max(abs(u), abs(v), abs(w))
        return abs(u * x + v * y + w * z) <= tol * max(scale, _FLOOR)

    def close_to(self, other: "PlaneLine", tol: float = MERGE_TOL) -> bool:
        """|self x other| <= tol: _cross's products, written out."""
        u, v, w, ou, ov, ow = self.u, self.v, self.w, other.u, other.v, other.w
        return math.hypot(abs(v * ow - w * ov), abs(w * ou - u * ow), abs(u * ov - v * ou)) <= tol


def line_through_points(p: PlanePoint, q: PlanePoint) -> PlaneLine:
    return PlaneLine.of(*_cross(p.vec(), q.vec()))


def lines_meet(l1: PlaneLine, l2: PlaneLine) -> PlanePoint:
    return PlanePoint.of(*_cross(l1.vec(), l2.vec()))


# ---------------------------------------------------------------------------
# Lattice invariants and the P function (q-expansions)
# ---------------------------------------------------------------------------

_MAX_TERMS = 4000
# a q-series stops at the first term below this (relative to the sum in
# curve_invariants, absolute in wp), where it no longer changes a double
_SERIES_BREAK = 1e-17


def _nome(tau: complex) -> complex:
    return cmath.exp(2j * math.pi * tau)


# g2 = _G2_SCALE E4, g3 = _G3_SCALE E6, and the discriminant's factor before
# Jacobi's product q prod (1 - q^n)^24
_G2_SCALE = (2 * math.pi) ** 4 / 12.0
_G3_SCALE = (2 * math.pi) ** 6 / 216.0
_DISC_SCALE = (2 * math.pi) ** 12


def curve_invariants(curve: CurveSpec) -> tuple[complex, complex, complex]:
    """(g2, g3, j) of the lattice Z + tau*Z.

    j = 1728 g2^3 / Delta with the discriminant from Jacobi's product
    Delta = (2 pi)^12 q prod (1 - q^n)^24 (Apostol, Modular Functions and
    Dirichlet Series, ch. 3), not as g2^3 - 27 g3^2, which cancels wherever
    j is large.  The product is taken in the Eisenstein loop: at its break
    |q^n| is below ~4e-20, so every later factor rounds to 1.  From Im tau
    ~ 113 on, j ~ 1/q leaves the range of a double: an OverflowError.
    """
    q = _nome(curve.tau)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    prod = 1.0 + 0j
    qn = q
    for n in range(1, _MAX_TERMS):
        om = 1 - qn
        term = qn / om
        t4 = 240 * n**3 * term
        t6 = -504 * n**5 * term
        e4 += t4
        e6 += t6
        prod *= om
        if abs(t4) < _SERIES_BREAK * abs(e4) and abs(t6) < _SERIES_BREAK * max(abs(e6), _FLOOR):
            break
        qn *= q
    else:
        raise ArithmeticError("Eisenstein series did not converge")
    g2 = _G2_SCALE * e4
    g3 = _G3_SCALE * e6
    disc = _DISC_SCALE * q * prod**24
    if disc:
        j = 1728 * g2**3 / disc
        if cmath.isfinite(j):
            return g2, g3, j
    raise OverflowError(f"the j-invariant at tau = {curve.tau} exceeds the range of a double")


# (2*pi*i)^2 and (2*pi*i)^3, the factors of wp's two series
_C2 = (2j * math.pi) ** 2
_C3 = (2j * math.pi) ** 3


@functools.lru_cache(maxsize=8)
def _wp_series(tau: complex) -> tuple[tuple[complex, complex], ...]:
    """The z-free part of wp's series at the last few tau: (q^n, 2 q^n/(1-q^n)^2)
    for n = 1 .. N.

    For z in the centred parallelogram |u|, |1/u| <= e^{pi Im tau}, so the n-th
    terms are at most ~4 e^{-pi Im tau (2n-1)} < 4e-19, far below wp's 1e-17
    break test, from n >= 1/2 + ln(1e19)/(2 pi Im tau) on: N is that bound
    (counted in log space, as e^{pi Im tau} overflows from Im tau ~ 226), capped
    at _MAX_TERMS - 1 terms.  Keyed by tau's value: taus that compare equal
    give the same nome bit for bit.
    """
    n_max = min(_MAX_TERMS - 1, 1.5 + math.log(1e19) / (2 * math.pi * tau.imag))
    q = _nome(tau)
    table = []
    qn = q
    for _ in range(int(n_max)):
        table.append((qn, 2 * qn / (1 - qn) ** 2))
        qn *= q
    return tuple(table)


def wp(z: complex, curve: CurveSpec) -> tuple[complex, complex]:
    """Weierstrass P and P' at z.

    Fourier expansion with u = e^{2*pi*i*z}, q = e^{2*pi*i*tau}:
      P / (2*pi*i)^2  = 1/12 + u/(1-u)^2
                        + sum_{n>=1} q^n [ u/(1-q^n u)^2 + 1/u /(1-q^n/u)^2 - 2 q^n/(1-q^n)^2 ]
      P' / (2*pi*i)^3 = sum_{n in Z} q^n u (1 + q^n u) / (1 - q^n u)^3
    z is first reduced to the parallelogram centred at 0, and 1 - u is formed
    as -expm1(2*pi*i*z), so the pole term keeps its relative accuracy near the
    lattice.  The z-free factors come from the curve's table (_wp_series); a
    square a*a and a cube a*(a*a) are the products that a**2 and a**3 compute.
    """
    tau = curve.tau
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    z = (s - round(s)) + (t - round(t)) * tau
    if abs(z) < POLE_TOL:
        raise PoleProximityError(f"z = {z} within {POLE_TOL} of the lattice")

    w = 2j * math.pi * z
    u = cmath.exp(w)
    om = complex(2 * math.sin(w.imag / 2) ** 2 - math.expm1(w.real) * math.cos(w.imag),
                 -math.exp(w.real) * math.sin(w.imag))  # 1 - u
    p = 1.0 / 12.0 + u / om / om  # ratios, not powers: |u| reaches e^(pi Im tau)
    pp = u / om * (1 + u) / om / om
    for qn, dn in _wp_series(tau):
        qu = qn * u
        qiu = qn / u
        a = 1 - qu
        b = 1 - qiu
        tp = qu / (a * a) + qiu / (b * b) - dn
        tpp = qu * (1 + qu) / (a * (a * a)) - qiu * (1 + qiu) / (b * (b * b))
        p = p + tp
        pp = pp + tpp
        if abs(tp) < _SERIES_BREAK and abs(tpp) < _SERIES_BREAK:
            break
    else:
        raise ArithmeticError("P series did not converge")
    # the n<=-1 half of the P' sum equals -(n>=1 half with u -> 1/u), folded in above
    return _C2 * p, _C3 * pp


INFINITY_POINT = PlanePoint(0j, 1 + 0j, 0j)


def embed(p: JacPoint, curve: CurveSpec) -> PlanePoint:
    """The cubic embedding z -> [P(z) : P'(z) : 1], with the lattice to [0:1:0]."""
    try:
        pval, ppval = wp(p.value(), curve)
    except PoleProximityError:
        return INFINITY_POINT
    return PlanePoint.of(pval, ppval, 1.0)


def cubic_residual(pt: PlanePoint, curve: CurveSpec) -> float:
    """|y^2 z - (4 x^3 - g2 x z^2 - g3 z^3)| on normalized coordinates."""
    g2, g3, _ = curve_invariants(curve)
    x, y, w = pt.x, pt.y, pt.z
    return abs(y**2 * w - 4 * x**3 + g2 * x * w**2 + g3 * w**3)


def tangent_line(p: JacPoint, curve: CurveSpec) -> PlaneLine:
    """Tangent to the embedded cubic at embed(p), by the gradient of the cubic;
    DegenerateGeometryError where it misses embed(p), as near the node at large Im tau."""
    g2, g3, _ = curve_invariants(curve)
    pt = embed(p, curve)
    x, y, w = pt.x, pt.y, pt.z
    fx = -12 * x**2 + g2 * w**2
    fy = 2 * y * w
    fw = y**2 + 2 * g2 * x * w + 3 * g3 * w**2
    line = PlaneLine.of(fx, fy, fw)
    if not line.contains(pt):
        raise DegenerateGeometryError("tangent misses its point: the gradient cancels to rounding")
    return line


def line_through(p1: JacPoint, p2: JacPoint, p3: JacPoint, curve: CurveSpec) -> PlaneLine:
    """The line cutting the cubic exactly in the triple (p1, p2, p3).

    Requires p1 + p2 + p3 = 0 in the Jacobian.  The triple's points coincide
    as merge_triple decides: one class gives the tangent at its point (an
    inflection tangent), two the chord through the two class points (the
    tangent at the double one), three the chord through p1 and p2.
    """
    if not sums_to_zero(p1, p2, p3):
        raise ValueError("triple does not sum to zero in the Jacobian")
    z1, z2, z3 = merge_triple((p1, p2, p3))
    if z1 is z2 is z3:
        return tangent_line(z1, curve)
    # collinearity of the third point is automatic from the zero-sum condition
    return line_through_points(embed(z1, curve), embed(z3 if z1 is z2 else z2, curve))


# the AGM of a table stops once its a and b agree to this, relative to |a|
_AGM_STOP = 2 * sys.float_info.epsilon


def _log_table(e1: complex, e2: complex, e3: complex) -> tuple:
    """The elliptic logarithm's table for the branch point e3: (e1, e2, e3, k, M).

    The AGM of a = sqrt(e1 - e3), b = sqrt(e1 - e2) takes b with the sign
    that makes |a - b| <= |a + b| (the right choice of Cremona and
    Thongjunthug, J. Number Theory 133, 2013) and then steps
    (a, b) -> ((a + b)/2, sqrt(a b)) until |a - b| <= _AGM_STOP |a|; M is
    its last a, and k holds a_n^2 - b_n^2 = ((a_{n-1} - b_{n-1})/2)^2 for
    n = 1, 2, ... along it, the differences _invert_embedding's steps after
    its first read.
    """
    a, b = cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2)
    k = []
    for _ in range(100):
        d = a - b
        if abs(d) > abs(a + b):
            b = -b
            d = a - b
        if abs(d) <= _AGM_STOP * abs(a):
            return e1, e2, e3, tuple(k), a
        k.append(d * d / 4)
        a, b = (a + b) / 2, cmath.sqrt(a * b)
    raise ArithmeticError("AGM did not converge")


def _log_tables(e: Sequence[complex]) -> tuple[tuple, tuple, tuple]:
    """_log_table for each of the roots e of 4t^3 - g2 t - g3 as e3."""
    e1, e2, e3 = e
    return _log_table(e2, e3, e1), _log_table(e3, e1, e2), _log_table(e1, e2, e3)


def _invert_embedding(x: complex, y: complex, tables: Sequence[tuple],
                      curve: CurveSpec) -> tuple[JacPoint, complex]:
    """The elliptic logarithm: z with P(z) = x, P'(z) = y; tables are _log_tables of the curve.

    z = int_x^inf dt / sqrt(4 (t - e1)(t - e2)(t - e3)), by the complex AGM
    (Cremona and Thongjunthug; Cohen, GTM 138, 7.4 for the real case).  With
    t - e3 = s^2 it is int_c^inf ds / sqrt((s^2 - a^2)(s^2 - a^2 + b^2)) from
    c = sqrt(x - e3), a = sqrt(e1 - e3), b = sqrt(e1 - e2), which Landen's
    step (a, b, c) -> ((a + b)/2, sqrt(a b), (c + sqrt(c^2 - a^2 + b^2))/2)
    keeps; at the AGM's limit a = b = M it is asin(M/c)/M.  The first step
    is written out, c = (c0 + d0)/2 with c0 = sqrt(x - e3), d0 = sqrt(x - e2)
    and Re(d0 conj(c0)) >= 0, so that x = e3 divides by no c = 0; each later
    one is c <- c (1 + r)/2 with r = sqrt(1 - k/c^2), whose product R gives
    P'(z) = 1/(dz/dx) = -2 c0 d0 R c cos(asin(M/c)), the cos of the same
    asin value, which fixes z's sign to y's.  e3 is the branch point nearest
    x, as asin(M/c) loses its accuracy where M/c nears +-1, at x = e1.
    Returns z with the curve's ordinate +-2 c0 d0 sqrt(x - e1), whose sign y
    picks.
    """
    ta, tb, tc = tables
    da, db, dc = abs(x - ta[2]), abs(x - tb[2]), abs(x - tc[2])
    e1, e2, e3, ks, m = ta if da <= db and da <= dc else tb if db <= dc else tc
    c0, d0 = cmath.sqrt(x - e3), cmath.sqrt(x - e2)
    if d0.real * c0.real + d0.imag * c0.imag < 0:
        d0 = -d0
    c = (c0 + d0) / 2
    prod = 1
    for k in ks:
        r = cmath.sqrt(1 - k / (c * c))
        prod *= r
        c *= (1 + r) / 2
    w = cmath.asin(m / c)
    z = w / m
    cd = 2 * c0 * d0
    pz = -cd * prod * c * cmath.cos(w)
    if abs(pz - y) > abs(pz + y):
        z = -z
    pp = cd * cmath.sqrt(x - e1)
    if abs(pp - y) > abs(pp + y):
        pp = -pp
    return _from_complex(z, curve), pp


# w**k for the primitive cube root of unity w, k = 0, 1, 2
_UNIT_CUBE_ROOTS = tuple(complex(-0.5, math.sqrt(3) / 2) ** k for k in range(3))


def _cubic_roots(a3: complex, a2: complex, a1: complex,
                 a0: complex) -> tuple[complex, complex, complex]:
    """The three roots of a3 x^3 + a2 x^2 + a1 x + a0 (a3 != 0), with multiplicity.

    The largest-modulus root comes from Cardano's formula, taking the square
    root's sign that avoids cancellation, and is polished by up to three Newton
    steps, each kept only if it lowers the residual.  The other two solve the backward-deflated
    quadratic x^2 + q1 x + q0 by the stable formula (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 1.8 and 5.4); they are not
    polished one by one, which keeps an exact double root symmetric about its
    centre.
    """
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # x = y - b/3 gives y^3 + p y + q; Cardano's y = u - p/(3u), u^3 = -q/2 -+ s
    p = c - b * b / 3
    q = (2 * b * b - 9 * c) * b / 27 + d
    s = cmath.sqrt(q * q / 4 + p * p * p / 27)
    big = -q / 2 - s if abs(-q / 2 - s) >= abs(-q / 2 + s) else -q / 2 + s
    x1 = complex(-b / 3)
    if big:
        # the candidate u w - p/(3 u w) - b/3 of largest modulus, the first on a tie
        u, b3 = big ** (1 / 3), b / 3
        w0, w1, w2 = _UNIT_CUBE_ROOTS
        x1, r1, r2 = (u * w0 - p / (3 * u * w0) - b3, u * w1 - p / (3 * u * w1) - b3,
                      u * w2 - p / (3 * u * w2) - b3)
        x1 = r1 if abs(r1) > abs(x1) else x1
        x1 = r2 if abs(r2) > abs(x1) else x1
    if x1 == 0:
        return (0j, 0j, 0j)
    f1 = ((x1 + b) * x1 + c) * x1 + d
    for _ in range(3):
        dp = (3 * x1 + 2 * b) * x1 + c
        if dp == 0:
            break
        x = x1 - f1 / dp
        fx = ((x + b) * x + c) * x + d
        if abs(fx) >= abs(f1):
            break
        x1, f1 = x, fx
    # x^3 + b x^2 + c x + d = (x - x1)(x^2 + q1 x + q0), from the constant term up
    q0 = -d / x1
    q1 = (q0 - c) / x1
    s = cmath.sqrt(q1 * q1 - 4 * q0)
    t = -(q1 + s) / 2 if abs(q1 + s) >= abs(q1 - s) else -(q1 - s) / 2
    return (x1, t, q0 / t if t else t)


def _shared(hits: list[tuple[JacPoint, Vec]]) -> tuple[tuple[JacPoint, Vec], ...]:
    """The three intersections hits = [(parameter, plane point)] with each
    class of jaclattice.merge_triple as one shared JacPoint, which keeps the
    plane point of the class's first member; the classes come in the order
    of their first members."""
    zs = [z for z, _ in hits]
    merged = merge_triple(zs)
    if merged is zs:
        return tuple(hits)
    kept: dict[int, tuple[JacPoint, Vec]] = {}
    for z, (_, p) in zip(merged, hits):
        kept.setdefault(id(z), (z, p))
    return tuple(h for h in kept.values() for z in merged if z is h[0])


@functools.lru_cache(maxsize=8)
def _curve_constants(curve: CurveSpec) -> tuple[complex, complex, tuple[tuple, ...]]:
    """(g2, g3, tables) of the last few curves: tables are the elliptic
    logarithm's _log_tables of the roots of 4t^3 - g2 t - g3."""
    g2, g3, _ = curve_invariants(curve)
    return g2, g3, _log_tables(_cubic_roots(4, 0, -g2, -g3))


class _Solved:
    """One line's intersection with one curve, kept on the line: the triple of
    (parameter, plane point) pairs, the same pairs in the parameters' order
    of jaclattice.canonical_sort, and the S-class of the triple once
    modspace has read it (None before, and for a triple that does not sum to
    zero, which has no class)."""

    __slots__ = ("hits", "order", "cls")

    def __init__(self, hits: tuple[tuple[JacPoint, Vec], ...]):
        self.hits = hits
        # sorted's stable order, by insertion: a hit passes one before it only on a smaller key
        h0, h1, h2 = hits
        k0, k1, k2 = _sort_key(h0[0]), _sort_key(h1[0]), _sort_key(h2[0])
        if k1 < k0:
            h0, h1, k0, k1 = h1, h0, k1, k0
        self.order = (h0, h1, h2) if not k2 < k1 else (h0, h2, h1) if not k2 < k0 else (h2, h0, h1)
        self.cls = None


def _solved(line: PlaneLine, curve: CurveSpec) -> _Solved:
    """The line's intersection with the curve, solved at most once per line
    object and curve (PlaneLine._intersections) and freed with the line."""
    entry = line._intersections.get(curve)
    if entry is None:
        entry = line._intersections[curve] = _Solved(_solve(line, curve))
    return entry


def _solve(line: PlaneLine, curve: CurveSpec) -> tuple[tuple[JacPoint, Vec], ...]:
    """intersect_curve's triple, each parameter with its plane point (x, y, 1)
    or [0:1:0], solved.

    x is the root-cluster mean and y the curve's ordinate at x, with the sign
    the line picks: y read off the line, -(ux + w)/v, would carry x's
    roundoff times |u/v| on steep lines.
    """
    u, v, w = line.u, line.v, line.w
    scale = max(abs(u), abs(v), abs(w))
    if scale == 0:
        raise DegenerateGeometryError("zero line")
    if abs(u) <= AXIS_TOL * scale and abs(v) <= AXIS_TOL * scale:
        # the line at infinity meets the cubic only in the flex at the origin
        return ((zero(curve), INFINITY_POINT.vec()),) * 3
    g2, g3, tables = _curve_constants(curve)
    if abs(v) <= AXIS_TOL * scale:
        # vertical line x = -w/u: points (x, +-y) plus the point at infinity
        x = -w / u
        z1, y = _invert_embedding(x, cmath.sqrt(4 * x**3 - g2 * x - g3), tables, curve)
        return _shared([(z1, (x, y, 1)), (neg(z1), (x, -y, 1)),
                        (zero(curve), INFINITY_POINT.vec())])
    # y = -(u x + w)/v substituted into y^2 = 4x^3 - g2 x - g3
    uv, wv = u / v, w / v
    a3 = 4.0
    a2 = -uv ** 2
    a1 = -g2 - 2 * uv * wv
    a0 = -g3 - wv ** 2
    hits = []
    for x, m in _clusters(_cubic_roots(a3, a2, a1, a0)):
        z, y = _invert_embedding(x, -(u * x + w) / v, tables, curve)
        hits += [(z, (x, y, 1))] * m
    return _shared(hits)


def _clusters(roots: Sequence[complex]) -> tuple[tuple[complex, int], ...]:
    """The three roots grouped into clusters of near-coincident roots, each as
    (mean, size): the mean cancels the leading O(eps^(1/m)) perturbation of an
    m-fold root.

    In (real, imag) order, a root x joins the first earlier cluster whose
    running mean m has |x - m| < ROOT_MERGE_TOL max(1, |x|, |m|), else starts
    one.  Each mean is summed from the int 0 and divided by the size, as
    sum(c) / len(c) forms it, so a -0.0 part of a finite root reads +0.0.
    """
    x0, x1, x2 = sorted(roots, key=lambda r: (r.real, r.imag))
    m0 = 0 + x0
    if abs(x1 - m0) < ROOT_MERGE_TOL * max(1.0, abs(x1), abs(m0)):
        m01 = (m0 + x1) / 2
        if abs(x2 - m01) < ROOT_MERGE_TOL * max(1.0, abs(x2), abs(m01)):
            return (((m0 + x1 + x2) / 3, 3),)
        return ((m01, 2), (0 + x2, 1))
    if abs(x2 - m0) < ROOT_MERGE_TOL * max(1.0, abs(x2), abs(m0)):
        return (((m0 + x2) / 2, 2), (0 + x1, 1))
    m1 = 0 + x1
    if abs(x2 - m1) < ROOT_MERGE_TOL * max(1.0, abs(x2), abs(m1)):
        return ((m0, 1), ((m1 + x2) / 2, 2))
    return ((m0, 1), (m1, 1), (0 + x2, 1))


def intersect_curve(line: PlaneLine, curve: CurveSpec) -> list[JacPoint]:
    """The three intersection parameters of a line with the cubic, with multiplicity.

    Inverse of line_through on its image; the result sums to 0 mod Lambda.
    Parameters that coincide at jaclattice.EQ_TOL come back as one shared
    JacPoint (see _shared), so every caller reads the same multiplicities.
    Each call returns a new list of the points the line keeps: the line is
    solved at most once per line object and curve (see _solved), so every
    question asked of one line (its count, its class, the fiber coordinate
    of each point on it) reads the same shared JacPoints.  An equal but
    distinct line object solves again.
    """
    return [z for z, _ in _solved(line, curve).hits]


def multiplicities(points: Sequence[JacPoint]) -> list[int]:
    """Multiplicity of each distinct point of intersect_curve's triple, in order of
    first appearance.  The points must come from intersect_curve, which returns
    coincident parameters as one shared JacPoint: identical objects are counted."""
    return [sum(z is d for z in points) for d in {id(z): z for z in points}.values()]


def dual_sextic_contains(line: PlaneLine, curve: CurveSpec) -> tuple[bool, bool]:
    """(member, cusp): tangency to the cubic, and flex tangency."""
    counts = multiplicities(intersect_curve(line, curve))
    member = any(c >= 2 for c in counts)
    cusp = any(c == 3 for c in counts)
    return member, cusp
