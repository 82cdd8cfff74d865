"""Weierstrass embedding of C/Lambda into the projective plane.

Provides lattice invariants g2, g3, j, the functions P and P', the cubic
embedding, chords/tangents, line-curve intersection, and membership in the
dual cuspidal sextic (tangent lines, with flex tangents as cusps).

P and P' are evaluated through their Fourier (q-series) expansions, truncated
adaptively; the direct lattice sums converge far too slowly for the 1e-8
residual targets.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .jaclattice import EQ_TOL, CurveSpec, JacPoint, add, canon, equal, mul, neg, sub, zero

MERGE_TOL = 1e-6
POLE_TOL = 1e-7
INCIDENCE_TOL = 1e-9

Vec = tuple[complex, complex, complex]


class PoleProximityError(ValueError):
    """Evaluation point too close to the lattice."""


class DegenerateGeometryError(ValueError):
    """Numerically degenerate projective configuration."""


def _normalize(v: Sequence[complex]) -> tuple[complex, complex, complex]:
    """v divided by its first coordinate of modulus above 1e-14 of the largest."""
    a, b, c = map(complex, v)
    ma, mb, mc = abs(a), abs(b), abs(c)
    # NaN compares false, so this refuses it in any position
    if not (ma < math.inf and mb < math.inf and mc < math.inf):
        raise DegenerateGeometryError("non-finite homogeneous coordinate")
    scale = max(ma, mb, mc)
    if scale == 0:
        raise DegenerateGeometryError("all homogeneous coordinates vanish")
    tiny = 1e-14 * scale
    x = a if ma > tiny else b if mb > tiny else c
    return (a / x, b / x, c / x)


def _cross(a: Sequence[complex], b: Sequence[complex]) -> tuple[complex, complex, complex]:
    """Cross product: the line through two points, or the meet of two lines."""
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@dataclass(frozen=True)
class PlanePoint:
    """Homogeneous [x : y : z], normalized so the first nonzero coordinate is 1."""

    x: complex
    y: complex
    z: complex

    @staticmethod
    def of(x, y, z) -> "PlanePoint":
        return PlanePoint(*_normalize((x, y, z)))

    def vec(self) -> tuple[complex, complex, complex]:
        return (self.x, self.y, self.z)

    def close_to(self, other: "PlanePoint", tol: float = MERGE_TOL) -> bool:
        return math.hypot(*map(abs, _cross(self.vec(), other.vec()))) <= tol


@dataclass(frozen=True)
class PlaneLine:
    """Homogeneous coefficients [u : v : w], same normalization as PlanePoint."""

    u: complex
    v: complex
    w: complex

    @staticmethod
    def of(u, v, w) -> "PlaneLine":
        return PlaneLine(*_normalize((u, v, w)))

    def vec(self) -> tuple[complex, complex, complex]:
        return (self.u, self.v, self.w)

    def eval(self, p: PlanePoint) -> complex:
        return self.u * p.x + self.v * p.y + self.w * p.z

    def contains(self, p: PlanePoint, tol: float = INCIDENCE_TOL) -> bool:
        """Incidence p in L relative to the coordinates: |l.p| <= tol max|p_i| max|l_i|."""
        scale = max(map(abs, p.vec())) * max(map(abs, self.vec()))
        return abs(self.eval(p)) <= tol * max(scale, 1e-30)

    def close_to(self, other: "PlaneLine", tol: float = MERGE_TOL) -> bool:
        return math.hypot(*map(abs, _cross(self.vec(), other.vec()))) <= tol

    @functools.cached_property
    def _intersections(self) -> dict[CurveSpec, "_Solved"]:
        # this line's intersection with each curve it has been intersected with
        return {}


def line_through_points(p: PlanePoint, q: PlanePoint) -> PlaneLine:
    return PlaneLine.of(*_cross(p.vec(), q.vec()))


def lines_meet(l1: PlaneLine, l2: PlaneLine) -> PlanePoint:
    return PlanePoint.of(*_cross(l1.vec(), l2.vec()))


# ---------------------------------------------------------------------------
# Lattice invariants and the P function (q-expansions)
# ---------------------------------------------------------------------------

_MAX_TERMS = 4000


def _nome(curve: CurveSpec) -> complex:
    return cmath.exp(2j * math.pi * curve.tau)


def curve_invariants(curve: CurveSpec) -> tuple[complex, complex, complex]:
    """(g2, g3, j) of the lattice Z + tau*Z."""
    q = _nome(curve)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qn = q
    for n in range(1, _MAX_TERMS):
        term = qn / (1 - qn)
        t4 = 240 * n**3 * term
        t6 = -504 * n**5 * term
        e4 += t4
        e6 += t6
        if abs(t4) < 1e-17 * abs(e4) and abs(t6) < 1e-17 * max(abs(e6), 1e-30):
            break
        qn *= q
    else:
        raise ArithmeticError("Eisenstein series did not converge")
    c4 = (2 * math.pi) ** 4 / 12.0
    c6 = (2 * math.pi) ** 6 / 216.0
    g2 = c4 * e4
    g3 = c6 * e6
    disc = g2**3 - 27 * g3**2
    j = 1728 * g2**3 / disc
    return g2, g3, j


def wp(z: complex, curve: CurveSpec) -> tuple[complex, complex]:
    """Weierstrass P and P' at z.

    Fourier expansion with u = e^{2*pi*i*z}, q = e^{2*pi*i*tau}:
      P / (2*pi*i)^2  = 1/12 + u/(1-u)^2
                        + sum_{n>=1} q^n [ u/(1-q^n u)^2 + 1/u /(1-q^n/u)^2 - 2 q^n/(1-q^n)^2 ]
      P' / (2*pi*i)^3 = sum_{n in Z} q^n u (1 + q^n u) / (1 - q^n u)^3
    z is first reduced to the parallelogram centred at 0, and 1 - u is formed
    as -expm1(2*pi*i*z), so the pole term keeps its relative accuracy near the
    lattice.
    """
    tau = curve.tau
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    z = (s - round(s)) + (t - round(t)) * tau
    if abs(z) < POLE_TOL:
        raise PoleProximityError(f"z = {z} within {POLE_TOL} of the lattice")

    q = _nome(curve)
    w = 2j * math.pi * z
    u = cmath.exp(w)
    om = complex(2 * math.sin(w.imag / 2) ** 2 - math.expm1(w.real) * math.cos(w.imag),
                 -math.exp(w.real) * math.sin(w.imag))  # 1 - u
    p = 1.0 / 12.0 + u / om / om  # ratios, not powers: |u| reaches e^(pi Im tau)
    pp = u / om * (1 + u) / om / om
    qn = q
    for n in range(1, _MAX_TERMS):
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
    # the n<=-1 half of the P' sum equals -(n>=1 half with u -> 1/u), folded in above
    return c**2 * p, c**3 * pp


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
    """Tangent to the embedded cubic at embed(p), by the gradient of the cubic."""
    g2, g3, _ = curve_invariants(curve)
    pt = embed(p, curve)
    x, y, w = pt.x, pt.y, pt.z
    fx = -12 * x**2 + g2 * w**2
    fy = 2 * y * w
    fw = y**2 + 2 * g2 * x * w + 3 * g3 * w**2
    return PlaneLine.of(fx, fy, fw)


def line_through(p1: JacPoint, p2: JacPoint, p3: JacPoint, curve: CurveSpec) -> PlaneLine:
    """The line cutting the cubic exactly in the triple (p1, p2, p3).

    Requires p1 + p2 + p3 = 0 in the Jacobian.  Repetitions give tangent
    lines; a triple repetition gives an inflection tangent.
    """
    total = add(add(p1, p2), p3)
    if not total.is_zero(tol=EQ_TOL):
        raise ValueError("triple does not sum to zero in the Jacobian")
    # a point distinct from p1 gives the chord; collinearity of the third is
    # automatic from the zero-sum condition
    q = next((q for q in (p2, p3) if not equal(p1, q, tol=EQ_TOL)), None)
    if q is None:
        return tangent_line(p1, curve)
    return line_through_points(embed(p1, curve), embed(q, curve))


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)), by duplication.

    Principal square roots; valid off the cut (-inf, 0] with at most one zero
    argument (Carlson, Numer. Algorithms 10, 1995).  Each duplication step
    divides every difference a - x_i by exactly 4, so the spread is measured
    once, as q = 1e3 max|a - x_i|, and q is divided by 4 per step: the loop
    stops when q < |a|, in exact arithmetic the test max|a - x_i| < 1e-3 |a|
    of the current arguments.
    """
    a = (x + y + z) / 3
    # the series below is exact to ~1e-16 once the arguments agree to 1e-3
    q = 1e3 * max(abs(a - x), abs(a - y), abs(a - z))
    for _ in range(100):
        if q < abs(a):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (a + lam) / 4
        q /= 4
    else:
        raise DegenerateGeometryError("Carlson duplication did not converge")
    # the mean of the final arguments, so that the three differences sum to 0
    a = (x + y + z) / 3
    dx, dy = 1 - x / a, 1 - y / a
    dz = -dx - dy
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / cmath.sqrt(a)


def _invert_embedding(x: complex, y: complex, e: Sequence[complex],
                      curve: CurveSpec) -> tuple[JacPoint, complex]:
    """The elliptic logarithm: z with P(z) = x, P'(z) = y; e are the roots of 4t^3 - g2 t - g3.

    z = R_F(a1, a2, a3)/u with a_i = (x - e_i)/u^2, u^2 = x/|x|, integrates
    dt / sqrt(4t^3 - g2 t - g3) along the ray from x away from 0, so P(z) = x
    and P'(z) = -2 u^3 sqrt(a1) sqrt(a2) sqrt(a3) with the same principal roots
    (and signed zeros on R_F's cut).  Along the horizontal ray (u = 1) the
    duplication cancels ~|x| against itself near the pole and can flip z.
    Returns z with the curve's ordinate P'(z), whose sign y picks.
    """
    u = cmath.sqrt(x / abs(x)) if x else 1.0
    a = [(x - ei) / u**2 for ei in e]
    z = _carlson_rf(*a) / u
    pp = -2 * u**3 * cmath.sqrt(a[0]) * cmath.sqrt(a[1]) * cmath.sqrt(a[2])
    if abs(pp - y) > abs(pp + y):
        z, pp = -z, -pp
    return canon(z, curve), pp


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

    def f(x):
        return ((x + b) * x + c) * x + d

    # x = y - b/3 gives y^3 + p y + q; Cardano's y = u - p/(3u), u^3 = -q/2 -+ s
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
    # x^3 + b x^2 + c x + d = (x - x1)(x^2 + q1 x + q0), from the constant term up
    q0 = -d / x1
    q1 = (q0 - c) / x1
    s = cmath.sqrt(q1 * q1 - 4 * q0)
    t = -(q1 + s) / 2 if abs(q1 + s) >= abs(q1 - s) else -(q1 - s) / 2
    return (x1, t, q0 / t if t else t)


def _root_near(d: JacPoint, m: int, rest: JacPoint) -> JacPoint:
    """The solution x of m*x + rest = 0 mod Lambda nearest d."""
    s, t = add(mul(m, d), rest).coords()
    return sub(d, JacPoint(d.curve, s=(s - round(s)) / m, t=(t - round(t)) / m))


def _group(zs: Sequence[JacPoint], sizes: Sequence[int]) -> tuple[list[int], list[int]]:
    """The classes of zs at EQ_TOL: the index in zs of each class's first member,
    and the class's multiplicity (zs[i] counts sizes[i] times)."""
    firsts: list[int] = []
    mult: list[int] = []
    for i, (z, m) in enumerate(zip(zs, sizes)):
        for k, j in enumerate(firsts):
            if equal(zs[j], z, tol=EQ_TOL):
                mult[k] += m
                break
        else:
            firsts.append(i)
            mult.append(m)
    return firsts, mult


def _shared(hits: list[tuple[JacPoint, Vec]],
            sizes: list[int]) -> tuple[tuple[JacPoint, Vec], ...]:
    """The triple of the distinct intersections hits = [(parameter, plane point)],
    grouped at EQ_TOL into shared JacPoints, each keeping the plane point of
    its class's first member.  A merge moves the sum by up to EQ_TOL; the
    merged point takes that up, so a double point d becomes the root of
    2d + r = 0 nearest d (a vertical tangent touches at a 2-torsion point), a
    triple point the nearest flex."""
    n = len(hits)
    firsts, mult = _group([z for z, _ in hits], sizes)
    hits = [hits[i] for i in firsts]
    if len(hits) == 2 and n == 3:
        k = mult.index(2)
        (d, p), (r, _) = hits[k], hits[1 - k]
        hits[k] = (_root_near(d, 2, r), p)
        firsts, mult = _group([z for z, _ in hits], mult)
        hits = [hits[i] for i in firsts]
    if len(hits) == 1 and n > 1:
        d, p = hits[0]
        hits = [(_root_near(d, 3, zero(d.curve)), p)]
    return tuple(h for h, m in zip(hits, mult) for _ in range(m))


@functools.lru_cache(maxsize=8)
def _curve_constants(curve: CurveSpec) -> tuple[complex, complex, tuple[complex, ...]]:
    """(g2, g3, e) of the last few curves, e the roots of 4t^3 - g2 t - g3."""
    g2, g3, _ = curve_invariants(curve)
    return g2, g3, _cubic_roots(4, 0, -g2, -g3)


class _Solved:
    """One line's intersection with one curve, kept on the line: the triple of
    (parameter, plane point) pairs, and the S-class of the triple once
    modspace has read it (None before, and for a triple that does not sum to
    zero, which has no class)."""

    __slots__ = ("hits", "cls")

    def __init__(self, hits: tuple[tuple[JacPoint, Vec], ...]):
        self.hits = hits
        self.cls = None


def _solved(line: PlaneLine, curve: CurveSpec) -> _Solved:
    """The line's intersection with the curve, solved at most once per line
    object and curve (PlaneLine._intersections) and freed with the line."""
    entry = line._intersections.get(curve)
    if entry is None:
        entry = line._intersections[curve] = _Solved(_solve(line, curve))
    return entry


def _intersect(line: PlaneLine, curve: CurveSpec) -> tuple[tuple[JacPoint, Vec], ...]:
    """intersect_curve's triple, each parameter with its plane point (x, y, 1) or [0:1:0].

    Solved at most once per line object and curve: the line keeps the
    immutable result (see _solved), so every question asked of one line (its
    count, its class, the fiber coordinate of each point on it) reads the
    same shared JacPoints, and the memo is freed with the line.  An equal but
    distinct line object solves again.
    """
    return _solved(line, curve).hits


def _solve(line: PlaneLine, curve: CurveSpec) -> tuple[tuple[JacPoint, Vec], ...]:
    """_intersect's triple, solved.

    x is the root-cluster mean and y the curve's ordinate at x, with the sign
    the line picks: y read off the line, -(ux + w)/v, would carry x's
    roundoff times |u/v| on steep lines.
    """
    u, v, w = line.u, line.v, line.w
    scale = max(abs(u), abs(v), abs(w))
    if scale == 0:
        raise DegenerateGeometryError("zero line")
    if abs(u) <= 1e-12 * scale and abs(v) <= 1e-12 * scale:
        # the line at infinity meets the cubic only in the flex at the origin
        return ((zero(curve), INFINITY_POINT.vec()),) * 3
    g2, g3, e = _curve_constants(curve)
    if abs(v) <= 1e-12 * scale:
        # vertical line x = -w/u: points (x, +-y) plus the point at infinity
        x = -w / u
        z1, y = _invert_embedding(x, cmath.sqrt(4 * x**3 - g2 * x - g3), e, curve)
        return _shared([(z1, (x, y, 1)), (neg(z1), (x, -y, 1)),
                        (zero(curve), INFINITY_POINT.vec())], [1, 1, 1])
    # y = -(u x + w)/v substituted into y^2 = 4x^3 - g2 x - g3
    a3 = 4.0
    a2 = -(u / v) ** 2
    a1 = -g2 - 2 * (u / v) * (w / v)
    a0 = -g3 - (w / v) ** 2
    roots = _cubic_roots(a3, a2, a1, a0)
    # cluster near-coincident roots and replace each cluster by its mean: the
    # mean cancels the leading O(eps^(1/m)) perturbation of an m-fold root
    clusters: list[list[complex]] = []
    for x in sorted(roots, key=lambda r: (r.real, r.imag)):
        for c in clusters:
            m = sum(c) / len(c)
            if abs(x - m) < 1e-4 * max(1.0, abs(x), abs(m)):
                c.append(x)
                break
        else:
            clusters.append([x])
    hits = []
    for c in clusters:
        x = complex(sum(c) / len(c))
        z, y = _invert_embedding(x, -(u * x + w) / v, e, curve)
        hits.append((z, (x, y, 1)))
    return _shared(hits, [len(c) for c in clusters])


def intersect_curve(line: PlaneLine, curve: CurveSpec) -> list[JacPoint]:
    """The three intersection parameters of a line with the cubic, with multiplicity.

    Inverse of line_through on its image; the result sums to 0 mod Lambda.
    Parameters that coincide at jaclattice.EQ_TOL come back as one shared
    JacPoint (see _shared), so every caller reads the same multiplicities.
    Each call returns a new list; the line keeps the points (see _intersect).
    """
    return [z for z, _ in _intersect(line, curve)]


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
