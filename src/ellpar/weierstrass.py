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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jaclattice import CurveSpec, JacPoint, add, canon, equal, neg, zero

DEFAULT_TOL = 1e-9
MERGE_TOL = 1e-6
POLE_TOL = 1e-7
INCIDENCE_TOL = 1e-9


class PoleProximityError(ValueError):
    """Evaluation point too close to the lattice."""


class DegenerateGeometryError(ValueError):
    """Numerically degenerate projective configuration."""


def _normalize(v: Sequence[complex]) -> tuple[complex, complex, complex]:
    v = [complex(x) for x in v]
    scale = max(abs(x) for x in v)
    if scale == 0:
        raise DegenerateGeometryError("all homogeneous coordinates vanish")
    for x in v:
        if abs(x) > 1e-14 * scale:
            return tuple(y / x for y in v)
    raise DegenerateGeometryError("cannot normalize homogeneous vector")


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


def _dist_to_lattice(z: complex, curve: CurveSpec) -> float:
    tau = curve.tau
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    best = math.inf
    for ds in (math.floor(s), math.ceil(s)):
        for dt in (math.floor(t), math.ceil(t)):
            best = min(best, abs(z - (ds + dt * tau)))
    return best


def wp(z, curve: CurveSpec, check_pole: bool = True):
    """Weierstrass P and P' at z (vectorized over numpy arrays).

    Fourier expansion with u = e^{2*pi*i*z}, q = e^{2*pi*i*tau}:
      P / (2*pi*i)^2  = 1/12 + u/(1-u)^2
                        + sum_{n>=1} q^n [ u/(1-q^n u)^2 + 1/u /(1-q^n/u)^2 - 2 q^n/(1-q^n)^2 ]
      P' / (2*pi*i)^3 = sum_{n in Z} q^n u (1 + q^n u) / (1 - q^n u)^3
    """
    scalar = np.isscalar(z) or (isinstance(z, complex))
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    tau = curve.tau
    # reduce to the fundamental parallelogram for numerical stability
    t = zarr.imag / tau.imag
    s = zarr.real - t * tau.real
    zred = (s % 1.0) + (t % 1.0) * tau
    if check_pole:
        for val in np.ravel(zred):
            if _dist_to_lattice(complex(val), curve) < POLE_TOL:
                raise PoleProximityError(f"z = {val} within {POLE_TOL} of the lattice")

    q = _nome(curve)
    u = np.exp(2j * math.pi * zred)
    p = 1.0 / 12.0 + u / (1 - u) ** 2
    pp = u * (1 + u) / (1 - u) ** 3
    qn = q
    for n in range(1, _MAX_TERMS):
        qu = qn * u
        qiu = qn / u
        tp = qu / (1 - qu) ** 2 + qiu / (1 - qiu) ** 2 - 2 * qn / (1 - qn) ** 2
        tpp = qu * (1 + qu) / (1 - qu) ** 3 - qiu * (1 + qiu) / (1 - qiu) ** 3
        p = p + tp
        pp = pp + tpp
        if np.max(np.abs(tp)) < 1e-17 and np.max(np.abs(tpp)) < 1e-17:
            break
        qn *= q
    else:
        raise ArithmeticError("P series did not converge")
    c = 2j * math.pi
    p = c**2 * p
    # the n<=-1 half of the P' sum equals -(n>=1 half with u -> 1/u), folded in above
    pp = c**3 * pp
    if scalar:
        return complex(p[0]), complex(pp[0])
    return p, pp


INFINITY_POINT = PlanePoint(0j, 1 + 0j, 0j)


def embed(p: JacPoint, curve: CurveSpec) -> PlanePoint:
    """The cubic embedding z -> [P(z) : P'(z) : 1], with the lattice to [0:1:0]."""
    z = p.value()
    if _dist_to_lattice(z, curve) < POLE_TOL:
        return INFINITY_POINT
    pval, ppval = wp(z, curve)
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


def line_through(p1: JacPoint, p2: JacPoint, p3: JacPoint, curve: CurveSpec,
                 tol: float = MERGE_TOL) -> PlaneLine:
    """The line cutting the cubic exactly in the triple (p1, p2, p3).

    Requires p1 + p2 + p3 = 0 in the Jacobian.  Repetitions give tangent
    lines; a triple repetition gives an inflection tangent.
    """
    total = add(add(p1, p2), p3)
    if not total.is_zero(tol=tol):
        raise ValueError("triple does not sum to zero in the Jacobian")
    pts = [p1, p2, p3]
    # any two points distinct in the Jacobian give the chord; collinearity
    # of the third is automatic from the zero-sum condition
    for i in range(3):
        for k in range(i + 1, 3):
            if not equal(pts[i], pts[k], tol=tol):
                return line_through_points(embed(pts[i], curve), embed(pts[k], curve))
    return tangent_line(p1, curve)


def _invert_embedding(x: complex, y: complex, curve: CurveSpec,
                      grid: int = 28) -> JacPoint:
    """Solve P(z) = x, P'(z) = y for z in the fundamental parallelogram."""
    tau = curve.tau
    ss = (np.arange(grid) + 0.5) / grid
    tt = (np.arange(grid) + 0.5) / grid
    zz = (ss[:, None] + tt[None, :] * tau).ravel()
    pv, _ = wp(zz, curve, check_pole=False)
    order = np.argsort(np.abs(pv - x))
    seeds = [complex(zz[i]) for i in order[:3]]
    if abs(x) > 10:
        # pole asymptotics P(z) ~ 1/z^2 seed large-x inversions reliably
        seeds.insert(0, 1 / cmath.sqrt(x))

    def _newton(z0: complex):
        z = z0
        for _ in range(80):
            p, pp = wp(z, curve, check_pole=False)
            f = p - x
            if abs(f) < 1e-13 * max(1.0, abs(x)):
                return z, abs(f)
            if abs(pp) > 1e-6:
                step = f / pp
            else:
                # near a critical point of P, use the second-order model
                ppp = 6 * p**2 - curve_invariants(curve)[0] / 2
                step = cmath.sqrt(2 * f / ppp) if ppp != 0 else f
            if abs(step) > 0.25:
                step *= 0.25 / abs(step)
            z = z - step
        p, _ = wp(z, curve, check_pole=False)
        return z, abs(p - x)

    best_z, best_res = None, math.inf
    for z0 in seeds:
        z, res = _newton(z0)
        if res < best_res:
            best_z, best_res = z, res
        if res < 1e-11 * max(1.0, abs(x)):
            break
    if best_res > 1e-6 * max(1.0, abs(x)):
        raise DegenerateGeometryError(
            f"could not invert the embedding at x = {x:.6g} (residual {best_res:.3g})")
    z = best_z
    _, pp = wp(z, curve, check_pole=False)
    if abs(pp - y) > abs(-pp - y):
        z = -z
    return canon(z, curve)


def intersect_curve(line: PlaneLine, curve: CurveSpec,
                    tol: float = MERGE_TOL) -> list[JacPoint]:
    """The three intersection parameters of a line with the cubic, with multiplicity.

    Inverse of line_through on its image; the result sums to 0 mod Lambda.
    """
    g2, g3, _ = curve_invariants(curve)
    u, v, w = line.u, line.v, line.w
    scale = max(abs(u), abs(v), abs(w))
    if scale == 0:
        raise DegenerateGeometryError("zero line")
    if abs(u) <= 1e-12 * scale and abs(v) <= 1e-12 * scale:
        # the line at infinity meets the cubic only in the flex at the origin
        o = zero(curve)
        return [o, o, o]
    if abs(v) <= 1e-12 * scale:
        # vertical line x = -w/u: points (x, +-y) plus the point at infinity
        x = -w / u
        ysq = 4 * x**3 - g2 * x - g3
        y = cmath.sqrt(ysq)
        z1 = _invert_embedding(x, y, curve)
        return [z1, neg(z1), zero(curve)]
    # y = -(u x + w)/v substituted into y^2 = 4x^3 - g2 x - g3
    a3 = 4.0
    a2 = -(u / v) ** 2
    a1 = -g2 - 2 * (u / v) * (w / v)
    a0 = -g3 - (w / v) ** 2
    roots = np.roots([a3, a2, a1, a0])
    # cluster near-coincident roots and replace each cluster by its mean: the
    # mean cancels the leading O(eps^(1/m)) perturbation of an m-fold root
    rel = max(tol, 1e-4)
    clusters: list[list[complex]] = []
    for x in sorted(roots, key=lambda r: (r.real, r.imag)):
        for c in clusters:
            m = sum(c) / len(c)
            if abs(x - m) < rel * max(1.0, abs(x), abs(m)):
                c.append(x)
                break
        else:
            clusters.append([x])
    out: list[JacPoint] = []
    for c in clusters:
        x = complex(sum(c) / len(c))
        y = -(u * x + w) / v
        zp = _invert_embedding(x, y, curve)
        out.extend([zp] * len(c))
    return out


def multiplicities(points: Sequence[JacPoint], tol: float = 1e-5) -> list[int]:
    """Multiplicity of each distinct class in a short list of Jacobian points."""
    reps: list[JacPoint] = []
    counts: list[int] = []
    for p in points:
        for i, r in enumerate(reps):
            if equal(p, r, tol=tol):
                counts[i] += 1
                break
        else:
            reps.append(p)
            counts.append(1)
    return counts


def dual_sextic_contains(line: PlaneLine, curve: CurveSpec,
                         tol: float = 1e-5) -> tuple[bool, bool]:
    """(member, cusp): tangency to the cubic, and flex tangency."""
    pts = intersect_curve(line, curve)
    counts = multiplicities(pts, tol=tol)
    member = any(c >= 2 for c in counts)
    cusp = any(c == 3 for c in counts)
    return member, cusp
