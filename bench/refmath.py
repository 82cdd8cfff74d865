"""Reference mathematics for building benchmark inputs and their expected answers.

Kept apart from ``ellpar`` on purpose: the benchmark constructs every curve
point, line and flag here, so the library is handed raw numbers and its
answers are compared with values known by construction, not with values it
computed itself.  Pure Python; no numpy.
"""

from __future__ import annotations

import cmath
import math

TWO_PI_I = 2j * math.pi


def _expm1(w: complex) -> complex:
    """e^w - 1 without cancellation for small |w|."""
    x, y = w.real, w.imag
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2) ** 2,
                   math.exp(x) * math.sin(y))


def coords(z: complex, tau: complex) -> tuple[float, float]:
    """Lattice coordinates (s, t) in [0, 1)^2 of z = s + t*tau mod Z + tau*Z."""
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    return s % 1.0, t % 1.0


def point(s: float, t: float, tau: complex) -> complex:
    return s + t * tau


def lattice_dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Distance mod Z^2 between two lattice-coordinate pairs."""
    ds = (a[0] - b[0]) % 1.0
    dt = (a[1] - b[1]) % 1.0
    return math.hypot(min(ds, 1.0 - ds), min(dt, 1.0 - dt))


def triple_dist(got: list[tuple[float, float]], want: list[tuple[float, float]]) -> float:
    """Largest pointwise distance under the best matching of two 3-multisets."""
    best = math.inf
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        best = min(best, max(lattice_dist(got[i], want[k]) for i, k in zip(perm, range(3))))
    return best


def invariants(tau: complex) -> tuple[complex, complex]:
    """(g2, g3) of Z + tau*Z from the Eisenstein q-series."""
    q = cmath.exp(TWO_PI_I * tau)
    e4 = e6 = 0j
    qn = q
    n = 1
    while True:
        term = qn / (1 - qn)
        d4, d6 = n ** 3 * term, n ** 5 * term
        e4 += d4
        e6 += d6
        if abs(d6) < 1e-18 * max(1.0, abs(e6)) and abs(d4) < 1e-18:
            break
        n += 1
        qn *= q
    g2 = (2 * math.pi) ** 4 / 12.0 * (1 + 240 * e4)
    g3 = (2 * math.pi) ** 6 / 216.0 * (1 - 504 * e6)
    return g2, g3


def wp(z: complex, tau: complex) -> tuple[complex, complex]:
    """(P(z), P'(z)), accurate up to the lattice.

    z is first reduced to the parallelogram centred at 0, so the pole term
    u/(1-u)^2 is evaluated through expm1 and keeps its relative accuracy for
    |z| down to 1e-8.
    """
    t = z.imag / tau.imag
    s = z.real - t * tau.real
    z = (s - round(s)) + (t - round(t)) * tau
    w = TWO_PI_I * z
    u = cmath.exp(w)
    om = -_expm1(w)  # 1 - u
    p = 1.0 / 12.0 + u / om ** 2
    dp = u * (1 + u) / om ** 3
    q = cmath.exp(TWO_PI_I * tau)
    qn = q
    while True:
        a, b = qn * u, qn / u
        dpn = a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * qn / (1 - qn) ** 2
        ddn = a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3
        p += dpn
        dp += ddn
        if abs(dpn) < 1e-18 * max(1.0, abs(p)) and abs(ddn) < 1e-18 * max(1.0, abs(dp)):
            break
        qn *= q
    return TWO_PI_I ** 2 * p, TWO_PI_I ** 3 * dp


def rand_point(rng) -> tuple[float, float]:
    return rng.random(), rng.random()


def neg_sum(*pts) -> tuple[float, float]:
    return (-sum(p[0] for p in pts)) % 1.0, (-sum(p[1] for p in pts)) % 1.0


def near_lattice(p, k: int, r: float) -> bool:
    """Is k*p within lattice distance r of 0?"""
    return lattice_dist(((k * p[0]) % 1.0, (k * p[1]) % 1.0), (0.0, 0.0)) < r


def offset(rng, r: float) -> tuple[float, float]:
    """A lattice-coordinate step of length r in a random direction."""
    a = rng.uniform(0.0, 2 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def gauss_c(rng) -> complex:
    return complex(rng.gauss(0, 1), rng.gauss(0, 1))


def combine(p, q, c: complex):
    """The point p + c*q, scaled to unit max-norm."""
    return unit(tuple(a + c * b for a, b in zip(p, q)))


def unit(v) -> tuple[complex, complex, complex]:
    m = max(abs(c) for c in v)
    return tuple(c / m for c in v)


def embed(z: complex, tau: complex) -> tuple[complex, complex, complex]:
    """[P : P' : 1] scaled to unit max-norm; the lattice maps to [0 : 1 : 0]."""
    s, t = coords(z, tau)
    if lattice_dist((s, t), (0.0, 0.0)) == 0.0:
        return (0j, 1 + 0j, 0j)
    p, dp = wp(z, tau)
    if abs(dp) > 1.0:
        return unit((p / dp, 1.0, 1.0 / dp))
    return unit((p, dp, 1.0))


def cross(a, b) -> tuple[complex, complex, complex]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot(a, b) -> complex:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def tangent(z: complex, tau: complex) -> tuple[complex, complex, complex]:
    """Tangent line at embed(z): gradient of y^2 w - 4x^3 + g2 x w^2 + g3 w^3."""
    g2, g3 = invariants(tau)
    p, dp = wp(z, tau)
    return unit((-12 * p * p + g2, 2 * dp, dp * dp + 2 * g2 * p + 3 * g3))


def proj_dist(a, b) -> float:
    """Chordal distance between two points of a projective space (any dimension)."""
    na = math.sqrt(sum(abs(x) ** 2 for x in a))
    nb = math.sqrt(sum(abs(x) ** 2 for x in b))
    if len(a) == 2:
        return abs(a[0] * b[1] - a[1] * b[0]) / (na * nb)
    return math.sqrt(sum(abs(c) ** 2 for c in cross(a, b))) / (na * nb)


def cross_ratio(z1, z2, z3, z4) -> tuple[complex, complex]:
    """((z1-z3)(z2-z4)) : ((z1-z4)(z2-z3)) on projective pairs (num, den)."""
    def d(a, b):
        return a[0] * b[1] - b[0] * a[1]
    return d(z1, z3) * d(z2, z4), d(z1, z4) * d(z2, z3)


def line_param(x, p1, p2) -> tuple[complex, complex]:
    """(beta, alpha) with x proportional to alpha*p1 + beta*p2, by 2x2 solve on
    the best-conditioned pair of coordinates."""
    best = None
    for i, k in ((0, 1), (0, 2), (1, 2)):
        det = p1[i] * p2[k] - p1[k] * p2[i]
        if best is None or abs(det) > abs(best[0]):
            best = (det, i, k)
    det, i, k = best
    alpha = (x[i] * p2[k] - x[k] * p2[i]) / det
    beta = (p1[i] * x[k] - p1[k] * x[i]) / det
    return beta, alpha


def reduce_tau(tau: complex) -> complex:
    """SL(2, Z) reduction to the standard fundamental domain."""
    for _ in range(200):
        tau = tau - round(tau.real)
        if abs(tau) < 1 - 1e-12:
            tau = -1 / tau
        else:
            return tau - round(tau.real)
    raise RuntimeError("reduction did not converge")
