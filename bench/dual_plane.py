"""Workload ``dual-plane``: lines of the dual plane on three fixed curves.

Why: ``weierstrass`` (the q-series P, the embedding and line-curve
intersection) does nearly all the work and ``parabolic`` none.  The three
curves are shared by every operation, so a per-curve cache would hit.  The
near-pole chords set the p99 latency of line operations; they and the
near-tangent chords carry the seed's known numerical defects, which stay
visible in the per-class failure table.

Each line operation runs ``sigma_cover_count`` on the line and ``psi_plus``
on an incidence point built on it.  The line is built here from Jacobian
points chosen first, so the expected count, class, triple and cross-ratio
are known by construction.
"""

from __future__ import annotations

import random

import refmath as rm
from harness import Op, cycle, expect, stratified

from ellpar import modspace as ms
from ellpar.jaclattice import CurveSpec
from ellpar.weierstrass import PlaneLine, PlanePoint

CURVES = (1j, 0.5 + 1j, 0.3 + 1.1j)

# shares per round: chords, tangents and flex tangents as in
# scripts/sigma_fiber_sweep.py (200 : 50 : the 9 flexes); near-tangent and
# near-pole chords at 5% each, the lines on which the seed answers wrongly
# (ROADMAP items 2 and 3); and one parametrization_rank.
MIX = {"chord": 200, "tangent": 50, "flex": 9, "near_tangent": 14, "near_pole": 14, "rank": 1}

# the p99 latency is taken over line operations: a rank query (~35-60 ms) is
# a spike of 0.35% of operations that sits on the p99 of the rest, which is
# set by the near-pole chords' tail (~15 ms median, up to ~100 ms)
NOT_IN_P99 = ("rank",)

# input classes on which the seed library is known to answer wrongly
# (ROADMAP items 3 and 5a); failures there are reported, not hidden
KNOWN_DEFECTS = {
    "near_pole": "intersect_curve loses the root near the lattice (ROADMAP 3)",
    "near_tangent": "chords with half-separation <= 1e-5 read as tangents (ROADMAP 5a)",
}

POINT_TOL = 1e-6    # lattice-coordinate distance of recovered Jacobian points
LAMBDA_TOL = 1e-6   # chordal distance of the fiber cross-ratio
WELL_SEPARATED = 1e-3


def _z(p, tau) -> complex:
    return rm.point(p[0], p[1], tau)


def _line_op(kind: str, tau: complex, line, x, count: int, label: str, want,
             lam_ref) -> Op:
    """sigma_cover_count and psi_plus on one line; ``want`` is the expected
    triple (T1) or point (T21/T31) in lattice coordinates.

    On a flex tangent the three intersection points coincide, so the
    cross-ratio is undefined and psi_plus must refuse with
    ThreefoldCoincidenceError."""

    def call():
        curve = CurveSpec(tau)
        ln = PlaneLine.of(*line)
        n = ms.sigma_cover_count(ln, curve)
        ip = ms.IncidencePoint(PlanePoint.of(*x), ln)
        if label == "T31":
            try:
                ms.psi_plus(ip, curve)
            except ms.ThreefoldCoincidenceError:
                return n, None, None
            return n, "answered", None
        cls, lam = ms.psi_plus(ip, curve)
        return n, cls, lam

    def check(out):
        n, cls, lam = out
        expect(n == count, f"sigma count {n}, expected {count}")
        if label == "T31":
            expect(cls is None, "psi_plus answered on a flex tangent")
            return None
        expect(cls.label == label, f"class {cls.label}, expected {label}")
        if label == "T1":
            err = rm.triple_dist([p.coords() for p in cls.triple], want)
        else:
            err = rm.lattice_dist(cls.point.coords(), want)
        expect(err <= POINT_TOL, f"point error {err:.2g}")
        if lam_ref is not None:
            d = rm.proj_dist((lam.num, lam.den), lam_ref)
            expect(d <= LAMBDA_TOL, f"cross-ratio error {d:.2g}")
        return err

    return Op(kind, call, check)


def chord_data(rng: random.Random, tau: complex, z1, z2):
    """The chord through z1, z2 (and z3 = -z1 - z2), an incidence point on it,
    and its reference cross-ratio when the three points are well separated."""
    z3 = rm.neg_sum(z1, z2)
    zs = [z1, z2, z3]
    pts = [rm.embed(_z(p, tau), tau) for p in zs]
    line = rm.unit(rm.cross(pts[0], pts[1]))
    x = rm.combine(pts[0], pts[2], rm.gauss_c(rng))
    lam_ref = None
    sep = min(rm.lattice_dist(a, b) for a, b in ((z1, z2), (z1, z3), (z2, z3)))
    if sep >= WELL_SEPARATED:
        # psi_plus frames the line by the canonically sorted triple
        q = [pts[i] for i in sorted(range(3), key=lambda i: zs[i])]
        thetas = [rm.line_param(v, q[0], q[1]) for v in (*q, x)]
        lam_ref = rm.cross_ratio(*thetas)
    return zs, line, x, lam_ref


def generic_pair(rng: random.Random):
    """Two Jacobian points whose chord meets the curve in three well-separated
    points away from the lattice."""
    while True:
        z1, z2 = rm.rand_point(rng), rm.rand_point(rng)
        zs = (z1, z2, rm.neg_sum(z1, z2))
        if all(not rm.near_lattice(p, 1, 0.05) for p in zs) and min(
                rm.lattice_dist(a, b) for a, b in ((zs[0], zs[1]), (zs[0], zs[2]),
                                                   (zs[1], zs[2]))) >= 0.01:
            return z1, z2


def _chord(kind: str, rng: random.Random, tau: complex, z1, z2) -> Op:
    zs, line, x, lam_ref = chord_data(rng, tau, z1, z2)
    return _line_op(kind, tau, line, x, 3, "T1", zs, lam_ref)


def _generic(rng, tau) -> Op:
    return _chord("chord", rng, tau, *generic_pair(rng))


def away_from_torsion(rng: random.Random, r: float):
    """A random Jacobian point at least ``r`` from the 2- and 3-torsion."""
    while True:
        z = rm.rand_point(rng)
        if not (rm.near_lattice(z, 3, r) or rm.near_lattice(z, 2, r)):
            return z


def _near_tangent(rng, tau, u: float) -> Op:
    z = away_from_torsion(rng, 0.05)
    d = 10 ** (-7 + 5 * u)
    ds, dt = rm.offset(rng, d)
    z1 = ((z[0] + ds) % 1.0, (z[1] + dt) % 1.0)
    z2 = ((z[0] - ds) % 1.0, (z[1] - dt) % 1.0)
    return _chord("near_tangent", rng, tau, z1, z2)


def _near_pole(rng, tau, u: float) -> Op:
    ds, dt = rm.offset(rng, 10 ** (-6 + 4 * u))
    z1 = (ds % 1.0, dt % 1.0)
    while True:
        z2 = rm.rand_point(rng)
        if not (rm.near_lattice(z2, 1, 0.05) or rm.near_lattice(z2, 2, 0.05)):
            return _chord("near_pole", rng, tau, z1, z2)


def _tangent(rng, tau) -> Op:
    z = away_from_torsion(rng, 0.01)
    line = rm.tangent(_z(z, tau), tau)
    p, q = rm.embed(_z(z, tau), tau), rm.embed(_z(rm.neg_sum(z, z), tau), tau)
    x = rm.combine(p, q, rm.gauss_c(rng))
    return _line_op("tangent", tau, line, x, 2, "T21", z, None)


def _flex(rng, tau) -> Op:
    z = (rng.randrange(3) / 3, rng.randrange(3) / 3)
    if z == (0.0, 0.0):
        line, p = (0j, 0j, 1 + 0j), (0j, 1 + 0j, 0j)
    else:
        line, p = rm.tangent(_z(z, tau), tau), rm.embed(_z(z, tau), tau)
    # a second point of the line, as far from the contact point as possible
    q = max((rm.unit(rm.cross(line, e)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
             if any(rm.cross(line, e))), key=lambda v: rm.proj_dist(v, p))
    x = rm.combine(p, q, rm.gauss_c(rng))
    return _line_op("flex", tau, line, x, 1, "T31", z, None)


def _rank(rng, tau) -> Op:
    u1, u2, t = rm.gauss_c(rng), rm.gauss_c(rng), rm.gauss_c(rng)

    def call():
        return ms.parametrization_rank(u1, u2, t, CurveSpec(tau), tol=1e-6)

    def check(rank):
        expect(rank == 3, f"rank {rank}, expected 3")
        return None

    return Op("rank", call, check)


BUILD = {"chord": _generic, "tangent": _tangent, "flex": _flex,
         "near_tangent": _near_tangent, "near_pole": _near_pole, "rank": _rank}


def ops(seed: int):
    """The near-tangent half-separations and near-pole distances are
    log-uniform, drawn stratified within each round so that every seed
    covers their ranges alike."""
    rng = random.Random(seed)
    spread = {k: stratified(rng, MIX[k]) for k in ("near_tangent", "near_pole")}
    for i, kind in enumerate(cycle(rng, MIX, "chord")):
        extra = (next(spread[kind]),) if kind in spread else ()
        yield BUILD[kind](rng, CURVES[i % len(CURVES)], *extra)
