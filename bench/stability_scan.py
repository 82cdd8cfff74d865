"""Workload ``stability-scan``: parabolic stability of flags of known incidence.

Why: ``parabolic`` and the plane primitives do all the work and ``wp`` is
never called.  It exercises the plain-Python projective geometry mechanism
(ROADMAP item 4) and is the no-change control for the analytic layer
(ROADMAP item 3).

Every flag is first built in the standard frame with rational coordinates,
where its incidence with the class's subbundle configuration is decided
exactly, and then carried by a random element of the class's gauge group
(diagonal for T1, 1+2 block for T21, Toeplitz for T31), which preserves that
configuration.  Never-stable types get random flags.  Each operation runs
``stability`` in the three probe chambers, ``locus``, and ``normalize_flag``
in each chamber where the flag is stable.  The reference verdicts come from
the exact incidence pattern; the reference fiber coordinates are gauge
invariants evaluated exactly on the standard-frame flag.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction as F

import refmath as rm
from harness import Op, cycle, expect

from ellpar import bundles as bd
from ellpar import parabolic as pa
from ellpar.jaclattice import CurveSpec, JacPoint
from ellpar.weierstrass import PlaneLine, PlanePoint

TAU = 0.3 + 1.1j

E = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# degree-0 subbundle loci in the standard frame, per type:
# rank-1 loci (dim, point-or-sweep-line) and rank-2 loci (dim, line-or-pencil-point)
CONFIG = {
    "T1": ([(0, E[0]), (0, E[1]), (0, E[2])], [(0, E[0]), (0, E[1]), (0, E[2])]),
    "T21": ([(0, E[2]), (0, E[0])], [(0, E[2]), (0, E[1])]),
    "T22": ([(0, E[2]), (1, E[2])], [(0, E[2]), (1, E[2])]),
    "T31": ([(0, E[0])], [(0, E[2])]),
    "T32": ([(1, E[2])], [(0, E[2]), (1, E[0])]),
    "T33": ([(2, None)], [(2, None)]),
}

# acceptance criterion 1: the five incidence cases relative to the coordinate triangle
CASE_FLAGS = [((1, 2, 3), (1, 1, -1)), ((1, 2, 0), (2, -1, 5)), ((1, -1, 1), (1, 1, 0)),
              ((1, 2, 0), (2, -1, 0)), ((1, 0, 0), (0, 1, -1))]

PROBES = (pa.PROBE_MINUS, pa.PROBE_PLUS, pa.PROBE_WALL)
CHAMBERS = (pa.CHAMBER_MINUS, pa.CHAMBER_PLUS)
LOCUS = {(True, True): pa.LOCUS_UGEN, (True, False): pa.LOCUS_SIGMA_MINUS,
         (False, True): pa.LOCUS_SIGMA_PLUS, (False, False): pa.LOCUS_NEITHER}

# shares per round: for each class that admits stable flags, generic flags
# and flags forced onto a coordinate line at 70 : 30, the default
# --special-fraction of scripts/wall_crossing_scan.py; plus one of
# acceptance criterion 1's five case flags and one random flag on each
# never-stable type, the edge cases (4 of 34 operations)
MIX = {**{(label, kind): n for label in ("T1", "T21", "T31")
          for kind, n in (("random", 7), ("incident", 3))},
       ("T1", "case"): 1, ("T22", "random"): 1, ("T32", "random"): 1, ("T33", "random"): 1}

KNOWN_DEFECTS: dict = {}

COORD_TOL = 1e-8


def _same(a, b) -> bool:
    return not any(rm.cross(a, b))


def expected_verdict(label: str, P, L, w: pa.Weights) -> str:
    """Maximal induced parabolic degree over the configuration, decided on
    exact standard-frame coordinates."""
    degs = []
    for dim, data in CONFIG[label][0]:
        if dim == 2 or (dim == 1 and rm.dot(P, data) == 0):
            degs.append(w.mu1)       # P itself is a member
        elif dim == 1:
            degs.append(w.mu2)       # the member on the flag line
        else:
            degs.append(w.mu1 if _same(data, P) else w.mu2 if rm.dot(data, L) == 0 else w.mu3)
    for dim, data in CONFIG[label][1]:
        if dim == 2 or (dim == 1 and rm.dot(data, L) == 0):
            degs.append(w.mu1 + w.mu2)   # L itself is a member
        elif dim == 1:
            degs.append(w.mu1 + w.mu3)   # the member through P
        else:
            degs.append(w.mu1 + w.mu2 if _same(data, L) else
                        w.mu1 + w.mu3 if rm.dot(P, data) == 0 else w.mu2 + w.mu3)
    top = max(degs)
    return "Stable" if top < 0 else "StrictlySemistable" if top == 0 else "Unstable"


def expected_coord(label: str, chamber: str, P, L) -> tuple:
    """The normalized fiber coordinate as a projective pair (num, den).

    Pminus moves P to [1:1:1] and reads t from the image line
    {Z2 - t Z1 = (1-t) Z3}; Pplus moves L to {Z1 + Z2 = Z3} and reads lambda
    from the image point [lambda : 1-lambda : 1].  Both are invariants of the
    gauge group, so they can be evaluated on the standard-frame flag."""
    (p1, p2, p3), (u, v, w) = P, L
    if label == "T1":
        return (-u * p1, v * p2) if chamber == pa.CHAMBER_MINUS else (-u * p1, w * p3)
    if label == "T21":
        return ((-u * p2, u * p1 + (v - u) * p2) if chamber == pa.CHAMBER_MINUS
                else (w * p3 + u * p2, w * p3))
    return ((-u * p3, u * p2 + (v - u) * p3) if chamber == pa.CHAMBER_MINUS
            else (-u * p2 + (2 * u - v) * p3, u * p3))


def _unit_c(rng) -> complex:
    return rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def gauge_element(label: str, rng) -> list:
    if label == "T1":
        d = [_unit_c(rng) for _ in range(3)]
        return [[d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]]
    if label == "T21":
        a, b, c = _unit_c(rng), rm.gauss_c(rng), _unit_c(rng)
        return [[a, b, 0], [0, a, 0], [0, 0, c]]
    if label == "T31":
        a, b, c = _unit_c(rng), rm.gauss_c(rng), rm.gauss_c(rng)
        return [[a, b, c], [0, a, b], [0, 0, a]]
    return [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _inverse(g) -> list:
    cols = [rm.cross(g[1], g[2]), rm.cross(g[2], g[0]), rm.cross(g[0], g[1])]
    det = rm.dot(g[0], cols[0])
    return [[cols[k][i] / det for k in range(3)] for i in range(3)]


def rational(rng, nonzero: bool = True) -> F:
    while True:
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        if x or not nonzero:
            return x


def _special(rng, choices):
    return choices[rng.randrange(len(choices))] if rng.random() < 0.25 else None


def standard_flag(kind: str, rng) -> tuple:
    """A standard-frame flag (P, L) with exact rational coordinates."""
    if kind == "case":
        return CASE_FLAGS[rng.randrange(5)]
    if kind == "minus":
        t = _special(rng, (F(0), F(1)))
        t = rational(rng) if t is None else t
        return (1, 1, 1), (-t, 1, t - 1)
    if kind == "plus":
        lam = _special(rng, (F(0), F(1), "inf"))
        if lam == "inf":
            return (1, -1, 0), (1, 1, -1)
        lam = rational(rng) if lam is None else lam
        return (lam, 1 - lam, 1), (1, 1, -1)
    # "incident" puts P on a coordinate line (a third of the time at a
    # vertex) and often draws L through a vertex; "random" is generic
    P = [rational(rng) for _ in range(3)]
    R = [rational(rng) for _ in range(3)]
    if kind == "incident":
        P[rng.randrange(3)] = F(0)
        if rng.random() < 1 / 3:
            P = list(E[rng.randrange(3)])
        if rng.random() < 0.4:
            R = list(E[rng.randrange(3)])
    L = rm.cross(P, R)
    if not any(L):
        return standard_flag(kind, rng)
    return tuple(P), L


def class_point(label: str, rng) -> tuple:
    if label in ("T31", "T32", "T33"):
        return F(rng.randrange(3), 3), F(rng.randrange(3), 3)
    while True:
        n = rng.randint(4, 12)
        s, t = F(rng.randrange(n), n), F(rng.randrange(n), n)
        if (3 * s).denominator != 1 or (3 * t).denominator != 1:
            return s, t


def t1_triple(rng) -> list:
    while True:
        pts = [class_point("T21", rng) for _ in range(2)]
        pts.append(((-pts[0][0] - pts[1][0]) % 1, (-pts[0][1] - pts[1][1]) % 1))
        if len(set(pts)) == 3:
            return pts


def gauged_flag(label: str, kind: str, rng) -> tuple:
    """A standard-frame flag (P0, L0) and its image (P, L) under a random
    element of the class's gauge group."""
    P0, L0 = standard_flag(kind, rng)
    g = gauge_element(label, rng)
    gi = _inverse(g)
    P = tuple(sum(g[i][k] * P0[k] for k in range(3)) for i in range(3))
    L = tuple(sum(L0[k] * gi[k][i] for k in range(3)) for i in range(3))
    return P0, L0, P, L


def _make_op(label: str, kind: str, rng) -> Op:
    P0, L0, P, L = gauged_flag(label, kind, rng)
    verdicts = [expected_verdict(label, P0, L0, w) for w in PROBES]
    stable = [ch for ch, v in zip(CHAMBERS, verdicts) if v == "Stable"]
    coords = {ch: expected_coord(label, ch, P0, L0) for ch in stable}
    locus = LOCUS[tuple(v == "Stable" for v in verdicts[:2])]
    data = t1_triple(rng) if label == "T1" else class_point(label, rng)

    def call():
        curve = CurveSpec(TAU)
        if label == "T1":
            cls = bd.classify_triple(*(JacPoint(curve, s=s, t=t) for s, t in data))
        elif label in ("T21", "T22"):
            cls = (bd.make_t21 if label == "T21" else bd.make_t22)(
                JacPoint(curve, s=data[0], t=data[1]))
        else:
            cls = bd.make_t3x(label, JacPoint(curve, s=data[0], t=data[1]))
        flag = pa.Flag(PlanePoint.of(*P), PlaneLine.of(*L))
        got = [pa.stability(cls, flag, w).status for w in PROBES]
        loc = pa.locus(cls, flag)
        norm = {ch: pa.normalize_flag(cls, flag, ch)[0] for ch in stable}
        return got, loc, norm

    def check(out):
        got, loc, norm = out
        expect(got == verdicts, f"verdicts {got}, expected {verdicts}")
        expect(loc == locus, f"locus {loc}, expected {locus}")
        err = 0.0
        for ch, want in coords.items():
            d = rm.proj_dist((norm[ch].num, norm[ch].den), tuple(complex(x) for x in want))
            expect(d <= COORD_TOL, f"{ch} coordinate moved by the gauge ({d:.2g})")
            err = max(err, d)
        return err if coords else None

    return Op(f"{label}/{kind}", call, check)


def ops(seed: int):
    rng = random.Random(seed)
    for label, kind in cycle(rng, MIX, ("T1", "case")):
        yield _make_op(label, kind, rng)
