"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its tolerance and
time budget, and emits a single "ACCEPTANCE n: PASS/FAIL" line.
"""

import cmath
import contextlib
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from ellpar import autgroup as ag
from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import modspace as ms
from ellpar import monodromy as mo
from ellpar import parabolic as pa
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec
from ellpar.parabolic import ProjScalar

from conftest import TAU, exact, frame_lambda, holonomy_scalars, random_unimodular

P = we.PlanePoint.of
L = we.PlaneLine.of


@contextlib.contextmanager
def criterion(n: int, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {n}: PASS")


def t1_class(curve):
    z1 = exact(curve, Fraction(1, 5), 0)
    z2 = exact(curve, 0, Fraction(1, 7))
    return bd.classify_triple(z1, z2, jl.neg(jl.add(z1, z2)))


def random_point(curve, rng):
    return jl.canon(complex(rng.rand() + rng.rand() * curve.tau), curve)


def test_criterion_01_stability_case_table():
    # exact verdicts for the five incidence cases of a generic-graded class,
    # relative to the normalized coordinate-triangle configuration
    curve = CurveSpec(TAU)
    cls = t1_class(curve)
    cases = [
        # (flag, verdict in Pminus, in Pplus, on the wall)
        (pa.Flag(P(1, 2, 3), L(1, 1, -1)), "Stable", "Stable", "Stable"),
        (pa.Flag(P(1, 2, 0), L(2, -1, 5)), "Unstable", "Stable", "StrictlySemistable"),
        (pa.Flag(P(1, -1, 1), L(1, 1, 0)), "Stable", "Unstable", "StrictlySemistable"),
        (pa.Flag(P(1, 2, 0), L(2, -1, 0)), "Unstable", "Unstable", "StrictlySemistable"),
        (pa.Flag(P(1, 0, 0), L(0, 1, -1)), "Unstable", "Unstable", "Unstable"),
    ]
    with criterion(1, budget=1.0):
        for flag, v_minus, v_plus, v_wall in cases:
            assert pa.stability(cls, flag, pa.PROBE_MINUS).status == v_minus
            assert pa.stability(cls, flag, pa.PROBE_PLUS).status == v_plus
            assert pa.stability(cls, flag, pa.PROBE_WALL).status == v_wall


def test_criterion_02_never_stable_types():
    curve = CurveSpec(TAU)
    classes = [bd.make_t22(exact(curve, Fraction(1, 5), Fraction(1, 7))),
               bd.make_t3x("T32", exact(curve, Fraction(1, 3), 0)),
               bd.make_t3x("T33", exact(curve, Fraction(2, 3), Fraction(1, 3)))]
    with criterion(2, budget=5.0):
        for i in range(20):
            p = P(1, 0.1 + 0.17 * i, 0.05 + 0.29 * i)
            for j in range(20):
                q = P(1, 1.3 + 0.11 * j + 0.31 * i, -0.4 + 0.23 * j)
                flag = pa.Flag(p, we.line_through_points(p, q))
                for cls in classes:
                    assert pa.stability(cls, flag, pa.PROBE_MINUS).status == "Unstable"
                    assert pa.stability(cls, flag, pa.PROBE_PLUS).status == "Unstable"


def test_criterion_03_sigma_fiber_counts():
    rng = np.random.RandomState(41)
    with criterion(3, budget=30.0):
        for tau in (1j, 0.5 + 1j, TAU):
            curve = CurveSpec(tau)
            chords = 0
            while chords < 100:
                z1, z2 = random_point(curve, rng), random_point(curve, rng)
                z3 = jl.neg(jl.add(z1, z2))
                if jl.equal(z1, z2, tol=1e-3) or jl.equal(z2, z3, tol=1e-3) \
                        or jl.equal(z1, z3, tol=1e-3):
                    continue
                line = we.line_through(z1, z2, z3, curve)
                assert ms.sigma_cover_count(line, curve) == 3
                chords += 1
            tangents = 0
            while tangents < 20:
                z = random_point(curve, rng)
                if jl.mul(3, z).is_zero(tol=1e-3) or jl.mul(2, z).is_zero(tol=1e-3):
                    continue
                assert ms.sigma_cover_count(we.tangent_line(z, curve), curve) == 2
                tangents += 1
            flexes = jl.torsion_points(3, curve)
            assert len(flexes) == 9
            for z in flexes:
                assert ms.sigma_cover_count(we.tangent_line(z, curve), curve) == 1


def test_criterion_04_flip_involution():
    rng = np.random.RandomState(43)
    with criterion(4, budget=5.0):
        assert pa.flip(ProjScalar(0, 1)).close_to(ProjScalar(0, 1), tol=0)
        assert pa.flip(ProjScalar(1, 1)).is_inf
        assert pa.flip(pa.PROJ_INF).close_to(ProjScalar(1, 1), tol=0)
        for _ in range(1000):
            t = ProjScalar(complex(rng.randn(), rng.randn()) * 10 ** rng.randint(-3, 4), 1)
            assert pa.flip(pa.flip(t)).close_to(t, tol=1e-12)


def test_criterion_05_covering_invariants():
    rng = np.random.RandomState(47)
    samples = [(Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 12))) for _ in range(25)]
    with criterion(5, budget=1.0):
        for z1, z2 in samples:
            base = ms.covering_invariants(z1, z2)[:2]
            for m in ms.S3_MAPS.values():
                assert ms.covering_invariants(*m(z1, z2))[:2] == base
        # the cusp identity holds exactly on the three reflection lines
        for z1, z2 in samples:
            for pair in [(z1, z1), (z1, -2 * z1), (-2 * z2, z2)]:
                f2, f3, cusp = ms.covering_invariants(*pair)
                assert cusp and (f2 / 3) ** 3 == (f3 / 2) ** 2
        f2, f3, cusp = ms.covering_invariants(Fraction(1), Fraction(3))
        assert not cusp and (f2 / 3) ** 3 != (f3 / 2) ** 2


def test_criterion_06_analytic_layer():
    curve = CurveSpec(TAU)
    g2, g3, _ = we.curve_invariants(curve)
    rng = np.random.RandomState(53)
    with criterion(6, budget=10.0):
        for i in range(10):
            for j in range(10):
                z = (0.15 + 0.7 * i / 9) + curve.tau * (0.15 + 0.7 * j / 9)
                p, dp = we.wp(z, curve)
                res = abs(dp ** 2 - (4 * p ** 3 - g2 * p - g3))
                scale = max(1.0, abs(dp) ** 2, 4 * abs(p) ** 3)
                assert res / scale < 1e-8
        # zero-sum  =>  collinear
        def normalized_det(zs):
            rows = []
            for z in zs:
                q = we.embed(z, curve)
                v = np.array([q.x, q.y, q.z])
                rows.append(v / np.linalg.norm(v))
            return abs(np.linalg.det(np.array(rows)))

        done = 0
        while done < 100:
            z1, z2 = random_point(curve, rng), random_point(curve, rng)
            z3 = jl.neg(jl.add(z1, z2))
            if jl.equal(z1, z2, tol=1e-2) or jl.equal(z2, z3, tol=1e-2) \
                    or jl.equal(z1, z3, tol=1e-2):
                continue
            assert normalized_det([z1, z2, z3]) < 1e-6
            done += 1
        # not zero-sum  =>  not collinear
        done = 0
        while done < 100:
            zs = [random_point(curve, rng) for _ in range(3)]
            if jl.add(jl.add(zs[0], zs[1]), zs[2]).is_zero(tol=1e-2):
                continue
            if any(jl.equal(a, b, tol=1e-2) for a, b in itertools.combinations(zs, 2)):
                continue
            assert normalized_det(zs) > 1e-6
            done += 1


def _representatives(curve):
    tau = curve.tau
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    z3 = exact(curve, Fraction(1, 3), 0)
    a, b = holonomy_scalars(z)
    a3, b3 = holonomy_scalars(z3)
    pts = [exact(curve, Fraction(1, 5), 0), exact(curve, 0, Fraction(1, 7))]
    pts.append(jl.neg(jl.add(pts[0], pts[1])))

    def diag(points):
        return mo.CommutingPair(np.diag([holonomy_scalars(p)[0] for p in points]),
                                np.diag([holonomy_scalars(p)[1] for p in points]))

    def block(ha, hb, sA, sB):
        A = np.diag([ha ** -2, ha, ha]).astype(complex)
        A[1, 2] = sA
        B = np.diag([hb ** -2, hb, hb]).astype(complex)
        B[1, 2] = sB
        return mo.CommutingPair(A, B)

    def jordan(ha, hb, b1, b2):
        N = np.diag([1.0, 1.0], 1).astype(complex)
        return mo.CommutingPair(ha * np.eye(3) + N,
                                hb * np.eye(3) + b1 * N + b2 * (N @ N))

    b1 = tau * b3 / a3
    return {
        "T1": diag(pts),
        "T21": block(a, b, 1.0, 0.37),
        "T22": block(a, b, 0.5, tau * 0.5 / a * b),
        "T31": jordan(a3, b3, 0.4, 0.1),
        "T32": block(a3, b3, 1.0, 0.37),
        "T33": jordan(a3, b3, b1, b3 * (b1 ** 2 / (2 * b3 ** 2) - tau / (2 * a3 ** 2))),
    }


def _class_data_equal(a, b, tol=1e-6):
    if a.label != b.label:
        return False
    if a.label == "T1":
        return all(any(jl.equal(p, q, tol=tol) for q in b.triple) for p in a.triple)
    return jl.equal(a.point, b.point, tol=tol)


def test_criterion_07_monodromy_classifier():
    curve = CurveSpec(TAU)
    rng = np.random.RandomState(59)
    with criterion(7, budget=30.0):
        for label, pair in _representatives(curve).items():
            reference = mo.classify_bundle(pair, curve)
            assert reference.label == label
            for _ in range(50):
                Q = random_unimodular(rng)
                Qi = np.linalg.inv(Q)
                got = mo.classify_bundle(
                    mo.CommutingPair(Q @ pair.A @ Qi, Q @ pair.B @ Qi), curve)
                assert _class_data_equal(got, reference), label
        # the two-parameter family near the triple-coincidence point only
        # produces the three indecomposable-graded labels
        seen = set()
        for i in range(30):
            for j in range(30):
                b1 = 1 + 0.02 * (i - 15)
                b2 = 1 + 0.02 * (j - 15)
                pair = mo.universal_pair(b1, b2, "generic")
                seen.add(mo.classify_bundle(pair, curve).label)
        assert seen <= {"T1", "T21", "T31"}
        assert seen == {"T1", "T21", "T31"}


def test_criterion_08_automorphism_group():
    curve = CurveSpec(TAU)
    rng = np.random.RandomState(61)
    with criterion(8, budget=30.0):
        els = ag.group_elements(curve)
        assert len(els) == 18
        keys = {((g.shift.s, g.shift.t), g.dual) for g in els}
        for a in els:
            for b in els:
                c = ag.compose(a, b)
                assert ((c.shift.s, c.shift.t), c.dual) in keys
        flexes = [we.embed(p, curve) for p in jl.torsion_points(3, curve)]
        for g in els:
            M = ag.act_plane(g, curve)
            for _ in range(5):
                q = we.embed(random_point(curve, rng), curve)
                img = P(*(M @ np.array([q.x, q.y, q.z])))
                assert we.cubic_residual(img, curve) < 1e-6
            images = [P(*(M @ np.array([f.x, f.y, f.z]))) for f in flexes]
            matches = [[f.close_to(i, tol=1e-5) for i in images] for f in flexes]
            assert all(sum(row) == 1 for row in matches)
            assert all(sum(col) == 1 for col in zip(*matches))

        def flag_from_coord(t):
            if t.is_inf:
                return pa.Flag(P(1, 1, 1), L(-1, 0, 1))
            return pa.Flag(P(1, 1, 1), L(-t.value(), 1, t.value() - 1))

        cls = t1_class(curve)
        coords = [ProjScalar(complex(rng.randn(), rng.randn()), 1) for _ in range(44)]
        coords += [ProjScalar(0, 1), ProjScalar(1, 1), pa.PROJ_INF,
                   ProjScalar(2, 1), ProjScalar(0.5, 1), ProjScalar(-1, 1)]
        for t in coords:
            before = pa.locus(cls, flag_from_coord(t))
            for g in els:
                ncls, nt, _ = ag.act_parabolic(g, cls, t, pa.CHAMBER_MINUS)
                assert pa.locus(ncls, flag_from_coord(nt)) == before


def test_criterion_09_psi_plus_equivariance():
    curve = CurveSpec(TAU)
    rng = np.random.RandomState(67)
    anharmonic = (lambda l: l, lambda l: 1 - l, lambda l: 1 / l,
                  lambda l: l / (l - 1), lambda l: (l - 1) / l, lambda l: 1 / (1 - l))
    with criterion(9, budget=30.0):
        done = 0
        while done < 100:
            z1, z2 = random_point(curve, rng), random_point(curve, rng)
            z3 = jl.neg(jl.add(z1, z2))
            zs = [z1, z2, z3]
            if any(jl.equal(a, b, tol=1e-2) for a, b in itertools.combinations(zs, 2)):
                continue
            line = we.line_through(z1, z2, z3, curve)
            pts = [we.embed(z, curve) for z in zs]
            v = [np.array([p.x, p.y, p.z]) for p in pts]
            x = P(*(v[0] + complex(rng.randn(), rng.randn()) * v[1]))
            cls0, lam0 = ms.psi_plus(ms.IncidencePoint(x, line), curve)
            if lam0.is_inf or min(abs(lam0.value()), abs(lam0.value() - 1)) < 1e-3:
                continue
            # every frame ordering gives a coordinate in the same orbit,
            # i.e. the same parabolic class under the S3 identification
            for perm in itertools.permutations(range(3)):
                lam = frame_lambda([pts[i].vec() for i in perm], x.vec())
                assert any(lam.close_to(ProjScalar(f(lam0.value()), 1), tol=1e-6)
                           for f in anharmonic)
            # degenerating the fourth point onto a frame point hits the
            # one-chamber boundary stratum at a boundary coordinate
            if done % 10 == 0:
                for p in pts:
                    cls, lam = ms.psi_plus(ms.IncidencePoint(p, line), curve)
                    assert (lam.close_to(ProjScalar(0, 1), tol=1e-6)
                            or lam.close_to(ProjScalar(1, 1), tol=1e-6)
                            or lam.close_to(pa.PROJ_INF, tol=1e-6))
                    flag = pa.Flag(ms.parabolic_point(lam), L(1, 1, -1))
                    assert pa.locus(cls, flag) == pa.LOCUS_SIGMA_PLUS
            done += 1


def test_criterion_10_parametrization_rank():
    curve = CurveSpec(TAU)
    rng = np.random.RandomState(71)
    with criterion(10, budget=30.0):
        done = 0
        while done < 20:
            u1 = complex(rng.randn(), rng.randn())
            u2 = complex(rng.randn(), rng.randn())
            t = complex(rng.randn(), rng.randn())
            try:
                rank = ms.parametrization_rank(u1, u2, t, curve, tol=1e-6)
            except ValueError:
                continue
            assert rank == 3
            done += 1


def _reduce_to_fundamental_domain(tau: complex) -> complex:
    for _ in range(200):
        tau = tau - round(tau.real)
        if abs(tau) < 1 - 1e-12:
            tau = -1 / tau
        else:
            return tau - round(tau.real)
    raise RuntimeError("reduction did not converge")


def _random_sl2z(rng):
    M = np.eye(2, dtype=int)
    T = np.array([[1, 1], [0, 1]])
    S = np.array([[0, -1], [1, 0]])
    for _ in range(rng.randint(2, 8)):
        M = M @ (T if rng.rand() < 0.5 else S)
        if rng.rand() < 0.5:
            M = M @ np.linalg.inv(T).astype(int)
    return M


def test_criterion_11_torelli_decision():
    rng = np.random.RandomState(73)
    with criterion(11, budget=10.0):
        checked = 0
        while checked < 50:
            t1 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            if checked % 2 == 0:
                M = _random_sl2z(rng)
                a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
                t2 = (a * t1 + b) / (c * t1 + d)
            else:
                t2 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            r1 = _reduce_to_fundamental_domain(t1)
            r2 = _reduce_to_fundamental_domain(t2)
            same = abs(r1 - r2) < 1e-6 * max(1.0, abs(r1)) \
                or (abs(abs(r1.real) - 0.5) < 1e-9 and abs(r1 - np.conj(-r2) - 0) < 1e-6) \
                or (abs(abs(r1) - 1) < 1e-9 and abs(r1 + np.conj(r2)) < 1e-6)
            assert ms.curves_isomorphic(t1, t2, rel_tol=1e-6) == same
            checked += 1
