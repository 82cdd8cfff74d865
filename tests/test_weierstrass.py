import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellpar import jaclattice as jl
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec

from conftest import TAU, exact

interior = st.tuples(st.floats(0.08, 0.92), st.floats(0.08, 0.92))


def z_from(curve, st_pair):
    s, t = st_pair
    return complex(s + t * curve.tau)


def test_plane_point_normalization():
    p = we.PlanePoint.of(2, 4, 6)
    assert p.x == 1 and p.y == 2 and p.z == 3
    q = we.PlanePoint.of(0, 5j, 10)
    assert q.x == 0 and q.y == 1
    with pytest.raises(ValueError):
        we.PlanePoint.of(0, 0, 0)


def test_incidence_helpers():
    p = we.PlanePoint.of(1, 1, 1)
    q = we.PlanePoint.of(1, -1, 0)
    line = we.line_through_points(p, q)
    for pt in (p, q):
        assert abs(line.eval(pt)) < 1e-12
    m = we.lines_meet(we.PlaneLine.of(1, 0, 0), we.PlaneLine.of(0, 1, 0))
    assert m.close_to(we.PlanePoint.of(0, 0, 1))
    # incidence is relative to the size of the coordinates, from 1e-6 to 1e6
    a, b = 0.7 + 0.2j, -0.3 + 1.1j
    for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        p = we.PlanePoint.of(1, a * s, b * s)
        q = we.PlanePoint.of(1.7 - 0.2j, 0.6 / s, 0.8 * s)
        line = we.line_through_points(p, q)
        assert line.contains(p) and line.contains(q)
        other = we.PlaneLine.of(1, b * s, -a * s - 1 / (b * s))  # through p, l.p = 0 exactly
        assert other.contains(p)
        meet = we.lines_meet(line, other)
        assert line.contains(meet) and other.contains(meet)
        # moved off the line by a relative 1e-6, along the line's conjugate normal
        k = 1e-6 * max(map(abs, p.vec())) / max(map(abs, other.vec()))
        off = we.PlanePoint.of(*(x + k * c.conjugate() for x, c in zip(p.vec(), other.vec())))
        assert not other.contains(off)


def test_known_invariants_square_and_hexagonal():
    g2, g3, j = we.curve_invariants(CurveSpec(1j))
    assert abs(g3) < 1e-10 * max(1.0, abs(g2))
    assert abs(j - 1728) < 1e-8
    rho = CurveSpec(cmath.exp(2j * math.pi / 3) + 1)  # 1/2 + sqrt(3)/2 i
    g2h, g3h, jh = we.curve_invariants(rho)
    assert abs(g2h) < 1e-10 * max(1.0, abs(g3h))
    assert abs(jh) < 1e-8


def test_j_is_modular():
    for tau in (TAU, 0.1 + 0.8j):
        j1 = we.curve_invariants(CurveSpec(tau))[2]
        j2 = we.curve_invariants(CurveSpec(tau + 1))[2]
        j3 = we.curve_invariants(CurveSpec(-1 / tau))[2]
        assert abs(j1 - j2) < 1e-8 * max(1.0, abs(j1))
        assert abs(j1 - j3) < 1e-8 * max(1.0, abs(j1))


@given(pt=interior)
@settings(max_examples=60, deadline=None)
def test_wp_differential_equation(pt):
    curve = CurveSpec(TAU)
    z = z_from(curve, pt)
    g2, g3, _ = we.curve_invariants(curve)
    p, pp = we.wp(z, curve)
    scale = max(1.0, abs(p) ** 3)
    assert abs(pp**2 - (4 * p**3 - g2 * p - g3)) < 1e-8 * scale


@given(pt=interior)
@settings(max_examples=30, deadline=None)
def test_wp_parity_and_periodicity(pt):
    curve = CurveSpec(TAU)
    z = z_from(curve, pt)
    p1, pp1 = we.wp(z, curve)
    p2, pp2 = we.wp(-z, curve)
    scale = max(1.0, abs(p1))
    assert abs(p1 - p2) < 1e-9 * scale and abs(pp1 + pp2) < 1e-9 * scale * 10
    p3, _ = we.wp(z + 1 + curve.tau, curve)
    assert abs(p1 - p3) < 1e-9 * scale


def test_pole_proximity_raises():
    curve = CurveSpec(TAU)
    with pytest.raises(we.PoleProximityError):
        we.wp(1e-9 + 0j, curve)


def test_embed_lands_on_cubic(curve):
    for st_pair in [(0.2, 0.3), (0.7, 0.1), (0.45, 0.81)]:
        p = jl.canon(z_from(curve, st_pair), curve)
        assert we.cubic_residual(we.embed(p, curve), curve) < 1e-9


def test_collinearity_iff_zero_sum(curve):
    rng = np.random.RandomState(7)
    for _ in range(40):
        z1 = jl.canon(z_from(curve, rng.rand(2)), curve)
        z2 = jl.canon(z_from(curve, rng.rand(2)), curve)
        z3 = jl.neg(jl.add(z1, z2))
        line = we.line_through(z1, z2, z3, curve)
        pts = we.intersect_curve(line, curve)
        assert jl.add(jl.add(pts[0], pts[1]), pts[2]).is_zero(tol=1e-6)
        for z in (z1, z2, z3):
            assert any(jl.equal(z, q, tol=1e-6) for q in pts)
        # a perturbed (non-zero-sum) triple is rejected
        z3_bad = jl.add(z3, jl.canon(0.05 + 0j, curve))
        with pytest.raises(ValueError):
            we.line_through(z1, z2, z3_bad, curve)


def test_tangent_and_flex_multiplicities(curve):
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    member, cusp = we.dual_sextic_contains(we.tangent_line(z, curve), curve)
    assert member and not cusp
    flex = exact(curve, Fraction(1, 3), 0)
    member, cusp = we.dual_sextic_contains(we.tangent_line(flex, curve), curve)
    assert member and cusp
    # a generic chord is not tangent
    z2 = exact(curve, 0, Fraction(1, 7))
    chord = we.line_through(z, z2, jl.neg(jl.add(z, z2)), curve)
    member, cusp = we.dual_sextic_contains(chord, curve)
    assert not member and not cusp


def test_intersect_line_at_infinity(curve):
    pts = we.intersect_curve(we.PlaneLine.of(0, 0, 1), curve)
    assert len(pts) == 3 and all(p.is_zero(tol=1e-9) for p in pts)


def test_intersect_vertical_line(curve):
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    x = we.wp(z.value(), curve)[0]
    pts = we.intersect_curve(we.PlaneLine.of(1, 0, -x), curve)
    got = sorted(p.coords() for p in pts)
    assert any(jl.equal(p, z, tol=1e-8) for p in pts)
    assert any(jl.equal(p, jl.neg(z), tol=1e-8) for p in pts)
    assert any(p.is_zero(tol=1e-8) for p in pts)


def test_near_pole_chords_are_inverted_correctly():
    curve = CurveSpec(1j)
    z1 = jl.canon(0.9951617258476645 + 0j, curve)
    z2 = jl.canon(0.26192777941114076 + 0j, curve)
    z3 = jl.neg(jl.add(z1, z2))
    line = we.line_through(z1, z2, z3, curve)
    pts = we.intersect_curve(line, curve)
    assert we.multiplicities(pts) == [1, 1, 1]
    for z in (z1, z2, z3):
        assert any(jl.equal(z, q, tol=1e-6) for q in pts)
