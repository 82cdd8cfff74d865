import cmath
import math
import random
import weakref
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


def test_wp_for_a_long_thin_lattice():
    # Im tau = 100: |u| = |e^{2 pi i z}| reaches e^{314} on the centred parallelogram, and
    # P tends to (2 pi i)^2 / 12 away from the real axis
    curve = CurveSpec(100j)
    for t in (0.2, 0.55, 0.9):
        p, pp = we.wp(0.3 + t * curve.tau, curve)
        assert abs(p + math.pi**2 / 3) < 1e-12 and abs(pp) < 1e-12


def test_pole_proximity_raises():
    curve = CurveSpec(TAU)
    with pytest.raises(we.PoleProximityError):
        we.wp(1e-9 + 0j, curve)


@pytest.mark.parametrize("tau", [TAU, 2.4 + 0.3j])
def test_embed_sends_exactly_the_pole_band_to_infinity(tau):
    # points 0.5 and 2 POLE_TOL from each vertex of the [0, 1)^2 cell, in eight
    # directions, so both inside the cell and across its seams
    curve = CurveSpec(tau)
    for vertex in (0, 1, tau, 1 + tau):
        for k in range(8):
            for r in (0.5, 2.0):
                z = vertex + r * we.POLE_TOL * cmath.exp(1j * math.pi * k / 4)
                p = jl.canon(z, curve)
                dist = min(abs(p.value() - (m + n * tau))
                           for m in range(-3, 5) for n in range(-2, 3))
                assert (dist < we.POLE_TOL) == (r < 1)
                try:
                    we.wp(p.value(), curve)
                    raised = False
                except we.PoleProximityError:
                    raised = True
                assert raised == (r < 1)
                assert (we.embed(p, curve) == we.INFINITY_POINT) == raised


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


@pytest.mark.parametrize("tau", [TAU, 1j, 0.5 + 1j])
def test_wp_near_the_lattice_matches_laurent_series(tau):
    # P(h) = 1/h^2 + g2 h^2/20 + g3 h^4/28 + O(h^6) about the pole at 0
    curve = CurveSpec(tau)
    g2, g3, _ = we.curve_invariants(curve)
    for k in range(13):
        r = 10 ** (-6 + k / 4)
        for a in range(8):
            h = r * cmath.exp(2j * math.pi * (a + 0.3) / 8)
            p, pp = we.wp(h, curve)
            lp = 1 / h**2 + g2 * h**2 / 20 + g3 * h**4 / 28
            lpp = -2 / h**3 + g2 * h / 10 + g3 * h**3 / 7
            assert abs(p - lp) <= 1e-13 * abs(lp)
            assert abs(pp - lpp) <= 1e-13 * abs(lpp)


def test_carlson_rf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.RandomState(11)
    for i in range(300):
        args = list((rng.randn(3) + 1j * rng.randn(3)) * 10 ** rng.uniform(-6, 6, 3))
        if i % 3 == 0:
            args[i % 9 // 3] = 0j
        got = we._carlson_rf(*args)
        want = complex(mpmath.elliprf(*(mpmath.mpc(a.real, a.imag) for a in args)))
        assert abs(got - want) <= 4e-15 * abs(want), args


def _carlson_cases():
    """Arguments of R_F off the cut, by family: relative spreads 1e-8..1, the
    magnitudes of the three spread over up to 1e8, one argument at or near 0,
    and the a_i of inversions within 1e-6.5..1e-1 of the pole."""
    rng = random.Random(101)

    def unit():
        return cmath.exp(1j * rng.uniform(-3.1, 3.1))

    cases = {"spread": [], "near_zero": [], "near_pole": []}
    for _ in range(300):
        c = 10 ** rng.uniform(-4, 4) * unit()
        k = rng.uniform(-8, 8)
        if k < 0:
            args = [c * (1 + 10 ** k * rng.random() * unit()) for _ in range(3)]
        else:
            args = [c * 10 ** (k * rng.random()) * unit() for _ in range(3)]
        cases["spread"].append(args)
    for i in range(300):
        args = [10 ** rng.uniform(-6, 6) * unit() for _ in range(3)]
        args[i % 3] = 10 ** rng.uniform(-300, -10) * unit() if i % 2 else 0j
        cases["near_zero"].append(args)
    for tau in (1j, 0.5 + 1j, TAU):
        curve = CurveSpec(tau)
        g2, g3, e = we._curve_constants(curve)
        for _ in range(100):
            x, _ = we.wp(10 ** rng.uniform(-6.5, -1) * unit(), curve)
            u = cmath.sqrt(x / abs(x))
            cases["near_pole"].append([(x - ei) / u**2 for ei in e])
    return cases


# the worst relative error, rounded up, of the duplication that measured the
# spread at every step, on these same arguments
CARLSON_WORST = {"spread": 5.3e-16, "near_zero": 5.2e-16, "near_pole": 4.4e-16}


def test_carlson_rf_matches_mpmath_across_spreads_and_near_pole_inversions():
    mpmath = pytest.importorskip("mpmath")
    for family, cases in _carlson_cases().items():
        worst = 0.0
        for args in cases:
            with mpmath.workdps(40):
                want = complex(mpmath.elliprf(*(mpmath.mpc(a.real, a.imag) for a in args)))
            worst = max(worst, abs(we._carlson_rf(*args) - want) / abs(want))
        assert worst <= CARLSON_WORST[family], (family, worst)


def _assert_inverts(x, y, curve):
    """Backward error of the elliptic logarithm: P at the recovered z is x, and P' has y's sign.

    The bound allows 1e-13 of the curve's scale, plus the rounding of the
    recovered z in its fundamental-parallelogram representative (which
    dominates next to the pole, where |P'| ~ 2/|z|^3).
    """
    g2, g3, _ = we.curve_invariants(curve)
    e = [complex(r) for r in np.roots([4, 0, -g2, -g3])]
    z = we._invert_embedding(x, y, e, curve)[0].value()
    p, pp = we.wp(z, curve)
    scale = max(1.0, abs(x), *map(abs, e))
    assert abs(p - x) <= 1e-13 * scale + 1e-15 * (1 + abs(curve.tau)) * abs(pp), (x, y)
    assert abs(pp - y) <= abs(pp + y) + 1e-12 * scale**1.5, (x, y)


@pytest.mark.parametrize("tau", [TAU, 1j, 0.5 + 1j, 2j])
def test_elliptic_log_near_lattice_and_at_two_torsion(tau):
    curve = CurveSpec(tau)
    for v in (0, 1, tau, 1 + tau):
        for k in range(9):
            for a in range(8):  # directions include the axes, where P is real or nearly so
                z = v + 10 ** (-6 + k / 2) * cmath.exp(2j * math.pi * a / 8)
                _assert_inverts(*we.wp(z, curve), curve)
    for z in (0.5, tau / 2, (1 + tau) / 2):  # y ~ 0: either sign is the same point
        _assert_inverts(*we.wp(z, curve), curve)


@pytest.mark.parametrize("tau", [1j, 0.5 + 1j])
def test_elliptic_log_on_real_loci(tau):
    # where P is real, an argument of R_F can lie on its cut: try both signed zeros
    curve = CurveSpec(tau)
    for line in (lambda r: r, lambda r: r + tau / 2, lambda r: 1j * r * tau.imag):
        for k in range(1, 200):
            x, y = we.wp(line(k / 200), curve)
            _assert_inverts(x, y, curve)
            if abs(x.imag) <= 1e-12 * abs(x):
                for xr in (complex(x.real, 0.0), complex(x.real, -0.0)):
                    _assert_inverts(xr, y, curve)


def _root_errors(got, want):
    """Relative error of each wanted root against the nearest root got."""
    return [min(abs(g - w) for g in got) / abs(w) for w in want]


def _oracle_roots(mpmath, coeffs):
    return [complex(r) for r in mpmath.polyroots(
        [mpmath.mpc(c.real, c.imag) for c in map(complex, coeffs)],
        maxsteps=500, extraprec=300)]


def test_cubic_roots_match_mpmath_on_random_cubics():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.RandomState(41)
    for _ in range(500):
        coeffs = rng.randn(4) + 1j * rng.randn(4)
        errs = _root_errors(we._cubic_roots(*coeffs), _oracle_roots(mpmath, coeffs))
        assert max(errs) <= 1e-14, coeffs


@pytest.mark.parametrize("tau", [TAU, 0.5 + 1j, 2j])
def test_cubic_roots_on_near_pole_chords_are_no_worse_than_np_roots(tau):
    # the x-cubic of intersect_curve for a chord through a point within r of
    # the lattice: two of its roots are close, and one is ~1/r^2
    mpmath = pytest.importorskip("mpmath")
    curve = CurveSpec(tau)
    g2, g3, _ = we.curve_invariants(curve)
    rng = np.random.RandomState(43)
    for _ in range(40):
        r = 10 ** rng.uniform(-6, -2)
        z1 = jl.canon(r * cmath.exp(2j * math.pi * rng.rand()), curve)
        z2 = jl.canon(complex(rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * tau), curve)
        u, v, w = we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve).vec()
        coeffs = (4.0, -(u / v) ** 2, -g2 - 2 * (u / v) * (w / v), -g3 - (w / v) ** 2)
        want = _oracle_roots(mpmath, coeffs)
        ours = _root_errors(we._cubic_roots(*coeffs), want)
        theirs = _root_errors(np.roots(coeffs), want)
        for a, b in zip(ours, theirs):
            assert a <= b + 4 * np.finfo(float).eps, (r, ours, theirs)


def test_cubic_roots_of_double_and_triple_roots_average_to_the_root():
    # intersect_curve replaces a cluster by its mean, which cancels the
    # O(eps^(1/m)) split of an m-fold root
    rng = np.random.RandomState(47)
    for _ in range(200):
        r, s = rng.randn(2) + 1j * rng.randn(2)
        if abs(r - s) < 0.5 * max(abs(r), abs(s)):
            continue
        roots = we._cubic_roots(1, -(2 * r + s), r * r + 2 * r * s, -r * r * s)
        pair = sorted(roots, key=lambda x: abs(x - s))[1:]
        assert abs(sum(pair) / 2 - r) <= 1e-12 * abs(r), (r, s, roots)
        for a3 in (1, 4):
            roots = we._cubic_roots(a3, -3 * a3 * r, 3 * a3 * r * r, -a3 * r ** 3)
            assert abs(sum(roots) / 3 - r) <= 1e-9 * abs(r), (r, roots)


def test_shared_points_keep_the_triple_summing_to_zero():
    # parameters merged at EQ_TOL are up to EQ_TOL apart; the shared point
    # must absorb that, or the triple's sum sits at the threshold that
    # classify_triple checks it against
    curve = CurveSpec(0.3 + 1.1j)
    rng = random.Random(3)
    shared = 0
    for _ in range(500):
        # chords through z +- h near the pole, where x-roots stay apart
        z = 10 ** rng.uniform(-3, -1.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        h, phi = 10 ** rng.uniform(-6.5, -5.5), rng.uniform(0, 2 * math.pi)
        dz = h * math.cos(phi) + h * math.sin(phi) * curve.tau
        z1, z2 = jl.canon(z + dz, curve), jl.canon(z - dz, curve)
        pts = we.intersect_curve(we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve), curve)
        shared += pts[0] is pts[1] or pts[1] is pts[2] or pts[0] is pts[2]
        assert jl.add(jl.add(pts[0], pts[1]), pts[2]).is_zero(tol=1e-8)
    assert shared >= 50
    # a vertical tangent touches at a 2-torsion point, and the origin stays exact
    x = we.wp(0.5 + 5e-7, curve)[0]
    h, h2, o = we.intersect_curve(we.PlaneLine.of(1, 0, -x), curve)
    assert h is h2 and o.is_exact and o.is_zero()
    assert jl.mul(2, h).is_zero(tol=1e-15)
    # vertical lines far out meet the cubic in three points near the flex at
    # the origin: on tau = 2i the moved double point meets the third, on
    # tau = 3i all three group at once; either way they are one point
    for tau, x in ((2j, -6.9e11), (3j, -5e11)):
        flat = CurveSpec(tau)
        p, q, r = we.intersect_curve(we.PlaneLine.of(1, 0, -x), flat)
        assert p is q is r and p.is_zero(tol=1e-15)


def _chord_lines(curve, n, seed):
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        z1, z2 = (jl.canon(complex(rng.random() + rng.random() * curve.tau), curve)
                  for _ in range(2))
        lines.append(we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve))
    return lines


def test_intersections_on_one_curve_compute_its_constants_once(monkeypatch):
    # g2, g3 and the branch points e are memoised per curve value, so fresh
    # CurveSpecs of one tau share them
    lines = _chord_lines(CurveSpec(TAU), 50, seed=41)
    calls = {"invariants": 0, "e_cubic": 0}
    invariants, cubic_roots = we.curve_invariants, we._cubic_roots

    def counted_invariants(curve):
        calls["invariants"] += 1
        return invariants(curve)

    def counted_cubic_roots(*coeffs):
        calls["e_cubic"] += coeffs[:2] == (4, 0)
        return cubic_roots(*coeffs)

    monkeypatch.setattr(we, "curve_invariants", counted_invariants)
    monkeypatch.setattr(we, "_cubic_roots", counted_cubic_roots)
    we._curve_constants.cache_clear()
    for line in lines:
        assert len(we.intersect_curve(line, CurveSpec(TAU))) == 3
    assert calls == {"invariants": 1, "e_cubic": 1}


def test_the_curve_memo_stays_at_its_bound():
    line = we.PlaneLine.of(1, 2, 3)
    for k in range(200):
        we.intersect_curve(line, CurveSpec(complex(0.001 * k, 1.1)))
    info = we._curve_constants.cache_info()
    assert info.currsize == info.maxsize == 8


@pytest.mark.parametrize("tau", [TAU, 1j, 0.5 + 1j, 2j])
def test_memoised_curve_constants_equal_a_fresh_computation(tau):
    curve = CurveSpec(tau)
    we._curve_constants(curve)
    g2, g3, _ = we.curve_invariants(curve)
    assert we._curve_constants(CurveSpec(tau)) == (g2, g3, we._cubic_roots(4, 0, -g2, -g3))


def _bits(hits):
    """Every stored value of an intersection, by repr: equal iff bit-identical."""
    return repr([(z.s, z.t, p) for z, p in hits])


def _lines_of_every_kind(curve):
    rng = random.Random(61)
    chords = _chord_lines(curve, 3, seed=67)
    tangents = [we.tangent_line(jl.canon(complex(rng.random() + rng.random() * curve.tau), curve),
                                curve) for _ in range(3)]
    flexes = [we.tangent_line(p, curve) for p in jl.torsion_points(3, curve)[1:4]]
    vertical = we.PlaneLine.of(1, 0, -(0.7 + 0.2j))
    return chords + tangents + flexes + [vertical, we.PlaneLine.of(0, 0, 1)]


@pytest.mark.parametrize("tau", [TAU, 1j])
def test_a_memo_hit_is_the_solved_tuple_and_equals_a_cold_solve(tau):
    curve = CurveSpec(tau)
    for line in _lines_of_every_kind(curve):
        hits = we._intersect(line, curve)
        assert isinstance(hits, tuple) and len(hits) == 3
        again = we._intersect(line, curve)
        assert again is hits
        assert all(a is b for pair in zip(hits, again) for a, b in zip(*pair))
        # intersect_curve hands out a new list of the same shared points
        pts = we.intersect_curve(line, curve)
        assert pts is not we.intersect_curve(line, curve)
        assert all(z is h[0] for z, h in zip(pts, hits))
        # an equal but distinct line solves again, to the same bits
        fresh = we.PlaneLine(*line.vec())
        cold = we._intersect(fresh, curve)
        assert cold is not hits and _bits(cold) == _bits(hits)
        assert we.multiplicities([z for z, _ in cold]) == we.multiplicities(pts)


def test_one_line_keeps_one_intersection_per_curve():
    line = we.PlaneLine.of(1, 2, 3)
    curves = [CurveSpec(TAU), CurveSpec(1j), CurveSpec(0.5 + 1j)]
    solved = [we._intersect(line, c) for c in curves]
    for curve, hits in zip(curves, solved):
        assert all(z.curve == curve for z, _ in hits)
        assert we._intersect(line, curve) is hits
        assert _bits(we._intersect(we.PlaneLine.of(1, 2, 3), curve)) == _bits(hits)
    assert _bits(solved[0]) != _bits(solved[1])


def test_the_line_memo_is_freed_with_its_line(curve):
    line = _chord_lines(curve, 1, seed=71)[0]
    point = weakref.ref(we._intersect(line, curve)[0][0])
    ref = weakref.ref(line)
    del line
    assert ref() is None and point() is None


def _normalize_reference(v):
    """_normalize as first written: the pivot found by a scan for the first
    modulus above 1e-14 of the largest."""
    v = [complex(x) for x in v]
    scale = max(abs(x) for x in v)
    if scale == 0:
        raise we.DegenerateGeometryError("all homogeneous coordinates vanish")
    for x in v:
        if abs(x) > 1e-14 * scale:
            return tuple(y / x for y in v)
    raise we.DegenerateGeometryError("cannot normalize homogeneous vector")


def test_normalize_equals_its_reference_bit_for_bit():
    rng = random.Random(23)

    def entry():
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        size = 10 ** rng.uniform(-20, 20)
        return complex(rng.gauss(0, size), rng.gauss(0, size) * (kind != 2))

    cases = [(1e-14, 1, 0), (1.0000001e-14, 1, 0), (0, 1e-300, 1e-310), (0, 0, 5e-324),
             (3, 4j, 5), (2, 4, 6)]
    cases += [tuple(entry() for _ in range(3)) for _ in range(3000)]
    for v in cases:
        if not any(v):
            continue
        got, want = we._normalize(v), _normalize_reference(v)
        assert [(type(x), x.real.hex(), x.imag.hex()) for x in got] == \
            [(type(x), x.real.hex(), x.imag.hex()) for x in want]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan),
                                 complex(math.inf, 0)])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_normalize_refuses_a_non_finite_coordinate_anywhere(bad, position):
    v = [1, 1, 1]
    v[position] = bad
    for of in (we.PlanePoint.of, we.PlaneLine.of):
        with pytest.raises(we.DegenerateGeometryError):
            of(*v)
