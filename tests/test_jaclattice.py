import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellpar import jaclattice as jl
from ellpar.jaclattice import CurveSpec, JacPoint

from conftest import TAU, count_calls, exact

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=24)
small_complex = st.builds(complex,
                          st.floats(-2, 2, allow_nan=False),
                          st.floats(-2, 2, allow_nan=False))


def test_curve_requires_upper_half_plane():
    with pytest.raises(ValueError):
        CurveSpec(1.0 - 0.5j)
    with pytest.raises(ValueError):
        CurveSpec(2.0)
    assert CurveSpec(TAU).tau == TAU


def test_point_representation_is_exclusive(curve):
    with pytest.raises(ValueError):
        JacPoint(curve, s=Fraction(1, 2))
    with pytest.raises(ValueError):
        JacPoint(curve)


def test_int_coordinates_are_exact(curve):
    p = JacPoint(curve, s=0, t=0)
    assert p.is_exact and p.is_zero()
    assert jl.equal(p, jl.zero(curve))


def test_float_seam_reduces_to_zero(curve):
    # -1e-17 % 1.0 rounds to 1.0; the stored coordinate must be 0.0
    assert jl.canon(-1e-17 + 0j, curve).coords() == (0.0, 0.0)
    assert jl.neg(jl.canon(1e-17 + 0j, curve)).coords() == (0.0, 0.0)


def test_canon_reduces_to_fundamental_domain(curve):
    p = jl.canon((Fraction(7, 5), Fraction(-1, 7)), curve)
    assert p.s == Fraction(2, 5) and p.t == Fraction(6, 7)
    q = jl.canon(3.7 + 2.9 * curve.tau, curve)
    s, t = q.coords()
    assert 0 <= s < 1 and 0 <= t < 1


@given(s1=fractions, t1=fractions, s2=fractions, t2=fractions)
def test_group_law_exact_commutative_associative(s1, t1, s2, t2):
    curve = CurveSpec(TAU)
    p = jl.canon((s1, t1), curve)
    q = jl.canon((s2, t2), curve)
    assert jl.equal(jl.add(p, q), jl.add(q, p))
    assert jl.add(p, jl.neg(p)).is_zero()
    assert jl.equal(jl.sub(jl.add(p, q), q), p)


@given(s=fractions, t=fractions, k=st.integers(-5, 5))
def test_mul_matches_repeated_addition(s, t, k):
    curve = CurveSpec(TAU)
    p = jl.canon((s, t), curve)
    acc = jl.zero(curve)
    for _ in range(abs(k)):
        acc = jl.add(acc, p)
    if k < 0:
        acc = jl.neg(acc)
    assert jl.equal(jl.mul(k, p), acc)


@given(z=small_complex)
def test_exact_and_approx_agree(z):
    curve = CurveSpec(TAU)
    p = jl.canon(z, curve)
    s, t = p.coords()
    q = jl.canon(complex(s + t * curve.tau), curve)
    assert jl.equal(p, q, tol=1e-9)


def test_equal_handles_wraparound(curve):
    a = jl.canon(1e-12 + 0j, curve)
    b = jl.canon((1 - 1e-12) + 0j, curve)
    assert jl.equal(a, b, tol=1e-9)
    assert jl.equal(a, jl.zero(curve).approx(), tol=1e-9)


def test_torsion_points_count_and_exactness(curve):
    pts = jl.torsion_points(3, curve)
    assert len(pts) == 9
    assert all(p.is_exact for p in pts)
    assert all(jl.mul(3, p).is_zero() for p in pts)
    # pairwise distinct
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert not jl.equal(p, q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_torsion_points_build_each_coordinate_once(n, curve, monkeypatch):
    want = [(Fraction(a, n), Fraction(b, n)) for a in range(n) for b in range(n)]
    calls = []
    count_calls(monkeypatch, calls, Fraction, ("__new__",))
    pts = jl.torsion_points(n, curve)
    assert len(calls) == n
    assert [(p.s, p.t) for p in pts] == want
    assert all(type(p.s) is Fraction and type(p.t) is Fraction for p in pts)


def test_canon_reduces_exact_coordinates_so_equal_compares_them(curve):
    # equal compares exact points by their stored coordinates; canon stores
    # them reduced, whatever representative it is given
    reduced = JacPoint(curve, Fraction(0), Fraction(1, 3))
    for raw in ((1, Fraction(-2, 3)), JacPoint(curve, 1, Fraction(-2, 3)),
                (Fraction(-5, 1), Fraction(7, 3))):
        p = jl.canon(raw, curve)
        assert (p.s, p.t) == (0, Fraction(1, 3))
        assert jl.equal(p, reduced) and jl.equal(reduced, p)
    assert jl.canon(JacPoint(curve, 1, 0), curve).is_zero()


def test_curve_mismatch_raises(curve):
    other = CurveSpec(2j)
    with pytest.raises(jl.CurveMismatchError):
        jl.add(jl.zero(curve), jl.zero(other))


def test_from_holonomy_known_values(curve):
    # b = e^{2 pi i / 3}, a = 1 -> the 3-torsion point (1/3, 0)
    p = jl.from_holonomy(1.0, cmath.exp(2j * math.pi / 3), curve)
    assert jl.equal(p, exact(curve, Fraction(1, 3), 0), tol=1e-12)
    # a = e^{-2 pi i t}, b = e^{2 pi i s} -> (s, t)
    target = exact(curve, Fraction(1, 5), Fraction(1, 7))
    a = cmath.exp(-2j * math.pi / 7)
    b = cmath.exp(2j * math.pi / 5)
    assert jl.equal(jl.from_holonomy(a, b, curve), target, tol=1e-12)


@given(z1=small_complex, z2=small_complex)
@settings(max_examples=50)
def test_from_holonomy_is_multiplicative(z1, z2):
    curve = CurveSpec(TAU)
    a1, b1 = cmath.exp(z1), cmath.exp(z2)
    a2, b2 = cmath.exp(0.3 * z2 - 0.1), cmath.exp(0.7 * z1 + 0.2j)
    lhs = jl.from_holonomy(a1 * a2, b1 * b2, curve)
    rhs = jl.add(jl.from_holonomy(a1, b1, curve), jl.from_holonomy(a2, b2, curve))
    assert jl.equal(lhs, rhs, tol=1e-9)


def test_canonical_sort_is_deterministic(curve):
    pts = [exact(curve, Fraction(1, 2), 0), exact(curve, 0, Fraction(1, 2)),
           exact(curve, Fraction(1, 4), Fraction(3, 4))]
    assert jl.canonical_sort(list(reversed(pts))) == jl.canonical_sort(pts)
    coords = [p.coords() for p in jl.canonical_sort(pts)]
    assert coords == sorted(coords)


points = st.one_of(st.tuples(fractions, fractions), small_complex)


def _lattice_distance(d: complex, tau: complex) -> float:
    t = d.imag / tau.imag
    s = d.real - t * tau.real
    return abs(d - (round(s) + round(t) * tau))


@given(a=points, b=points, k=st.integers(-5, 5))
def test_group_law_on_mixed_representations(a, b, k):
    curve = CurveSpec(TAU)
    p, q = jl.canon(a, curve), jl.canon(b, curve)
    results = [
        (jl.add(p, q), p.value() + q.value(), p.is_exact and q.is_exact),
        (jl.sub(p, q), p.value() - q.value(), p.is_exact and q.is_exact),
        (jl.neg(p), -p.value(), p.is_exact),
        (jl.mul(k, p), k * p.value(), p.is_exact),
    ]
    for r, z, exact_in in results:
        s, t = r.coords()
        assert 0 <= s < 1 and 0 <= t < 1
        assert r.is_exact == exact_in
        if exact_in:
            assert isinstance(r.s, Fraction) and isinstance(r.t, Fraction)
        assert _lattice_distance(r.value() - z, curve.tau) <= 1e-12


# exact coordinates: ints, reduced Fractions and
# Fractions of any sign, with denominators up to 10^6
exact_coords = st.one_of(
    st.integers(-10**7, 10**7),
    st.builds(lambda n, d: Fraction(n % d, d), st.integers(0, 10**7), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-10**7, 10**7), st.integers(1, 10**6)))


def _ref(x) -> Fraction:
    return Fraction(x) % 1


def _check_reduced(p: JacPoint, s, t):
    for c, want in ((p.s, s), (p.t, t)):
        assert type(c) is Fraction and 0 <= c < 1 and c == want


@given(s1=exact_coords, t1=exact_coords, s2=exact_coords, t2=exact_coords,
       k=st.integers(-10**3, 10**3))
def test_exact_arithmetic_matches_fraction_reference(s1, t1, s2, t2, k):
    curve = CurveSpec(TAU)
    p, q = JacPoint(curve, s1, t1), JacPoint(curve, s2, t2)
    _check_reduced(jl.add(p, q), _ref(s1 + s2), _ref(t1 + t2))
    _check_reduced(jl.sub(p, q), _ref(s1 - s2), _ref(t1 - t2))
    _check_reduced(jl.neg(p), _ref(-s1), _ref(-t1))
    _check_reduced(jl.mul(k, p), _ref(k * s1), _ref(k * t1))
    _check_reduced(jl.canon(p, curve), _ref(s1), _ref(t1))
    _check_reduced(jl.canon((s1, t1), curve), _ref(s1), _ref(t1))
    a, b = jl.canon(p, curve), jl.canon(q, curve)
    assert jl.equal(a, b) == (_ref(s1) == _ref(s2) and _ref(t1) == _ref(t2))
    assert jl.equal(a, jl.canon((s1 + 3, t1 - 2), curve))
    assert a.is_zero() == (_ref(s1) == 0 and _ref(t1) == 0) == jl.equal(a, jl.zero(curve))
    assert jl.sub(p, p).is_zero()
    assert a.coords() == (float(_ref(s1)), float(_ref(t1)))


def test_a_reduced_coordinate_passes_through(curve):
    s, t = Fraction(2, 7), Fraction(0)
    p = jl.canon((s, t), curve)
    assert p.s is s and p.t is t
    q = jl.add(p, jl.zero(curve))
    assert q.s is s and q.t is t


near_seam = st.one_of(st.just(0.0), st.floats(0, 1e-5), st.floats(0, 1e-5).map(lambda d: (1 - d) % 1.0))


@given(s=near_seam, t=near_seam, tol=st.sampled_from([0.0, 1e-12, 1e-9, jl.EQ_TOL, 1e-5]))
def test_approximate_is_zero_is_equal_to_zero(s, t, tol):
    curve = CurveSpec(TAU)
    p = JacPoint(curve, s, t)
    assert p.is_zero(tol) == jl.equal(p, jl.zero(curve), tol)
    # at distance exactly tol, where the verdict turns on the last bit
    d = math.hypot(min(s, 1 - s), min(t, 1 - t))
    assert p.is_zero(d) == jl.equal(p, jl.zero(curve), d)
    assert p.is_zero(math.nextafter(d, 0)) == jl.equal(p, jl.zero(curve), math.nextafter(d, 0))


def _bits(p: JacPoint):
    return tuple((type(c), c.hex() if isinstance(c, float) else c) for c in (p.s, p.t))


def test_mixed_add_is_the_float_fraction_sum_bit_for_bit(curve):
    rng = random.Random(5)

    def fraction():
        d = rng.randint(1, 12)
        return Fraction(rng.randrange(d), d)  # reduced, zero included

    # floats at and near the seam: within 1e-17 of 0, the largest float
    # below 1, and floats that bring a Fraction within 1e-17 of 1
    seam = [0.0, 5e-324, 1e-18, 9.9e-18, 1 - 2 ** -53]
    cases = []
    for _ in range(2000):
        p = JacPoint(curve, fraction(), fraction())
        near_one = [x for c in (p.s, p.t) for d in (0, 1)
                    if (x := math.nextafter(1 - c.numerator / c.denominator, d)) < 1]
        floats = [rng.random(), rng.random(), rng.choice(seam), rng.choice(seam + near_one)]
        cases.append((p, JacPoint(curve, *rng.sample(floats, 2))))
    for p, q in cases:
        for a, b in ((p, q), (q, p)):
            want = jl._reduced(curve, a.s + b.s, a.t + b.t)
            assert _bits(jl.add(a, b)) == _bits(want)
