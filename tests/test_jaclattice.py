import cmath
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellpar import jaclattice as jl
from ellpar.jaclattice import CurveSpec, JacPoint

from conftest import (TAU, count_calls, equal_reference, exact, is_torsion_reference,
                      merge_triple_reference, sums_to_zero_reference)

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
    assert p.is_exact and p.is_zero(tol=1e-9)
    assert jl.equal(p, jl.zero(curve), tol=1e-9)


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
    assert jl.equal(jl.add(p, q), jl.add(q, p), tol=1e-9)
    assert jl.add(p, jl.neg(p)).is_zero(tol=1e-9)
    assert jl.equal(jl.sub(jl.add(p, q), q), p, tol=1e-9)


@given(s=fractions, t=fractions, k=st.integers(-5, 5))
def test_mul_matches_repeated_addition(s, t, k):
    curve = CurveSpec(TAU)
    p = jl.canon((s, t), curve)
    acc = jl.zero(curve)
    for _ in range(abs(k)):
        acc = jl.add(acc, p)
    if k < 0:
        acc = jl.neg(acc)
    assert jl.equal(jl.mul(k, p), acc, tol=1e-9)


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
    assert jl.equal(a, JacPoint(curve, 0.0, 0.0), tol=1e-9)


def test_torsion_points_count_and_exactness(curve):
    pts = jl.torsion_points(3, curve)
    assert len(pts) == 9
    assert all(p.is_exact for p in pts)
    assert all(jl.mul(3, p).is_zero(tol=1e-9) for p in pts)
    # pairwise distinct
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            assert not jl.equal(p, q, tol=1e-9)


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
        assert jl.equal(p, reduced, tol=1e-9) and jl.equal(reduced, p, tol=1e-9)
    assert jl.canon(JacPoint(curve, 1, 0), curve).is_zero(tol=1e-9)


@pytest.mark.parametrize("tau", [2j, TAU + 1e-12])
def test_curve_mismatch_raises(curve, tau):
    # a curve is its tau, as every per-curve memo keys it: one 1e-12 away is
    # another curve
    with pytest.raises(jl.CurveMismatchError):
        jl.add(jl.zero(curve), jl.zero(CurveSpec(tau)))


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
    assert jl.equal(a, b, tol=1e-9) == (_ref(s1) == _ref(s2) and _ref(t1) == _ref(t2))
    assert jl.equal(a, jl.canon((s1 + 3, t1 - 2), curve), tol=1e-9)
    assert (a.is_zero(tol=1e-9) == (_ref(s1) == 0 and _ref(t1) == 0)
            == jl.equal(a, jl.zero(curve), tol=1e-9))
    assert jl.sub(p, p).is_zero(tol=1e-9)
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


def _decision(f, p, q, tol):
    try:
        return f(p, q, tol)
    except jl.CurveMismatchError as exc:
        return type(exc).__name__, str(exc)


def test_equal_equals_its_reference_bit_for_bit(curve):
    # equal reads the four coordinates once and takes four plain floats as
    # their own coords(): every pair is decided as before, exact/exact,
    # exact/float, float/float and a float subclass, at the seam, on NaN and
    # infinities, and at distances exactly at tol
    rng = random.Random(7)
    seam = [0.0, -0.0, 5e-324, 1e-17, 1 - 1e-17, math.nextafter(1, 0), 0.5, math.nan, math.inf]
    exacts = [Fraction(0), Fraction(1, 3), Fraction(1) - Fraction(1, 10 ** 17), 0, 1]

    def coordinate(kind):
        if kind == "exact":
            return rng.choice(exacts + [Fraction(rng.randrange(12), 12)])
        x = rng.choice(seam) if rng.random() < 0.3 else rng.random()
        return np.float64(x) if kind == "subclass" else x

    other = CurveSpec(TAU + 1e-3)
    cases = []
    for _ in range(3000):
        kinds = [rng.choice(["exact", "float", "float", "subclass"]) for _ in range(2)]
        p = JacPoint(curve, coordinate(kinds[0]), coordinate(kinds[0]))
        q = JacPoint(curve if rng.random() < 0.98 else other, coordinate(kinds[1]),
                     coordinate(kinds[1]))
        if rng.random() < 0.2:  # one float coordinate beside an exact one
            q = rng.choice([JacPoint(curve, q.s, rng.choice(exacts)),
                            JacPoint(curve, rng.choice(exacts), q.t)])
        if rng.random() < 0.3:  # a near point
            q = JacPoint(q.curve, (float(p.s) + rng.gauss(0, 1e-6)) % 1.0, float(p.t))
        cases.append((p, q))
    decided = set()
    for p, q in cases:
        ps, pt = p.coords()
        qs, qt = q.coords()
        d = math.hypot(min((ps - qs) % 1.0, (qs - ps) % 1.0), min((pt - qt) % 1.0, (qt - pt) % 1.0))
        for tol in [1e-9, jl.EQ_TOL, math.nextafter(d, 0), d, math.nextafter(d, 1)]:
            for a, b in ((p, q), (q, p)):
                got = _decision(jl.equal, a, b, tol)
                assert got == _decision(equal_reference, a, b, tol), (a.s, a.t, b.s, b.t, tol)
                decided.add(got if isinstance(got, bool) else got[0])
    assert decided == {True, False, "CurveMismatchError"}


# the membership tests against their compositions: exact coordinates (ints,
# Fractions of either sign, denominators up to 60), floats (near the seam
# too), and points on the curve, an equal copy of it, and two other curves,
# 1e-12 and 1e-3 away
small_exact = st.one_of(st.integers(-5, 5),
                        st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60)),
                        st.builds(Fraction, st.integers(-120, 120), st.integers(-60, -1)))
small_float = st.one_of(st.floats(-2, 2, allow_nan=False), st.floats(-1e-6, 1e-6),
                        st.sampled_from([0.0, -0.0, 5e-324, 1 - 2 ** -53]))
CURVE = CurveSpec(TAU)
curves = st.sampled_from([CURVE] * 5 + [CurveSpec(TAU), CurveSpec(TAU + 1e-12), CurveSpec(TAU + 1e-3)])
tols = st.sampled_from([0.0, 1e-12, 1e-9, jl.EQ_TOL, 1e-4, 1e-3])
# added to minus the sum of two coordinates to give the third: 0 and
# integers close the triple exactly, the rest miss by a little or a lot
offsets = st.one_of(st.none(), st.sampled_from([0, 1, -2, Fraction(1, 60), Fraction(-1, 7)]),
                    st.sampled_from([0.0, 1e-13, -1e-7, 2e-5, 0.5]))


def _outcome(f, *args):
    try:
        got = f(*args)
    except jl.CurveMismatchError as exc:
        return type(exc).__name__, str(exc)
    assert type(got) is bool
    return got


def _triple(coords, close, curves):
    (s1, t1), (s2, t2), (s3, t3) = coords
    if close is not None:
        s3, t3 = close - s1 - s2, close - t1 - t2
    return (JacPoint(curves[0], s1, t1), JacPoint(curves[1], s2, t2), JacPoint(curves[2], s3, t3))


def _check_sums_to_zero(coords, close, curves, tol):
    # sums_to_zero reads the policy name EQ_TOL; it is patched to tol here
    p, q, r = _triple(coords, close, curves)
    with mock.patch.object(jl, "EQ_TOL", tol):
        got = _outcome(jl.sums_to_zero, p, q, r)
    assert got == _outcome(sums_to_zero_reference, p, q, r, tol)


@given(coords=st.lists(st.tuples(small_exact, small_exact), min_size=3, max_size=3),
       close=offsets.filter(lambda o: not isinstance(o, float)), tol=tols)
def test_sums_to_zero_on_exact_points_equals_its_composition(coords, close, tol):
    _check_sums_to_zero(coords, close, [CURVE] * 3, tol)


@given(coords=st.lists(st.tuples(small_float, small_float), min_size=3, max_size=3),
       close=offsets, tol=tols)
def test_sums_to_zero_on_float_points_equals_its_composition(coords, close, tol):
    _check_sums_to_zero(coords, close, [CURVE] * 3, tol)


@given(coords=st.lists(st.tuples(st.one_of(small_exact, small_float),
                                 st.one_of(small_exact, small_float)), min_size=3, max_size=3),
       close=offsets, tol=tols)
def test_sums_to_zero_on_mixed_points_equals_its_composition(coords, close, tol):
    _check_sums_to_zero(coords, close, [CURVE] * 3, tol)


@given(coords=st.lists(st.tuples(small_exact, small_exact) | st.tuples(small_float, small_float),
                       min_size=3, max_size=3),
       close=offsets, curves=st.lists(curves, min_size=3, max_size=3), tol=tols)
def test_sums_to_zero_raises_the_curve_mismatch_of_its_composition(coords, close, curves, tol):
    _check_sums_to_zero(coords, close, curves, tol)


@given(s=st.one_of(small_exact, small_float), t=st.one_of(small_exact, small_float),
       n=st.integers(-6, 12), near=st.sampled_from([None, 0.0, 1e-13, -3e-7, 2e-5]), tol=tols)
def test_is_torsion_equals_its_composition(s, t, n, near, tol):
    # near puts both coordinates at an n-torsion value plus near
    if near is not None and n:
        s, t = round(float(s) * n) / n + near, round(float(t) * n) / n - near
    p = JacPoint(CURVE, s, t)
    with mock.patch.object(jl, "EQ_TOL", tol):
        got = _outcome(jl.is_torsion, p, n)
    assert got == _outcome(is_torsion_reference, p, n, tol)


# floats at and near the seam: sums that reduce to 1.0 (the seam 0), -0.0,
# values just below 1 and the smallest subnormals
seam_float = st.one_of(st.floats(-2, 2, allow_nan=False),
                       st.sampled_from([0.0, -0.0, 1e-17, -1e-17, 5e-324, -5e-324, 0.5, -0.5,
                                        1 - 2 ** -53, -(1 - 2 ** -53), 1 - 2 ** -52, 1.0, -1.0]))
float_offsets = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 1e-17, -1e-17, 1e-13,
                                                      -1e-7, 2e-5, 0.5]))


@given(coords=st.lists(st.tuples(seam_float, seam_float), min_size=3, max_size=3),
       close=float_offsets, tol=tols)
def test_sums_to_zero_on_plain_floats_equals_its_composition_and_builds_no_point(coords, close,
                                                                                   tol):
    p, q, r = _triple(coords, close, [CURVE] * 3)
    assert type(p.s) is type(p.t) is type(r.s) is type(r.t) is float
    want = _outcome(sums_to_zero_reference, p, q, r, tol)
    built = []
    original = JacPoint.__init__
    JacPoint.__init__ = lambda self, *a, **k: built.append(a) or original(self, *a, **k)
    try:
        with mock.patch.object(jl, "EQ_TOL", tol):
            got = _outcome(jl.sums_to_zero, p, q, r)
    finally:
        JacPoint.__init__ = original
    assert got == want and built == []


def test_sums_to_zero_reads_the_seam_as_zero(monkeypatch):
    # -1e-17 % 1 rounds to 1.0, which both sums read as the seam 0
    p, q = JacPoint(CURVE, -1e-17, 0.25), JacPoint(CURVE, 0.0, 0.25)
    r = JacPoint(CURVE, 1e-17, 0.5)
    for tol in (0.0, 1e-17, 1e-9):
        monkeypatch.setattr(jl, "EQ_TOL", tol)
        assert jl.sums_to_zero(p, q, r) == sums_to_zero_reference(p, q, r, tol)
    assert jl.sums_to_zero(p, q, r)  # at the last, 1e-9


@given(coords=st.lists(st.tuples(st.one_of(small_exact, seam_float, seam_float.map(np.float64)),
                                 st.one_of(small_exact, seam_float, seam_float.map(np.float64))),
                       min_size=3, max_size=3),
       close=offsets, tol=tols)
def test_sums_to_zero_on_float_subclasses_and_fraction_mixes_equals_its_composition(coords, close,
                                                                                    tol):
    # anything but six plain floats takes the composition itself
    _check_sums_to_zero(coords, close, [CURVE] * 3, tol)


@given(coords=st.lists(st.tuples(st.one_of(small_exact, seam_float, seam_float.map(np.float64)),
                                 st.one_of(small_exact, seam_float, seam_float.map(np.float64))),
                       min_size=0, max_size=6))
def test_canonical_sort_equals_the_sort_by_coords(coords):
    # plain float points are keyed by (s, t), which is their coords(); ties
    # (0.0 and -0.0 among them) keep their order alike
    pts = [JacPoint(CURVE, s, t) for s, t in coords]
    got = jl.canonical_sort(pts)
    want = sorted(pts, key=lambda p: p.coords())
    assert [id(p) for p in got] == [id(p) for p in want]


def test_membership_tests_decide_exact_points_without_building_one(curve, monkeypatch):
    p, q = exact(curve, Fraction(1, 5), Fraction(2, 7)), exact(curve, Fraction(3, 4), Fraction(4, 7))
    r = jl.neg(jl.add(p, q))
    flex = exact(curve, Fraction(1, 3), Fraction(2, 3))
    built = []
    count_calls(monkeypatch, built, JacPoint, ("__init__",))
    count_calls(monkeypatch, built, Fraction, ("__new__",))
    answers = [jl.sums_to_zero(p, q, r), jl.sums_to_zero(p, q, p), jl.is_torsion(flex, 3),
               jl.is_torsion(p, 3), jl.is_torsion(p, 5), jl.is_torsion(q, 28)]
    assert answers == [True, False, True, False, False, True] and built == []


def test_canon_passes_a_canonical_exact_point_through(curve):
    p = exact(curve, Fraction(2, 7), Fraction(0))
    assert jl.canon(p, curve) is p
    others = [(p, CurveSpec(TAU)),  # an equal curve, not the same object
              (JacPoint(curve, Fraction(9, 7), Fraction(-1)), curve),  # not reduced
              (JacPoint(curve, Fraction(2, 7), 0), curve)]  # an int coordinate
    for raw, target in others:
        q = jl.canon(raw, target)
        assert q is not raw and q == JacPoint(target, Fraction(2, 7), Fraction(0))
        assert q.curve is target and type(q.s) is type(q.t) is Fraction


def test_canon_passes_a_reduced_float_point_through(curve):
    # so that a point given as one object stays one for merge_triple
    p = JacPoint(curve, 0.25, 0.75)
    assert jl.canon(p, curve) is p
    others = [(p, CurveSpec(TAU)), (JacPoint(curve, 1.25, -0.25), curve),
              (JacPoint(curve, 0.25, Fraction(3, 4)), curve)]
    for raw, target in others:
        q = jl.canon(raw, target)
        assert q is not raw and q == JacPoint(target, 0.25, 0.75) and q.curve is target


def test_merge_triple_keeps_exact_points_and_given_identity(curve):
    e = exact(curve, Fraction(1, 5), Fraction(2, 7))
    near = JacPoint(curve, 0.2 + 3e-7, 2 / 7)
    r = jl.neg(jl.mul(2, e))
    # an exact member is its class's point, in every order
    for order in itertools.permutations((e, near, r)):
        merged = jl.merge_triple(order)
        assert [z is e for z in merged] == [z is not r for z in order]
    flex = exact(curve, Fraction(1, 3), Fraction(2, 3))
    around = [JacPoint(curve, 1 / 3 + k * 4e-7, 2 / 3) for k in (-1, 1)]
    for order in itertools.permutations([flex, *around]):
        assert all(z is flex for z in jl.merge_triple(order))
    # classes that are one object already come back as the triple itself
    p, q = JacPoint(curve, 0.1, 0.2), JacPoint(curve, 0.4, 0.7)
    for zs in ([near, near, r], (p, q, jl.neg(jl.add(p, q))), [p, p, p]):
        assert jl.merge_triple(zs) is zs


def test_a_merged_triple_point_is_exactly_the_flex():
    # three reduced float points within 3e-7 of a flex, summing to 0, merge
    # into one class whose point is the flex's correctly rounded coordinates
    curve = CurveSpec(TAU)
    rng = random.Random(29)
    merged = 0
    for _ in range(20000):
        a, b = rng.randrange(3), rng.randrange(3)
        o1 = (rng.uniform(-3e-7, 3e-7), rng.uniform(-3e-7, 3e-7))
        o2 = (rng.uniform(-3e-7, 3e-7), rng.uniform(-3e-7, 3e-7))
        offsets = (o1, o2, (-o1[0] - o2[0], -o1[1] - o2[1]))
        zs = [jl.canon(JacPoint(curve, a / 3 + ds, b / 3 + dt), curve) for ds, dt in offsets]
        z1, z2, z3 = jl.merge_triple(zs)
        if z1 is z2 is z3:
            merged += 1
            assert (z1.s, z1.t) == (float(Fraction(a, 3)), float(Fraction(b, 3)))
    assert merged > 19000


def _merged(got, zs):
    """merge_triple's answer by identity and bits: whether it is zs, each
    position as the index of the given point it is and its coordinates, and
    which positions hold one object."""
    bits = [[c.hex() if type(c) is float else repr(c) for c in (m.s, m.t)] for m in got]
    given = [next((i for i, z in enumerate(zs) if m is z), None) for m in got]
    return got is zs, given, bits, [[m is n for n in got] for m in got]


def _check_merge(zs, tol):
    """merge_triple(zs) with EQ_TOL patched to tol answers as the reference
    at tol, and a triple of plain floats on one curve object whose pairs
    equal_reference finds all apart is zs, decided without a call of equal."""
    calls = []
    equal = jl.equal
    jl.equal = lambda *a: calls.append(a) or equal(*a)
    try:
        with mock.patch.object(jl, "EQ_TOL", tol):
            got = jl.merge_triple(zs)
    finally:
        jl.equal = equal
    assert _merged(got, zs) == _merged(merge_triple_reference(zs, tol), zs)
    apart = not any(p is q or equal_reference(p, q, tol) for p, q in itertools.combinations(zs, 2))
    if apart and zs[0].curve is zs[1].curve is zs[2].curve and not any(z.is_exact for z in zs):
        assert got is zs and calls == []
    return got


def _float_triple(curve, base, steps, twice, copy=None):
    """Three reduced float points: base, and each other point at step
    (r, a) from it, r EQ_TOL in the direction a, or far (step None); twice
    gives a pair of positions that hold one object, and copy one whose
    second point is another object of the first's coordinates."""
    s, t = base
    pts = [jl.canon(JacPoint(curve, s, t), curve)]
    for k, step in enumerate(steps, 1):
        ds, dt = (0.37 * k, 0.61 * k) if step is None else (
            step[0] * jl.EQ_TOL * math.cos(step[1]), step[0] * jl.EQ_TOL * math.sin(step[1]))
        pts.append(jl.canon(JacPoint(curve, s + ds, t + dt), curve))
    if twice is not None:
        pts[twice[1]] = pts[twice[0]]
    if copy is not None:
        pts[copy[1]] = JacPoint(curve, pts[copy[0]].s, pts[copy[0]].t)
    return tuple(pts)


# coordinates near the seam (near 0 and near 1) as well as anywhere
unit_float = st.one_of(st.floats(0, 1, exclude_max=True),
                       st.sampled_from([0.0, 1e-17, 4e-7, 1 - 2 ** -53, 1 - 4e-7]))
steps = st.one_of(st.none(), st.tuples(st.floats(0.5, 2), st.floats(0, 2 * math.pi)))


@given(base=st.tuples(unit_float, unit_float), steps=st.lists(steps, min_size=2, max_size=2),
       twice=st.sampled_from([None, None, (0, 1), (0, 2), (1, 2)]),
       copy=st.sampled_from([None, None, (0, 1), (1, 2)]),
       tol=st.sampled_from([jl.EQ_TOL, 0.0, 1e-9, 4e-7, 1.5e-6, 1e-4]))
def test_merge_triple_of_plain_float_points_equals_the_reference(base, steps, twice, copy, tol):
    _check_merge(_float_triple(CURVE, base, steps, twice, copy), tol)


def test_merge_triple_of_plain_float_points_decides_each_pair_as_the_reference():
    # pairs 0.5-2 EQ_TOL apart, across the seam too, at the default and at
    # other tols (0 among them), with one object given twice and a point
    # given as two objects: every answer the reference's, each kind met
    rng = random.Random(43)
    seam = [0.0, 1e-17, 3e-7, 1 - 2 ** -53, 1 - 3e-7]
    kinds = set()
    for _ in range(6000):
        base = [rng.choice(seam) if rng.random() < 0.4 else rng.random() for _ in range(2)]
        steps = [None if rng.random() < 0.3 else (rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi))
                 for _ in range(2)]
        twice = rng.choice([None] * 6 + [(0, 1), (0, 2), (1, 2)])
        copy = rng.choice([None] * 6 + [(0, 1), (0, 2), (1, 2)])
        zs = _float_triple(CURVE, base, steps, twice, copy)
        if rng.random() < 0.3:  # a zero-sum triple, whose double moves
            zs = (*zs[:2], jl.neg(jl.add(zs[0], zs[1])))
        tol = rng.choice([jl.EQ_TOL, jl.EQ_TOL, 0.0, 1e-9, 4e-7, 1.5e-6, 1e-4])
        got = _check_merge(zs, tol)
        shared = sum(a is b for a, b in itertools.combinations(got, 2))
        kinds.add((got is zs, shared, all(m is z for m, z in zip(got, zs))))
    assert kinds == {(True, 0, True), (True, 1, True), (False, 1, False), (False, 3, False)}


def test_merge_triple_decides_an_exact_member_or_two_curve_objects_by_its_pairs(monkeypatch):
    # an exact member, or a point on an equal curve given as another object,
    # takes the pairs through equal and answers as before
    calls = []
    equal = jl.equal
    monkeypatch.setattr(jl, "equal", lambda *a: calls.append(a) or equal(*a))
    twin = CurveSpec(TAU)
    p, q = JacPoint(CURVE, 0.1, 0.2), JacPoint(CURVE, 0.4, 0.7)
    r = jl.neg(jl.add(p, q))
    e = exact(CURVE, Fraction(1, 5), Fraction(2, 7))
    near = JacPoint(CURVE, 0.2 + 5e-7, 2 / 7)
    cases = [(p, q, e), (e, near, jl.neg(jl.mul(2, e))), (p, q, JacPoint(twin, r.s, r.t)),
             (p, JacPoint(twin, 0.1 + 5e-7, 0.2), JacPoint(CURVE, 0.8 - 5e-7, 0.6))]
    for zs in cases:
        calls.clear()
        got = jl.merge_triple(zs)
        assert len(calls) >= 2
        assert _merged(got, zs) == _merged(merge_triple_reference(zs), zs)
    assert jl.merge_triple(cases[0]) is cases[0] and jl.merge_triple(cases[2]) is cases[2]
    with pytest.raises(jl.CurveMismatchError):
        jl.merge_triple((p, q, JacPoint(CurveSpec(TAU + 1e-3), r.s, r.t)))


def test_the_predicates_default_to_the_one_coincidence_rule():
    # equal, is_zero, sums_to_zero and is_torsion without a tol decide at
    # EQ_TOL, the rule merge_triple and every library decision read: points
    # 5e-7 apart are one point for all of them alike
    curve = CurveSpec(TAU)
    p = JacPoint(curve, 0.2, 0.3)
    q = JacPoint(curve, 0.2 + 5e-7, 0.3)
    assert jl.equal(p, q)
    a, b, c = jl.merge_triple((p, q, jl.neg(jl.add(p, q))))
    assert a is b and c is not a
    assert JacPoint(curve, 5e-7, 0.0).is_zero()
    assert jl.is_torsion(JacPoint(curve, 1 / 3 + 3e-7, 1 / 3), 3)
    # (0.2, 0.3) + (0.5, 0.1) + (0.3, 0.6 + 5e-7) misses 0 by 5e-7
    assert jl.sums_to_zero(p, JacPoint(curve, 0.5, 0.1), JacPoint(curve, 0.3, 0.6 + 5e-7))


def test_merge_triple_decides_a_repeated_object_by_identity_alone(curve, monkeypatch):
    # a tangent's or a flex's triple holds one object twice or thrice: the
    # in-place path measures no distance for it, and the only distance left
    # is equal's for a pair of two objects
    hypots, equals = [], []
    hypot, equal = math.hypot, jl.equal
    monkeypatch.setattr(math, "hypot", lambda *a: hypots.append(a) or hypot(*a))
    monkeypatch.setattr(jl, "equal", lambda *a: equals.append(a) or equal(*a))
    p, r = JacPoint(curve, 0.1, 0.2), JacPoint(curve, 0.8, 0.6)
    for zs, pairs in (((p, p, r), 1), ((p, r, p), 1), ((r, p, p), 1), ((p, p, p), 0)):
        hypots.clear()
        equals.clear()
        assert jl.merge_triple(zs) is zs
        assert len(hypots) == len(equals) == pairs, zs
