import cmath
import json
import math
import os
import random
import subprocess
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellpar import bundles as bd
from ellpar import cli
from ellpar import jaclattice as jl
from ellpar import modspace as ms
from ellpar import parabolic as pa
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec
from ellpar.parabolic import ProjScalar

from conftest import TAU, exact, frame_lambda

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def PS(x):
    return ProjScalar(complex(x), 1)


def test_cross_ratio_boundary_values():
    assert ms.cross_ratio(PS(0.3), PS(2), PS(5), PS(5)).close_to(PS(1))
    assert ms.cross_ratio(PS(0.3), PS(2), PS(5), PS(2)).close_to(PS(0))
    assert ms.cross_ratio(PS(0.3), PS(2), PS(5), PS(0.3)).is_inf
    with pytest.raises(ms.ThreefoldCoincidenceError):
        ms.cross_ratio(PS(1), PS(1), PS(1), PS(5))


def test_cross_ratio_handles_infinity():
    # (inf, 0; 1, x) = x
    got = ms.cross_ratio(pa.PROJ_INF, PS(0), PS(1), PS(0.37))
    assert got.close_to(PS(0.37))


@given(z1=rationals, z2=rationals)
def test_covering_invariants_s3_invariance_exact(z1, z2):
    base = ms.covering_invariants(z1, z2)[:2]
    for m in ms.S3_MAPS.values():
        assert ms.covering_invariants(*m(z1, z2))[:2] == base


def test_covering_invariants_examples():
    f2, f3, cusp = ms.covering_invariants(Fraction(2), Fraction(2))
    assert (f2, f3, cusp) == (12, 16, True)
    f2, f3, cusp = ms.covering_invariants(1, -1)
    assert (f2, f3) == (1, 0) and not cusp


@pytest.mark.parametrize("a, b", [("1", "1.0000000001"), ("0.5", "0.25")])
def test_covering_invariants_read_a_decimal_as_the_equal_fraction(a, b):
    # one rule reads exact input (parabolic's): near the cusp a Decimal once
    # computed in Decimal arithmetic and read (..., True) against (..., False)
    assert (ms.covering_invariants(Decimal(a), Decimal(b))
            == ms.covering_invariants(Fraction(a), Fraction(b)))


@pytest.mark.parametrize("z1, z2", [(0.001, 0.002), (0.01, 0.02), (1, 1.0001)])
def test_sheets_apart_are_off_the_cusp_at_any_scale(z1, z2):
    # the closest two sheets a third of their size apart (1e-4 in the last
    # pair): the discriminant's old floor of 1 read the small pairs as on the cusp
    assert not ms.covering_invariants(z1, z2)[2]
    assert not ms.covering_invariants(Fraction(z1), Fraction(z2))[2]


def _sheet_gap(z1, z2):
    """The smallest of the three sheet gaps relative to the largest sheet."""
    scale = max(abs(z1), abs(z2), abs(z1 + z2))
    return min(abs(z1 - z2), abs(2 * z1 + z2), abs(z1 + 2 * z2)) / scale if scale else 0


# an exact pair on a reflection line, moved off it by 10^-k (or not)
_exact_pairs = st.tuples(rationals, st.sampled_from([lambda z: z, lambda z: -2 * z,
                                                     lambda z: -z / 2]),
                         st.integers(1, 14), st.sampled_from([0, 1, -1]))


@given(pair=_exact_pairs)
def test_a_float_pair_and_its_fraction_form_read_one_cusp(pair):
    z, reflect, k, sign = pair
    z1, z2 = z, reflect(z) + sign * Fraction(1, 10**k)
    # exact input decides the cusp exactly, so a float gap below the threshold
    # reads on the cusp where its exact form does not
    gap = _sheet_gap(z1, z2)
    assume(gap == 0 or gap > 10 * jl.EQ_TOL)
    assert ms.covering_invariants(float(z1), float(z2))[2] == ms.covering_invariants(z1, z2)[2]


@given(z1=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
       ratio=st.sampled_from([1, -2, -0.5]), eps=st.floats(-1e-3, 1e-3),
       scale=st.floats(-6, 6))
def test_the_cusp_is_a_cone(z1, ratio, eps, scale):
    z2 = z1 * ratio * (1 + eps)
    assume(abs(z1) > 1e-3 and not jl.EQ_TOL / 10 <= _sheet_gap(z1, z2) <= 10 * jl.EQ_TOL)
    lam = 10**scale
    assert ms.covering_invariants(lam * z1, lam * z2)[2] == ms.covering_invariants(z1, z2)[2]


@given(z=rationals)
def test_cusp_identity_on_diagonals(z):
    # the three fixed-point lines of the transpositions
    for pair in [(z, z), (z, -2 * z), (-2 * z, z)]:
        assert ms.covering_invariants(*pair)[2]


def test_abel_of_sym_pairs(curve):
    p1 = exact(curve, Fraction(1, 5), 0)
    p2 = exact(curve, 0, Fraction(1, 7))
    assert ms.abel(ms.SymPair(p1, jl.neg(p1))).is_zero(tol=1e-9)
    sp = ms.SymPair(p1, p1)
    assert jl.equal(sp.p1, p1, tol=1e-9) and jl.equal(sp.p2, p1, tol=1e-9)
    assert jl.equal(ms.abel(ms.SymPair(p1, p2)), jl.add(p1, p2), tol=1e-9)
    assert ms.SymPair(p1, p2) == ms.SymPair(p2, p1)


def test_sigma_cover_counts(curve):
    z1 = exact(curve, Fraction(1, 5), 0)
    z2 = exact(curve, 0, Fraction(1, 7))
    chord = we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve)
    assert ms.sigma_cover_count(chord, curve) == 3
    tangent = we.tangent_line(exact(curve, Fraction(1, 5), Fraction(1, 7)), curve)
    assert ms.sigma_cover_count(tangent, curve) == 2
    flex = we.tangent_line(exact(curve, Fraction(1, 3), Fraction(2, 3)), curve)
    assert ms.sigma_cover_count(flex, curve) == 1


def test_curves_isomorphic_modular_invariance():
    tau = TAU
    assert ms.curves_isomorphic(tau, tau + 1)
    assert ms.curves_isomorphic(tau, -1 / tau)
    assert ms.curves_isomorphic(tau, (2 * tau + 1) / (tau + 1))
    assert not ms.curves_isomorphic(1j, 2j)


@pytest.mark.parametrize("tau1, tau2, same", [
    (5j, 0.2j, True), (6j, 1j / 6, True), (6j, 6.00001j, False), (7j, 8j, False),
    (10j, 10j + 1, True)])
def test_curves_isomorphic_high_in_the_half_plane(tau1, tau2, same):
    # j ~ 1/q is large there, and g2^3 - 27 g3^2 cancelled to a few digits or to 0
    assert ms.curves_isomorphic(tau1, tau2) is same


def _chord_setup(curve, rng):
    z1 = jl.canon(complex(rng.rand() + rng.rand() * curve.tau), curve)
    z2 = jl.canon(complex(rng.rand() + rng.rand() * curve.tau), curve)
    z3 = jl.neg(jl.add(z1, z2))
    line = we.line_through(z1, z2, z3, curve)
    return line, jl.canonical_sort([z1, z2, z3])


def test_psi_plus_boundary_lands_in_sigma_plus(curve):
    rng = np.random.RandomState(13)
    line, zs = _chord_setup(curve, rng)
    for i, z in enumerate(zs):
        ip = ms.IncidencePoint(we.embed(z, curve), line)
        cls, lam = ms.psi_plus(ip, curve)
        boundary = (lam.close_to(PS(0), tol=1e-6) or lam.close_to(PS(1), tol=1e-6)
                    or lam.close_to(pa.PROJ_INF, tol=1e-6))
        assert boundary
        flag = pa.Flag(ms.parabolic_point(lam), we.PlaneLine.of(1, 1, -1))
        assert pa.locus(cls, flag) == pa.LOCUS_SIGMA_PLUS


def test_psi_plus_generic_lands_in_ugen(curve):
    rng = np.random.RandomState(17)
    line, zs = _chord_setup(curve, rng)
    e1 = we.embed(zs[0], curve)
    e2 = we.embed(zs[1], curve)
    x = we.PlanePoint.of(*(np.array([e1.x, e1.y, e1.z]) + 0.31 * np.array([e2.x, e2.y, e2.z])))
    cls, lam = ms.psi_plus(ms.IncidencePoint(x, line), curve)
    assert cls.label == "T1"
    flag = pa.Flag(ms.parabolic_point(lam), we.PlaneLine.of(1, 1, -1))
    assert pa.locus(cls, flag) == pa.LOCUS_UGEN


def test_psi_plus_fibration_compatibility(curve):
    rng = np.random.RandomState(19)
    for _ in range(10):
        line, zs = _chord_setup(curve, rng)
        e1 = we.embed(zs[0], curve)
        e2 = we.embed(zs[1], curve)
        x = we.PlanePoint.of(*(np.array([e1.x, e1.y, e1.z])
                               + complex(rng.randn(), rng.randn()) * np.array([e2.x, e2.y, e2.z])))
        cls, _ = ms.psi_plus(ms.IncidencePoint(x, line), curve)
        assert bd.tu_line(cls, curve).close_to(line, tol=1e-6)


ANHARMONIC = (
    lambda l: l,
    lambda l: 1 - l,
    lambda l: 1 / l,
    lambda l: l / (l - 1),
    lambda l: (l - 1) / l,
    lambda l: 1 / (1 - l),
)


def test_psi_plus_reordering_acts_anharmonically(curve):
    # permuting the frame points transforms lambda inside the anharmonic orbit,
    # and psi_plus itself (canonical ordering) is permutation-independent
    rng = np.random.RandomState(23)
    line, zs = _chord_setup(curve, rng)
    pts = [we.embed(z, curve) for z in zs]
    e1, e2 = pts[0], pts[1]
    x = we.PlanePoint.of(*(np.array([e1.x, e1.y, e1.z]) + 0.41 * np.array([e2.x, e2.y, e2.z])))
    _, lam0 = ms.psi_plus(ms.IncidencePoint(x, line), curve)
    import itertools
    for perm in itertools.permutations(range(3)):
        lam = frame_lambda([pts[i].vec() for i in perm], x.vec())
        assert any(lam.close_to(PS(f(lam0.value())), tol=1e-6) for f in ANHARMONIC)


def test_parametrization_rank_is_three(curve):
    rng = np.random.RandomState(29)
    ranks = []
    for _ in range(5):
        u1 = complex(rng.randn(), rng.randn())
        u2 = complex(rng.randn(), rng.randn())
        t = complex(rng.randn(), rng.randn())
        try:
            ranks.append(ms.parametrization_rank(u1, u2, t, curve))
        except ValueError:
            continue
    assert ranks and all(r == 3 for r in ranks)


def test_incidence_parametrization_returns_its_line():
    # the chart's first two coordinates are the line l = {u1 Z1 + u2 Z2 + Z3 = 0}
    # itself, recovered through the S-class and tu_line, and its third is
    # psi_plus' lambda at x = [1 : t : -u1 - t u2]
    rng = np.random.RandomState(31)
    for _ in range(500):
        curve = CurveSpec(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2)))
        u1, u2, t = (complex(rng.randn(), rng.randn()) for _ in range(3))
        a, b, lam = ms.incidence_parametrization(u1, u2, t, curve)
        assert abs(a - u1) <= 1e-9 * max(1.0, abs(u1)), (curve, u1, u2, t)
        assert abs(b - u2) <= 1e-9 * max(1.0, abs(u2)), (curve, u1, u2, t)
        ip = ms.IncidencePoint(we.PlanePoint.of(1, t, -u1 - t * u2), we.PlaneLine.of(u1, u2, 1))
        assert lam == ms.psi_plus(ip, curve)[1].value()


def _det(p, q, i, j):
    return p[i] * q[j] - p[j] * q[i]


def test_line_chart_coordinates_match_least_squares():
    # q = alpha p1 + beta p2 on the line through p1 and p2: in the line's
    # chart the 2x2 determinants give beta and alpha up to one common factor
    rng = np.random.RandomState(31)
    for _ in range(500):
        a, b, c = (rng.randn(3) + 1j * rng.randn(3) for _ in range(3))
        p1, p2 = we.PlanePoint.of(*a), we.PlanePoint.of(*b)
        alpha, beta = c[0], c[1]
        q = we.PlanePoint.of(*(alpha * np.array(p1.vec()) + beta * np.array(p2.vec())))
        coeff, *_ = np.linalg.lstsq(np.column_stack([p1.vec(), p2.vec()]), q.vec(), rcond=None)
        want = ProjScalar(coeff[1], coeff[0])
        i, j = ms._line_chart(we.line_through_points(p1, p2))
        got = ProjScalar(_det(p1.vec(), q.vec(), i, j), _det(q.vec(), p2.vec(), i, j))
        assert got.close_to(want, tol=1e-12)


def test_line_chart_drops_the_largest_coefficient():
    for vec, kept in [((3, 1, 2), (1, 2)), ((1, -3j, 2), (0, 2)), ((1, 2, 3), (0, 1)),
                      ((1, 1, 1), (1, 2)), ((0, 1, 1), (0, 2))]:
        assert ms._line_chart(we.PlaneLine(*vec)) == kept


@pytest.mark.parametrize("s,t,double_first", [(0.1, 0.2, True), (0.7, 0.2, False),
                                              (0.15, 0.6, True), (0.8, 0.85, False)])
def test_psi_plus_on_a_tangent_is_an_exact_boundary_value(curve, s, t, double_first):
    # the double point sorts before or after the simple one; either way the
    # frame is two distinct points and lambda is exactly 0, 1 or inf
    d = jl.canon(complex(s + t * curve.tau), curve)
    simple = jl.neg(jl.add(d, d))
    line = we.tangent_line(d, curve)
    zs = jl.canonical_sort(we.intersect_curve(line, curve))
    assert we.multiplicities(zs) == ([2, 1] if double_first else [1, 2])
    ed, es = we.embed(d, curve), we.embed(simple, curve)
    for k in (0.37 - 0.2j, 2.5, -1.1j):
        x = we.PlanePoint.of(*(p + k * q for p, q in zip(ed.vec(), es.vec())))
        for point in (x, es):
            _, lam = ms.psi_plus(ms.IncidencePoint(point, line), curve)
            assert lam.is_inf or lam.num in (0, 1), lam


def test_psi_plus_on_a_flex_tangent_raises(curve):
    flex = exact(curve, Fraction(1, 3), Fraction(2, 3))
    line = we.tangent_line(flex, curve)
    x = we.lines_meet(line, we.PlaneLine.of(1, 2, 3))
    with pytest.raises(ms.ThreefoldCoincidenceError):
        ms.psi_plus(ms.IncidencePoint(x, line), curve)


@pytest.mark.parametrize("d", [5e-7, 1e-6, 2e-6, 4e-6, 8e-6])
def test_vertical_near_chord_gets_one_answer_everywhere(curve, d):
    # the vertical line through 0.5 +- d and the origin: with 2d near the
    # coincidence threshold, every entry point must read the same triple
    x = we.wp(0.5 + d, curve)[0]
    line = we.PlaneLine.of(1, 0, -x)
    count = ms.sigma_cover_count(line, curve)
    member, cusp = we.dual_sextic_contains(line, curve)
    mult = sorted(we.multiplicities(we.intersect_curve(line, curve)))
    resp, code = cli.run({"command": "intersect-line",
                          "payload": {"tau": [TAU.real, TAU.imag],
                                      "line": [1, 0, [-x.real, -x.imag]]}})
    assert code == cli.EXIT_OK
    cls, lam = ms.psi_plus(ms.IncidencePoint(we.PlanePoint.of(x, 0.7 + 0.2j, 1), line), curve)
    assert not cusp
    assert member == (count == 2)
    assert mult == {3: [1, 1, 1], 2: [1, 2]}[count]
    assert sorted(resp["result"]["multiplicities"]) == mult
    assert cls.label == {3: "T1", 2: "T21"}[count]
    if count == 2:
        assert lam.is_inf or lam.num in (0, 1), lam


def test_near_tangent_chords_are_chords_or_tangents_alike():
    # chords through z +- h with h log-uniform across the coincidence
    # threshold: sigma_cover_count and dual_sextic_contains must agree, and
    # the class read off the shared points must be classify_triple's
    rng = random.Random(5)
    taus = (1j, 0.5 + 1j, 0.3 + 1.1j, 0.1 + 0.9j, -0.2 + 1.4j)
    disagree, misclassified = [], []
    for i in range(2000):
        curve = CurveSpec(taus[i % len(taus)])
        while True:
            z = jl.canon(complex(rng.random() + rng.random() * curve.tau), curve)
            # away from the 2- and 3-torsion, where chords degenerate
            if all(math.hypot(*(min(c, 1 - c) for c in jl.mul(k, z).coords())) > 0.05
                   for k in (2, 3)):
                break
        h, theta = 10 ** rng.uniform(-9, -4), rng.uniform(0, 2 * math.pi)
        dz = h * math.cos(theta) + h * math.sin(theta) * curve.tau
        z1, z2 = jl.canon(z.value() + dz, curve), jl.canon(z.value() - dz, curve)
        line = we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve)
        count = ms.sigma_cover_count(line, curve)
        member, _ = we.dual_sextic_contains(line, curve)
        if member != (count != 3):
            disagree.append((curve.tau, h))
        pts = we.intersect_curve(line, curve)
        if ms._line_class(we._solved(line, curve)) != bd.classify_triple(*pts):
            misclassified.append((curve.tau, h))
    assert disagree == []
    assert misclassified == []


def _chord(curve, z1, z2):
    """The chord through z1, z2 and its incidence point on the line [1 : 2 : 3]."""
    line = we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve)
    return ms.IncidencePoint(we.lines_meet(line, we.PlaneLine.of(1, 2, 3)), line)


def _random_point(rng, curve):
    return jl.canon(complex(rng.random() + rng.random() * curve.tau), curve)


def test_psi_plus_on_near_tangent_chords_is_exactly_one_or_infinity():
    # a tangent answer frames lambda by where the double point sorts: first
    # gives 1, last gives inf, exactly, however near the chord came to a tangent
    rng = random.Random(43)
    inexact, tangents = [], 0
    for i in range(1500):
        curve = CurveSpec((1j, 0.5 + 1j, 0.3 + 1.1j)[i % 3])
        z = _random_point(rng, curve)
        h, theta = 10 ** rng.uniform(-9, -4), rng.uniform(0, 2 * math.pi)
        dz = h * math.cos(theta) + h * math.sin(theta) * curve.tau
        z1, z2 = jl.canon(z.value() + dz, curve), jl.canon(z.value() - dz, curve)
        cls, lam = ms.psi_plus(_chord(curve, z1, z2), curve)
        if cls.label == "T21":
            tangents += 1
            if not (lam.is_inf or lam.num == 1):
                inexact.append((curve.tau, h, lam))
    assert tangents > 500
    assert inexact == []


def test_psi_plus_frames_lambda_like_embedding_the_parameters():
    # the plane points the intersection solved for frame the line as the
    # embeddings of the parameters it returns do, near the pole too; the
    # near-pole chords whose triple the library refuses (a known defect of
    # the root clustering) have no lambda to compare
    rng = random.Random(47)
    chords = 0
    for i in range(1200):
        curve = CurveSpec((1j, 0.5 + 1j, 0.3 + 1.1j)[i % 3])
        if i % 3 == 0:
            z1 = jl.canon(10 ** rng.uniform(-6, -2) * cmath.exp(2j * math.pi * rng.random()), curve)
        else:
            z1 = _random_point(rng, curve)
        ip = _chord(curve, z1, _random_point(rng, curve))
        try:
            cls, lam = ms.psi_plus(ip, curve)
        except ValueError:
            assert i % 3 == 0
            continue
        if cls.label != "T1":
            continue
        chords += 1
        # the library's chart lambda, on the embedded points
        i, j = ms._line_chart(ip.line)
        p1, p2, p3 = (we.embed(z, curve).vec() for z in cls.triple)
        x = ip.x.vec()
        want = ProjScalar(_det(p1, p3, i, j) * _det(p2, x, i, j),
                          _det(p1, x, i, j) * _det(p2, p3, i, j))
        assert lam.close_to(want, tol=1e-13), (curve.tau, z1, lam, want)
    assert chords >= 1000


def test_psi_plus_on_a_steep_near_pole_chord_matches_mpmath():
    # near the pole the chord is nearly vertical (|v/u| ~ r/2): y read off the
    # line would carry x's roundoff times |u/v| into the two finite points
    mpmath = pytest.importorskip("mpmath")
    curve = CurveSpec(TAU)
    z1 = jl.canon(1e-4 * cmath.exp(0.3j), curve)
    z2 = jl.canon(0.37 + 0.21 * curve.tau, curve)
    z3 = jl.neg(jl.add(z1, z2))
    line = we.line_through(z1, z2, z3, curve)
    u, v, w = line.vec()
    assert 1e-5 < abs(v / u) < 1e-4
    # the oracle: the line's x-cubic solved in 50 digits, with y on the line
    with mpmath.workdps(50):
        g2, g3, _ = (mpmath.mpc(c) for c in we.curve_invariants(curve))
        mu, mv, mw = (mpmath.mpc(c) for c in (u, v, w))
        xs = mpmath.polyroots([4, -(mu / mv) ** 2, -g2 - 2 * (mu / mv) * (mw / mv),
                               -g3 - (mw / mv) ** 2], maxsteps=200, extraprec=200)
        for near in (z2, z3):
            # the incidence point 1e-5 along the line from a finite intersection point
            px, py = we.wp(near.value(), curve)
            x = we.PlanePoint.of(px - 1e-5 * v, py + 1e-5 * u, 1)
            cls, lam = ms.psi_plus(ms.IncidencePoint(x, line), curve)
            assert cls.label == "T1"
            ys = []
            for z in cls.triple:  # psi_plus' frame order
                root = min(xs, key=lambda r: abs(complex(r) - we.wp(z.value(), curve)[0]))
                ys.append(-(mu * root + mw) / mv)
            ys.append(mpmath.mpc(x.y) / mpmath.mpc(x.z))
            want = (ys[0] - ys[2]) * (ys[1] - ys[3]) / ((ys[0] - ys[3]) * (ys[1] - ys[2]))
            assert lam.close_to(ProjScalar(complex(want), 1), tol=1e-10), (lam, want)


def test_psi_plus_on_a_chord_makes_no_wp_calls(curve, monkeypatch):
    rng = random.Random(53)
    ips = [_chord(curve, _random_point(rng, curve), _random_point(rng, curve)) for _ in range(5)]
    calls = []
    wp = we.wp
    monkeypatch.setattr(we, "wp", lambda z, c: calls.append(z) or wp(z, c))
    for ip in ips:
        assert ms.psi_plus(ip, curve)[0].label == "T1"
    assert calls == []


def test_line_class_is_read_off_the_shared_points(curve, monkeypatch):
    # intersect_curve groups the triple once; sigma_cover_count and psi_plus
    # read the class off its shared points and do not group it again
    rng = random.Random(59)
    ip = _chord(curve, _random_point(rng, curve), _random_point(rng, curve))
    calls = {"classify_triple": 0, "equal": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bd, "classify_triple", counted("classify_triple", bd.classify_triple))
    monkeypatch.setattr(ms, "classify_triple", bd.classify_triple, raising=False)
    equal = counted("equal", jl.equal)
    monkeypatch.setattr(jl, "equal", equal)
    monkeypatch.setattr(we, "equal", equal, raising=False)
    for run in (lambda: ms.sigma_cover_count(ip.line, curve), lambda: ms.psi_plus(ip, curve)):
        calls.update(classify_triple=0, equal=0)
        run()
        # one grouping pass over three points (3 equal calls) and the zero-sum test (1)
        assert calls["classify_triple"] == 0 and calls["equal"] <= 4, calls


def _count_cubic_solves(monkeypatch, curve):
    # the curve's constants are computed first, so that every counted call
    # solves a line's x-cubic
    we._curve_constants(curve)
    calls = []
    cubic_roots = we._cubic_roots
    monkeypatch.setattr(we, "_cubic_roots", lambda *a: calls.append(a) or cubic_roots(*a))
    return calls


def test_count_and_fiber_coordinate_of_one_line_share_one_solve(curve, monkeypatch):
    rng = random.Random(73)
    ip = _chord(curve, _random_point(rng, curve), _random_point(rng, curve))
    calls = _count_cubic_solves(monkeypatch, curve)
    assert ms.sigma_cover_count(ip.line, curve) == 3
    cls, _ = ms.psi_plus(ip, curve)
    # a second point of the same fiber reads the same solve
    other = ms.IncidencePoint(we.lines_meet(ip.line, we.PlaneLine.of(3, -1, 2)), ip.line)
    assert ms.psi_plus(other, curve)[0] == cls
    assert len(calls) == 1


def test_a_refused_near_pole_chord_is_refused_alike_by_count_and_chart(curve, monkeypatch):
    # the root clustering loses the root near the lattice, and the triple no
    # longer sums to 0: both entry points refuse the one memoised solve
    ip = _chord(curve, jl.canon(1e-6, curve), jl.canon(0.37 + 0.21 * curve.tau, curve))
    calls = _count_cubic_solves(monkeypatch, curve)
    messages = []
    for run in (lambda: ms.sigma_cover_count(ip.line, curve), lambda: ms.psi_plus(ip, curve)):
        with pytest.raises(ValueError) as err:
            run()
        messages.append((type(err.value), str(err.value)))
    assert messages == [(ValueError, "triple does not sum to zero in the Jacobian")] * 2
    assert len(calls) == 1


def _count_class_builds(monkeypatch):
    calls = []
    shared_class = bd._shared_class
    monkeypatch.setattr(ms, "_shared_class", lambda zs: calls.append(zs) or shared_class(zs))
    return calls


def test_count_and_fiber_coordinate_of_one_line_build_its_class_once(curve, monkeypatch):
    # the line keeps its class with its intersection: the count, the chart and
    # a second point of the fiber read one class object, on a chord, a tangent
    # and a flex tangent (whose chart refuses after reading the class)
    rng = random.Random(79)
    d = _random_point(rng, curve)
    chord = _chord(curve, _random_point(rng, curve), _random_point(rng, curve)).line
    tangent = we.tangent_line(d, curve)
    flex = we.tangent_line(jl.torsion_points(3, curve)[4], curve)
    builds = _count_class_builds(monkeypatch)
    for line, count in ((chord, 3), (tangent, 2), (flex, 1)):
        builds.clear()
        assert ms.sigma_cover_count(line, curve) == count
        classes = []
        for other in (we.PlaneLine.of(1, 2, 3), we.PlaneLine.of(3, -1, 2)):
            ip = ms.IncidencePoint(we.lines_meet(line, other), line)
            try:
                classes.append(ms.psi_plus(ip, curve)[0])
            except ms.ThreefoldCoincidenceError:
                assert count == 1
        assert len(builds) == 1
        assert all(c is classes[0] for c in classes)


def test_a_fresh_equal_line_builds_its_class_again(curve, monkeypatch):
    rng = random.Random(83)
    ip = _chord(curve, _random_point(rng, curve), _random_point(rng, curve))
    builds = _count_class_builds(monkeypatch)
    cls = ms.psi_plus(ip, curve)[0]
    again = ms.psi_plus(ms.IncidencePoint(ip.x, we.PlaneLine(*ip.line.vec())), curve)[0]
    assert again is not cls and again == cls
    assert len(builds) == 2


def test_the_class_memo_is_freed_with_its_line(curve):
    rng = random.Random(89)
    ip = _chord(curve, _random_point(rng, curve), _random_point(rng, curve))
    assert ms.sigma_cover_count(ip.line, curve) == 3
    cls = weakref.ref(ms.psi_plus(ip, curve)[0])
    line = weakref.ref(ip.line)
    assert cls() is not None
    del ip
    assert line() is None and cls() is None


def test_a_refused_near_pole_triple_keeps_no_class(curve, monkeypatch):
    # a triple that does not sum to zero has no class to keep: both entry
    # points refuse it alike from the one memoised solve, building no class
    ip = _chord(curve, jl.canon(1e-6, curve), jl.canon(0.37 + 0.21 * curve.tau, curve))
    solves = _count_cubic_solves(monkeypatch, curve)
    builds = _count_class_builds(monkeypatch)
    messages = []
    for run in (lambda: ms.sigma_cover_count(ip.line, curve), lambda: ms.psi_plus(ip, curve),
                lambda: ms.sigma_cover_count(ip.line, curve)):
        with pytest.raises(ValueError) as err:
            run()
        messages.append((type(err.value), str(err.value)))
    assert messages == [(ValueError, "triple does not sum to zero in the Jacobian")] * 3
    assert len(solves) == 1 and builds == []


def _unitary(rng):
    q, _ = np.linalg.qr(rng.randn(3, 3) + 1j * rng.randn(3, 3))
    return q


@pytest.mark.parametrize("sigma,rank", [((1.0, 0.7, 0.4), 3), ((1.3, 1e-5, 1e-5), 3),
                                        ((2.0, 0.5, 1e-7), 2), ((1.0, 1e-7, 0.0), 1),
                                        ((0.8, 0.0, 0.0), 1)])
def test_parametrization_rank_of_a_stubbed_linear_chart(monkeypatch, sigma, rank):
    # a linear chart F = M (u1, u2, t) has the Jacobian M, whose singular
    # values are sigma: the rank counts those above tol = 1e-6
    rng = np.random.RandomState(97)
    for _ in range(20):
        M = _unitary(rng) @ np.diag(sigma) @ _unitary(rng)
        monkeypatch.setattr(ms, "_chart", lambda line, u1, u2, t, curve, frame=None: tuple(
            complex(f) for f in M @ np.array([u1, u2, t])))
        assert ms.parametrization_rank(0.3, -0.2j, 0.5 + 0.1j, CurveSpec(TAU)) == rank
        assert np.linalg.matrix_rank(M, tol=1e-6) == rank


def test_parametrization_rank_leaves_numpy_unloaded():
    code = ("import json, sys\n"
            "from ellpar import modspace as ms\n"
            "from ellpar.jaclattice import CurveSpec\n"
            "rank = ms.parametrization_rank(0.4 - 0.3j, -0.2 + 0.5j, 0.3 + 0.1j, CurveSpec(0.3 + 1.1j))\n"
            "print(json.dumps({'rank': rank, 'numpy': 'numpy' in sys.modules}))\n")
    src = str(Path(ms.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"rank": 3, "numpy": False}


def test_parametrization_rank_differences_lambda_in_the_base_line_frame():
    # dual-plane seed 32, operation 56,953: between the lines at u2 - step and
    # u2 + step two points swap places in the canonical order, so lambda read
    # in each line's own order jumps to its inverse; differenced in the base
    # line's order it is smooth, and the rank is 3
    curve = CurveSpec(0.5 + 1j)
    u1, u2 = -2.731088215501241 + 0.6602377235667871j, -0.14103109189129465 + 0.30509208976522406j
    t = 1.8221645527794699 + 0.039623948097617906j
    lam_p = ms.incidence_parametrization(u1, u2 + ms._RANK_STEP, t, curve)[2]
    lam_m = ms.incidence_parametrization(u1, u2 - ms._RANK_STEP, t, curve)[2]
    assert abs(lam_p * lam_m - 1) < 1e-3
    assert ms.parametrization_rank(u1, u2, t, curve, tol=1e-6) == 3


def test_lines_keep_their_points_in_canonical_order(curve):
    rng = random.Random(83)
    lines = [_chord(curve, _random_point(rng, curve), _random_point(rng, curve)).line
             for _ in range(20)]
    lines += [we.tangent_line(_random_point(rng, curve), curve),
              we.tangent_line(jl.torsion_points(3, curve)[4], curve), we.PlaneLine.of(1, 0, -2)]
    for line in lines:
        solved = we._solved(line, curve)
        assert [id(z) for z, _ in solved.order] == [
            id(z) for z in jl.canonical_sort(we.intersect_curve(line, curve))]
        assert sorted(map(id, solved.order)) == sorted(map(id, solved.hits))


def test_parametrization_rank_solves_each_distinct_line_once(curve, monkeypatch):
    # 6 evaluations of incidence_parametrization on 5 lines: t +- step lie
    # on the base point's line (u1, u2)
    u1, u2, t = 0.4 - 0.3j, -0.2 + 0.5j, 0.3 + 0.1j
    calls = _count_cubic_solves(monkeypatch, curve)
    assert ms.parametrization_rank(u1, u2, t, curve) == 3
    assert len(calls) == 5


@pytest.mark.parametrize("s,t,error,message", [
    # a tangent line whose double point sorts last: lambda is inf on all of it
    (Fraction(2, 5), Fraction(3, 10), ValueError, "fiber coordinate at infinity; choose another t"),
    # a flex tangent: the three points coincide
    (Fraction(1, 3), Fraction(1, 3), ms.ThreefoldCoincidenceError,
     "three of the four points coincide")])
def test_parametrization_rank_at_the_chart_edge_raises_from_the_base_line(curve, monkeypatch,
                                                                          s, t, error, message):
    # the base point is not evaluated on its own: the base line's error is
    # raised by its evaluation at t + step, after the four neighbouring lines
    line = we.tangent_line(exact(curve, s, t), curve)
    u1, u2 = line.u / line.w, line.v / line.w
    charts = []
    chart = ms._chart
    monkeypatch.setattr(ms, "_chart", lambda *a: charts.append(a[1:4]) or chart(*a))
    with pytest.raises(error, match=f"^{message}$"):
        ms.parametrization_rank(u1, u2, 0.3 + 0.1j, curve)
    assert len(charts) == 5 and charts[-1] == (u1, u2, 0.3 + 0.1j + 1e-5)
