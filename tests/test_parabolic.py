from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import parabolic as pa
from ellpar.jaclattice import CurveSpec
from ellpar.weierstrass import PlaneLine, PlanePoint, line_through_points, lines_meet

from conftest import TAU, exact


def t1_class(curve):
    z1 = exact(curve, Fraction(1, 5), 0)
    z2 = exact(curve, 0, Fraction(1, 7))
    return bd.classify_triple(z1, z2, jl.neg(jl.add(z1, z2)))


def test_make_weights_normalizes_and_classifies():
    w, ch = pa.make_weights(Fraction(1, 5), Fraction(1, 10), Fraction(-3, 10))
    assert ch == pa.CHAMBER_PLUS and w.as_tuple() == (Fraction(1, 5), Fraction(1, 10), Fraction(-3, 10))
    w, ch = pa.make_weights(Fraction(1, 2), Fraction(1, 5), Fraction(1, 5))
    assert ch == pa.CHAMBER_MINUS
    assert w.as_tuple() == (Fraction(1, 5), Fraction(-1, 10), Fraction(-1, 10))
    _, ch = pa.make_weights(Fraction(1, 3), 0, Fraction(-1, 3))
    assert ch == pa.CHAMBER_WALL
    with pytest.raises(pa.InadmissibleWeightsError):
        pa.make_weights(Fraction(2, 3), Fraction(2, 3), Fraction(-4, 3))


def test_flag_requires_incidence():
    with pytest.raises(pa.FlagIncidenceError):
        pa.Flag(PlanePoint.of(1, 0, 0), PlaneLine.of(1, 0, 0))
    pa.Flag(PlanePoint.of(0, 1, 0), PlaneLine.of(1, 0, 0))


def test_induced_pardeg_rules(curve):
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    w = pa.PROBE_PLUS
    assert pa.induced_pardeg(PlanePoint.of(1, 1, 1), flag, w) == w.mu1
    on_line = PlanePoint.of(2, 1, 0)  # 2 - 2 + 0 = 0
    assert pa.induced_pardeg(on_line, flag, w) == w.mu2
    assert pa.induced_pardeg(PlanePoint.of(1, 0, 0), flag, w) == w.mu3
    assert pa.induced_pardeg(PlaneLine.of(1, -2, 1), flag, w) == w.mu1 + w.mu2
    through_p = PlaneLine.of(1, 0, -1)
    assert pa.induced_pardeg(through_p, flag, w) == w.mu1 + w.mu3
    assert pa.induced_pardeg(PlaneLine.of(1, 0, 0), flag, w) == w.mu2 + w.mu3


def test_line_degrees_are_pair_sums_of_float_weights():
    # float weights sum to 0 only up to rounding, so a line's degree is the sum
    # of its two weights, not minus the third; the sums are formed once
    w, _ = pa.make_weights(0.1, 0.2, -0.3)
    assert w.mu1 + w.mu3 != -w.mu2
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    for line, want in ((PlaneLine.of(1, -2, 1), w.mu1 + w.mu2),
                       (PlaneLine.of(1, 0, -1), w.mu1 + w.mu3),
                       (PlaneLine.of(1, 0, 0), w.mu2 + w.mu3)):
        assert pa.induced_pardeg(line, flag, w) == want
    assert w.pair_sums is w.pair_sums


def test_stability_known_examples(curve):
    t1 = t1_class(curve)
    generic = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    assert pa.stability(t1, generic, pa.PROBE_PLUS).status == "Stable"
    assert pa.stability(t1, generic, pa.PROBE_MINUS).status == "Stable"
    special = pa.Flag(PlanePoint.of(1, 1, 0), PlaneLine.of(1, -1, -1))
    assert pa.stability(t1, special, pa.PROBE_PLUS).status == "Stable"
    v = pa.stability(t1, special, pa.PROBE_MINUS)
    assert v.status == "Unstable"
    assert isinstance(v.witness.locus, PlaneLine)
    assert v.witness.locus.close_to(PlaneLine.of(0, 0, 1))


def test_zero_weights_always_strictly_semistable(curve):
    w = pa.Weights(Fraction(0), Fraction(0), Fraction(0))
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    for label in bd.LABELS:
        if label == "T1":
            cls = t1_class(curve)
        elif label in ("T21", "T22"):
            cls = bd.BundleClass(label, point=exact(curve, Fraction(1, 5), 0))
        else:
            cls = bd.make_t3x(label, exact(curve, Fraction(1, 3), 0))
        assert pa.stability(cls, flag, w).status == "StrictlySemistable"


def test_never_stable_types(curve):
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    for label in ("T22", "T32", "T33"):
        if label == "T22":
            cls = bd.make_t22(exact(curve, Fraction(1, 5), 0))
        else:
            cls = bd.make_t3x(label, exact(curve, Fraction(1, 3), 0))
        for w in (pa.PROBE_MINUS, pa.PROBE_PLUS):
            assert pa.stability(cls, flag, w).status == "Unstable"


def test_shift_invariance_of_verdicts(curve):
    t1 = t1_class(curve)
    flag = pa.Flag(PlanePoint.of(1, 2, 3), PlaneLine.of(1, 1, -1))
    w1, _ = pa.make_weights(Fraction(1, 5), Fraction(1, 10), Fraction(-3, 10))
    w2, _ = pa.make_weights(Fraction(1, 5) + 7, Fraction(1, 10) + 7, Fraction(-3, 10) + 7)
    assert w1 == w2
    assert pa.stability(t1, flag, w1) == pa.stability(t1, flag, w2)


def test_chamber_constancy(curve):
    t1 = t1_class(curve)
    rng = np.random.RandomState(9)
    weights_minus = [pa.make_weights(Fraction(k, 40), Fraction(-k, 80), Fraction(-k, 80))[0]
                     for k in (4, 8, 12, 16, 20)]
    flags = []
    while len(flags) < 25:
        p = PlanePoint.of(*(rng.randn(3) + 1j * rng.randn(3)))
        q = PlanePoint.of(*(rng.randn(3) + 1j * rng.randn(3)))
        l = line_through_points(p, q)
        flags.append(pa.Flag(p, l))
    for flag in flags:
        verdicts = {pa.stability(t1, flag, w).status for w in weights_minus}
        assert len(verdicts) == 1


def test_locus_examples(curve):
    t1 = t1_class(curve)
    assert pa.locus(t1, pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))) == pa.LOCUS_UGEN
    lm = line_through_points(PlanePoint.of(1, 0, 0), PlanePoint.of(1, 1, 1))
    assert pa.locus(t1, pa.Flag(PlanePoint.of(1, 1, 1), lm)) == pa.LOCUS_SIGMA_MINUS
    assert pa.locus(t1, pa.Flag(PlanePoint.of(1, 1, 0), PlaneLine.of(1, -1, -1))) == pa.LOCUS_SIGMA_PLUS
    # flag point at a fixed point of the configuration: stable nowhere
    l_through_e1 = PlaneLine.of(0, 1, -1)
    assert pa.locus(t1, pa.Flag(PlanePoint.of(1, 0, 0), l_through_e1)) == pa.LOCUS_NEITHER


@given(x=st.floats(-50, 50, allow_nan=False), y=st.floats(-50, 50, allow_nan=False))
@example(x=1.0, y=5e-324)  # t - 1 is subnormal: t/(t - 1) overflows to infinity
def test_flip_is_an_involution(x, y):
    t = pa.ProjScalar(complex(x, y), 1)
    assert pa.flip(pa.flip(t)).close_to(t, tol=1e-12)


def test_flip_boundary_permutation():
    assert pa.flip(pa.ProjScalar(0, 1)).close_to(pa.ProjScalar(0, 1))
    assert pa.flip(pa.ProjScalar(1, 1)).is_inf
    assert pa.flip(pa.PROJ_INF).close_to(pa.ProjScalar(1, 1))
    assert pa.flip(pa.ProjScalar(2, 1)).close_to(pa.ProjScalar(2, 1))


def test_normalize_flag_identity_case(curve):
    t1 = t1_class(curve)
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(-2, 1, 1))
    t, gauge = pa.normalize_flag(t1, flag, pa.CHAMBER_MINUS)
    assert t.close_to(pa.ProjScalar(2, 1))
    assert np.allclose(gauge, np.eye(3))


def test_normalize_flag_pplus_readoff(curve):
    t1 = t1_class(curve)
    flag = pa.Flag(PlanePoint.of(0, 1, 1), PlaneLine.of(1, 1, -1))
    lam, _ = pa.normalize_flag(t1, flag, pa.CHAMBER_PLUS)
    assert lam.close_to(pa.ProjScalar(0, 1))


def test_normalize_flag_requires_stability(curve):
    t1 = t1_class(curve)
    # point on a coordinate line: unstable in Pminus
    flag = pa.Flag(PlanePoint.of(1, 1, 0), PlaneLine.of(1, -1, -1))
    with pytest.raises(pa.NotStableError):
        pa.normalize_flag(t1, flag, pa.CHAMBER_MINUS)


@pytest.mark.parametrize("label", ["T1", "T21", "T31"])
def test_normalize_flag_roundtrip_under_gauge(curve, label):
    if label == "T1":
        cls = t1_class(curve)
    elif label == "T21":
        cls = bd.make_t21(exact(curve, Fraction(1, 5), 0))
    else:
        cls = bd.make_t3x("T31", exact(curve, Fraction(1, 3), 0))
    rng = np.random.RandomState(hash(label) % 2**31)
    done = 0
    while done < 30:
        tt = complex(rng.randn(), rng.randn())
        try:
            base = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(-tt, 1, tt - 1))
        except pa.FlagIncidenceError:
            continue
        if pa.stability(cls, base, pa.PROBE_MINUS).status != "Stable":
            continue
        # scramble by a random element of the class's gauge group
        if label == "T1":
            g = np.diag(rng.randn(3) + 1j * rng.randn(3))
        elif label == "T21":
            a, b, c = rng.randn(3) + 1j * rng.randn(3)
            g = np.array([[a, b, 0], [0, a, 0], [0, 0, c]], dtype=complex)
        else:
            a, b, c = rng.randn(3) + 1j * rng.randn(3)
            g = np.array([[a, b, c], [0, a, b], [0, 0, a]], dtype=complex)
        if abs(np.linalg.det(g)) < 1e-6:
            continue
        scrambled = pa.apply_gauge(g, base)
        t2, _ = pa.normalize_flag(cls, scrambled, pa.CHAMBER_MINUS)
        assert t2.close_to(pa.ProjScalar(tt, 1), tol=1e-7)
        done += 1


def test_normalize_flag_trusts_stability_near_coordinate_lines(curve):
    # flags near, not on, the lines the gauge groups preserve: stability calls
    # them Stable by the scale-relative incidence test, and normalize_flag must
    # then return the gauge-invariant coordinate
    t1 = t1_class(curve)
    t21 = bd.make_t21(exact(curve, Fraction(1, 5), 0))
    P = PlanePoint.of(1, 1e-5, 1e-8)
    L = line_through_points(P, PlanePoint.of(0.3, -0.7, 1.1))
    Lp = PlaneLine.of(1, 1e-5, 1e-8)
    Pp = lines_meet(Lp, PlaneLine.of(0.3, -0.7, 1.1))
    (p1, p2, _), (u, v, _) = P.vec(), L.vec()
    cases = [
        (t1, pa.Flag(P, L), pa.CHAMBER_MINUS, pa.ProjScalar(-u * p1, v * p2)),
        (t21, pa.Flag(P, L), pa.CHAMBER_MINUS, pa.ProjScalar(-u * p2, u * p1 + (v - u) * p2)),
        (t1, pa.Flag(Pp, Lp), pa.CHAMBER_PLUS, pa.ProjScalar(-Lp.u * Pp.x, Lp.w * Pp.z)),
    ]
    for cls, flag, chamber, expected in cases:
        probe = pa.PROBE_MINUS if chamber == pa.CHAMBER_MINUS else pa.PROBE_PLUS
        assert pa.stability(cls, flag, probe).status == "Stable"
        got, _ = pa.normalize_flag(cls, flag, chamber)
        assert got.close_to(expected, tol=1e-9)
