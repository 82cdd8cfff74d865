import math
from fractions import Fraction

import numpy as np
import pytest

from ellpar import autgroup as ag
from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import parabolic as pa
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec
from ellpar.parabolic import ProjScalar

from conftest import TAU, count_calls, exact


def key(g):
    return ((g.shift.s, g.shift.t), g.dual)


def cls_eq(a, b, tol=1e-9):
    if a.label != b.label:
        return False
    if a.label == "T1":
        return all(jl.equal(p, q, tol=tol) for p, q in zip(a.triple, b.triple))
    return jl.equal(a.point, b.point, tol=tol)


def t1_class(curve):
    z1 = exact(curve, Fraction(1, 5), 0)
    z2 = exact(curve, 0, Fraction(1, 7))
    return bd.classify_triple(z1, z2, jl.neg(jl.add(z1, z2)))


def test_shift_must_be_torsion(curve):
    with pytest.raises(ValueError):
        ag.ModularAuto(exact(curve, Fraction(1, 5), 0), False)


def test_group_has_order_18_and_closes(curve):
    els = ag.group_elements(curve)
    assert len(els) == 18
    keys = {key(g) for g in els}
    assert len(keys) == 18
    for a in els:
        for b in els:
            assert key(ag.compose(a, b)) in keys


def test_identity_and_inverses(curve):
    els = ag.group_elements(curve)
    e = ag.identity(curve)
    for g in els:
        assert key(ag.compose(g, ag.inverse(g))) == key(e)
        assert key(ag.compose(ag.inverse(g), g)) == key(e)
        assert key(ag.compose(g, e)) == key(g)
    # dual-containing elements are involutions
    for g in els:
        if g.dual:
            assert key(ag.compose(g, g)) == key(e)


def test_associativity_exhaustive(curve):
    els = ag.group_elements(curve)
    for a in els[::3]:
        for b in els[::2]:
            for c in els[::4]:
                assert key(ag.compose(ag.compose(a, b), c)) == key(ag.compose(a, ag.compose(b, c)))


def test_act_class_is_a_group_action(curve):
    els = ag.group_elements(curve)
    samples = [t1_class(curve),
               bd.make_t21(exact(curve, Fraction(1, 5), Fraction(1, 7))),
               bd.make_t22(exact(curve, Fraction(2, 5), 0)),
               bd.make_t3x("T31", exact(curve, Fraction(1, 3), 0)),
               bd.make_t3x("T32", exact(curve, Fraction(2, 3), Fraction(1, 3))),
               bd.make_t3x("T33", exact(curve, 0, Fraction(1, 3)))]
    for cls in samples:
        for a in els:
            for b in els:
                lhs = ag.act_class(ag.compose(a, b), cls)
                rhs = ag.act_class(a, ag.act_class(b, cls))
                assert cls_eq(lhs, rhs)


def test_act_class_preserves_label_category(curve):
    els = ag.group_elements(curve)
    t21 = bd.make_t21(exact(curve, Fraction(1, 5), Fraction(1, 7)))
    t33 = bd.make_t3x("T33", exact(curve, Fraction(1, 3), 0))
    for g in els:
        assert ag.act_class(g, t21).label == "T21"
        assert ag.act_class(g, t33).label == "T33"
        assert ag.act_class(g, t1_class(curve)).label == "T1"


def test_dual_negates_triples_and_shift_translates(curve):
    t1 = t1_class(curve)
    dual = ag.ModularAuto(jl.zero(curve), True)
    image = ag.act_class(dual, t1)
    for z in t1.triple:
        assert any(jl.equal(jl.neg(z), q) for q in image.triple)
    t = exact(curve, 0, Fraction(1, 3))
    t31 = bd.make_t3x("T31", exact(curve, Fraction(1, 3), 0))
    shifted = ag.act_class(ag.ModularAuto(t, False), t31)
    assert shifted.label == "T31"
    assert jl.equal(shifted.point, jl.add(t31.point, t))


def test_act_plane_identity_and_dual(curve):
    e = ag.identity(curve)
    M = np.array(ag.act_plane(e, curve))
    assert np.allclose(M / M[0, 0], np.eye(3), atol=1e-7)
    Md = np.array(ag.act_plane(ag.ModularAuto(jl.zero(curve), True), curve))
    assert np.allclose(Md / Md[0, 0], np.diag([1, -1, 1]), atol=1e-7)


@pytest.mark.parametrize("tau", [0.3 + 1.1j, 0.1 + 0.9j, 0.5 + 1j, 2j, -0.4 + 1.3j, 0.25 + 1.7j])
def test_act_plane_scale_is_deterministic(tau):
    # the dualisation's largest entries tie in modulus; the printed matrix
    # must not take its sign from roundoff
    curve = CurveSpec(tau)
    assert np.allclose(ag.act_plane(ag.identity(curve), curve), np.eye(3), atol=1e-7)
    Md = ag.act_plane(ag.ModularAuto(jl.zero(curve), True), curve)
    assert np.allclose(Md, np.diag([1, -1, 1]), atol=1e-7)

    def normalised(M):
        big = np.abs(M).max()
        return M / next(x for x in M.flat if abs(x) >= big / 2)

    elems = ag.group_elements(curve)
    mats = [np.array(ag.act_plane(g, curve)) for g in elems]
    for M in mats:
        # no entry sits where roundoff could move it across the cut-off
        assert np.abs(np.abs(M) / np.abs(M).max() - 0.5).min() > 1e-6
    # a product of two lifts, normalised by the same rule, lands on the
    # lift of the composition: the representative does not depend on how
    # the projective matrix was computed
    for g1, M1 in zip(elems, mats):
        for g2, M2 in zip(elems, mats):
            M12 = mats[next(k for k, g in enumerate(elems) if key(g) == key(ag.compose(g1, g2)))]
            assert np.allclose(normalised(M1 @ M2), M12, atol=1e-7)


def test_act_plane_preserves_cubic_and_flexes(curve):
    rng = np.random.RandomState(31)
    flexes = [we.embed(p, curve) for p in jl.torsion_points(3, curve)]
    for g in [ag.ModularAuto(exact(curve, Fraction(1, 3), Fraction(2, 3)), True),
              ag.ModularAuto(exact(curve, 0, Fraction(1, 3)), False)]:
        M = ag.act_plane(g, curve)
        for _ in range(10):
            z = jl.canon(complex(rng.rand() + rng.rand() * curve.tau), curve)
            p = we.embed(z, curve)
            q = we.PlanePoint.of(*(M @ np.array([p.x, p.y, p.z])))
            assert we.cubic_residual(q, curve) < 1e-6
        imgs = [we.PlanePoint.of(*(M @ np.array([f.x, f.y, f.z]))) for f in flexes]
        for img in imgs:
            assert any(img.close_to(f, tol=1e-5) for f in flexes)


def test_tu_line_compatibility(curve):
    g = ag.ModularAuto(exact(curve, Fraction(1, 3), Fraction(2, 3)), True)
    M = ag.act_plane(g, curve)
    cls = t1_class(curve)
    moved = bd.tu_line(ag.act_class(g, cls), curve)
    line = bd.tu_line(cls, curve)
    dual_action = np.array([line.u, line.v, line.w]) @ np.linalg.inv(M)
    assert we.PlaneLine.of(*dual_action).close_to(moved, tol=1e-5)


def test_act_parabolic_involution_and_locus(curve):
    cls = t1_class(curve)
    coord = ProjScalar(0.37 + 0.21j, 1)
    dual = ag.ModularAuto(jl.zero(curve), True)
    c1, s1, ch1 = ag.act_parabolic(dual, cls, coord, pa.CHAMBER_MINUS)
    c2, s2, ch2 = ag.act_parabolic(dual, c1, s1, ch1)
    assert cls_eq(c2, cls) and s2.close_to(coord) and ch2 == pa.CHAMBER_MINUS
    # shifts leave the fiber coordinate alone
    sh = ag.ModularAuto(exact(curve, Fraction(1, 3), 0), False)
    _, s3, _ = ag.act_parabolic(sh, cls, coord, pa.CHAMBER_MINUS)
    assert s3.close_to(coord)


def test_group_elements_build_three_coordinates(curve, monkeypatch):
    # the nine shifts are the 3-torsion points, whose coordinates take three
    # values; the dual half of the group reuses the same shifts
    calls = []
    count_calls(monkeypatch, calls, Fraction, ("__new__",))
    els = ag.group_elements(curve)
    assert len(calls) == 3
    assert [g.shift for g in els[:9]] == [g.shift for g in els[9:]]
    assert [g.dual for g in els] == [False] * 9 + [True] * 9


def _act_plane_reference(g, curve):
    """act_plane as a numpy DLT, ndarray throughout: the reference for the
    lift's plain-Python rows."""
    base = [jl.canon(complex(0.2718 + 0.0531 * k + (0.3141 + 0.0377 * k * k) * curve.tau),
                     curve) for k in range(8)]
    rows = []
    for z in base:
        x = np.array(we.embed(z, curve).vec())
        xp = np.array(we.embed(ag.act_point(g, z), curve).vec())
        zero3 = np.zeros(3, dtype=complex)
        rows.append(np.concatenate([zero3, -xp[2] * x, xp[1] * x]))
        rows.append(np.concatenate([xp[2] * x, zero3, -xp[0] * x]))
    _, s, vh = np.linalg.svd(np.array(rows))
    if s[-2] < 1e-8 * s[0]:
        raise ValueError("ill-conditioned correspondence system")
    M = vh.conj()[-1].reshape(3, 3)
    big = np.abs(M).max()
    return M / next(x for x in M.flat if abs(x) >= big / 2)


def _proj_dist(a, b):
    """Chordal distance between two points of the projective plane."""
    na = math.sqrt(sum(abs(x) ** 2 for x in a))
    nb = math.sqrt(sum(abs(x) ** 2 for x in b))
    return math.sqrt(sum(abs(c) ** 2 for c in we._cross(a, b))) / (na * nb)


@pytest.mark.parametrize("tau", [1j, 0.5 + 1j, 0.3 + 1.1j, 2j, 0.25 + 1.7j, -0.4 + 1.3j])
def test_act_plane_matches_the_numpy_dlt(tau):
    curve = CurveSpec(tau)
    rng = np.random.RandomState(43)
    zs = [jl.JacPoint(curve, rng.rand(), rng.rand()) for _ in range(10)]
    for g in ag.group_elements(curve):
        M = ag.act_plane(g, curve)
        assert all(type(x) is complex for row in M for x in row)
        assert np.abs(np.array(M) - _act_plane_reference(g, curve)).max() <= 1e-12
        for z in zs:
            p = we.embed(z, curve).vec()
            image = [sum(m * x for m, x in zip(row, p)) for row in M]
            assert _proj_dist(image, we.embed(ag.act_point(g, z), curve).vec()) <= 1e-12


def test_act_plane_refuses_a_degenerate_correspondence(curve, monkeypatch):
    # one image point for every z: the 16 rows have rank 2
    point = we.embed(jl.JacPoint(curve, 0.3, 0.4), curve)
    monkeypatch.setattr(ag, "embed", lambda z, c: point)
    with pytest.raises(ValueError, match="^ill-conditioned correspondence system$"):
        ag.act_plane(ag.identity(curve), curve)
