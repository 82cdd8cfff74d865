import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ellpar import autgroup as ag
from ellpar import bundles as bd
from ellpar import cli
from ellpar import jaclattice as jl
from ellpar import modspace as ms
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
        inverses = [h for h in els if key(ag.compose(g, h)) == key(e)]
        assert len(inverses) == 1
        assert key(ag.compose(inverses[0], g)) == key(e)
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
                assert lhs == ag.act_class(a, ag.act_class(b, cls))


def test_act_class_preserves_label_category(curve):
    els = ag.group_elements(curve)
    t21 = bd.make_t21(exact(curve, Fraction(1, 5), Fraction(1, 7)))
    t33 = bd.make_t3x("T33", exact(curve, Fraction(1, 3), 0))
    for g in els:
        assert ag.act_class(g, t21).label == "T21"
        assert ag.act_class(g, t33).label == "T33"
        assert ag.act_class(g, t1_class(curve)).label == "T1"


def test_act_class_keeps_the_label_of_a_class_decided_at_a_finer_tol(curve):
    # two points 1e-7 apart make one T1 class at a tol of 1e-8, the class
    # built here as such a tol would decide it; the action moves the triple
    # and decides no coincidence again, at EQ_TOL or any other tol
    z1, z2 = jl.JacPoint(curve, 0.1, 0.2), jl.JacPoint(curve, 0.1 + 1e-7, 0.2)
    cls = bd.BundleClass("T1", triple=tuple(jl.canonical_sort([z1, z2, jl.neg(jl.add(z1, z2))])))
    for g in ag.group_elements(curve):
        moved = ag.act_class(g, cls)
        assert moved.label == "T1"
        assert moved.triple == tuple(jl.canonical_sort(ag.act_point(g, z) for z in cls.triple))


def _far(p, points, sep=1e-2):
    return all(jl.distance(p, q) >= sep for q in points)


def _transport_classes(n, seed=57):
    """Seeded T1 and T21 classes on curves with Im tau in [0.8, 2], each
    point at least 1e-2 from the others and from every 3-torsion point, and
    a T21 point 1e-2 from every 6-torsion point: the classes whose type no
    tolerance band can change."""
    rng = random.Random(seed)
    while n:
        curve = CurveSpec(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2)))
        flexes, six = jl.torsion_points(3, curve), jl.torsion_points(6, curve)
        z1 = jl.JacPoint(curve, rng.random(), rng.random())
        if n % 2:
            z2 = jl.JacPoint(curve, rng.random(), rng.random())
            triple = (z1, z2, jl.neg(jl.add(z1, z2)))
            if not all(_far(p, flexes) and _far(p, [q for q in triple if q is not p])
                       for p in triple):
                continue
            cls = bd.classify_triple(*triple)
        elif _far(z1, six) and _far(jl.mul(-2, z1), flexes):
            cls = bd.make_t21(z1)
        else:
            continue
        n -= 1
        yield curve, cls


def test_transport_round_trips_under_the_eighteen_elements():
    # class -> act_class(g) -> tu_line -> intersect_curve -> classify_triple
    # comes back to act_class(g, cls), and the line's Sigma count is the type's
    for curve, cls in _transport_classes(400):
        count = bd.type_facts(cls.label)[2]
        for g in ag.group_elements(curve):
            moved = ag.act_class(g, cls)
            line = bd.tu_line(moved, curve)
            back = bd.classify_triple(*we.intersect_curve(line, curve))
            assert cls_eq(back, moved)
            assert ms.sigma_cover_count(line, curve) == count


def test_act_class_moves_the_point_of_t22_t32_and_t33_classes(curve):
    # the moved point is act_point's, exact, and a flex again for T3x
    samples = [bd.make_t22(exact(curve, Fraction(1, 5), 0)),
               bd.make_t22(exact(curve, Fraction(2, 7), Fraction(3, 5)))]
    samples += [bd.make_t3x(label, p) for label in ("T32", "T33")
                for p in jl.torsion_points(3, curve)]
    for cls in samples:
        for g in ag.group_elements(curve):
            moved = ag.act_class(g, cls)
            assert moved.label == cls.label
            assert moved.point == ag.act_point(g, cls.point)
            assert moved.point.is_exact
            assert jl.is_torsion(moved.point, 3) == (cls.label != "T22")


def _adjugate(M):
    """The adjugate of a 3x3 matrix: M adj(M) = det(M) I."""
    cof = [[M[(i + 1) % 3][(j + 1) % 3] * M[(i + 2) % 3][(j + 2) % 3]
            - M[(i + 1) % 3][(j + 2) % 3] * M[(i + 2) % 3][(j + 1) % 3] for j in range(3)]
           for i in range(3)]
    return [[cof[j][i] for j in range(3)] for i in range(3)]


def test_tangents_transport_under_the_eighteen_lifts():
    # a point p on the line L maps to M p on the line L adj(M): the lift of g
    # carries the tangent at z to the tangent at g z
    rng = random.Random(61)
    worst = 0.0
    for _ in range(40):
        curve = CurveSpec(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2)))
        torsion = jl.torsion_points(2, curve) + jl.torsion_points(3, curve)
        zs = []
        while len(zs) < 5:
            z = jl.JacPoint(curve, rng.random(), rng.random())
            if _far(z, torsion):
                zs.append(z)
        for g in ag.group_elements(curve):
            adj = _adjugate(ag.act_plane(g, curve))
            for z in zs:
                L = we.tangent_line(z, curve).vec()
                moved = we.PlaneLine.of(*(sum(L[i] * adj[i][j] for i in range(3))
                                          for j in range(3)))
                want = we.tangent_line(ag.act_point(g, z), curve)
                worst = max(worst, math.hypot(*map(abs, we._cross(moved.vec(), want.vec()))))
    assert worst <= 1e-7


def test_a_float_given_element_is_its_exact_element(curve):
    # a shift sent as the floats of s + t*tau names one 3-torsion point, and
    # the element stores that point: equality and the group law read it
    els = ag.group_elements(curve)
    floats = [ag.ModularAuto(jl.canon(g.shift.value(), curve), g.dual) for g in els]
    assert floats == els
    for a, fa in zip(els, floats):
        for b, fb in zip(els, floats):
            assert ag.compose(fa, fb) == ag.compose(a, b)


def test_dual_negates_triples_and_shift_translates(curve):
    t1 = t1_class(curve)
    dual = ag.ModularAuto(jl.zero(curve), True)
    image = ag.act_class(dual, t1)
    for z in t1.triple:
        assert any(jl.equal(jl.neg(z), q, tol=1e-9) for q in image.triple)
    t = exact(curve, 0, Fraction(1, 3))
    t31 = bd.make_t3x("T31", exact(curve, Fraction(1, 3), 0))
    shifted = ag.act_class(ag.ModularAuto(t, False), t31)
    assert shifted.label == "T31"
    assert jl.equal(shifted.point, jl.add(t31.point, t), tol=1e-9)


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
    # one image point for every z: the 16 rows have rank 2 (the identity is
    # not solved for, so the dualisation is)
    point = we.embed(jl.JacPoint(curve, 0.3, 0.4), curve)
    monkeypatch.setattr(ag, "embed", lambda z, c: point)
    with pytest.raises(ValueError, match="^ill-conditioned correspondence system$"):
        ag.act_plane(ag.ModularAuto(jl.zero(curve), True), curve)


@pytest.mark.parametrize("tau", [0.3294 + 0.8462j, 0.3 + 1.1j])
def test_act_plane_lifts_the_identity_exactly(tau):
    # at tau = 0.3294+0.8462i the 8 sample correspondences of the identity
    # once made a system the conditioning cut refused; a shift 1e-17 off 0
    # names the identity too, and is stored as it
    curve = CurveSpec(tau)
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for shift in (jl.zero(curve), jl.JacPoint(curve, 0.0, 0.0), jl.JacPoint(curve, 1e-17, 0.0)):
        g = ag.ModularAuto(shift, False)
        assert ag.act_plane(g, curve) == eye and g == ag.identity(curve)


def test_act_plane_embeds_16_points_over_one_series_table(curve, monkeypatch):
    # bench/selftest.py pins 16 embed calls per lift; each evaluates the public
    # wp, and the 16 evaluations share one series table of the curve
    embeds, wps = [], []
    embed, wp = ag.embed, we.wp
    monkeypatch.setattr(ag, "embed", lambda z, c: embeds.append(z) or embed(z, c))
    monkeypatch.setattr(we, "wp", lambda z, c: wps.append(z) or wp(z, c))
    we._wp_series.cache_clear()
    ag.act_plane(ag.group_elements(curve)[4], curve)
    info = we._wp_series.cache_info()
    assert len(embeds) == len(wps) == 16
    assert (info.misses, info.hits) == (1, 15)


def test_act_plane_pivot_is_exactly_one():
    # the scale rule divides by the pivot, and x / x need not be exactly 1 in
    # complex arithmetic; the pivot is set to 1, which the CLI prints as 1.0
    rng = random.Random(89)
    for k in range(150):
        curve = CurveSpec(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3)))
        for g in ag.group_elements(curve)[k % 2::2]:
            M = ag.act_plane(g, curve)
            flat = [x for row in M for x in row]
            big = max(map(abs, flat))
            pivot = next(i for i, x in enumerate(flat) if abs(x) >= big / 2)
            assert flat[pivot] == 1
            printed = [c for row in cli.ser_matrix(M) for c in row][pivot]
            assert type(printed) is float and printed == 1.0
