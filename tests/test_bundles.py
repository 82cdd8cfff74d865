import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellpar import autgroup as ag
from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec, JacPoint

from conftest import (TAU, classify_triple_reference, count_calls, exact,
                      snap_to_torsion_reference)

fractions = st.fractions(min_value=0, max_value=1, max_denominator=30)


def t1_class(curve):
    z1 = exact(curve, Fraction(1, 5), 0)
    z2 = exact(curve, 0, Fraction(1, 7))
    return bd.classify_triple(z1, z2, jl.neg(jl.add(z1, z2)))


def test_classify_triple_distinct_is_t1(curve):
    cls = t1_class(curve)
    assert cls.label == "T1"
    assert len(cls.triple) == 3


def test_classify_triple_rejects_nonzero_sum(curve):
    z = exact(curve, Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        bd.classify_triple(z, z, z)


def test_classify_triple_double_is_t21(curve):
    z = exact(curve, Fraction(1, 5), 0)
    cls = bd.classify_triple(z, z, jl.neg(jl.mul(2, z)))
    assert cls.label == "T21"
    assert jl.equal(cls.point, z, tol=1e-9)


def test_classify_triple_triple_is_t31(curve):
    z = exact(curve, Fraction(1, 3), Fraction(2, 3))
    cls = bd.classify_triple(z, z, z)
    assert cls.label == "T31"
    assert cls.point == z


@given(s=fractions, t=fractions)
@settings(max_examples=40)
def test_graded_sums_to_zero_every_type(s, t):
    curve = CurveSpec(TAU)
    z = jl.canon((s, t), curve)
    for label in bd.LABELS:
        if label == "T1":
            z2 = exact(curve, Fraction(1, 11), Fraction(2, 11))
            try:
                cls = bd.classify_triple(z, z2, jl.neg(jl.add(z, z2)))
            except ValueError:
                continue
        elif label in ("T21", "T22"):
            if jl.mul(3, z).is_zero(tol=1e-9):
                continue
            cls = bd.BundleClass(label, point=z)
        else:
            cls = bd.make_t3x(label, exact(curve, Fraction(1, 3), 0))
        g = bd.graded(cls)
        assert jl.add(jl.add(g[0], g[1]), g[2]).is_zero(tol=1e-9)


def test_constructors_enforce_torsion_conditions(curve):
    torsion = exact(curve, Fraction(1, 3), 0)
    generic = exact(curve, Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        bd.make_t21(torsion)
    with pytest.raises(ValueError):
        bd.make_t22(torsion)
    with pytest.raises(ValueError):
        bd.make_t3x("T31", generic)
    assert bd.make_t21(generic).label == "T21"
    assert bd.make_t3x("T33", torsion).label == "T33"


def test_tu_line_matches_intersection(curve):
    cls = t1_class(curve)
    line = bd.tu_line(cls, curve)
    pts = we.intersect_curve(line, curve)
    for z in cls.triple:
        assert any(jl.equal(z, q, tol=1e-6) for q in pts)


def _random_curve(rng) -> CurveSpec:
    return CurveSpec(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2)))


def _back_through_the_line(cls) -> bd.BundleClass:
    """cls -> tu_line -> intersect_curve -> classify_triple."""
    return bd.classify_triple(*we.intersect_curve(bd.tu_line(cls, cls.curve), cls.curve))


def test_a_generic_t1_class_comes_back_through_its_line():
    # Tu's bijection checked on its own inverse, away from coincidences and
    # from the lattice, where the intersection is well conditioned
    rng = random.Random(11)
    done = 0
    while done < 300:
        curve = _random_curve(rng)
        z1, z2 = (JacPoint(curve, rng.random(), rng.random()) for _ in range(2))
        zs = (z1, z2, jl.neg(jl.add(z1, z2)))
        pairs = itertools.combinations((*zs, jl.zero(curve)), 2)
        if min(jl.distance(p, q) for p, q in pairs) < 1e-2:
            continue
        done += 1
        back = _back_through_the_line(bd.classify_triple(*zs))
        assert back.label == "T1", zs
        assert all(min(jl.distance(z, q) for q in back.triple) <= 1e-9 for z in zs), zs


def test_a_t21_class_away_from_the_2_and_3_torsion_comes_back_through_its_line():
    rng = random.Random(13)
    done = 0
    while done < 300:
        curve = _random_curve(rng)
        z = JacPoint(curve, rng.random(), rng.random())
        torsion = jl.torsion_points(2, curve) + jl.torsion_points(3, curve)
        if min(jl.distance(z, q) for q in torsion) < 1e-2:
            continue
        done += 1
        back = _back_through_the_line(bd.make_t21(z))
        assert back.label == "T21" and jl.distance(back.point, z) <= 1e-9, z


coords = st.floats(0, 1, exclude_max=True)
curves = st.builds(lambda re, im: CurveSpec(complex(re, im)), st.floats(-0.5, 0.5),
                   st.floats(0.8, 2))


@given(curve=curves, s1=coords, t1=coords, s2=coords, t2=coords)
@settings(max_examples=150, deadline=None)
def test_any_generic_t1_class_comes_back_through_its_line(curve, s1, t1, s2, t2):
    # as above, on the points hypothesis draws: separations, and distances
    # to the 2-torsion, at least 1e-2; a point at a 2-torsion point, where
    # P' = 0, comes back only to about sqrt(eps)
    z1, z2 = JacPoint(curve, s1, t1), JacPoint(curve, s2, t2)
    zs = (z1, z2, jl.neg(jl.add(z1, z2)))
    assume(min(jl.distance(p, q) for p, q in itertools.combinations(zs, 2)) >= 1e-2)
    assume(min(jl.distance(z, q) for z in zs for q in jl.torsion_points(2, curve)) >= 1e-2)
    back = _back_through_the_line(bd.classify_triple(*zs))
    assert back.label == "T1"
    assert all(min(jl.distance(z, q) for q in back.triple) <= 1e-9 for z in zs)


@given(curve=curves, s=coords, t=coords)
@settings(max_examples=150, deadline=None)
def test_any_t21_class_away_from_the_2_and_3_torsion_comes_back_through_its_line(curve, s, t):
    z = JacPoint(curve, s, t)
    torsion = jl.torsion_points(2, curve) + jl.torsion_points(3, curve)
    assume(min(jl.distance(z, q) for q in torsion) >= 1e-2)
    back = _back_through_the_line(bd.make_t21(z))
    assert back.label == "T21" and jl.distance(back.point, z) <= 1e-9


def test_tu_line_tangency_matches_type(curve):
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    t21 = bd.make_t21(z)
    member, cusp = we.dual_sextic_contains(bd.tu_line(t21, curve), curve)
    assert member and not cusp
    t31 = bd.make_t3x("T31", exact(curve, Fraction(2, 3), Fraction(1, 3)))
    member, cusp = we.dual_sextic_contains(bd.tu_line(t31, curve), curve)
    assert member and cusp


def test_subbundle_config_shapes(curve):
    cfg = bd.subbundle_config(t1_class(curve))
    assert len(cfg.rank1) == 3 and len(cfg.rank2) == 3
    assert all(l.dim == 0 for l in cfg.rank1 + cfg.rank2)
    z = exact(curve, Fraction(1, 5), 0)
    cfg22 = bd.subbundle_config(bd.make_t22(z))
    assert {l.dim for l in cfg22.rank1} == {0, 1}
    assert {l.dim for l in cfg22.rank2} == {0, 1}
    cfg33 = bd.subbundle_config(bd.make_t3x("T33", exact(curve, Fraction(1, 3), 0)))
    assert cfg33.rank1[0].dim == 2 and cfg33.rank2[0].dim == 2


def test_type_facts_table():
    assert bd.type_facts("T1") == (3, True, 3)
    assert bd.type_facts("T21") == (3, True, 2)
    assert bd.type_facts("T22") == (5, False, None)
    assert bd.type_facts("T31") == (3, True, 1)
    assert bd.type_facts("T32") == (4, False, None)
    assert bd.type_facts("T33") == (9, False, None)
    with pytest.raises(ValueError):
        bd.type_facts("T99")


def _accepts(make, z) -> bool:
    try:
        make(z)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("delta", [1e-8, 1e-7, 1e-5])
def test_near_torsion_point_is_torsion_or_not_for_every_constructor(curve, delta):
    # z = 1/3 + delta: exactly one of the T21/T22 and T3x readings holds
    z = JacPoint(curve, s=1 / 3 + delta, t=0.0)
    off = [_accepts(make, z) for make in (bd.make_t21, bd.make_t22)]
    on = [_accepts(make, z) for make in (lambda p: bd.make_t3x("T31", p),
                                         lambda p: ag.ModularAuto(p, False))]
    assert off == [not on[0]] * 2
    assert on == [on[0]] * 2


def test_exact_class_construction_does_no_fraction_arithmetic(curve, monkeypatch):
    # exact points are added, negated, multiplied and reduced on their
    # integer numerators and denominators
    a, b = exact(curve, Fraction(1, 5), Fraction(2, 7)), exact(curve, Fraction(1, 4), Fraction(3, 7))
    c = jl.neg(jl.add(a, b))
    z = exact(curve, Fraction(5, 8), Fraction(1, 6))
    flex = exact(curve, Fraction(1, 3), Fraction(2, 3))
    builds = [lambda: bd.classify_triple(a, b, c),
              lambda: bd.classify_triple(z, z, jl.neg(jl.mul(2, z))),
              lambda: bd.classify_triple(flex, flex, flex),
              lambda: bd.make_t21(z),
              lambda: bd.make_t3x("T31", flex),
              lambda: ag.group_elements(curve)]
    before = [f() for f in builds]
    calls = []
    count_calls(monkeypatch, calls, Fraction,
                ("__mod__", "__add__", "__radd__", "__mul__", "__rmul__", "__neg__"))
    after = [f() for f in builds]
    assert calls == []
    assert after == before
    assert [cls.label for cls in before[:5]] == ["T1", "T21", "T31", "T21", "T31"]


def test_an_exact_flex_snaps_as_the_float_rounding_did(curve):
    # canon of an exact 3-torsion point is the point the rounding of its
    # float coordinates gave, for every flex and unreduced representatives
    reps = [Fraction(a, 3) + k for a in range(3) for k in (0, 1, -2)] + [0, 2, -1]
    for s in reps:
        for t in reps:
            z = JacPoint(curve, s, t)
            want = snap_to_torsion_reference(z, 3)
            for label in ("T31", "T32", "T33"):
                got = bd.make_t3x(label, z).point
                assert got == want and repr(got) == repr(want)
                assert type(got.s) is type(got.t) is Fraction
            assert bd.classify_triple(z, z, z).point == want


def test_canonical_exact_points_pass_through_classification_unbuilt(curve, monkeypatch):
    a, b = exact(curve, Fraction(1, 5), Fraction(2, 7)), exact(curve, Fraction(1, 4), Fraction(3, 7))
    c = jl.neg(jl.add(a, b))
    z = exact(curve, Fraction(5, 8), Fraction(1, 6))
    flex = exact(curve, Fraction(1, 3), Fraction(2, 3))
    built = []
    count_calls(monkeypatch, built, JacPoint, ("__init__",))
    classes = [bd.classify_triple(a, b, c), bd.classify_triple(flex, flex, flex),
               bd.make_t21(z), bd.make_t22(z), bd.make_t3x("T32", flex)]
    assert built == []
    assert classes[0].triple == tuple(jl.canonical_sort([a, b, c]))
    assert all(cls.point is p for cls, p in zip(classes[1:], (flex, z, z, flex)))


def _one_or_apart(triple) -> bool:
    """Every pair of the triple is one object or far apart at EQ_TOL."""
    return all(x is y or jl.distance(x, y) > 10 * jl.EQ_TOL
               for x, y in itertools.combinations(triple, 2))


def test_classify_triple_agrees_with_the_pairwise_reference(curve):
    # on exact triples, and on float triples whose pairs are all apart or
    # all one object, the one coincidence rule is the pairwise count
    rng = random.Random(97)
    coords = [Fraction(a, n) for n in (3, 4, 5, 7, 12) for a in range(n)]
    exact_triples, float_triples = [], []
    for _ in range(100):
        a, b = (jl.canon((rng.choice(coords), rng.choice(coords)), curve) for _ in range(2))
        flex = jl.torsion_points(3, curve)[rng.randrange(9)]
        # a double and a flex also as distinct but equal objects
        exact_triples += [(a, b, jl.neg(jl.add(a, b))),
                          (jl.canon((a.s, a.t), curve), a, jl.neg(jl.mul(2, a))),
                          (flex, jl.canon((flex.s, flex.t), curve), flex)]
        p, q = (JacPoint(curve, rng.random(), rng.random()) for _ in range(2))
        w = JacPoint(curve, rng.randrange(3) / 3, rng.randrange(3) / 3)
        float_triples += [(p, q, jl.neg(jl.add(p, q))), (p, jl.neg(jl.mul(2, p)), p), (w, w, w)]
    float_triples = [t for t in float_triples if _one_or_apart(t)]
    assert len(float_triples) > 250
    for triple in exact_triples + float_triples:
        for order in itertools.permutations(triple):
            assert bd.classify_triple(*order) == classify_triple_reference(*order), order


def test_a_merged_triple_reads_its_torsion_off_the_merge(curve, monkeypatch):
    # z, z, -2z with z = 1/3 + d: -2z is 3d from z, so the triple reads T21
    # until EQ_TOL reaches 3d and T31 at the flex 1/3 from there on; the merge
    # at EQ_TOL decides the torsion too, so no EQ_TOL refuses the triple
    flex = exact(curve, Fraction(1, 3), 0)
    tols = (1e-6, 1e-5, 1e-4, 1e-3)
    want = {3e-5: ("T21", "T21", "T31", "T31"), 1e-4: ("T21", "T21", "T21", "T31"),
            3e-4: ("T21", "T21", "T21", "T31")}

    def classify_at(tol, *triple):
        monkeypatch.setattr(jl, "EQ_TOL", tol)
        return bd.classify_triple(*triple)

    for d, labels in want.items():
        z = JacPoint(curve, 1 / 3 + d, 0.0)
        classes = [classify_at(tol, z, z, jl.neg(jl.mul(2, z))) for tol in tols]
        assert tuple(c.label for c in classes) == labels, d
        assert all(c.point == flex for c in classes if c.label == "T31")


def test_a_coincident_triple_at_an_exact_point_off_the_flex_is_refused(curve):
    # the exact point 1/3 + 1/30000000 never moves, and the two float points
    # 1e-7 and 2e-7 below it merge with it: the zero sum holds at EQ_TOL, but
    # the one point of the triple is not 3-torsion
    z = exact(curve, Fraction(10000001, 30000000), 0)
    s = float(z.s)
    triple = (z, JacPoint(curve, s - 1e-7, 0.0), JacPoint(curve, s - 2e-7, 0.0))
    for order in itertools.permutations(triple):
        with pytest.raises(ValueError, match="coincident triple is not 3-torsion"):
            bd.classify_triple(*order)


def test_a_chain_triple_reads_one_class_in_every_order(curve):
    # p1, p2 and p2, p3 are within EQ_TOL, p1, p3 are not: single linkage
    # makes them one class whatever their order, as the pairwise count did
    eps = 9e-7
    chain = [JacPoint(curve, 1 / 3 + k * eps, 2 / 3) for k in (-1, 0, 1)]
    assert jl.distance(chain[0], chain[2]) > jl.EQ_TOL
    want = bd.BundleClass("T31", point=exact(curve, Fraction(1, 3), Fraction(2, 3)))
    for order in itertools.permutations(chain):
        assert bd.classify_triple(*order) == want
        assert classify_triple_reference(*order) == want


def test_the_line_through_a_chain_triple_meets_the_curve_in_its_one_class(curve):
    # line_through decides chord or tangent by merge_triple's classes: the
    # chain is one class, so its line is the tangent at the flex, whatever
    # the order, and the line's intersection reads the triple's class
    eps = 9e-7
    chain = [JacPoint(curve, 1 / 3 + k * eps, 2 / 3) for k in (-1, 0, 1)]
    want = bd.BundleClass("T31", point=exact(curve, Fraction(1, 3), Fraction(2, 3)))
    for order in itertools.permutations(chain):
        pts = we.intersect_curve(we.line_through(*order, curve), curve)
        assert bd.classify_triple(*pts) == want, order


def test_a_double_of_two_nearby_float_points_moves_to_the_root_of_the_sum(curve):
    # 2d + r = 0 only to the points' separation; the merged double point is
    # the root of 2d + r = 0 nearest d, and the class is the same in every order
    d = JacPoint(curve, 0.21, 0.33)
    d1 = jl.add(d, JacPoint(curve, 4e-7, 0.0))
    d2 = jl.add(d, JacPoint(curve, -3e-7, 2e-7))
    r = jl.neg(jl.add(d1, d2))
    assert jl.distance(jl.add(jl.mul(2, d1), r), jl.zero(curve)) > 5e-7
    classes = [bd.classify_triple(*order) for order in itertools.permutations((d1, d2, r))]
    for cls in classes:
        assert cls.label == "T21"
        assert jl.distance(jl.add(jl.mul(2, cls.point), r), jl.zero(curve)) < 1e-15
        assert jl.distance(cls.point, d) < jl.EQ_TOL
        assert jl.distance(cls.point, classes[0].point) < 1e-15


def test_a_moved_double_point_that_reaches_the_third_point_joins_it(curve):
    # a, b = a + dv are one pair at 0.99 EQ_TOL, and r = -a - b is 1.107 EQ_TOL
    # from each; the double moves to d = a + dv/2, 0.99 EQ_TOL from r across
    # v, so merge_triple makes all three one point: the flex (1/3, 1/3)
    tol = jl.EQ_TOL
    v, w = (math.cos(0.3), math.sin(0.3)), (-math.sin(0.3), math.cos(0.3))
    eps = [0.33 * tol * wi - 0.5 * 0.99 * tol * vi for vi, wi in zip(v, w)]
    a = JacPoint(curve, 1 / 3 + eps[0], 1 / 3 + eps[1])
    b = JacPoint(curve, a.s + 0.99 * tol * v[0], a.t + 0.99 * tol * v[1])
    r = JacPoint(curve, 1 / 3 - 0.66 * tol * w[0], 1 / 3 - 0.66 * tol * w[1])
    gaps = sorted(jl.distance(p, q) / tol for p, q in ((a, b), (a, r), (b, r)))
    assert gaps == pytest.approx([0.99, 1.107, 1.107], abs=1e-3)
    flex = exact(curve, Fraction(1, 3), Fraction(1, 3))
    for order in itertools.permutations((a, b, r)):
        z1, z2, z3 = jl.merge_triple(order)
        assert z1 is z2 is z3 and jl.distance(z1, flex) < 1e-15
        assert bd.classify_triple(*order) == bd.BundleClass("T31", point=flex)


def test_classify_triple_reads_a_merged_intersection_as_it_is(curve):
    # intersect_curve returns the merged double point as one object; canon
    # keeps it one, so classify_triple neither rebuilds nor moves it again
    z = jl.canon(0.37 + 0.21 * curve.tau, curve)
    h = JacPoint(curve, 2e-7, 1e-7)
    z1, z2 = jl.add(z, h), jl.sub(z, h)
    pts = we.intersect_curve(we.line_through(z1, z2, jl.neg(jl.add(z1, z2)), curve), curve)
    assert sorted(we.multiplicities(pts)) == [1, 2]
    double = next(p for p in pts if sum(q is p for q in pts) == 2)
    cls = bd.classify_triple(*pts)
    assert cls.label == "T21" and cls.point is double
