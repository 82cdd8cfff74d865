import cmath
from fractions import Fraction

import numpy as np
import pytest

from ellpar import jaclattice as jl
from ellpar import monodromy as mo
from ellpar.jaclattice import CurveSpec

from conftest import TAU, exact, holonomy_scalars, random_unimodular


def conj_pair(pair, Q):
    Qi = np.linalg.inv(Q)
    return mo.CommutingPair(Q @ pair.A @ Qi, Q @ pair.B @ Qi)


def diag_pair(curve, pts):
    hA = [holonomy_scalars(p)[0] for p in pts]
    hB = [holonomy_scalars(p)[1] for p in pts]
    return mo.CommutingPair(np.diag(hA), np.diag(hB))


def block_pair(a, b, sA, sB):
    A = np.diag([a**-2, a, a]).astype(complex)
    A[1, 2] = sA
    B = np.diag([b**-2, b, b]).astype(complex)
    B[1, 2] = sB
    return mo.CommutingPair(A, B)


def jordan_pair(a, b, b1, b2):
    N = np.zeros((3, 3), complex)
    N[0, 1] = N[1, 2] = 1
    return mo.CommutingPair(a * np.eye(3) + N, b * np.eye(3) + b1 * N + b2 * (N @ N))


def normal_form_matrices(nf):
    """The two matrices of a normal form, by case."""
    if nf.case == "i":
        a1, a2, a3, b1, b2, b3 = nf.params
        return ((a1, 0, 0), (0, a2, 0), (0, 0, a3)), ((b1, 0, 0), (0, b2, 0), (0, 0, b3))
    if nf.case == "ii":
        a, b, b1 = nf.params
        return ((a**-2, 0, 0), (0, a, 1), (0, 0, a)), ((b**-2, 0, 0), (0, b, b1), (0, 0, b))
    a, b, b1, b2 = nf.params
    return ((a, 1, 0), (0, a, 1), (0, 0, a)), ((b, b1, b2), (0, b, b1), (0, 0, b))


def exotic_pair():
    """Rank-1 nilpotent parts with one image and two kernels: Jordan type of
    N_B - tau N_A is (2, 1), so T32, but no single normal form fits."""
    E12 = np.zeros((3, 3), complex)
    E12[0, 1] = 1
    E13 = np.zeros((3, 3), complex)
    E13[0, 2] = 1
    return mo.CommutingPair(np.eye(3) + E12, np.eye(3) + E13)


def representatives(curve):
    """One commuting pair per bundle type (the criterion-7 representatives)."""
    tau = curve.tau
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    z3 = exact(curve, Fraction(1, 3), 0)
    a, b = holonomy_scalars(z)
    a3, b3 = holonomy_scalars(z3)
    pts = [exact(curve, Fraction(1, 5), 0), exact(curve, 0, Fraction(1, 7))]
    pts.append(jl.neg(jl.add(pts[0], pts[1])))
    return {
        "T1": diag_pair(curve, pts),
        "T21": block_pair(a, b, 1.0, 0.37),
        "T22": block_pair(a, b, 0.5, tau * 0.5 / a * b),
        "T31": jordan_pair(a3, b3, 0.4, 0.1),
        "T32": block_pair(a3, b3, 1.0, 0.37),
        "T33": jordan_pair(a3, b3, tau * b3 / a3,
                           b3 * ((tau * b3 / a3) ** 2 / (2 * b3**2) - tau / (2 * a3**2))),
    }


def conditioned_unimodular(rng, cond):
    """U diag(1, s, cond) V with unitary U, V and 1 <= s <= cond, scaled to det 1."""
    def unitary():
        Q, R = np.linalg.qr(rng.randn(3, 3) + 1j * rng.randn(3, 3))
        return Q * (np.diag(R) / abs(np.diag(R)))
    s = np.exp(rng.uniform(0, np.log(cond)))
    M = unitary() @ np.diag([1, s, cond]) @ unitary()
    return M / np.linalg.det(M) ** (1.0 / 3.0)


def test_validate_rejects_bad_pairs(curve):
    with pytest.raises(mo.NotUnimodularError):
        mo.validate(mo.CommutingPair(2 * np.eye(3), np.eye(3)))
    A = np.diag([1.0, 2.0, 0.5]).astype(complex)
    B = np.eye(3, dtype=complex)
    B[0, 1] = 1.0
    with pytest.raises(mo.NotCommutingError):
        mo.validate(mo.CommutingPair(A, B))
    with pytest.raises(mo.NotCommutingError):
        mo.classify_bundle(mo.CommutingPair(A, B), curve)


def test_validate_checks_a_pair_as_both_classifiers_do(curve, monkeypatch):
    # validate, classify_bundle and normal_form check |det - 1| at PAIR_TOL,
    # whatever the nilpotency threshold EQ_TOL: inside it every entry point
    # accepts the pair, outside it each one refuses it
    a, b = 1.1 * cmath.exp(0.3j), 0.9 * cmath.exp(0.7j)

    def scaled(excess):
        pair = block_pair(a, b, 1, 0.37)
        return mo.CommutingPair(np.array(pair.A) * (1 + excess) ** (1 / 3), pair.B)

    pair = scaled(5e-8)
    assert np.linalg.det(np.array(pair.A)) - 1 == pytest.approx(5e-8, rel=1e-3)
    assert mo.validate(pair) is pair
    assert mo.classify_bundle(pair, curve).label == "T21"
    assert mo.normal_form(pair)[0].case == "ii"
    pair = scaled(5e-6)
    monkeypatch.setattr(mo, "EQ_TOL", 1e-4)
    with pytest.raises(mo.NotUnimodularError):
        mo.classify_bundle(pair, curve)
    with pytest.raises(mo.NotUnimodularError):
        mo.normal_form(pair)


def test_normal_form_reads_the_case_classify_bundle_reads_across_the_nilpotency_band(curve):
    # a 1+2 block whose nilpotent parts have size eps, not proportional to
    # (1, tau): classify_bundle reads T22 while eps is below its default tol
    # and T21 above it, and normal_form, at the same default, reads case (i)
    # and case (ii) there.  eps = 1e-6 is that tol itself: classify_bundle
    # tests N_B - tau N_A against tol max(1, |tau|), and normal_form tests
    # n_A and n_B against tol, so the two may fall on either side of it
    a, b = 1.1 * cmath.exp(0.3j), 0.9 * cmath.exp(0.7j)
    rng = np.random.RandomState(32)
    # the identity and nine random unitary conjugators
    conjugators = [np.eye(3)] + [conditioned_unimodular(rng, 1) for _ in range(9)]
    case = {"T22": "i", "T21": "ii"}
    labels = set()
    for eps in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 3e-6, 1e-5, 3e-5, 1e-4):
        for k, Q in enumerate(conjugators):
            pair = conj_pair(block_pair(a, b, eps, 0.37 * eps), Q)
            label = mo.classify_bundle(pair, curve).label
            labels.add(label)
            assert mo.normal_form(pair)[0].case == case[label], (eps, k, label)
    assert labels == {"T21", "T22"}


def test_case_i_classification(curve):
    pts = [exact(curve, Fraction(1, 5), 0), exact(curve, 0, Fraction(1, 7))]
    pts.append(jl.neg(jl.add(pts[0], pts[1])))
    pair = conj_pair(diag_pair(curve, pts), random_unimodular(np.random.RandomState(0)))
    cls = mo.classify_bundle(pair, curve)
    assert cls.label == "T1"
    for z in pts:
        assert any(jl.equal(z, q, tol=1e-6) for q in cls.triple)


def test_case_i_repeated_point_is_t22(curve):
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    pts = [z, z, jl.neg(jl.mul(2, z))]
    pair = conj_pair(diag_pair(curve, pts), random_unimodular(np.random.RandomState(1)))
    cls = mo.classify_bundle(pair, curve)
    assert cls.label == "T22"
    assert jl.equal(cls.point, z, tol=1e-6)


def test_case_i_torsion_triple_is_t33(curve):
    z = exact(curve, Fraction(1, 3), 0)
    pair = conj_pair(diag_pair(curve, [z, z, z]), random_unimodular(np.random.RandomState(2)))
    cls = mo.classify_bundle(pair, curve)
    assert cls.label == "T33"
    assert jl.equal(cls.point, z, tol=1e-6)


def test_case_ii_all_four_outcomes(curve):
    tau = curve.tau
    Q = random_unimodular(np.random.RandomState(3))
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    a, b = holonomy_scalars(z)
    # nilpotent parts not proportional to (1, tau): indecomposable
    cls = mo.classify_bundle(conj_pair(block_pair(a, b, 1.0, 0.37), Q), curve)
    assert cls.label == "T21" and jl.equal(cls.point, z, tol=1e-6)
    # proportional to (1, tau): decomposable
    sB = tau * 0.5 / a * b
    assert mo.classify_bundle(conj_pair(block_pair(a, b, 0.5, sB), Q), curve).label == "T22"
    z3 = exact(curve, Fraction(1, 3), 0)
    a3, b3 = holonomy_scalars(z3)
    assert mo.classify_bundle(conj_pair(block_pair(a3, b3, 1.0, 0.37), Q), curve).label == "T32"
    sB3 = tau * 0.5 / a3 * b3
    assert mo.classify_bundle(conj_pair(block_pair(a3, b3, 0.5, sB3), Q), curve).label == "T33"


def test_case_ii_block_only_in_second_matrix(curve):
    # A diagonalizable, B carries the Jordan block: the normal form swaps slots
    z3 = exact(curve, Fraction(1, 3), 0)
    a3, b3 = holonomy_scalars(z3)
    pair = conj_pair(block_pair(a3, b3, 0.0, 0.5), random_unimodular(np.random.RandomState(4)))
    nf, _, swapped = mo.normal_form(pair)
    assert nf.case == "ii" and swapped
    assert mo.classify_bundle(pair, curve).label == "T32"


def test_case_iii_trichotomy(curve):
    tau = curve.tau
    Q = random_unimodular(np.random.RandomState(5))
    z = exact(curve, Fraction(1, 3), Fraction(1, 3))
    a, b = holonomy_scalars(z)
    cls = mo.classify_bundle(conj_pair(jordan_pair(a, b, 0.4, 0.1), Q), curve)
    assert cls.label == "T31" and jl.equal(cls.point, z, tol=1e-6)
    b1 = tau * b / a
    assert mo.classify_bundle(conj_pair(jordan_pair(a, b, b1, 0.1), Q), curve).label == "T32"
    b2 = b * (b1**2 / (2 * b**2) - tau / (2 * a**2))
    assert mo.classify_bundle(conj_pair(jordan_pair(a, b, b1, b2), Q), curve).label == "T33"


def test_case_iii_block_only_in_second_matrix(curve):
    N = np.diag([1.0, 1.0], 1).astype(complex)
    pair = conj_pair(mo.CommutingPair(np.eye(3, dtype=complex), np.eye(3) + N),
                     random_unimodular(np.random.RandomState(6)))
    nf, _, swapped = mo.normal_form(pair)
    assert nf.case == "iii" and swapped
    assert mo.classify_bundle(pair, curve).label == "T31"


def test_exotic_pair_raises_then_classifies_t32(curve):
    pair = exotic_pair()
    with pytest.raises(mo.ExoticPairError):
        mo.normal_form(pair)
    cls = mo.classify_bundle(pair, curve)
    assert cls.label == "T32" and cls.point.is_zero(tol=1e-9)


def test_normal_form_conjugator_reproduces_matrices(curve):
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    a, b = holonomy_scalars(z)
    a3, b3 = holonomy_scalars(exact(curve, Fraction(1, 3), 0))
    rng = np.random.RandomState(7)
    inputs = [("ii", False, block_pair(a, b, 1.0, 0.37))]
    cases = {"T1": "i", "T21": "ii", "T22": "ii", "T31": "iii", "T32": "ii", "T33": "iii"}
    inputs += [(cases[label], False, pair) for label, pair in representatives(curve).items()]
    # the Jordan block only in B: the normal form swaps the slots
    inputs.append(("ii", True, block_pair(a3, b3, 0.0, 0.5)))
    inputs.append(("iii", True, mo.CommutingPair(np.eye(3), np.eye(3) + np.diag([1.0, 1.0], 1))))
    # a Jordan pair whose N_B - tau N_A is nearly rank 1
    inputs.append(("iii", False, jordan_pair(a3, b3, b3 * (curve.tau / a3 + 1e-4), 1.0)))
    conjugators = [random_unimodular(rng) for _ in inputs]
    # the representatives again, under conjugators of condition number 100 and 1000
    for cond in (100.0, 1000.0):
        for _ in range(20):
            inputs += inputs[1:7]
            conjugators += [conditioned_unimodular(rng, cond) for _ in range(6)]
    for (case, swap, pair), Q in zip(inputs, conjugators):
        pair = conj_pair(pair, Q)
        nf, P, swapped = mo.normal_form(pair)
        assert (nf.case, swapped) == (case, swap)
        M1, M2 = (pair.A, pair.B) if not swapped else (pair.B, pair.A)
        N1, N2 = normal_form_matrices(nf)
        Pi = np.linalg.inv(P)
        assert abs(np.linalg.det(P) - 1) < 1e-9
        assert np.abs(Pi @ M1 @ P - N1).max() < 1e-7
        assert np.abs(Pi @ M2 @ P - N2).max() < 1e-7
    with pytest.raises(mo.ExoticPairError):
        mo.normal_form(conj_pair(exotic_pair(), random_unimodular(rng)))


def test_classification_survives_ill_conditioned_conjugators(curve):
    # roundoff splits a Jordan block's eigenvalues in proportion to the size
    # of the conjugated matrices, so the merge radius must scale with them
    reps = representatives(curve)
    reps["exotic"] = exotic_pair()
    rng = np.random.RandomState(13)
    for label, pair in reps.items():
        ref = mo.classify_bundle(pair, curve)
        for _ in range(20):
            got = mo.classify_bundle(conj_pair(pair, conditioned_unimodular(rng, 1000.0)), curve)
            assert got.label == ref.label, f"{label} misclassified as {got.label}"
            if got.label == "T1":
                assert all(any(jl.equal(p, q, tol=1e-6) for q in ref.triple) for p in got.triple)
            else:
                assert jl.equal(got.point, ref.point, tol=1e-6)


def test_classification_survives_conjugators_up_to_condition_1e4(curve):
    # the eigenvalues come from the characteristic polynomial, clustered
    # within its pseudozero radius, and each simple one is read through its
    # null vectors, so conditioning moves no label or point up to 1e4
    reps = representatives(curve)
    reps["exotic"] = exotic_pair()
    refs = {label: mo.classify_bundle(pair, curve) for label, pair in reps.items()}
    rng = np.random.RandomState(29)
    wrong = []
    for cond in (100.0, 300.0, 1000.0, 3000.0, 1e4):
        for label, pair in reps.items():
            ref = refs[label]
            for _ in range(60):
                got = mo.classify_bundle(conj_pair(pair, conditioned_unimodular(rng, cond)), curve)
                same = got.label == ref.label and (
                    all(any(jl.equal(p, q, tol=1e-6) for q in ref.triple) for p in got.triple)
                    if got.label == "T1" else jl.equal(got.point, ref.point, tol=1e-6))
                if not same:
                    wrong.append((cond, label, got.label))
    assert wrong == []


def test_small_first_jordan_coefficient_is_t31(curve):
    # N_B - tau N_A = c1 N + c2 N^2 with c1 = 1e-4, c2 = O(1): T31, since
    # c1 is far above tol in the Jordan basis of A; with c1 = 0 it is T32
    tau = curve.tau
    z3 = exact(curve, Fraction(1, 3), 0)
    a3, b3 = holonomy_scalars(z3)
    rng = np.random.RandomState(19)
    for c1, label in ((1e-4, "T31"), (0.0, "T32")):
        pair = jordan_pair(a3, b3, b3 * (tau / a3 + c1), 1.0)
        conjugators = [np.eye(3)] + [random_unimodular(rng) for _ in range(10)]
        if c1:
            conjugators += [conditioned_unimodular(rng, 1000.0) for _ in range(20)]
        for Q in conjugators:
            cls = mo.classify_bundle(conj_pair(pair, Q), curve)
            assert cls.label == label and jl.equal(cls.point, z3, tol=1e-6)


def test_kappa_collision_is_split_by_a_second_weight(curve):
    # diagonal A, B whose first two joint eigenvalues give A + kappa B a
    # double eigenvalue for the first weight kappa: not one Jordan block
    a1, a2, b1 = 1.1 + 0.2j, 0.8 + 0.3j, 0.9 - 0.1j
    b2 = b1 + (a1 - a2) / mo._KAPPAS[0]
    hA, hB = (a1, a2, 1 / (a1 * a2)), (b1, b2, 1 / (b1 * b2))
    C = np.diag(hA) + mo._KAPPAS[0] * np.diag(hB)
    assert abs(C[0, 0] - C[1, 1]) < 1e-15
    pair = conj_pair(mo.CommutingPair(np.diag(hA), np.diag(hB)),
                     random_unimodular(np.random.RandomState(17)))
    cls = mo.classify_bundle(pair, curve)
    assert cls.label == "T1"
    for a, b in zip(hA, hB):
        z = jl.from_holonomy(a, b, curve)
        assert any(jl.equal(z, q, tol=1e-6) for q in cls.triple)


@pytest.mark.parametrize("tol", [jl.EQ_TOL, 1e-8])
def test_near_torsion_repeated_point_retries_finer_splits(curve, tol, monkeypatch):
    # z, z, -2z with |3z| = delta: the three eigenvalues share one cluster,
    # which is not scalar plus nilpotent at tol (the nilpotency threshold
    # EQ_TOL of monodromy, patched to it), so the finer splits 1+2 and 1+1+1
    # are tried before EigenvalueSeparationError
    monkeypatch.setattr(mo, "EQ_TOL", tol)

    def pair(delta):
        z = jl.JacPoint(curve, s=1 / 3 + delta / 3, t=0.0)
        return diag_pair(curve, [z, z, jl.neg(jl.mul(2, z))])

    for delta in (1e-7, 3e-7):
        cls = mo.classify_bundle(pair(delta), curve)
        assert cls.label == "T33" and cls.point == exact(curve, Fraction(1, 3), 0)
    cls = mo.classify_bundle(pair(3e-6), curve)
    assert cls.label == "T22" and jl.equal(cls.point, jl.JacPoint(curve, s=1 / 3 + 1e-6, t=0.0),
                                           tol=1e-9)
    # |3z| = EQ_TOL lies in the ambiguous band: any label, but an answer
    assert mo.classify_bundle(pair(1e-6), curve).label in ("T22", "T33")


def test_no_split_of_a_jordan_block_is_read_as_simple_eigenvalues(curve, monkeypatch):
    # at a nilpotency threshold EQ_TOL below roundoff the Jordan block of T31
    # fails its nilpotency test under every kappa, so the finer splits are
    # tried; their simple roots have nearly orthogonal null vectors and are
    # not read
    monkeypatch.setattr(mo, "EQ_TOL", 1e-16)
    z3 = exact(curve, Fraction(1, 3), 0)
    pair = representatives(curve)["T31"]
    rng = np.random.RandomState(31)
    for _ in range(5):
        conj = conj_pair(pair, random_unimodular(rng))
        try:
            cls = mo.classify_bundle(conj, curve)
        except mo.EigenvalueSeparationError:
            continue
        assert cls.label == "T31" and jl.equal(cls.point, z3, tol=1e-6)


def test_conjugation_invariance_all_types(curve):
    reps = representatives(curve)
    rng = np.random.RandomState(11)
    for label, pair in reps.items():
        for _ in range(10):
            got = mo.classify_bundle(conj_pair(pair, random_unimodular(rng)), curve)
            assert got.label == label, f"{label} misclassified as {got.label}"


def test_generic_universal_pair_forms_no_matrix_product(curve, monkeypatch):
    # three simple eigenvalues are read through their null vectors: the only
    # 3x3 products are the two of validate's commutator
    calls = []
    mul = mo._mul
    monkeypatch.setattr(mo, "_mul", lambda X, Y: calls.append(1) or mul(X, Y))
    pair = mo.universal_pair(0.94, 1.08, "generic")
    assert isinstance(pair.A, tuple) and isinstance(pair.B[2], tuple)
    assert mo.classify_bundle(pair, curve).label == "T1"
    assert len(calls) == 2


def test_one_plus_two_pair_builds_each_nilpotent_part_once(curve, monkeypatch):
    calls = []
    nilpotent = mo._nilpotent
    monkeypatch.setattr(mo, "_nilpotent", lambda *a: calls.append(1) or nilpotent(*a))
    z = exact(curve, Fraction(1, 5), Fraction(1, 7))
    a, b = holonomy_scalars(z)
    pair = conj_pair(block_pair(a, b, 1.0, 0.37), random_unimodular(np.random.RandomState(23)))
    assert mo.classify_bundle(pair, curve).label == "T21"
    assert len(calls) == 2


@pytest.mark.parametrize("label, pts", [
    ("T1", [(Fraction(1, 5), 0), (0, Fraction(1, 7)), (Fraction(4, 5), Fraction(6, 7))]),
    ("T22", [(Fraction(1, 5), Fraction(1, 7)), (Fraction(1, 5), Fraction(1, 7)),
             (Fraction(3, 5), Fraction(5, 7))]),
    ("T33", [(Fraction(1, 3), 0)] * 3)])
def test_a_semisimple_pair_decides_its_zero_sum_once(curve, monkeypatch, label, pts):
    # classify_bundle checks that its summands sum to 0 and reads the
    # semisimple class without classify_triple checking the same sum again
    calls = []
    sums_to_zero = jl.sums_to_zero
    monkeypatch.setattr(jl, "sums_to_zero", lambda *a: calls.append(a) or sums_to_zero(*a))
    pair = diag_pair(curve, [exact(curve, s, t) for s, t in pts])
    assert mo.classify_bundle(pair, curve).label == label
    assert len(calls) == 1


def test_universal_pair_validates_and_classifies(curve):
    pair = mo.universal_pair(0.7 + 0.2j, 1.3 - 0.1j, "generic")
    mo.validate(pair)
    assert mo.classify_bundle(pair, curve).label == "T1"
    dec = mo.universal_pair(0.7 + 0.2j, 1.3 - 0.1j, "decomposable")
    mo.validate(dec)
    assert mo.classify_bundle(dec, curve).label == "T1"
    with pytest.raises(ValueError):
        mo.universal_pair(0, 1)
    with pytest.raises(ValueError):
        mo.universal_pair(1, 1, "weird")


@pytest.mark.parametrize("b1, b2", [(0.7 + 0.2j, 1.3 - 0.1j),
                                    # eigenvalues from 1e-5 (or 1e-4) to 1e10, the
                                    # two small ones 1e-10 (or 1e-12) apart
                                    (1e-5, 1e-5 + 1e-10), (1e-4, 1e-4 + 1e-12)])
def test_universal_config_is_a_triangle_of_eigenlines(b1, b2):
    b3 = 1 / (b1 * b2)
    cfg = mo.universal_config(b1, b2)
    pts = [np.array([p.point.x, p.point.y, p.point.z]) for p in cfg.rank1]
    lns = [np.array([l.line.u, l.line.v, l.line.w]) for l in cfg.rank2]
    B = mo.universal_pair(b1, b2, "generic").B
    for p, lam in zip(pts, (b1, b2, b3)):
        assert np.linalg.norm(B @ p - lam * p) < 1e-12 * np.linalg.norm(p)
    # relative: the points and lines span 20 orders at the small b's
    incidence = [[abs(p @ l) < 1e-14 * np.linalg.norm(p) * np.linalg.norm(l) for l in lns]
                 for p in pts]
    assert [sum(row) for row in incidence] == [2, 2, 2]
    assert [sum(col) for col in zip(*incidence)] == [2, 2, 2]


@pytest.mark.parametrize("b1, b2", [(1.0, 1.0), (4.0, 0.5), (0.5, 4.0), (0.0, 1.0)])
def test_universal_config_refuses_a_zero_or_double_eigenvalue(b1, b2):
    # b1 = b2, b2 = b3, b1 = b3 and b1 = 0: a denominator of its formulas is
    # 0, and the refusal is a ValueError, not a ZeroDivisionError
    with pytest.raises(ValueError, match="zero or coincident eigenvalues"):
        mo.universal_config(b1, b2)


def test_block_tolerance_does_not_decide_torsion(curve, monkeypatch):
    # z with |3z| = 1e-7 is 3-torsion under the coincidence rule.  Genuine
    # pairs put all of its blocks in one eigenvalue cluster; stubbed blocks
    # that keep them apart check that a nilpotency threshold EQ_TOL of 1e-8
    # in monodromy still reads z as torsion, decided at jaclattice's EQ_TOL
    z = jl.JacPoint(curve, s=1 / 3 + 1e-7 / 3, t=0.0)
    a, b = holonomy_scalars(z)
    e = [tuple(float(i == k) for i in range(3)) for k in range(3)]
    P = ((0.0, 0.0, 0.0), e[1], e[2])
    block = block_pair(a, b, 1.0, 0.37)
    cases = ((block, [(1, a**-2, b**-2, e[0], None, None),
                      (2, a, b, P, mo._nilpotent(block.A, a, P), mo._nilpotent(block.B, b, P))],
              "T32"),
             (diag_pair(curve, [z, z, jl.neg(jl.mul(2, z))]),
              [(1, a, b, e[0], None, None), (1, a, b, e[1], None, None),
               (1, a**-2, b**-2, e[2], None, None)], "T33"))
    monkeypatch.setattr(mo, "EQ_TOL", 1e-8)
    for pair, blocks, label in cases:
        monkeypatch.setattr(mo, "_joint_blocks", lambda A, B: blocks)
        cls = mo.classify_bundle(pair, curve)
        assert cls.label == label and cls.point == exact(curve, Fraction(1, 3), 0)


# generic universal family at omega^2 q, b1 = b2 with b3 = 1/b1^2 near 4.5e10:
# the trace minus b3 cancels the double eigenvalue b1 to exactly 0
CANCELLING_TAU = complex(0.30074659035418094, 1.9495753269156646)
CANCELLING_B = complex(4.687307916921878e-06, -9.733593537360438e-07)


def test_a_multiple_eigenvalue_that_cancels_to_zero_is_a_separation_error():
    # the block's mean eigenvalue b reads 0, and its nilpotent part divides
    # by it: both classifiers refuse the pair, without a retry that would
    # answer another type
    pair = mo.universal_pair(CANCELLING_B, CANCELLING_B)
    with pytest.raises(mo.EigenvalueSeparationError, match="cancels to 0"):
        mo.classify_bundle(pair, CurveSpec(CANCELLING_TAU))
    with pytest.raises(mo.EigenvalueSeparationError, match="cancels to 0"):
        mo.normal_form(pair)
