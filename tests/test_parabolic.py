import gc
import re
import weakref
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import parabolic as pa
from ellpar.jaclattice import CurveSpec
from ellpar.weierstrass import PlaneLine, PlanePoint, line_through_points, lines_meet

from conftest import TAU, WeightsReference, count_calls, exact, make_weights_reference


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


def test_make_weights_reads_a_decimal_as_the_equal_fraction():
    raw = ("0.2", "0.1", "-0.3")
    assert (pa.make_weights(*map(Decimal, raw))
            == pa.make_weights(*map(Fraction, raw)))


def test_exact_weights_must_sum_to_exactly_0():
    # WEIGHT_SUM_TOL is a float tolerance: an exact triple 1e-13 off a zero
    # sum is refused, not read as the wall
    with pytest.raises(pa.InadmissibleWeightsError,
                       match="^weights must sum to 0, got 1/10000000000000$"):
        pa.Weights(Fraction(1, 3), Fraction(0), Fraction(-1, 3) + Fraction(1, 10**13))
    # float weights still sum to 0 within it
    assert pa.Weights(1 / 3, 0.0, -1 / 3 + 1e-13).mu3 == -1 / 3 + 1e-13
    # the constructor takes numbers; make_weights reads fraction strings
    with pytest.raises(TypeError):
        pa.Weights("1/3", "0", "-1/3")


# small denominators, large primes, powers of 2 and 10 (which Decimals
# hold) and denominators wide enough that no float holds the weights
DENOMINATORS = st.one_of(st.integers(1, 12),
                         st.sampled_from([10, 1000, 10**9 + 7, 2**61 - 1, 2**70, 10**12, 10**30]),
                         st.integers(1, 10**40))


def _written(x: Fraction, draw):
    """x as make_weights may be given it: an int, a Fraction, a Decimal or a
    fraction string."""
    forms = [x, f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        forms.append(int(x))
    k = next((k for k in range(80) if 10**k % x.denominator == 0), None)
    if k is not None:
        forms.append(Decimal(f"{x.numerator * 10**k // x.denominator}E-{k}"))
    return draw(st.sampled_from(forms))


@st.composite
def exact_raw_weights(draw):
    """Three exact raw weights: a common shift plus offsets over unequal
    denominators, with equal entries, walls (mu2 the mean) and spreads of 1
    and more among them."""
    shift = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.just(1) | DENOMINATORS))
    offset = st.builds(lambda n, d: Fraction(n % d - d // 2, d), st.integers(0, 10**40),
                       DENOMINATORS)
    kind = draw(st.sampled_from(["free", "equal", "wall", "wide"]))
    if kind == "equal":
        a = draw(offset)
        xs = [a, a, draw(st.one_of(st.just(a), offset))]
    elif kind == "wall":
        e = draw(offset)
        xs = [-e, Fraction(0), e]
    elif kind == "wide":
        wide = draw(st.sampled_from([1, 2, Fraction(3, 2)]))
        xs = [draw(offset), draw(offset), draw(offset) + wide]
    else:
        xs = [draw(offset) for _ in range(3)]
    xs = draw(st.permutations(xs))
    return tuple(_written(x + shift, draw) for x in xs)


# three flags: generic, P on a coordinate line, P a vertex
PROBE_FLAGS = [pa.Flag(PlanePoint.of(1, 2, 3), PlaneLine.of(1, 1, -1)),
               pa.Flag(PlanePoint.of(1, 1, 0), PlaneLine.of(1, -1, -1)),
               pa.Flag(PlanePoint.of(1, 0, 0), PlaneLine.of(0, 1, -1))]
INDEX_TUPLES = [t for n in (1, 2, 3) for t in product(range(6), repeat=n)]


@settings(max_examples=300, deadline=None)
@given(raw=exact_raw_weights())
@example(raw=("1/5", "1/10", "-3/10"))
@example(raw=(Fraction(1, 3), 0, Fraction(-1, 3)))
@example(raw=(7, 7, 7))
@example(raw=(Decimal("0.2"), Decimal("0.2"), Decimal("-0.3")))
def test_make_weights_on_integers_answers_as_the_fraction_reference(raw):
    try:
        want, chamber = make_weights_reference(*raw)
    except pa.InadmissibleWeightsError as exc:
        with pytest.raises(pa.InadmissibleWeightsError, match=f"^{re.escape(str(exc))}$"):
            pa.make_weights(*raw)
        return
    got, got_chamber = pa.make_weights(*raw)
    assert got_chamber == chamber
    assert got.as_tuple() == want.as_tuple()
    assert all(type(mu) is Fraction for mu in got.as_tuple())
    assert got == pa.Weights(*want.as_tuple())
    assert hash(got) == hash(pa.Weights(*want.as_tuple()))
    assert got.grades == want.grades and got.pair_sums == want.pair_sums
    assert all(type(d) is Fraction for _, _, d in got.grades)
    assert [got.winner(t) for t in INDEX_TUPLES] == [want.winner(t) for t in INDEX_TUPLES]
    curve = CurveSpec(TAU)
    for label in bd.LABELS:
        cls = _class_of(label, curve)
        for flag in PROBE_FLAGS:
            v, ref = pa.stability(cls, flag, got), pa.stability(cls, flag, want)
            assert v == ref
            if v.witness is not None:
                assert type(v.witness.pardeg) is Fraction


def test_weights_with_a_float_answer_as_before():
    # a float among the raw weights puts the triple on floats, as before:
    # the same float weights, grades and verdicts, bit for bit
    for raw in [(0.1, Fraction(1, 5), "1/3"), (0.1, 0.2, -0.3), (Decimal("0.2"), 0.1, 0)]:
        got, chamber = pa.make_weights(*raw)
        want, want_chamber = make_weights_reference(*raw)
        assert chamber == want_chamber
        assert [mu.hex() for mu in got.as_tuple()] == [mu.hex() for mu in want.as_tuple()]
        assert got.grades == want.grades
        for flag in PROBE_FLAGS:
            assert pa.stability(t1_class(CurveSpec(TAU)), flag, got) == \
                pa.stability(t1_class(CurveSpec(TAU)), flag, want)
    # the constructor keeps a mixed triple as given and adds it in floats
    mixed = pa.Weights(0.2, Fraction(1, 10), Fraction(-3, 10))
    ref = WeightsReference(0.2, Fraction(1, 10), Fraction(-3, 10))
    assert mixed.as_tuple() == ref.as_tuple() and mixed.grades == ref.grades
    assert [type(d) for _, _, d in mixed.grades] == [type(d) for _, _, d in ref.grades]


def test_exact_weights_are_graded_without_fraction_arithmetic(curve, monkeypatch):
    # make_weights, the grade table and a Stable verdict compare and add the
    # integer numerators; the witness of another verdict builds its degree
    t1 = t1_class(curve)
    raw = [Fraction(x) for x in ("7/3", "19/9", "13/6")]
    calls = []
    count_calls(monkeypatch, calls, Fraction,
                ("__add__", "__sub__", "__truediv__", "__hash__", "__eq__", "__lt__",
                 "__le__", "__gt__", "__ge__"))
    w, chamber = pa.make_weights(*raw)
    verdicts = [pa.stability(t1, flag, w) for flag in PROBE_FLAGS]
    assert calls == []
    # no weight was read: none was built
    assert chamber == pa.CHAMBER_MINUS and "mu1" not in vars(w)
    assert [v.status for v in verdicts] == ["Stable", "Unstable", "Unstable"]
    monkeypatch.undo()
    assert verdicts[1].witness.pardeg == Fraction(1, 27) == w.mu1 + w.mu3


def test_flag_requires_incidence():
    with pytest.raises(pa.FlagIncidenceError):
        pa.Flag(PlanePoint.of(1, 0, 0), PlaneLine.of(1, 0, 0))
    pa.Flag(PlanePoint.of(0, 1, 0), PlaneLine.of(1, 0, 0))


def induced_pardeg(sub, flag, w):
    """The degree stability reads for a degree-0 subbundle with fiber locus
    sub: Weights.grades at 3 (rank - 1) + incidence, as _signature indexes it."""
    rank = 1 if isinstance(sub, PlanePoint) else 2
    return w.grades[3 * rank - 3 + pa._incidence(sub, flag)][2]


def test_induced_pardeg_rules(curve):
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    w = pa.PROBE_PLUS
    assert induced_pardeg(PlanePoint.of(1, 1, 1), flag, w) == w.mu1
    on_line = PlanePoint.of(2, 1, 0)  # 2 - 2 + 0 = 0
    assert induced_pardeg(on_line, flag, w) == w.mu2
    assert induced_pardeg(PlanePoint.of(1, 0, 0), flag, w) == w.mu3
    assert induced_pardeg(PlaneLine.of(1, -2, 1), flag, w) == w.mu1 + w.mu2
    through_p = PlaneLine.of(1, 0, -1)
    assert induced_pardeg(through_p, flag, w) == w.mu1 + w.mu3
    assert induced_pardeg(PlaneLine.of(1, 0, 0), flag, w) == w.mu2 + w.mu3


def test_line_degrees_are_pair_sums_of_float_weights():
    # float weights sum to 0 only up to rounding, so a line's degree is the sum
    # of its two weights, not minus the third; the sums are formed once
    w, _ = pa.make_weights(0.1, 0.2, -0.3)
    assert w.mu1 + w.mu3 != -w.mu2
    flag = pa.Flag(PlanePoint.of(1, 1, 1), PlaneLine.of(1, -2, 1))
    for line, want in ((PlaneLine.of(1, -2, 1), w.mu1 + w.mu2),
                       (PlaneLine.of(1, 0, -1), w.mu1 + w.mu3),
                       (PlaneLine.of(1, 0, 0), w.mu2 + w.mu3)):
        assert induced_pardeg(line, flag, w) == want
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


# ---------- stability against an exact brute force ----------

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _xprod(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _parallel(a, b):
    return _xprod(a, b) == (0, 0, 0)


def _exact_vec(v):
    return tuple(Fraction(c.real) for c in v.vec())


GENERIC_LINES = ((1, 2, 3), (2, -1, 5))


def _brute_force(cls, P, L, w):
    """(rank, member, degree) of the first subbundle of maximal degree, over
    members enumerated exactly in the standard frame: for a positive-dimensional
    locus the members meeting the flag specially, then generic ones."""
    mu1, mu2, mu3 = w.as_tuple()

    def point_degree(X):
        return mu1 if _parallel(X, P) else mu2 if _dot(L, X) == 0 else mu3

    def line_degree(M):
        return mu1 + mu2 if _parallel(M, L) else mu1 + mu3 if _dot(M, P) == 0 else mu2 + mu3

    candidates = []
    for loc in bd.subbundle_config(cls).rank1:
        if loc.dim == 0:
            members = [_exact_vec(loc.point)]
        elif loc.dim == 1:
            S = _exact_vec(loc.sweep)
            members = [P] if _dot(S, P) == 0 else []
            members += [_xprod(S, L)] + [_xprod(S, R) for R in GENERIC_LINES]
        else:
            members = [P, _xprod(L, GENERIC_LINES[0]), _xprod(*GENERIC_LINES)]
        candidates += [(1, X, point_degree(X)) for X in members if any(X)]
    for loc in bd.subbundle_config(cls).rank2:
        if loc.dim == 0:
            members = [_exact_vec(loc.line)]
        elif loc.dim == 1:
            c = _exact_vec(loc.pencil)
            members = [L] if _dot(L, c) == 0 else []
            members += [_xprod(c, P)] + [_xprod(c, R) for R in GENERIC_LINES]
        else:
            members = [L, _xprod(P, GENERIC_LINES[0]), _xprod(*GENERIC_LINES)]
        candidates += [(2, M, line_degree(M)) for M in members if any(M)]
    best = candidates[0]
    for c in candidates[1:]:
        if c[2] > best[2]:
            best = c
    return best


def _class_of(label, curve):
    if label == "T1":
        return t1_class(curve)
    if label in ("T21", "T22"):
        return (bd.make_t21 if label == "T21" else bd.make_t22)(exact(curve, Fraction(1, 5), 0))
    return bd.make_t3x(label, exact(curve, Fraction(1, 3), Fraction(2, 3)))


small = st.integers(-3, 3)


@st.composite
def exact_flags(draw):
    """A flag of small integer vectors: P generic, on a coordinate line or at
    a vertex; L generic through P or, when P allows it, a coordinate line."""
    kind = draw(st.sampled_from(["generic", "coordinate line", "vertex"]))
    if kind == "vertex":
        P = [0, 0, 0]
        P[draw(st.integers(0, 2))] = 1
    else:
        P = [draw(small) for _ in range(3)]
        if kind == "coordinate line":
            P[draw(st.integers(0, 2))] = 0
    P = tuple(Fraction(x) for x in P)
    assume(any(P))
    zeros = [i for i in range(3) if P[i] == 0]
    if zeros and draw(st.booleans()):
        L = [0, 0, 0]
        L[draw(st.sampled_from(zeros))] = 1
        L = tuple(Fraction(x) for x in L)
    else:
        L = _xprod(P, tuple(Fraction(draw(small)) for _ in range(3)))
        assume(any(L))
    return P, L


@st.composite
def chamber_weights(draw):
    """Exact weights with mu1 - mu2 = a, mu2 - mu3 = b: Pminus for a > b,
    Pplus for a < b, the wall for a = b."""
    frac = st.fractions(min_value=0, max_value=Fraction(12, 25), max_denominator=25)
    a = draw(frac)
    b = draw(st.one_of(st.just(a), frac))
    mu2 = (b - a) / 3
    return pa.Weights(mu2 + a, mu2, mu2 - b)


@settings(max_examples=400, deadline=None)
@given(label=st.sampled_from(bd.LABELS), flag=exact_flags(), w=chamber_weights())
@example(label="T1", flag=((Fraction(1), Fraction(0), Fraction(0)),
                           (Fraction(0), Fraction(1), Fraction(-1))), w=pa.PROBE_MINUS)
@example(label="T32", flag=((Fraction(1), Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(0), Fraction(1))), w=pa.PROBE_WALL)
def test_stability_matches_an_exact_brute_force(label, flag, w):
    P, L = flag
    cls = _class_of(label, CurveSpec(TAU))
    v = pa.stability(cls, pa.Flag(PlanePoint.of(*P), PlaneLine.of(*L)), w)
    rank, member, degree = _brute_force(cls, P, L, w)
    want = "Stable" if degree < 0 else "StrictlySemistable" if degree == 0 else "Unstable"
    assert v.status == want
    if want == "Stable":
        assert v.witness is None
        return
    assert (v.witness.rank, v.witness.pardeg) == (rank, degree)
    locus = (PlanePoint.of if rank == 1 else PlaneLine.of)(*member)
    assert v.witness.locus.close_to(locus, tol=1e-12), (v.witness, member)


# decimal weights whose pair sums are inexact in binary, on both sides of
# the wall and on it: float degrees that should tie collide or just miss
FLOAT_TRIPLES = [(0.1, 0.2, -0.3), (0.3, 0.0, -0.3), (0.2, -0.1, -0.1), (0.1, 0.1, -0.2),
                 (0.1, 0.2, 0.3), (0.7, 0.4, 0.1), (0.35, 0.0, -0.35), (0.0, 0.0, 0.0)]
decimal = st.sampled_from([k / 20 for k in range(-9, 10)] + [k / 30 for k in range(-13, 14)])


@st.composite
def float_weights(draw):
    raw = draw(st.one_of(st.sampled_from(FLOAT_TRIPLES),
                         st.tuples(decimal, decimal, decimal),
                         st.tuples(*[st.floats(-0.45, 0.45)] * 3)))
    w, _ = pa.make_weights(*(float(x) for x in raw))
    return w


@settings(max_examples=400, deadline=None)
@given(label=st.sampled_from(bd.LABELS), flag=exact_flags(), w=float_weights())
@example(label="T1", flag=((Fraction(1), Fraction(1), Fraction(0)),
                           (Fraction(1), Fraction(-1), Fraction(-1))),
         w=pa.make_weights(0.1, 0.2, 0.3)[0])
def test_stability_with_float_weights_matches_the_brute_force(label, flag, w):
    # the grade table ranks the float degrees themselves, so ties and near
    # ties resolve to the same first maximum as comparing the degrees
    P, L = flag
    cls = _class_of(label, CurveSpec(TAU))
    v = pa.stability(cls, pa.Flag(PlanePoint.of(*P), PlaneLine.of(*L)), w)
    rank, member, degree = _brute_force(cls, P, L, w)
    want = "Stable" if degree < 0 else "StrictlySemistable" if degree == 0 else "Unstable"
    assert v.status == want
    if want != "Stable":
        assert (v.witness.rank, v.witness.pardeg) == (rank, degree)
        locus = (PlanePoint.of if rank == 1 else PlaneLine.of)(*member)
        assert v.witness.locus.close_to(locus, tol=1e-12), (v.witness, member)


def _record(monkeypatch, name) -> list:
    """Record the arguments of each call of pa's function name from now on."""
    calls = []
    f = getattr(pa, name)
    monkeypatch.setattr(pa, name, lambda *a: calls.append(a) or f(*a))
    return calls


def test_one_signature_serves_stability_locus_and_normalize_flag(curve, monkeypatch):
    # the probes, locus and normalize_flag on one (class, flag) read one
    # incidence signature, so the incidences are decided once
    lookups, computed = _record(monkeypatch, "stability"), _record(monkeypatch, "_signature")
    t1 = t1_class(curve)
    flag = pa.Flag(PlanePoint.of(1, 2, 3), PlaneLine.of(1, 1, -1))
    for w in (pa.PROBE_MINUS, pa.PROBE_PLUS, pa.PROBE_WALL):
        pa.stability(t1, flag, w)
    assert pa.locus(t1, flag) == pa.LOCUS_UGEN
    for chamber in (pa.CHAMBER_MINUS, pa.CHAMBER_PLUS):
        pa.normalize_flag(t1, flag, chamber)
    assert len(lookups) == 7 and computed == [("T1", flag)]
    # the memo is the flag's: nothing else keeps the flag alive
    ref = weakref.ref(flag)
    del flag
    lookups.clear()
    computed.clear()
    gc.collect()
    assert ref() is None


def test_classes_of_one_type_share_the_signature(curve, monkeypatch):
    # the incidences depend on the class only through its label
    computed = _record(monkeypatch, "_signature")
    flag = pa.Flag(PlanePoint.of(1, 1, 0), PlaneLine.of(1, -1, -1))
    t1 = t1_class(curve)
    other = bd.classify_triple(exact(curve, Fraction(1, 4), 0), exact(curve, 0, Fraction(1, 3)),
                               exact(curve, Fraction(3, 4), Fraction(2, 3)))
    assert other.label == "T1" and other != t1
    verdicts = {pa.stability(cls, flag, pa.PROBE_MINUS) for cls in (t1, other)}
    assert len(verdicts) == 1 and len(computed) == 1


def test_a_memo_hit_does_no_fraction_work(curve, monkeypatch):
    # the class's exact points are never hashed or compared, and the verdict
    # compares ranks from the grade table, never the Fraction degrees
    t1 = t1_class(curve)
    assert all(isinstance(c, Fraction) for z in t1.triple for c in (z.s, z.t))
    generic = pa.Flag(PlanePoint.of(1, 2, 3), PlaneLine.of(1, 1, -1))
    special = pa.Flag(PlanePoint.of(1, 1, 0), PlaneLine.of(1, -1, -1))
    probes = [(flag, w) for flag in (generic, special)
              for w in (pa.PROBE_MINUS, pa.PROBE_PLUS, pa.PROBE_WALL)]
    before = [pa.stability(t1, flag, w) for flag, w in probes]
    calls = []
    count_calls(monkeypatch, calls, Fraction,
                ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"))
    after = [pa.stability(t1, flag, w) for flag, w in probes]
    assert calls == []
    assert after == before
    # a witness, and so its Fraction pardeg, is read on the memo hits too
    assert [v.status for v in before[3:]] == ["Unstable", "Stable", "StrictlySemistable"]
    assert before[3].witness.pardeg == pa.PROBE_MINUS.mu1 + pa.PROBE_MINUS.mu2


@pytest.mark.parametrize("chamber", [pa.CHAMBER_MINUS, pa.CHAMBER_PLUS])
def test_normalize_flag_builds_no_image_flag(curve, monkeypatch, chamber):
    t1 = t1_class(curve)
    P, L = PlanePoint.of(1, 2, 3), PlaneLine.of(1, 1, -1)
    flag = pa.Flag(P, L)
    assert pa.locus(t1, flag) == pa.LOCUS_UGEN
    built = []
    for cls, name in ((pa.Flag, "__init__"), (PlanePoint, "of"), (PlaneLine, "of")):
        count_calls(monkeypatch, built, cls, (name,))
    coord, _ = pa.normalize_flag(t1, flag, chamber)
    assert built == []
    # the gauge invariants of a T1 flag: -u p1 / (v p2) and -u p1 / (w p3)
    den = L.v * P.y if chamber == pa.CHAMBER_MINUS else L.w * P.z
    assert coord.close_to(pa.ProjScalar(-L.u * P.x, den), tol=1e-12)
