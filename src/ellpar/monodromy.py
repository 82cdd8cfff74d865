"""Classification of flat rank-3 trivial-determinant bundles from monodromy.

A flat bundle is given by the commuting pair (A, B) in SL(3, C) of monodromy
matrices along the two lattice loops (1, tau), each three rows of three
complex.  The pair splits into joint generalised eigenspaces, one per
eigenvalue cluster of A + kappa*B.  On a block with eigenvalues (a, b), write
A = a(I + n_A), B = b(I + n_B) and N = log(I + n) = n - n^2/2.  The block
contributes L_z (x) F, where z = from_holonomy(a, b) and F has the Jordan
type of N_B - tau N_A (Atiyah, Vector bundles over an elliptic curve, 1957);
the six types follow from these summands with no conjugator.

normal_form builds, from the same blocks, a conjugator to one of three normal
forms (simultaneously diagonal; a 1+2 block with a rank-1 Jordan block; a
full rank-3 Jordan block).  Pairs whose rank-1 nilpotent parts are not
proportional (one image and two kernels, or the transpose) fit none of them:
normal_form raises ExoticPairError, while classify_bundle reads them as T32.
"""

from __future__ import annotations

import cmath
import math

from . import jaclattice as jl
from .bundles import (BundleClass, LineLocus, PointLocus, SubbundleConfig, _shared_class,
                      _zero_sum_class, make_t3x)
from .jaclattice import EQ_TOL, PAIR_TOL, CurveSpec, JacPoint, Value
from .weierstrass import PlaneLine, PlanePoint, _cubic_roots

_I = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class NotCommutingError(ValueError):
    def __init__(self, residual):
        super().__init__(f"monodromy matrices do not commute (residual {residual:.3g})")
        self.residual = residual


class NotUnimodularError(ValueError):
    def __init__(self, which, residual):
        super().__init__(f"matrix {which} is not unimodular (|det - 1| = {residual:.3g})")
        self.which = which
        self.residual = residual


class EigenvalueSeparationError(ValueError):
    """Eigenvalues too close to separate into blocks, or too inaccurate to place their points."""


class ExoticPairError(ValueError):
    """Commuting pair with non-aligned rank-1 nilpotent parts.

    Such pairs are not covered by the three normal-form cases, so only
    normal_form raises this; the bundle is of type T32.
    """


class CommutingPair(Value):
    A: tuple  # three rows of three complex, from any 3x3 array-like
    B: tuple

    # compared and hashed by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, A, B):
        d = self.__dict__
        d["A"] = tuple(tuple(map(complex, row)) for row in A)
        d["B"] = tuple(tuple(map(complex, row)) for row in B)


class NormalForm(Value):
    case: str  # "i", "ii", "iii"
    params: tuple

    def __init__(self, case, params):
        d = self.__dict__
        d["case"], d["params"] = case, params


def _mul(X: tuple, Y: tuple) -> tuple:
    (y00, y01, y02), (y10, y11, y12), (y20, y21, y22) = Y
    return tuple((x0 * y00 + x1 * y10 + x2 * y20, x0 * y01 + x1 * y11 + x2 * y21,
                  x0 * y02 + x1 * y12 + x2 * y22) for x0, x1, x2 in X)


def _amax(M) -> float:
    return max(abs(x) for row in M for x in row)


def _dot(u, v) -> complex:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _adjugate(M, sign: float = -1.0) -> tuple[tuple, complex]:
    """The adjugate of M as nine entries row by row, and det M; with sign = 1
    and the moduli of M's entries, the absolute sums they are computed from."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    K = (m11 * m22 + sign * m12 * m21, m02 * m21 + sign * m01 * m22,
         m01 * m12 + sign * m02 * m11, m12 * m20 + sign * m10 * m22,
         m00 * m22 + sign * m02 * m20, m02 * m10 + sign * m00 * m12,
         m10 * m21 + sign * m11 * m20, m01 * m20 + sign * m00 * m21,
         m00 * m11 + sign * m01 * m10)
    return K, m00 * K[0] + m01 * K[3] + m02 * K[6]


def validate(pair: CommutingPair) -> CommutingPair:
    """Check |det - 1| and the commutator at PAIR_TOL, as both classifiers do."""
    A, B = pair.A, pair.B
    scale = max(_amax(A), _amax(B), 1.0)
    for which, M in (("A", A), ("B", B)):
        r = abs(_adjugate(M)[1] - 1.0)
        if r > PAIR_TOL * scale**3:
            raise NotUnimodularError(which, r)
    comm = max(abs(x - y) for r, s in zip(_mul(A, B), _mul(B, A)) for x, y in zip(r, s))
    if comm > PAIR_TOL * scale**2:
        raise NotCommutingError(comm)
    return pair


# Two fixed generic weights for C = A + kappa*B; the second is used only when
# the first makes eigenvalues of different joint blocks collide.
_KAPPAS = (0.6180339887498949 + 0.3660254037844386j,
           -0.4142135623730951 + 0.7320508075688772j)
# relative rounding of the characteristic polynomial's coefficients, against
# the absolute sums they are computed from (sums of up to six products): 8 eps
_EIG_ETA = 8 * 2.0**-52


def _clusters(C: tuple, level: int) -> list[tuple[complex, int]]:
    """The eigenvalues of C, the roots of p(x) = x^3 - t x^2 + s x - d, as
    (value, multiplicity).  An m-fold cluster lies within the pseudozero radius
    (m! eta S(x) / |p^(m)(x)|)^(1/m) of its mean x (Mosier, Math. Comp. 47,
    1986); S(x) weights x^2, x and 1 by the absolute sums that t, s and d are
    computed from; p'''(x) = 6 and p''(x) = 6x - 2t.  Level 1 skips the triple
    and takes the closest pair whatever its spread; level 2 takes simple roots."""
    (K, d), (Ka, da) = _adjugate(C), _adjugate([[abs(x) for x in r] for r in C], 1.0)
    t = C[0][0] + C[1][1] + C[2][2]
    roots = _cubic_roots(1, -t, K[0] + K[4] + K[8], -d)
    S = (abs(C[0][0]) + abs(C[1][1]) + abs(C[2][2]), Ka[0] + Ka[4] + Ka[8], da)

    def eta_s(x):
        return _EIG_ETA * ((S[0] * abs(x) + S[1]) * abs(x) + S[2])

    if level == 0 and max(abs(r - t / 3) for r in roots) <= eta_s(t / 3) ** (1 / 3):
        return [(t / 3, 3)]
    k = min(range(3), key=lambda k: abs(roots[k - 1] - roots[k - 2]))
    x, half = (roots[k - 1] + roots[k - 2]) / 2, abs(roots[k - 1] - roots[k - 2]) / 2
    if level == 1 or level == 0 and half * half * abs(6 * x - 2 * t) <= 2 * eta_s(x):
        return [(roots[k], 1), (x, 2)]
    return [(r, 1) for r in roots]


def _null_vectors(C: tuple, c: complex):
    """Right and left null vectors v, w of M = C - cI with w.v = 1, or None:
    the largest column and row of M's adjugate, at c and then at c refined by
    the two-sided Rayleigh quotient c + w(M)v / w.v.  A shift at which w and v
    are within sqrt(eta) of orthogonal, as at a multiple eigenvalue, keeps the
    last pair."""
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = C
    found = None
    for refine in (True, False):
        M = ((c00 - c, c01, c02), (c10, c11 - c, c12), (c20, c21, c22 - c))
        K = _adjugate(M)[0]
        k = list(map(abs, K))
        cols = (k[0] + k[3] + k[6], k[1] + k[4] + k[7], k[2] + k[5] + k[8])
        rows = (k[0] + k[1] + k[2], k[3] + k[4] + k[5], k[6] + k[7] + k[8])
        j, i = cols.index(max(cols)), rows.index(max(rows))
        v, w = (K[j], K[j + 3], K[j + 6]), K[3 * i:3 * i + 3]
        wv = _dot(w, v)
        if abs(wv) <= _EIG_ETA ** 0.5 * cols[j] * rows[i]:
            break
        found = v, (w[0] / wv, w[1] / wv, w[2] / wv)
        if refine:
            c += _dot(w, (_dot(M[0], v), _dot(M[1], v), _dot(M[2], v))) / wv
    return found


def _nilpotent(M: tuple, lam: complex, P: tuple) -> tuple[tuple, tuple]:
    """n = (M/lam - I) P and n^2: the nilpotent part of M on the block P."""
    n = tuple(tuple(x / lam - p for x, p in zip(r, q))
              for r, q in zip(M if P is _I else _mul(M, P), P))
    return n, _mul(n, n)


def _joint_blocks(A: tuple, B: tuple) -> list[tuple]:
    """Joint generalised eigenspaces of a commuting pair as (m, a, b, P, nA, nB),
    one per eigenvalue cluster of C = A + kappa*B: A and B have eigenvalues a
    and b on the m-dimensional block.  A simple eigenvalue with null vectors
    v, w reads a = w(A)v and b = w(B)v, and P = v spans its block.  A multiple
    one has the projector P = I, or I - v w^T after a 1+2 split, and nA, nB
    are its nilpotent parts (n, n^2).  A split with a simple eigenvalue
    without null vectors, or a multiple block that is not scalar plus
    nilpotent at EQ_TOL, is retried under the second kappa, then at the next
    finer split (3, then 1+2, then 1+1+1).  A multiple block whose mean
    eigenvalue a or b cancels to 0 raises EigenvalueSeparationError at once."""
    for level in range(3):
        for kappa in _KAPPAS:
            C = tuple(tuple(x + kappa * y for x, y in zip(r, s)) for r, s in zip(A, B))
            vws = [_null_vectors(C, c) for c, m in _clusters(C, level) if m == 1]
            if None in vws:
                continue
            out = [(1, _dot(w, [_dot(r, v) for r in A]), _dot(w, [_dot(r, v) for r in B]),
                    v, None, None) for v, w in vws]
            m = 3 - len(out)
            if m == 0:
                return out
            P = _I if m == 3 else tuple(tuple(e - x * y for e, y in zip(r, vws[0][1]))
                                        for r, x in zip(_I, vws[0][0]))
            a = (A[0][0] + A[1][1] + A[2][2] - sum(blk[1] for blk in out)) / m
            b = (B[0][0] + B[1][1] + B[2][2] - sum(blk[2] for blk in out)) / m
            if not a or not b:
                # the trace minus the simple eigenvalues lost every digit of
                # the block's: an eigenvalue of a unimodular matrix is never 0
                raise EigenvalueSeparationError("a multiple eigenvalue cancels to 0 in the trace")
            nA, nB = _nilpotent(A, a, P), _nilpotent(B, b, P)
            if all(_amax(n2 if m == 2 else _mul(n2, n)) <= EQ_TOL * _amax(n) ** (m - 1) * _amax(P)
                   for n, n2 in (nA, nB)):
                return out + [(m, a, b, P, nA, nB)]
    raise EigenvalueSeparationError("eigenvalues of different joint blocks collide")


def _is_zero(n, P, tol: float) -> bool:
    return _amax(n) <= tol * _amax(P)


def _is_regular(nil: tuple[tuple, tuple]) -> bool:
    """Whether the nilpotent n, as (n, n^2), on a 3-dimensional block has rank 2.

    n = c1 N + c2 N^2 gives n^2 = c1^2 N^2, so |n^2| / |n| is about
    c1^2 / max(|c1|, |c2|), a distance from the rank-1 nilpotents that
    roundoff moves only linearly.
    """
    return _amax(nil[1]) > EQ_TOL * _amax(nil[0])


def normal_form(pair: CommutingPair):
    """Reduce a valid commuting pair to its normal form.  As in
    classify_bundle, the nilpotency tests read EQ_TOL.

    Returns (form, conjugator P, swapped) with
    inv(P) @ M1 @ P and inv(P) @ M2 @ P reproducing the normal-form matrices,
    where (M1, M2) = (A, B), or (B, A) when swapped.  The bases come from the
    joint blocks; ExoticPairError is raised for a single block whose rank-1
    nilpotent parts are not proportional.
    """
    import numpy as np

    def _unimodular(P):
        return P / np.linalg.det(P) ** (1.0 / 3.0)

    validate(pair)
    tol = EQ_TOL
    blocks = _joint_blocks(pair.A, pair.B)
    A, B = np.array(pair.A), np.array(pair.B)
    if all(m == 1 or _is_zero(nA[0], P, tol) and _is_zero(nB[0], P, tol)
           for m, _, _, P, nA, nB in blocks):
        # case (i): any basis of each block (P, or v for m = 1) diagonalises both
        P = _unimodular(np.column_stack([np.linalg.svd(np.reshape(P, (3, -1)))[0][:, :m]
                                         for m, _, _, P, *_ in blocks]))
        Pi = np.linalg.inv(P)
        params = (*np.diag(Pi @ A @ P), *np.diag(Pi @ B @ P))
        return NormalForm("i", tuple(params)), P, False

    m, a, b, P, nA, nB = next(blk for blk in blocks if blk[0] > 1)
    regular = [m == 3 and _is_regular(n) for n in (nA, nB)]
    # M1 carries the Jordan block, the regular one if there is one
    swapped = not regular[0] and (regular[1] or _is_zero(nA[0], P, tol))
    (a1, n1), (a2, n2) = ((b, nB), (a, nA)) if swapped else ((a, nA), (b, nB))
    M1, M2 = (B, A) if swapped else (A, B)
    if any(regular):
        # case (iii): a cyclic vector e_k of the regular nilpotent part N of M1
        N, N2 = a1 * np.array(n1[0]), a1**2 * np.array(n1[1])
        k = int(np.argmax(np.linalg.norm(N2, axis=0)))
        P = _unimodular(np.column_stack([N2[:, k], N[:, k], np.eye(3)[:, k]]))
        M2n = np.linalg.inv(P) @ M2 @ P
        b1 = (M2n[0, 1] + M2n[1, 2]) / 2.0
        return NormalForm("iii", (a1, a2, b1, M2n[0, 2])), P, swapped

    # case (ii): a rank-1 Jordan block, M1 w2 = a1 w2 + w1, with w2 the unit
    # vector of the block that N1 moves most
    n1, n2 = np.array(n1[0]), np.array(n2[0])
    W = np.linalg.svd(np.array(P))[0][:, :m]
    w2 = W[:, int(np.argmax(np.linalg.norm(n1 @ W, axis=0)))]
    w1 = a1 * n1 @ w2
    beta = np.vdot(w1, n2 @ w2) / np.vdot(w1, n1 @ w2)
    if not _is_zero(n2 - beta * n1, P, tol):
        raise ExoticPairError("commuting pair outside the three normal forms "
                              "(non-aligned rank-1 nilpotents); bundle type T32")
    if m == 2:
        u = np.array(next(v for k, _, _, v, *_ in blocks if k == 1))
    else:
        # a kernel vector of N1 orthogonal to its image w1
        u = np.linalg.svd(np.vstack([n1, w1.conj()]))[2][-1].conj()
    P = _unimodular(np.column_stack([u, w1, w2]))
    return NormalForm("ii", (a1, a2, a2 * beta / a1)), P, swapped


def classify_bundle(pair: CommutingPair, curve: CurveSpec) -> BundleClass:
    """Bundle type of the flat bundle with monodromy (A, B) along (1, tau),
    from the Atiyah summands L_z (x) F of its joint blocks.  The nilpotency
    tests read this module's EQ_TOL; coincidence and 3-torsion are decided at
    jaclattice.EQ_TOL, and summand points that, counted with their sizes, do
    not sum to 0 raise EigenvalueSeparationError."""
    validate(pair)
    tau = curve.tau
    scale = EQ_TOL * max(1.0, abs(tau))
    summands: list[tuple[JacPoint, int]] = []
    for m, a, b, P, nA, nB in _joint_blocks(pair.A, pair.B):
        z = jl.from_holonomy(a, b, curve)
        if m == 1:
            summands.append((z, 1))
            continue
        # Ñ = N_B - tau N_A with N = n - n^2/2
        Nt = tuple(tuple(y - y2 / 2 - tau * (x - x2 / 2) for x, x2, y, y2 in zip(*rows))
                   for rows in zip(*nA, *nB))
        if _is_zero(Nt, P, scale):
            summands += [(z, 1)] * m
            continue
        # Ñ is regular only if A or B is.  Then Ñ^2 = c1^2 N1^2 with
        # N1 = M1 - lambda I for the regular M1, so |c1| is read in the Jordan
        # basis of M1, as the normal form (iii) would give it
        N1sq = next((abs(lam) ** 2 * _amax(nil[1]) for lam, nil in ((a, nA), (b, nB))
                     if m == 3 and _is_regular(nil)), None)
        if N1sq is not None and _amax(_mul(Nt, Nt)) > scale**2 * N1sq:
            summands.append((z, 3))
        else:
            summands += [(z, 2)] + [(z, 1)] * (m - 2)

    if not jl.sums_to_zero(*(z for z, k in summands for _ in range(k))):
        raise EigenvalueSeparationError("eigenvalues read too inaccurately to place their points")
    by_size = {k: z for z, k in summands}
    if 3 in by_size:
        return make_t3x("T31", by_size[3])
    if 2 in by_size:
        z = by_size[2]
        if jl.is_torsion(z, 3):
            return BundleClass("T32", point=jl.snap_to_torsion(z, 3))
        return BundleClass("T21", point=z)
    # semisimple, its zero sum checked above: T21/T31 at the repeated point read T22/T33
    cls = _zero_sum_class(*(z for z, _ in summands))
    if cls.label == "T1":
        return cls
    return BundleClass("T22" if cls.label == "T21" else "T33", point=cls.point)


def _eigenvalues(b1: complex, b2: complex) -> tuple[complex, complex, complex]:
    """b1, b2 and b3 = 1/(b1 b2), refused where b1 b2 or b3 is 0 or not
    finite: the product has overflowed or underflowed, or an entry is 0."""
    b1, b2 = complex(b1), complex(b2)
    p = b1 * b2
    b3 = 1.0 / p if p else 0j
    if not (b3 and cmath.isfinite(p) and cmath.isfinite(b3)):
        raise ValueError("b1 b2 and b3 = 1/(b1 b2) must be nonzero and finite")
    return b1, b2, b3


def universal_pair(b1: complex, b2: complex, kind: str = "generic") -> CommutingPair:
    """The two explicit universal families: A = I and B diagonal or triangular."""
    b1, b2, b3 = _eigenvalues(b1, b2)
    if kind == "decomposable":
        B = ((b1, 0, 0), (0, b2, 0), (0, 0, b3))
    elif kind == "generic":
        B = ((b1, 1, 0), (0, b2, 1), (0, 0, b3))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return CommutingPair(_I, B)


def universal_class(b1: complex, b2: complex, kind: str, curve: CurveSpec) -> BundleClass:
    """The class of universal_pair(b1, b2, kind) from its parameters, with no
    matrix read (Atiyah's summands, as in classify_bundle).  Eigenvalue b of
    B (A = I) is the summand point z = from_holonomy(1, b) = log(b)/(2 pi i)
    mod Lambda; the three points sum to 0, and merge_triple decides once which
    coincide.  A diagonal B makes every coincidence semisimple: T21 reads T22
    and T31 reads T33.  A triangular B is non-derogatory, so coincident
    members i, j are one Jordan block when their tau-lift
    m = round(-ln|b_i/b_j| / (2 pi Im tau)) is 0, and two blocks, whose
    eigenvalues differ by the factor q^m with q = e^(2 pi i tau), when not.
    """
    bs = _eigenvalues(b1, b2)
    if kind not in ("generic", "decomposable"):
        raise ValueError(f"unknown kind {kind!r}")
    zs = jl.merge_triple([jl.from_holonomy(1, b, curve) for b in bs])
    cls = _shared_class(jl.canonical_sort(zs))
    if cls.label == "T1":
        return cls
    if kind == "decomposable":
        return BundleClass("T22" if cls.label == "T21" else "T33", point=cls.point)
    # a block is the members of one point (one object after the merge) with
    # one tau-lift against its first member: T21 with three blocks reads T22,
    # and T31 with 1, 2 or 3 reads T31, T32 or T33
    lift = 2 * math.pi * curve.tau.imag
    firsts: dict[int, float] = {}
    blocks = set()
    for z, b in zip(zs, bs):
        log_b = math.log(abs(b))
        blocks.add((id(z), round((firsts.setdefault(id(z), log_b) - log_b) / lift)))
    if cls.label == "T21":
        return cls if len(blocks) == 2 else BundleClass("T22", point=cls.point)
    return BundleClass(("T31", "T32", "T33")[len(blocks) - 1], point=cls.point)


def universal_config(b1: complex, b2: complex):
    """Fiber-plane loci of the degree-0 subbundles of the generic universal
    family, refused exactly where b1 b2 (b3 = 1/(b1 b2)), b2 - b1, 1 - b1 b2^2
    (b2 = b3) or 1 - b1^2 b2 (b1 = b3) is 0: an eigenvalue is 0, inf or double.
    The squares are products, so that a value the floats cannot hold is inf
    or nan, not an OverflowError; it is refused alike."""
    b1, b2 = complex(b1), complex(b2)
    p = b1 * b2
    d12, d23, d13 = b2 - b1, 1 - b1 * (b2 * b2), 1 - (b1 * b1) * b2
    if p and d12 and d23 and d13:
        L3 = (p * p, p * d13, d13 * d23)
        c13, c23 = -p / d23, -p / d13
        if all(map(cmath.isfinite, (d12, *L3, c13, c23))):
            return SubbundleConfig(
                rank1=tuple(PointLocus(0, point=q) for q in (
                    PlanePoint.of(1, 0, 0), PlanePoint.of(1, d12, 0), PlanePoint.of(*L3))),
                rank2=tuple(LineLocus(0, line=l) for l in (
                    PlaneLine.of(0, 0, 1), PlaneLine.of(0, 1, c13), PlaneLine.of(-d12, 1, c23))),
            )
    raise ValueError("zero or coincident eigenvalues: the configuration degenerates")
