"""Classification of flat rank-3 trivial-determinant bundles from monodromy.

A flat bundle is given by the commuting pair (A, B) in SL(3, C) of monodromy
matrices along the two lattice loops (1, tau).  The pair splits into joint
generalised eigenspaces, found as the Frobenius covariants of A + kappa*B.
On a block with eigenvalues (a, b), write A = a(I + n_A), B = b(I + n_B) and
N = log(I + n) = n - n^2/2.  The block contributes L_z (x) F, where
z = from_holonomy(a, b) and F has the Jordan type of N_B - tau N_A (Atiyah,
Vector bundles over an elliptic curve, 1957); the six types follow from these
summands with no eigenvectors and no conjugator.

normal_form builds, from the same blocks, a conjugator to one of three normal
forms (simultaneously diagonal; a 1+2 block with a rank-1 Jordan block; a
full rank-3 Jordan block).  Pairs whose rank-1 nilpotent parts are not
proportional (one image and two kernels, or the transpose) fit none of them:
normal_form raises ExoticPairError, while classify_bundle reads them as T32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jaclattice as jl
from .bundles import (BundleClass, LineLocus, PointLocus, SubbundleConfig, classify_triple,
                      make_t21, make_t22, make_t3x)
from .jaclattice import EQ_TOL, CurveSpec, JacPoint
from .weierstrass import PlaneLine, PlanePoint

DEFAULT_TOL = 1e-8


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
    """Eigenvalues of different joint blocks too close to separate."""


class ExoticPairError(ValueError):
    """Commuting pair with non-aligned rank-1 nilpotent parts.

    Such pairs are not covered by the three normal-form cases, so only
    normal_form raises this; the bundle is of type T32.
    """


@dataclass(frozen=True, eq=False)
class CommutingPair:
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=complex).reshape(3, 3))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex).reshape(3, 3))


@dataclass(frozen=True)
class NormalForm:
    case: str  # "i", "ii", "iii"
    params: tuple

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        if self.case == "i":
            a1, a2, a3, b1, b2, b3 = self.params
            return np.diag([a1, a2, a3]).astype(complex), np.diag([b1, b2, b3]).astype(complex)
        if self.case == "ii":
            a, b, b1 = self.params
            A = np.array([[a**-2, 0, 0], [0, a, 1], [0, 0, a]], dtype=complex)
            B = np.array([[b**-2, 0, 0], [0, b, b1], [0, 0, b]], dtype=complex)
            return A, B
        a, b, b1, b2 = self.params
        A = np.array([[a, 1, 0], [0, a, 1], [0, 0, a]], dtype=complex)
        B = np.array([[b, b1, b2], [0, b, b1], [0, 0, b]], dtype=complex)
        return A, B


def validate(pair: CommutingPair, tol: float = DEFAULT_TOL) -> CommutingPair:
    """Check |det - 1| and the commutator at tolerance."""
    scale = max(np.abs(pair.A).max(), np.abs(pair.B).max(), 1.0)
    for which, M in (("A", pair.A), ("B", pair.B)):
        r = abs(np.linalg.det(M) - 1.0)
        if r > tol * scale**3:
            raise NotUnimodularError(which, r)
    comm = np.abs(pair.A @ pair.B - pair.B @ pair.A).max()
    if comm > tol * scale**2:
        raise NotCommutingError(comm)
    return pair


# Two fixed generic weights for C = A + kappa*B; the second is used only when
# the first makes eigenvalues of different joint blocks collide.
_KAPPAS = (0.6180339887498949 + 0.3660254037844386j,
           -0.4142135623730951 + 0.7320508075688772j)
# relative backward error of eigvals: an m-fold eigenvalue splits by up to
# (4 eps)^(1/m) times the size of the matrix
_EIG_ETA = 4 * np.finfo(float).eps


def _clusters(c: np.ndarray, trace: complex, scale: float) -> list[tuple[complex, int]]:
    """Group the three eigenvalues c of a 3x3 matrix into (mean, multiplicity).

    An m-fold cluster is one whose members all lie within the splitting radius
    of its mean; the triple is tested first.
    """
    mean = trace / 3
    if max(abs(v - mean) for v in c) < _EIG_ETA ** (1 / 3) * scale:
        return [(mean, 3)]
    for k in range(3):
        mean = (trace - c[k]) / 2
        if max(abs(v - mean) for j, v in enumerate(c) if j != k) < _EIG_ETA ** (1 / 2) * scale:
            return [(c[k], 1), (mean, 2)]
    return [(v, 1) for v in c]


def _nilpotent(M: np.ndarray, lam: complex, P: np.ndarray) -> np.ndarray:
    """(M/lam - I) P: the nilpotent part of M on the block P, relative to lam."""
    return M @ P / lam - P


def _is_nilpotent(n: np.ndarray, m: int, P: np.ndarray, tol: float) -> bool:
    nm = np.abs(np.linalg.matrix_power(n, m)).max()
    return nm <= tol * np.abs(n).max() ** (m - 1) * np.abs(P).max()


def _joint_blocks(A: np.ndarray, B: np.ndarray,
                  tol: float) -> list[tuple[int, np.ndarray, complex, complex]]:
    """Joint generalised eigenspaces of a commuting pair as (m, P, a, b).

    P is the projector onto an m-dimensional block on which A and B have the
    single eigenvalues a and b.  The projectors are Frobenius covariants of
    C = A + kappa*B, which has one eigenvalue per block for generic kappa.
    """
    I = np.eye(3)
    for kappa in _KAPPAS:
        C = A + kappa * B
        clusters = _clusters(np.linalg.eigvals(C), np.trace(C), np.abs(C).sum())
        blocks = []
        rest = I.astype(complex)
        for k, (ck, mk) in enumerate(clusters):
            if mk == 1:
                P = I
                for j, (cj, mj) in enumerate(clusters):
                    if j != k:
                        P = P @ np.linalg.matrix_power((C - cj * I) / (ck - cj), mj)
                blocks.append((1, P))
                rest = rest - P
        blocks += [(mk, rest) for _, mk in clusters if mk > 1]
        out = [(m, P, np.trace(A @ P) / m, np.trace(B @ P) / m) for m, P in blocks]
        if all(m == 1 or (_is_nilpotent(_nilpotent(A, a, P), m, P, tol)
                          and _is_nilpotent(_nilpotent(B, b, P), m, P, tol))
               for m, P, a, b in out):
            return out
    raise EigenvalueSeparationError("eigenvalues of different joint blocks collide")


def _unimodular(P: np.ndarray) -> np.ndarray:
    d = np.linalg.det(P)
    return P / d ** (1.0 / 3.0)


def _is_zero(n: np.ndarray, P: np.ndarray, tol: float) -> bool:
    return np.abs(n).max() <= tol * np.abs(P).max()


def _is_regular(n: np.ndarray, tol: float) -> bool:
    """Whether the nilpotent n on a 3-dimensional block has rank 2.

    n = c1 N + c2 N^2 gives n^2 = c1^2 N^2, so |n^2| / |n| is about
    c1^2 / max(|c1|, |c2|), a distance from the rank-1 nilpotents that
    roundoff moves only linearly.
    """
    return np.abs(n @ n).max() > tol * np.abs(n).max()


def normal_form(pair: CommutingPair,
                tol: float = DEFAULT_TOL) -> tuple[NormalForm, np.ndarray, bool]:
    """Reduce a valid commuting pair to its normal form.

    Returns (form, conjugator P, swapped) with
    inv(P) @ M1 @ P and inv(P) @ M2 @ P reproducing the normal-form matrices,
    where (M1, M2) = (A, B), or (B, A) when swapped.  The bases come from the
    joint-block projectors; ExoticPairError is raised for a single block whose
    rank-1 nilpotent parts are not proportional.
    """
    validate(pair, tol=max(tol, 1e-7))
    A, B = pair.A, pair.B
    blocks = [(m, P, a, b, _nilpotent(A, a, P), _nilpotent(B, b, P))
              for m, P, a, b in _joint_blocks(A, B, tol)]

    if all(m == 1 or _is_zero(nA, P, tol) and _is_zero(nB, P, tol)
           for m, P, _, _, nA, nB in blocks):
        # case (i): any basis of each block diagonalises both matrices
        P = _unimodular(np.column_stack([np.linalg.svd(P)[0][:, :m]
                                         for m, P, *_ in blocks]))
        Pi = np.linalg.inv(P)
        params = (*np.diag(Pi @ A @ P), *np.diag(Pi @ B @ P))
        return NormalForm("i", tuple(params)), P, False

    m, P, a, b, nA, nB = next(blk for blk in blocks if blk[0] > 1)
    regular = [m == 3 and _is_regular(n, tol) for n in (nA, nB)]
    # M1 carries the Jordan block, the regular one if there is one
    swapped = not regular[0] and (regular[1] or _is_zero(nA, P, tol))
    (a1, n1), (a2, n2) = ((b, nB), (a, nA)) if swapped else ((a, nA), (b, nB))
    M1, M2 = (B, A) if swapped else (A, B)
    if any(regular):
        # case (iii): a cyclic vector of the regular nilpotent part of M1
        N = a1 * n1
        v = np.eye(3)[:, int(np.argmax(np.linalg.norm(N @ N, axis=0)))]
        P = _unimodular(np.column_stack([N @ N @ v, N @ v, v]))
        M2n = np.linalg.inv(P) @ M2 @ P
        b1 = (M2n[0, 1] + M2n[1, 2]) / 2.0
        return NormalForm("iii", (a1, a2, b1, M2n[0, 2])), P, swapped

    # case (ii): a rank-1 Jordan block, M1 w2 = a1 w2 + w1, with w2 the unit
    # vector of the block that N1 moves most
    W = np.linalg.svd(P)[0][:, :m]
    w2 = W[:, int(np.argmax(np.linalg.norm(n1 @ W, axis=0)))]
    w1 = a1 * n1 @ w2
    beta = np.vdot(w1, n2 @ w2) / np.vdot(w1, n1 @ w2)
    if not _is_zero(n2 - beta * n1, P, tol):
        raise ExoticPairError("commuting pair outside the three normal forms "
                              "(non-aligned rank-1 nilpotents); bundle type T32")
    if m == 2:
        u = np.linalg.svd(next(Q for k, Q, *_ in blocks if k == 1))[0][:, 0]
    else:
        # a kernel vector of N1 orthogonal to its image w1
        u = np.linalg.svd(np.vstack([n1, w1.conj()]))[2][-1].conj()
    P = _unimodular(np.column_stack([u, w1, w2]))
    return NormalForm("ii", (a1, a2, a2 * beta / a1)), P, swapped


def classify_bundle(pair: CommutingPair, curve: CurveSpec,
                    tol: float = EQ_TOL) -> BundleClass:
    """Bundle type of the flat bundle with monodromy (A, B) along (1, tau),
    from the Atiyah summands L_z (x) F of its joint blocks.  tol sets only the
    nilpotency tests; coincidence and 3-torsion are decided at EQ_TOL."""
    validate(pair, tol=1e-7)
    tau = curve.tau
    scale = tol * max(1.0, abs(tau))
    summands: list[tuple[JacPoint, int]] = []
    for m, P, a, b in _joint_blocks(pair.A, pair.B, tol):
        z = jl.from_holonomy(a, b, curve)
        nA, nB = _nilpotent(pair.A, a, P), _nilpotent(pair.B, b, P)
        Nt = nB - nB @ nB / 2 - tau * (nA - nA @ nA / 2)
        if m == 1 or _is_zero(Nt, P, scale):
            summands += [(z, 1)] * m
            continue
        # Ñ is regular only if A or B is.  Then Ñ^2 = c1^2 N1^2 with
        # N1 = M1 - lambda I for the regular M1, so |c1| is read in the Jordan
        # basis of M1, as the normal form (iii) would give it
        N1 = next((lam * n for lam, n in ((a, nA), (b, nB))
                   if m == 3 and _is_regular(n, tol)), None)
        if N1 is not None and np.abs(Nt @ Nt).max() > scale**2 * np.abs(N1 @ N1).max():
            summands.append((z, 3))
        else:
            summands += [(z, 2)] + [(z, 1)] * (m - 2)

    by_size = {k: z for z, k in summands}
    if 3 in by_size:
        return make_t3x("T31", by_size[3])
    if 2 in by_size:
        z = by_size[2]
        return make_t3x("T32", z) if jl.mul(3, z).is_zero(tol=EQ_TOL) else make_t21(z)
    # semisimple: classify_triple's T21/T31 (at the repeated point) read T22/T33
    cls = classify_triple(*(z for z, _ in summands))
    if cls.label == "T1":
        return cls
    return make_t22(cls.point) if cls.label == "T21" else make_t3x("T33", cls.point)


def universal_pair(b1: complex, b2: complex, kind: str = "generic") -> CommutingPair:
    """The two explicit universal families: A = I and B diagonal or triangular."""
    b1, b2 = complex(b1), complex(b2)
    if b1 == 0 or b2 == 0:
        raise ValueError("b1, b2 must be nonzero")
    b3 = 1.0 / (b1 * b2)
    A = np.eye(3, dtype=complex)
    if kind == "decomposable":
        B = np.diag([b1, b2, b3]).astype(complex)
    elif kind == "generic":
        B = np.array([[b1, 1, 0], [0, b2, 1], [0, 0, b3]], dtype=complex)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return CommutingPair(A, B)


def universal_config(b1: complex, b2: complex):
    """Fiber-plane loci of the degree-0 subbundles of the generic universal family."""
    b1, b2 = complex(b1), complex(b2)
    b3 = 1.0 / (b1 * b2)
    if min(abs(b1 - b2), abs(b1 - b3), abs(b2 - b3)) < 1e-9:
        raise ValueError("coincident eigenvalues: the configuration degenerates")
    L1 = PlanePoint.of(1, 0, 0)
    L2 = PlanePoint.of(1, b2 - b1, 0)
    L3 = PlanePoint.of((b1 * b2) ** 2,
                       b1 * b2 * (1 - b1**2 * b2),
                       (1 - b1**2 * b2) * (1 - b1 * b2**2))
    l12 = PlaneLine.of(0, 0, 1)
    l13 = PlaneLine.of(0, 1, -b1 * b2 / (1 - b1 * b2**2))
    l23 = PlaneLine.of(-(b2 - b1), 1, -b1 * b2 / (1 - b1**2 * b2))
    return SubbundleConfig(
        rank1=tuple(PointLocus(0, point=p) for p in (L1, L2, L3)),
        rank2=tuple(LineLocus(0, line=l) for l in (l12, l13, l23)),
    )
