"""The order-18 modular automorphism group: tensoring by 3-torsion line
bundles and dualization, acting on bundle classes, on the embedded plane
(via a numerically solved projective-linear lift) and on parabolic data.

An element acts on the Jacobian by z -> (-z if dual else z) + shift, i.e.
dualization first, then translation; this makes the semidirect composition
law (s1, d1)(s2, d2) = (s1 + (d1 ? -s2 : s2), d1 xor d2) a genuine left
action.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jaclattice as jl
from .bundles import BundleClass, classify_triple, graded, make_t21, make_t22, make_t3x
from .jaclattice import EQ_TOL, CurveSpec, JacPoint
from .parabolic import ProjScalar, flip
from .weierstrass import embed


@dataclass(frozen=True)
class ModularAuto:
    shift: JacPoint  # 3-torsion
    dual: bool

    def __post_init__(self):
        if not jl.mul(3, self.shift).is_zero(tol=EQ_TOL):
            raise ValueError("shift must be a 3-torsion point")


def identity(curve: CurveSpec) -> ModularAuto:
    return ModularAuto(jl.zero(curve), False)


def compose(g1: ModularAuto, g2: ModularAuto) -> ModularAuto:
    s2 = jl.neg(g2.shift) if g1.dual else g2.shift
    return ModularAuto(jl.add(g1.shift, s2), g1.dual != g2.dual)


def inverse(g: ModularAuto) -> ModularAuto:
    if g.dual:
        return g  # order-2 elements: dual compositions are involutions
    return ModularAuto(jl.neg(g.shift), False)


def group_elements(curve: CurveSpec) -> list[ModularAuto]:
    shifts = jl.torsion_points(3, curve)
    return [ModularAuto(t, d) for d in (False, True) for t in shifts]


def act_point(g: ModularAuto, z: JacPoint) -> JacPoint:
    w = jl.neg(z) if g.dual else z
    return jl.add(w, g.shift)


def act_class(g: ModularAuto, cls: BundleClass) -> BundleClass:
    """Tensor-and-dualize on the S-class; the label category is preserved."""
    if cls.label == "T1":
        return classify_triple(*(act_point(g, z) for z in graded(cls)))
    z = act_point(g, cls.point)
    if cls.label in ("T21", "T22"):
        return (make_t21 if cls.label == "T21" else make_t22)(z)
    return make_t3x(cls.label, z)


def act_plane(g: ModularAuto, curve: CurveSpec) -> "np.ndarray":
    """Projective-linear lift of g to the embedded plane, solved by DLT.

    Built from 8 point correspondences embed(z) -> embed(g z) in general
    position, two linear rows each, nullspace by SVD.
    """
    import numpy as np

    # generic sample points: irrational, away from torsion and the lattice
    base = [jl.canon(complex(0.2718 + 0.0531 * k + (0.3141 + 0.0377 * k * k) * curve.tau),
                     curve) for k in range(8)]
    rows = []
    for z in base:
        p = embed(z, curve)
        q = embed(act_point(g, z), curve)
        x = np.array(p.vec())
        xp = np.array(q.vec())
        zero3 = np.zeros(3, dtype=complex)
        rows.append(np.concatenate([zero3, -xp[2] * x, xp[1] * x]))
        rows.append(np.concatenate([xp[2] * x, zero3, -xp[0] * x]))
    A = np.array(rows)
    _, s, vh = np.linalg.svd(A)
    if s[-2] < 1e-8 * s[0]:
        raise ValueError("ill-conditioned correspondence system")
    M = vh.conj()[-1].reshape(3, 3)
    # fix the scale by the first entry, in row-major order, of at least half
    # the largest modulus: entries of equal modulus cannot tie
    big = np.abs(M).max()
    return M / next(x for x in M.flat if abs(x) >= big / 2)


def act_parabolic(g: ModularAuto, cls: BundleClass, coord: ProjScalar,
                  chamber: str) -> tuple[BundleClass, ProjScalar, str]:
    """Action on normalized parabolic data (class, fiber coordinate, chamber).

    Tensoring fixes the normalized fiber coordinate; dualization transposes
    the flag, which swaps the chamber, and the datum is re-expressed in the
    original chamber by composing with the flip map.
    """
    new_cls = act_class(g, cls)
    new_coord = flip(coord) if g.dual else coord
    return new_cls, new_coord, chamber
