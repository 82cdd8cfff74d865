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


# generic sample points, as lattice coordinates (s, t): irrational, away
# from torsion and the lattice
_BASE = [(0.2718 + 0.0531 * k, (0.3141 + 0.0377 * k * k) % 1) for k in range(8)]


def act_plane(g: ModularAuto, curve: CurveSpec) -> tuple[tuple[complex, ...], ...]:
    """Projective-linear lift of g to the embedded plane, as a 3x3 tuple of rows.

    Solved by DLT from 8 point correspondences embed(z) -> embed(g z) in
    general position, two linear rows each, nullspace by SVD (numpy's only call).
    """
    import numpy as np

    rows = []
    for s, t in _BASE:
        z = JacPoint(curve, s, t)
        x = embed(z, curve).vec()
        a, b, c = embed(act_point(g, z), curve).vec()
        rows.append([0j, 0j, 0j, *[-c * e for e in x], *[b * e for e in x]])
        rows.append([*[c * e for e in x], 0j, 0j, 0j, *[-a * e for e in x]])
    _, sv, vh = np.linalg.svd(np.array(rows), full_matrices=False)
    sv = sv.tolist()
    if sv[-2] < 1e-8 * sv[0]:
        raise ValueError("ill-conditioned correspondence system")
    m = [x.conjugate() for x in vh[-1].tolist()]
    # fix the scale by the first entry, in row-major order, of at least half
    # the largest modulus: entries of equal modulus cannot tie
    big = max(map(abs, m))
    pivot = next(x for x in m if abs(x) >= big / 2)
    return tuple(tuple(x / pivot for x in m[i:i + 3]) for i in (0, 3, 6))


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
