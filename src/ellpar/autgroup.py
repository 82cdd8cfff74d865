"""The order-18 modular automorphism group: tensoring by 3-torsion line
bundles and dualization, acting on bundle classes, on the embedded plane
(via a numerically solved projective-linear lift) and on parabolic data.

An element acts on the Jacobian by z -> (-z if dual else z) + shift, i.e.
dualization first, then translation; this makes the semidirect composition
law (s1, d1)(s2, d2) = (s1 + (d1 ? -s2 : s2), d1 xor d2) a genuine left
action.
"""

from __future__ import annotations

from . import jaclattice as jl
from .bundles import BundleClass
from .jaclattice import DLT_COND_TOL, CurveSpec, JacPoint, Value
from .parabolic import ProjScalar, _check_chamber, flip
from .weierstrass import embed


class ModularAuto(Value):
    shift: JacPoint  # the exact 3-torsion point the given shift names
    dual: bool

    def __init__(self, shift, dual):
        if not jl.is_torsion(shift, 3):
            raise ValueError("shift must be a 3-torsion point")
        d = self.__dict__
        d["shift"], d["dual"] = jl.snap_to_torsion(shift, 3), dual


def identity(curve: CurveSpec) -> ModularAuto:
    return ModularAuto(jl.zero(curve), False)


def compose(g1: ModularAuto, g2: ModularAuto) -> ModularAuto:
    s2 = jl.neg(g2.shift) if g1.dual else g2.shift
    return ModularAuto(jl.add(g1.shift, s2), g1.dual != g2.dual)


def group_elements(curve: CurveSpec) -> list[ModularAuto]:
    shifts = jl.torsion_points(3, curve)
    return [ModularAuto(t, d) for d in (False, True) for t in shifts]


def act_point(g: ModularAuto, z: JacPoint) -> JacPoint:
    w = jl.neg(z) if g.dual else z
    return jl.add(w, g.shift)


def act_class(g: ModularAuto, cls: BundleClass) -> BundleClass:
    """Tensor-and-dualize on the S-class: it keeps the label, deciding nothing again."""
    if cls.label == "T1":
        return BundleClass("T1", triple=tuple(jl.canonical_sort(act_point(g, z)
                                                                for z in cls.triple)))
    return BundleClass(cls.label, point=act_point(g, cls.point))


_IDENTITY = ((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j))

# generic sample points, as lattice coordinates (s, t): irrational, away
# from torsion and the lattice
_BASE = [(0.2718 + 0.0531 * k, (0.3141 + 0.0377 * k * k) % 1) for k in range(8)]


def act_plane(g: ModularAuto, curve: CurveSpec) -> tuple[tuple[complex, ...], ...]:
    """Projective-linear lift of g to the embedded plane, as a 3x3 tuple of rows.

    Solved by DLT from 8 point correspondences embed(z) -> embed(g z) in
    general position, two linear rows each, nullspace by SVD (numpy's only call).
    The pivot of the scale rule below is exactly 1.  The identity lifts to the
    identity matrix, exactly and without a solve.
    """
    if not (g.dual or g.shift.s or g.shift.t):
        return _IDENTITY
    import numpy as np

    rows: list[complex] = []  # the 16 rows of 9 entries, flat
    for s, t in _BASE:
        z = JacPoint(curve, s, t)
        p = embed(z, curve)
        x, y, w = p.x, p.y, p.z
        img = embed(act_point(g, z), curve)
        a, b, c = img.x, img.y, img.z
        rows += (0j, 0j, 0j, -c * x, -c * y, -c * w, b * x, b * y, b * w,
                 c * x, c * y, c * w, 0j, 0j, 0j, -a * x, -a * y, -a * w)
    _, sv, vh = np.linalg.svd(np.array(rows).reshape(16, 9), full_matrices=False)
    sv = sv.tolist()
    if sv[-2] < DLT_COND_TOL * sv[0]:
        raise ValueError("ill-conditioned correspondence system")
    m = [x.conjugate() for x in vh[-1].tolist()]
    # fix the scale by the first entry, in row-major order, of at least half
    # the largest modulus: entries of equal modulus cannot tie
    big = max(map(abs, m))
    k = next(i for i, x in enumerate(m) if abs(x) >= big / 2)
    pivot = m[k]
    m = [x / pivot for x in m]
    m[k] = 1 + 0j  # x / x is not always exactly 1 in complex arithmetic
    return tuple(m[0:3]), tuple(m[3:6]), tuple(m[6:9])


def act_parabolic(g: ModularAuto, cls: BundleClass, coord: ProjScalar,
                  chamber: str) -> tuple[BundleClass, ProjScalar, str]:
    """Action on normalized parabolic data (class, fiber coordinate, chamber).

    Tensoring fixes the normalized fiber coordinate; dualization transposes
    the flag, which swaps the chamber, and the datum is re-expressed in the
    original chamber by composing with the flip map.  The chamber is Pminus
    or Pplus, as normalize_flag requires.
    """
    _check_chamber(chamber)
    new_cls = act_class(g, cls)
    new_coord = flip(coord) if g.dual else coord
    return new_cls, new_coord, chamber
