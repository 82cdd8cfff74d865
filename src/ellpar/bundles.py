"""Six-type classification of semistable rank-3 trivial-determinant bundles.

A bundle class is encoded by a type label T1, T21, T22, T31, T32, T33 plus
the defining Jacobian data: a zero-sum triple of distinct points for T1, a
point z with 3z != 0 for T21/T22 (the graded triple is {-2z, z, z}), and a
3-torsion point for T31/T32/T33.

S-equivalence classes are canonically represented by the T1/T21/T31
representative, the one admitting stable parabolic structures; T22/T32/T33
are constructible explicitly for never-stable testing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import jaclattice as jl
from .jaclattice import CurveSpec, JacPoint, Value
from .weierstrass import PlaneLine, PlanePoint, line_through

LABELS = ("T1", "T21", "T22", "T31", "T32", "T33")

# fiber-plane normalization shared by all types (coordinates Z1, Z2, Z3)
E1 = PlanePoint.of(1, 0, 0)
E2 = PlanePoint.of(0, 1, 0)
E3 = PlanePoint.of(0, 0, 1)
LINE_Z1 = PlaneLine.of(1, 0, 0)
LINE_Z2 = PlaneLine.of(0, 1, 0)
LINE_Z3 = PlaneLine.of(0, 0, 1)


class BundleClass(Value):
    label: str
    # T1: canonical (sorted) zero-sum triple; others: single defining point
    triple: Optional[tuple[JacPoint, JacPoint, JacPoint]]
    point: Optional[JacPoint]

    def __init__(self, label, triple=None, point=None):
        if label not in LABELS:
            raise ValueError(f"unknown label {label}")
        if label == "T1":
            if triple is None or point is not None:
                raise ValueError("T1 carries a triple")
        else:
            if point is None or triple is not None:
                raise ValueError(f"{label} carries a single point")
        d = self.__dict__
        d["label"], d["triple"], d["point"] = label, triple, point

    @property
    def curve(self) -> CurveSpec:
        return (self.triple[0] if self.triple else self.point).curve

    def __repr__(self):
        data = self.triple if self.triple else self.point
        return f"BundleClass({self.label}, {data})"


class PointLocus(Value):
    """A family of degree-0 line subbundles seen in the fiber plane.

    dim 0: the isolated point; dim 1: a pencil of points sweeping ``sweep``;
    dim 2: every point of the plane.
    """

    dim: int
    point: Optional[PlanePoint]
    sweep: Optional[PlaneLine]

    def __init__(self, dim, point=None, sweep=None):
        d = self.__dict__
        d["dim"], d["point"], d["sweep"] = dim, point, sweep


class LineLocus(Value):
    """A family of degree-0 rank-2 subbundles seen as lines in the fiber plane.

    dim 0: the isolated line; dim 1: the pencil of lines through ``pencil``;
    dim 2: every line.
    """

    dim: int
    line: Optional[PlaneLine]
    pencil: Optional[PlanePoint]

    def __init__(self, dim, line=None, pencil=None):
        d = self.__dict__
        d["dim"], d["line"], d["pencil"] = dim, line, pencil


class SubbundleConfig(Value):
    rank1: tuple[PointLocus, ...]
    rank2: tuple[LineLocus, ...]

    def __init__(self, rank1, rank2):
        d = self.__dict__
        d["rank1"], d["rank2"] = rank1, rank2


def classify_triple(z1: JacPoint, z2: JacPoint, z3: JacPoint) -> BundleClass:
    """Classify a zero-sum triple of Jacobian points into T1 / T21 / T31.

    The representative convention picks the class admitting stable parabolic
    structures: all distinct -> T1, exactly two equal -> T21, all equal -> T31,
    with the coincidences of jaclattice.merge_triple; the zero sum and the
    coincidences are decided at jaclattice.EQ_TOL.  A coincident triple is
    refused only when its point is an exact member that is not exactly
    3-torsion; an approximate one, which the zero sum and the merge put
    within 4 EQ_TOL of a flex, reads that flex.
    """
    if not jl.sums_to_zero(z1, z2, z3):
        raise ValueError("triple does not sum to zero in the Jacobian")
    return _zero_sum_class(z1, z2, z3)


def _zero_sum_class(z1: JacPoint, z2: JacPoint, z3: JacPoint) -> BundleClass:
    """classify_triple of a triple its caller has found to sum to zero."""
    curve = z1.curve
    pts = jl.canonical_sort([jl.canon(z1, curve), jl.canon(z2, curve), jl.canon(z3, curve)])
    zs = jl.merge_triple(pts)
    z = zs[0]
    if z is zs[1] is zs[2] and z.is_exact and not jl.is_torsion(z, 3):
        raise ValueError("coincident triple is not 3-torsion")
    return _shared_class(zs)


def _shared_class(zs: Sequence[JacPoint]) -> BundleClass:
    """The class of a zero-sum triple in canonical order whose coincident
    points are one shared JacPoint, as jaclattice.merge_triple leaves them:
    one point thrice is T31 at the snapped flex, twice T21 there, and three
    points are T1 with the triple as given."""
    z1, z2, z3 = zs
    if z1 is z2 is z3:
        return BundleClass("T31", point=jl.snap_to_torsion(z1, 3))
    if z1 is z2 or z1 is z3 or z2 is z3:
        return BundleClass("T21", point=z3 if z2 is z3 else z1)
    return BundleClass("T1", triple=tuple(zs))


def make_t21(z: JacPoint) -> BundleClass:
    if jl.is_torsion(z, 3):
        raise ValueError("T21 requires 3z != 0")
    return BundleClass("T21", point=jl.canon(z, z.curve))


def make_t22(z: JacPoint) -> BundleClass:
    if jl.is_torsion(z, 3):
        raise ValueError("T22 requires 3z != 0")
    return BundleClass("T22", point=jl.canon(z, z.curve))


def make_t3x(label: str, z: JacPoint) -> BundleClass:
    if not jl.is_torsion(z, 3):
        raise ValueError(f"{label} requires a 3-torsion point")
    return BundleClass(label, point=jl.snap_to_torsion(z, 3))


def graded(cls: BundleClass) -> tuple[JacPoint, JacPoint, JacPoint]:
    """The Jordan-Hoelder graded triple; always sums to 0."""
    if cls.label == "T1":
        return cls.triple
    z = cls.point
    if cls.label in ("T21", "T22"):
        return tuple(jl.canonical_sort([jl.neg(jl.mul(2, z)), z, z]))
    return (z, z, z)


def tu_line(cls: BundleClass, curve: CurveSpec) -> PlaneLine:
    """The line in the dual plane attached to the S-class by Tu's bijection."""
    g = graded(cls)
    return line_through(g[0], g[1], g[2], curve)


_CONFIGS = {
    "T1": SubbundleConfig(
        rank1=(PointLocus(0, point=E1), PointLocus(0, point=E2), PointLocus(0, point=E3)),
        rank2=(LineLocus(0, line=LINE_Z1), LineLocus(0, line=LINE_Z2), LineLocus(0, line=LINE_Z3))),
    # L^{-2} at [0:0:1], L at [1:0:0]; E2 x L is {Z3=0}, L^{-2}+L is {Z2=0}
    "T21": SubbundleConfig(
        rank1=(PointLocus(0, point=E3), PointLocus(0, point=E1)),
        rank2=(LineLocus(0, line=LINE_Z3), LineLocus(0, line=LINE_Z2))),
    # the two equal factors sweep the line {Z3=0}; L^{-2} sits at [0:0:1]
    "T22": SubbundleConfig(
        rank1=(PointLocus(0, point=E3), PointLocus(1, sweep=LINE_Z3)),
        rank2=(LineLocus(0, line=LINE_Z3), LineLocus(1, pencil=E3))),
    "T31": SubbundleConfig(rank1=(PointLocus(0, point=E1),), rank2=(LineLocus(0, line=LINE_Z3),)),
    "T32": SubbundleConfig(
        rank1=(PointLocus(1, sweep=LINE_Z3),),
        rank2=(LineLocus(0, line=LINE_Z3), LineLocus(1, pencil=E1))),
    "T33": SubbundleConfig(rank1=(PointLocus(2),), rank2=(LineLocus(2),)),
}


def subbundle_config(cls: BundleClass) -> SubbundleConfig:
    """Degree-0 subbundle loci in the normalized fiber plane, per type."""
    return _CONFIGS[cls.label]


_ENDO_DIM = {"T1": 3, "T21": 3, "T22": 5, "T31": 3, "T32": 4, "T33": 9}
_SIGMA_COUNT = {"T1": 3, "T21": 2, "T31": 1}


def type_facts(label: str) -> tuple[int, bool, Optional[int]]:
    """(endomorphism dimension, admits stable parabolic structure, Sigma fiber count)."""
    if label not in LABELS:
        raise ValueError(f"unknown label {label}")
    return (_ENDO_DIM[label], label in _SIGMA_COUNT, _SIGMA_COUNT.get(label))
