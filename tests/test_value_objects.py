"""The contract of the frozen value classes (jaclattice.Value), whose
constructors write the instance dict: immutable, compared and hashed by their
fields only, built positionally or by keyword, weakly referenceable, and
refusing what they refused before."""

import weakref
from fractions import Fraction

import pytest

from ellpar import modspace as ms
from ellpar import parabolic as pa
from ellpar import weierstrass as we
from ellpar.autgroup import ModularAuto
from ellpar.bundles import BundleClass, LineLocus, PointLocus, SubbundleConfig
from ellpar.jaclattice import CurveSpec, FrozenInstanceError, JacPoint
from ellpar.monodromy import NormalForm

from conftest import TAU

CURVE = CurveSpec(TAU)
THIRD = JacPoint(CURVE, Fraction(1, 3), Fraction(0))
# a flag: P on L
P, L = we.PlanePoint.of(1, 2, 3), we.PlaneLine.of(1, 1, -1)

# each class with the keyword arguments of one instance, and one field changed
VALUES = [
    (JacPoint, {"curve": CURVE, "s": Fraction(1, 3), "t": 0.25}, {"t": 0.5}),
    (we.PlanePoint, {"x": 1 + 0j, "y": 2j, "z": -0.5 + 0j}, {"z": -0.0j}),
    (we.PlaneLine, {"u": 1 + 0j, "v": -1 + 0j, "w": 0.5j}, {"u": 0j}),
    (pa.ProjScalar, {"num": 2 + 1j, "den": 1 + 0j}, {"den": 0j}),
    (pa.Witness, {"rank": 2, "locus": we.PlaneLine(1 + 0j, 0j, 0j), "pardeg": Fraction(1, 10)},
     {"pardeg": 0.1}),
    (pa.Verdict, {"status": "Unstable",
                  "witness": pa.Witness(1, we.PlanePoint(1 + 0j, 0j, 0j), Fraction(1, 5))},
     {"witness": None}),
    (CurveSpec, {"tau": 0.5 + 1j}, {"tau": 1j}),
    (BundleClass, {"label": "T21", "triple": None, "point": THIRD},
     {"point": JacPoint(CURVE, 0.5, 0.25)}),
    (BundleClass, {"label": "T1", "triple": (THIRD, THIRD, THIRD), "point": None},
     {"triple": (THIRD,) * 2 + (JacPoint(CURVE, 0.5, 0.25),)}),
    (ms.IncidencePoint, {"x": P, "line": L}, {"x": we.PlanePoint.of(1, 0, 1)}),
    (pa.Flag, {"P": P, "L": L}, {"P": we.PlanePoint.of(1, 0, 1)}),
    # the pair keeps its points in canonical order
    (ms.SymPair, {"p1": THIRD, "p2": JacPoint(CURVE, 0.5, 0.25)},
     {"p2": JacPoint(CURVE, 0.75, 0.25)}),
    (pa.Weights, {"mu1": Fraction(1, 5), "mu2": Fraction(1, 10), "mu3": Fraction(-3, 10)},
     {"mu1": 0.2}),
    (ModularAuto, {"shift": THIRD, "dual": False}, {"dual": True}),
    (PointLocus, {"dim": 1, "point": None, "sweep": L}, {"sweep": we.PlaneLine.of(0, 0, 1)}),
    (LineLocus, {"dim": 0, "line": L, "pencil": None}, {"dim": 1}),
    (SubbundleConfig, {"rank1": (PointLocus(0, P),), "rank2": ()},
     {"rank2": (LineLocus(0, L),)}),
    (NormalForm, {"case": "ii", "params": (1j, 2 + 0j, 0.5j)}, {"case": "iii"}),
]
IDS = [cls.__name__ + (f"-{kwargs['label']}" if cls is BundleClass else "")
       for cls, kwargs, _ in VALUES]


def _astuple(v) -> tuple:
    return tuple(getattr(v, name) for name in v._fields)


def _rebuilt(v):
    """v built again from its fields by keyword."""
    return type(v)(**dict(zip(v._fields, _astuple(v))))


@pytest.mark.parametrize("cls,kwargs,changed", VALUES, ids=IDS)
def test_value_objects_are_frozen(cls, kwargs, changed):
    v = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(FrozenInstanceError) as info:
            setattr(v, name, kwargs[name])
        assert type(info.value) is FrozenInstanceError
        with pytest.raises(FrozenInstanceError) as info:
            delattr(v, name)
        assert type(info.value) is FrozenInstanceError
    with pytest.raises(FrozenInstanceError) as info:
        v.extra = 1
    assert type(info.value) is FrozenInstanceError
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("cls,kwargs,changed", VALUES, ids=IDS)
def test_value_objects_are_built_by_position_or_keyword_and_compared_by_fields(cls, kwargs,
                                                                               changed):
    by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
    assert by_keyword is not by_position
    assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
    assert cls._fields == tuple(kwargs)
    assert [getattr(by_keyword, name) for name in kwargs] == list(kwargs.values())
    assert _rebuilt(by_keyword) == by_keyword
    assert cls(**{**kwargs, **changed}) != by_keyword
    assert weakref.ref(by_keyword)() is by_keyword


def test_generated_reprs_show_the_fields_only():
    line = we.PlaneLine(1, 2, 3)
    line._intersections[CURVE] = None
    assert repr(line) == "PlaneLine(u=1, v=2, w=3)"
    assert repr(we.PlanePoint(1, 2, 3)) == "PlanePoint(x=1, y=2, z=3)"
    assert repr(pa.Verdict("Stable")) == "Verdict(status='Stable', witness=None)"
    assert repr(pa.Witness(1, 2, 3)) == "Witness(rank=1, locus=2, pardeg=3)"
    assert repr(PointLocus(2)) == "PointLocus(dim=2, point=None, sweep=None)"
    assert repr(pa.Weights(Fraction(1, 4), 0, Fraction(-1, 4))) == (
        "Weights(mu1=Fraction(1, 4), mu2=0, mu3=Fraction(-1, 4))")
    # the hand-written reprs stay
    assert repr(JacPoint(CURVE, Fraction(1, 2), Fraction(0))) == "JacPoint(1/2, 0)"
    assert repr(pa.ProjScalar(1, 0)) == "ProjScalar(inf)"


def test_a_line_with_a_filled_memo_equals_a_fresh_line_and_hashes_alike():
    line = we.PlaneLine.of(1, 2, 3)
    we.intersect_curve(line, CURVE)
    fresh = we.PlaneLine.of(1, 2, 3)
    assert line._intersections and not fresh._intersections
    assert line == fresh and hash(line) == hash(fresh)
    assert len({line, fresh}) == 1
    assert _astuple(line) == _astuple(fresh) == line.vec()
    # each line object keeps its own memo
    assert we.PlaneLine.of(1, 2, 3)._intersections is not fresh._intersections


def test_a_flag_with_a_filled_memo_equals_a_fresh_flag():
    P, L = we.PlanePoint.of(1, 2, 3), we.PlaneLine.of(1, 1, -1)
    flag = pa.Flag(P, L)
    pa.stability(BundleClass("T33", point=JacPoint(CURVE, Fraction(0), Fraction(0))), flag,
                 pa.PROBE_MINUS)
    fresh = pa.Flag(P, L)
    assert flag._signatures and not fresh._signatures
    assert flag == fresh and hash(flag) == hash(fresh)


@pytest.mark.parametrize("kwargs", [{}, {"s": 0.5}, {"t": 0.5}, {"s": None, "t": Fraction(1, 2)}])
def test_a_point_without_both_coordinates_is_refused(kwargs):
    with pytest.raises(ValueError, match="^a point requires both coordinates s and t$"):
        JacPoint(CURVE, **kwargs)


@pytest.mark.parametrize("num,den", [(0, 0), (0j, -0.0), (complex(-0.0, 0.0), 0j)])
def test_the_zero_projective_scalar_is_refused(num, den):
    with pytest.raises(ValueError, match=r"^\(0, 0\) is not a projective scalar$"):
        pa.ProjScalar(num, den)


def test_projective_scalars_keep_their_canonical_scale():
    assert pa.ProjScalar(4, 2) == pa.ProjScalar(2 + 0j, 1 + 0j)
    assert (pa.ProjScalar(4, 2).num, pa.ProjScalar(4, 2).den) == (2 + 0j, 1 + 0j)
    inf = pa.ProjScalar(1e300, 1e-300)
    assert inf.is_inf and (inf.num, inf.den) == (1 + 0j, 0j)
    assert type(pa.ProjScalar(1, 3).num) is complex


def test_the_commuting_pair_is_frozen_and_keeps_its_rows_as_tuples_of_complex():
    from ellpar.monodromy import CommutingPair
    pair = CommutingPair([[1, 0, 0], [0, 2, 0], [0, 0, 3]], B=((1j, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert pair.A == ((1, 0, 0), (0, 2, 0), (0, 0, 3)) and pair.B[0] == (1j, 0, 0)
    assert all(type(x) is complex for m in (pair.A, pair.B) for row in m for x in row)
    with pytest.raises(FrozenInstanceError) as info:
        pair.A = pair.B
    assert type(info.value) is FrozenInstanceError
    # compared by identity (eq=False), as before
    assert pair != CommutingPair(pair.A, pair.B)


REFUSALS = [
    (lambda: CurveSpec(complex("nan")), ValueError, "^tau must be finite$"),
    (lambda: CurveSpec(complex(1, float("inf"))), ValueError, "^tau must be finite$"),
    (lambda: CurveSpec(1 + 0j), ValueError, r"^tau must lie in the upper half-plane, got \(1\+0j\)$"),
    (lambda: CurveSpec(tau=-1j), ValueError, r"^tau must lie in the upper half-plane, got \(-0-1j\)$"),
    (lambda: CurveSpec("i"), ValueError, "^complex\\(\\) arg is a malformed string$"),
    (lambda: BundleClass("T4", point=THIRD), ValueError, "^unknown label T4$"),
    (lambda: BundleClass("T1"), ValueError, "^T1 carries a triple$"),
    (lambda: BundleClass("T1", (THIRD,) * 3, THIRD), ValueError, "^T1 carries a triple$"),
    (lambda: BundleClass("T21"), ValueError, "^T21 carries a single point$"),
    (lambda: BundleClass("T33", triple=(THIRD,) * 3, point=THIRD), ValueError,
     "^T33 carries a single point$"),
    (lambda: ms.IncidencePoint(we.PlanePoint.of(1, 0, 0), L), ValueError,
     r"^point not on line \(residual 1\)$"),
    (lambda: pa.Flag(we.PlanePoint.of(1, 0, 0), L), pa.FlagIncidenceError,
     r"^flag point PlanePoint\(x=\(1\+0j\), y=0j, z=0j\) not on flag line "
     r"PlaneLine\(u=\(1\+0j\), v=\(1\+0j\), w=\(-1\+0j\)\)$"),
    (lambda: pa.Weights(Fraction(-1, 10), Fraction(1, 5), Fraction(-1, 10)),
     pa.InadmissibleWeightsError, "^weights must be sorted descending$"),
    (lambda: pa.Weights(Fraction(3, 5), Fraction(0), Fraction(-3, 5)),
     pa.InadmissibleWeightsError, r"^weight spread must be < 1$"),
    (lambda: pa.Weights(mu1=0.5, mu2=0.25, mu3=-0.25), pa.InadmissibleWeightsError,
     "^weights must sum to 0, got 0.5$"),
    (lambda: pa.Weights(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
     pa.InadmissibleWeightsError, "^weights must sum to 0, got 1$"),
    (lambda: ModularAuto(JacPoint(CURVE, Fraction(1, 2), Fraction(0)), False), ValueError,
     "^shift must be a 3-torsion point$"),
    (lambda: ModularAuto(shift=JacPoint(CURVE, 1 / 3 + 1e-5, 0.0), dual=True), ValueError,
     "^shift must be a 3-torsion point$"),
]


@pytest.mark.parametrize("build,error,message", REFUSALS)
def test_value_objects_refuse_what_they_refused_before(build, error, message):
    with pytest.raises(error, match=message) as info:
        build()
    assert type(info.value) is error


def test_a_sym_pair_is_the_same_in_either_order():
    far = JacPoint(CURVE, 0.5, 0.25)
    assert ms.SymPair(far, THIRD) == ms.SymPair(THIRD, far)
    pair = ms.SymPair(p2=THIRD, p1=far)
    assert (pair.p1, pair.p2) == (THIRD, far)
