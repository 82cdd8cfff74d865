"""Parabolic stability: weights, chambers, flags, the stability oracle,
the Sigma/U-generic locus classifier, flag normalization and the flip map.

A parabolic structure on a rank-3 bundle is a full flag (point P on line L)
in the normalized fiber plane plus a descending weight triple summing to 0.
Stability is decided by brute force over the class's degree-0 subbundle
configuration: each subbundle induces a parabolic degree determined purely by
the incidence of its fiber locus with the flag, and the bundle is stable iff
the maximum induced degree is negative.  The incidences depend on the class
only through its type label: each Flag keeps one incidence signature per
label, decided on first use, which serves every stability probe, locus and
normalize_flag on it.  Each Weights ranks its six possible degrees once and
remembers which subbundle wins for each tuple of incidences it has seen, so
a verdict compares no degrees.  Weight triples given exactly (int / Fraction
/ Decimal / fraction string) live on one integer denominator: they are
shifted, sorted, checked and graded as integer numerators, and a Fraction is
built only where a caller reads a weight or a degree.  A triple with a float
is added in floats.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .bundles import _CONFIGS, BundleClass, LineLocus, PointLocus
from .jaclattice import CHORDAL_TOL, WEIGHT_SUM_TOL, Value
from .weierstrass import PlaneLine, PlanePoint, _cross, line_through_points, lines_meet

Scalar = Union[Fraction, float]
Matrix = tuple[tuple[complex, complex, complex], ...]


class InadmissibleWeightsError(ValueError):
    pass


class FlagIncidenceError(ValueError):
    pass


class NotStableError(ValueError):
    """The flag is not stable in the requested chamber; no gauge exists."""


def _exactify(x):
    """A float, complex or Fraction as it is, anything else as the Fraction it equals."""
    return x if isinstance(x, (float, complex, Fraction)) else Fraction(x)


def _approximate(xs) -> bool:
    """Whether a float or complex is among xs: a triple read in floats."""
    return any(isinstance(x, (float, complex)) for x in xs)


class _OnRead:
    """mu1, mu2 or mu3 of a triple make_weights built on integers: the
    Fraction its numerator over the denominator equals, built on first read
    and kept in the instance dict, where the constructor writes the weights
    it is given."""

    def __init__(self, i: int):
        self.i = i

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, w, owner=None):
        if w is None:
            return self
        mu = w.__dict__[self.name] = Fraction(w._nums[self.i], w._den)
        return mu


def _admit(nums: tuple, den: Optional[int]) -> None:
    """Refuse a triple that is not descending, spreads 1 or more, or does not
    sum to 0: exactly, for integer numerators over den, and within
    WEIGHT_SUM_TOL for a triple read in floats (den None)."""
    n1, n2, n3 = nums
    if not (n1 >= n2 >= n3):
        raise InadmissibleWeightsError("weights must be sorted descending")
    if n1 - n3 >= (1 if den is None else den):
        raise InadmissibleWeightsError("weight spread must be < 1")
    s = n1 + n2 + n3
    if abs(s) > (WEIGHT_SUM_TOL if den is None else 0):
        raise InadmissibleWeightsError(
            f"weights must sum to 0, got {s if den is None else Fraction(s, den)}")


class Weights(Value):
    """A descending weight triple of spread < 1 summing to 0.

    An exact triple is held as integer numerators _nums over one denominator
    _den, and chamber_of, grades and winner compare those integers.  mu1, mu2
    and mu3 are the weights given to the constructor or, for a triple
    make_weights built, the Fractions its numerators over _den equal, each
    made when first read.  A triple with a float is held as given, over _den
    None, and added in floats."""

    mu1: Scalar = _OnRead(0)
    mu2: Scalar = _OnRead(1)
    mu3: Scalar = _OnRead(2)

    def __init__(self, mu1, mu2, mu3):
        mus = (mu1, mu2, mu3)
        if _approximate(mus):
            nums, den = mus, None
        else:
            if any(isinstance(mu, str) for mu in mus):
                raise TypeError("weights must be numbers; make_weights reads strings")
            fs = [Fraction(mu) for mu in mus]
            den = math.lcm(*(f.denominator for f in fs))
            nums = tuple(f.numerator * (den // f.denominator) for f in fs)
        _admit(nums, den)
        d = self.__dict__
        d["mu1"], d["mu2"], d["mu3"] = mus
        d.update(_nums=nums, _den=den, _winners={}, _degrees={})

    @classmethod
    def _over(cls, nums: tuple[int, int, int], den: int) -> "Weights":
        """The exact triple of integer numerators nums over den."""
        _admit(nums, den)
        w = cls.__new__(cls)
        w.__dict__.update(_nums=nums, _den=den, _winners={}, _degrees={})
        return w

    def _degree(self, j: int) -> Scalar:
        """Degree j of grades as callers read it, made on first read: its
        numerator over _den, or the float itself."""
        d = self._degrees.get(j)
        if d is None:
            m = self._graded[j][2]
            d = self._degrees[j] = m if self._den is None else Fraction(m, self._den)
        return d

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.mu1, self.mu2, self.mu3)

    @cached_property
    def pair_sums(self) -> tuple[Scalar, Scalar, Scalar]:
        """(mu1 + mu2, mu1 + mu3, mu2 + mu3): the degrees a fiber line can induce."""
        return (self._degree(3), self._degree(4), self._degree(5))

    @cached_property
    def _graded(self) -> tuple[tuple[int, str, Scalar], ...]:
        """grades with each degree as its numerator over _den."""
        n1, n2, n3 = self._nums
        nums = (n1, n2, n3, n1 + n2, n1 + n3, n2 + n3)
        order = sorted(set(nums))
        return tuple((order.index(m), "Stable" if m < 0 else
                      "StrictlySemistable" if m == 0 else "Unstable", m) for m in nums)

    @cached_property
    def grades(self) -> tuple[tuple[int, str, Scalar], ...]:
        """(rank among the six, verdict, degree) of each degree a subbundle can
        induce, mu1, mu2, mu3 and then pair_sums: equal degrees share a rank."""
        return tuple((rank, status, self._degree(j))
                     for j, (rank, status, _) in enumerate(self._graded))

    def winner(self, degrees: tuple[int, ...]) -> int:
        """Position of the first maximum among the degrees with these indices
        into grades, decided once per index tuple (a few hundred at most:
        three incidences for each of at most six loci)."""
        k = self._winners.get(degrees)
        if k is None:
            ranks = [self._graded[j][0] for j in degrees]
            k = self._winners[degrees] = ranks.index(max(ranks))
        return k


CHAMBER_MINUS = "Pminus"
CHAMBER_PLUS = "Pplus"
CHAMBER_WALL = "Wall"

# fixed probe weights, rational and comfortably interior to each chamber
PROBE_MINUS = Weights(Fraction(2, 10), Fraction(-1, 10), Fraction(-1, 10))
PROBE_PLUS = Weights(Fraction(2, 10), Fraction(1, 10), Fraction(-3, 10))
PROBE_WALL = Weights(Fraction(1, 3), Fraction(0), Fraction(-1, 3))


def _check_chamber(chamber: str) -> None:
    """Refuse any chamber but the two open ones, which fiber coordinates live in."""
    if chamber not in (CHAMBER_MINUS, CHAMBER_PLUS):
        raise ValueError(f"chamber must be {CHAMBER_MINUS} or {CHAMBER_PLUS}")


def chamber_of(w: Weights) -> str:
    mu2 = w._nums[1]
    if mu2 > 0:
        return CHAMBER_PLUS
    if mu2 < 0:
        return CHAMBER_MINUS
    return CHAMBER_WALL


def make_weights(raw1, raw2, raw3) -> tuple[Weights, str]:
    """Shift by the mean so the sum is 0, sort descending, classify the
    chamber.  An exact triple is shifted and sorted as integer numerators
    over D = 3 lcm of its denominators, whose mean is an integer over D; a
    triple with a float, in floats."""
    vals = [_exactify(raw1), _exactify(raw2), _exactify(raw3)]
    if _approximate(vals):
        shift = sum(vals) / 3
        w = Weights(*sorted((v - shift for v in vals), reverse=True))
    else:
        den = 3 * math.lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (den // v.denominator) for v in vals]
        shift = sum(nums) // 3
        w = Weights._over(tuple(sorted((n - shift for n in nums), reverse=True)), den)
    return w, chamber_of(w)


class Flag(Value):
    P: PlanePoint
    L: PlaneLine

    def __init__(self, P, L):
        if not L.contains(P):
            raise FlagIncidenceError(f"flag point {P} not on flag line {L}")
        d = self.__dict__
        d["P"], d["L"] = P, L
        # _signature of each type label looked up on this flag; not a field
        d["_signatures"] = {}


class Witness(Value):
    """Destabilizing / equalizing degree-0 subbundle, by its fiber locus."""

    rank: int
    locus: Union[PlanePoint, PlaneLine]
    pardeg: Scalar

    def __init__(self, rank, locus, pardeg):
        d = self.__dict__
        d["rank"], d["locus"], d["pardeg"] = rank, locus, pardeg


class Verdict(Value):
    status: str  # Stable | StrictlySemistable | Unstable
    witness: Optional[Witness]

    def __init__(self, status, witness=None):
        d = self.__dict__
        d["status"], d["witness"] = status, witness


def _incidence(sub: Union[PlanePoint, PlaneLine], flag: Flag) -> int:
    """0: sub is P (is L); 1: sub lies on L (passes through P); 2: neither."""
    if isinstance(sub, PlanePoint):
        return 0 if sub.close_to(flag.P) else 1 if flag.L.contains(sub) else 2
    return 0 if sub.close_to(flag.L) else 1 if sub.contains(flag.P) else 2


def _worst_point_member(loc: PointLocus, flag: Flag) -> PlanePoint:
    # a pencil of points sweeping loc.sweep offers P itself if it lies there,
    # otherwise the member on the flag line; dim 2 offers every point, P too
    if loc.dim == 1 and not loc.sweep.contains(flag.P):
        return lines_meet(loc.sweep, flag.L)
    return loc.point if loc.dim == 0 else flag.P


def _worst_line_member(loc: LineLocus, flag: Flag) -> PlaneLine:
    # the pencil of lines through loc.pencil offers L itself if L passes
    # there, otherwise the member through P; dim 2 offers every line, L too
    if loc.dim == 1 and not flag.L.contains(loc.pencil):
        return line_through_points(loc.pencil, flag.P)
    return loc.line if loc.dim == 0 else flag.L


def _signature(label: str, flag: Flag) -> tuple[tuple[int, ...], tuple]:
    """All that stability reads of (class, flag): for each degree-0 subbundle
    locus of the type, rank 1 loci first, the index 3 * (rank - 1) +
    incidence of its degree into Weights.grades, and (rank, worst member)."""
    cfg = _CONFIGS[label]
    members = tuple([(1, _worst_point_member(loc, flag)) for loc in cfg.rank1]
                    + [(2, _worst_line_member(loc, flag)) for loc in cfg.rank2])
    return tuple(3 * rank - 3 + _incidence(m, flag) for rank, m in members), members


def stability(cls: BundleClass, flag: Flag, w: Weights) -> Verdict:
    """Maximum induced parabolic degree over all degree-0 subbundles; the
    witness is the first subbundle attaining it."""
    sig = flag._signatures.get(cls.label)
    if sig is None:
        sig = flag._signatures[cls.label] = _signature(cls.label, flag)
    degrees, members = sig
    k = w.winner(degrees)
    status = w._graded[degrees[k]][1]
    if status == "Stable":
        return Verdict(status)
    return Verdict(status, Witness(*members[k], w._degree(degrees[k])))


LOCUS_UGEN = "Ugen"
LOCUS_SIGMA_MINUS = "SigmaMinus"
LOCUS_SIGMA_PLUS = "SigmaPlus"
LOCUS_NEITHER = "Neither"


def locus(cls: BundleClass, flag: Flag) -> str:
    """Ugen / SigmaMinus / SigmaPlus / Neither, by probing both chambers."""
    minus = stability(cls, flag, PROBE_MINUS).status == "Stable"
    plus = stability(cls, flag, PROBE_PLUS).status == "Stable"
    if minus and plus:
        return LOCUS_UGEN
    if minus:
        return LOCUS_SIGMA_MINUS
    if plus:
        return LOCUS_SIGMA_PLUS
    return LOCUS_NEITHER


class ProjScalar(Value):
    """A point of P^1 as a (num, den) pair; den = 0 encodes infinity."""

    num: complex
    den: complex

    def __init__(self, num, den):
        n, d = complex(num), complex(den)
        if n == 0 and d == 0:
            raise ValueError("(0, 0) is not a projective scalar")
        # canonical scale: den = 1 when finite, (1, 0) at infinity; a quotient
        # that overflows (subnormal den) is infinity as well
        q = n / d if d != 0 else math.inf
        if cmath.isfinite(q):
            n, d = q, 1.0 + 0j
        else:
            n, d = 1.0 + 0j, 0j
        self.__dict__.update(num=n, den=d)

    @property
    def is_inf(self) -> bool:
        return self.den == 0

    def value(self) -> complex:
        if self.is_inf:
            raise ZeroDivisionError("infinite projective scalar")
        return self.num

    def close_to(self, other: "ProjScalar", tol: float = CHORDAL_TOL) -> bool:
        # chordal comparison, well-behaved at infinity
        cross = self.num * other.den - other.num * self.den
        na = abs(self.num) ** 2 + abs(self.den) ** 2
        nb = abs(other.num) ** 2 + abs(other.den) ** 2
        return abs(cross) <= tol * math.sqrt(na * nb)

    def __repr__(self):
        return "ProjScalar(inf)" if self.is_inf else f"ProjScalar({self.num:.6g})"


PROJ_INF = ProjScalar(1, 0)


def flip(t: ProjScalar) -> ProjScalar:
    """The fiberwise involution lambda = t/(t-1); fixes 0 and 2, swaps 1 and inf."""
    return ProjScalar(t.num, t.num - t.den)


# gauge groups preserving the subbundle configuration, per class type:
# T1: diagonal; T21: upper-triangular 2-block + scalar; T31: unipotent Toeplitz.


def _gauge_to_standard_point(cls: BundleClass, P: PlanePoint) -> Matrix:
    """Element of the class's gauge group sending P to [1:1:1].

    normalize_flag calls this only on flags that stability calls Stable: the
    type is T1, T21 or T31, and P lies on no line the gauge group preserves;
    neither is decided again here."""
    p1, p2, p3 = P.x, P.y, P.z
    lab = cls.label
    if lab == "T1":
        return ((1 / p1, 0j, 0j), (0j, 1 / p2, 0j), (0j, 0j, 1 / p3))
    if lab == "T21":
        a = 1 / p2
        c = 1 / p3
        b = (1 - a * p1) / p2
        return ((a, b, 0j), (0j, a, 0j), (0j, 0j, c))
    a = 1 / p3
    b = (1 - a * p2) / p3
    c = (1 - a * p1 - b * p2) / p3
    return ((a, b, c), (0j, a, b), (0j, 0j, a))


def _gauge_to_standard_line(cls: BundleClass, L: PlaneLine) -> Matrix:
    """Element g of the gauge group with (1,1,-1) . g proportional to L.

    As for _gauge_to_standard_point, stability has already decided that L
    passes through no point the gauge group fixes."""
    u, v, w = L.u, L.v, L.w
    lab = cls.label
    if lab == "T1":
        return ((u, 0j, 0j), (0j, v, 0j), (0j, 0j, -w))
    if lab == "T21":
        a, b, c = u, v - u, -w
        return ((a, b, 0j), (0j, a, 0j), (0j, 0j, c))
    a, b, c = u, v - u, w - v + 2 * u
    return ((a, b, c), (0j, a, b), (0j, 0j, a))


def _image_point(g: Sequence[Sequence[complex]], p: Sequence[complex]) -> tuple:
    return tuple(r[0] * p[0] + r[1] * p[1] + r[2] * p[2] for r in g)


def _image_line(g: Sequence[Sequence[complex]], l: Sequence[complex]) -> tuple:
    """l . adj(g): a fiber line's image l . g^{-1} up to scale.  The columns
    of adj(g) are r1 x r2, r2 x r0 and r0 x r1 for the rows r0, r1, r2 of g."""
    r0, r1, r2 = g
    return tuple(l[0] * c[0] + l[1] * c[1] + l[2] * c[2]
                 for c in (_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)))


def apply_gauge(g: Sequence[Sequence[complex]], flag: Flag) -> Flag:
    """Transform a flag by a fiber gauge (any 3x3 indexable): points by g,
    lines by g^{-1} on the right."""
    return Flag(PlanePoint.of(*_image_point(g, flag.P.vec())),
                PlaneLine.of(*_image_line(g, flag.L.vec())))


def normalize_flag(cls: BundleClass, flag: Flag, chamber: str) -> tuple[ProjScalar, Matrix]:
    """Fiber coordinate of a stable flag in the given chamber, plus the gauge used.

    Pminus: the gauge moves P to [1:1:1]; the coordinate is the slope t of the
    image line written as {Z2 - t Z1 = (1 - t) Z3}.  Pplus: the gauge moves L
    to {Z1 + Z2 = Z3}; the coordinate is lambda with image P = [lambda : 1-lambda : 1].
    """
    _check_chamber(chamber)
    probe = PROBE_MINUS if chamber == CHAMBER_MINUS else PROBE_PLUS
    if stability(cls, flag, probe).status != "Stable":
        raise NotStableError(f"flag is not stable in chamber {chamber}")
    if chamber == CHAMBER_MINUS:
        g = _gauge_to_standard_point(cls, flag.P)
        # image line has coefficient sum 0 (it passes through [1:1:1]);
        # {Z2 - t Z1 = (1-t) Z3} has coefficients (-t, 1, t-1)
        u, v, _ = _image_line(g, flag.L.vec())
        return ProjScalar(-u, v), g
    g = _gauge_to_standard_line(cls, flag.L)
    x, _, z = _image_point(g, flag.P.vec())
    return ProjScalar(x, z), g
