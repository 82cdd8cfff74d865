"""Arithmetic on the Jacobian of an elliptic curve in the analytic model C/(Z + tau*Z).

A point s + t*tau is stored as its lattice coordinates (s, t) in [0, 1)^2:
Fractions when exact (torsion points, shifts), floats when approximate (line
intersections, holonomy logarithms).  All values are immutable; every
operation is pure.  Exact operations compute on the coordinates' integer
numerators and denominators and build each result coordinate once as a
reduced Fraction, passing a coordinate that is already reduced through as it
is; the membership tests sums_to_zero and is_torsion decide exact points on
those integers alone.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence, Union

# ---------------------------------------------------------------------------
# Tolerance policy: every decision threshold of the library, named once.  A
# decision threshold is a value at which an answer changes with the side of
# it a number falls on; each site reads its name here.  Values that set only
# accuracy or termination (series breaks, pivots, difference steps) stay
# with their method, as module-level names in the module that uses them.
# ---------------------------------------------------------------------------

# jaclattice
# the coincidence rule of every library decision on approximate points: p, q
# are one point when equal(p, q, EQ_TOL), a triple's points coincide as
# merge_triple decides at it, and z is 3-torsion when 3z is 0 so; also the
# relative sheet gap of modspace.covering_invariants' cusp, and the
# nilpotency threshold of monodromy.classify_bundle and normal_form, read
# through monodromy's own import of the name.  Deciders read these names at
# call time and take no tol; only distance comparisons take one
EQ_TOL = 1e-6

# weierstrass, which re-exports the first three
MERGE_TOL = 1e-6  # close_to: plane points (lines) with |p x q| at most this are one
POLE_TOL = 1e-7  # wp refuses z this close to the lattice, and embed sends it to [0:1:0]
INCIDENCE_TOL = 1e-9  # PlaneLine.contains: |l.p| at most this of max|l_i| max|p_i|
AXIS_TOL = 1e-12  # intersection: |u|, |v| below this of max|l_i| read 0 (vertical, at infinity)
ROOT_MERGE_TOL = 1e-4  # intersection: x-roots this close, relative to max(1, |x|), are one

# modspace
INCIDENCE_POINT_TOL = 1e-7  # IncidencePoint: a point this far off its line still lies on it
CHART_EDGE_TOL = 1e-9  # incidence_parametrization: a line with |w| below this leaves the chart
J_TOL = 1e-6  # curves_isomorphic: j-invariants this close, relative to max(1, |j|), agree
RANK_TOL = 1e-6  # parametrization_rank: the singular values above this count

# parabolic
WEIGHT_SUM_TOL = 1e-12  # Weights: float weights summing to 0 within this are admissible
CHORDAL_TOL = 1e-9  # ProjScalar.close_to: the chordal distance of one point of P^1

# monodromy
PAIR_TOL = 1e-7  # validate: |det - 1| and the commutator, as both classifiers check a pair

# autgroup
DLT_COND_TOL = 1e-8  # act_plane: 2nd-smallest singular value below this of the largest: no lift

TWO_PI_I = 2j * math.pi


class CurveMismatchError(ValueError):
    """Operands defined over different lattice parameters."""


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a Value."""


class Value:
    """Base of the library's frozen value classes.

    A subclass's fields are the names it annotates, in order; _fields lists
    them.  Its own __init__ validates the arguments and writes each field
    into the instance dict, since __setattr__ and __delattr__ raise
    FrozenInstanceError.  Two values are equal when they are of one class
    and their fields, as the class's _key reads them (a tuple, or a lone
    field itself), are equal; the hash is theirs.  The repr is the class
    name with each field as name=repr.  Other entries of the instance dict
    (memos) are no part of equality, hash or repr.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class CurveSpec(Value):
    """The curve C/(Z + tau*Z), given by and equal to its lattice parameter tau, Im(tau) > 0."""

    tau: complex

    def __init__(self, tau):
        tau = complex(tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise ValueError("tau must be finite")
        if tau.imag <= 0:
            raise ValueError(f"tau must lie in the upper half-plane, got {tau}")
        self.__dict__["tau"] = tau

    # by hand, as cheap as can be: the memos keyed on a curve compare and
    # hash it several times per operation
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.tau == other.tau
        return NotImplemented

    def __hash__(self):
        return hash((self.tau,))


class JacPoint(Value):
    """A point s + t*tau of Jac(X) = C/(Z + tau*Z), stored as its lattice
    coordinates (s, t) with 0 <= s, t < 1.

    The point is exact when neither coordinate is a float (Fractions or ints,
    e.g. torsion points) and approximate when they are floats.  The
    constructor itself neither reduces nor converts, and exact points are
    compared by their stored coordinates (see equal), so an exact point must
    be built reduced, as canon and every library constructor build it.
    """

    curve: CurveSpec
    s: Union[Fraction, float]
    t: Union[Fraction, float]

    def __init__(self, curve, s=None, t=None):
        if s is None or t is None:
            raise ValueError("a point requires both coordinates s and t")
        d = self.__dict__
        d["curve"], d["s"], d["t"] = curve, s, t

    @property
    def is_exact(self) -> bool:
        return not (isinstance(self.s, float) or isinstance(self.t, float))

    def coords(self) -> tuple[float, float]:
        """Real lattice coordinates (s, t) in [0, 1) x [0, 1)."""
        s, t = self.s, self.t
        if self.is_exact:
            # the true division float(Fraction) makes, without its call
            return (s.numerator / s.denominator, t.numerator / t.denominator)
        return (float(s), float(t))

    def value(self) -> complex:
        """The complex representative s + t*tau."""
        s, t = self.coords()
        return s + t * self.curve.tau

    def is_zero(self, tol: float = EQ_TOL) -> bool:
        """equal(self, zero(curve), tol), without building the zero point."""
        if self.is_exact:
            return not self.s and not self.t
        s, t = self.coords()
        return math.hypot(min(s % 1.0, -s % 1.0), min(t % 1.0, -t % 1.0)) <= tol

    def __repr__(self):
        if self.is_exact:
            return f"JacPoint({self.s}, {self.t})"
        return f"JacPoint(z={self.value():.6g})"


_ZERO = Fraction(0)


def _fraction(n: int, d: int) -> Fraction:
    """n/d reduced into [0, 1), for d > 0."""
    n %= d
    return Fraction(n, d) if n else _ZERO


def _coord(x) -> Fraction:
    """An exact coordinate (a Fraction, an int, or what Fraction() reads)
    reduced into [0, 1); a reduced Fraction as it is."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    if 0 <= n < d and type(x) is Fraction:
        return x
    return _fraction(n, d)


def _sum(x: Union[Fraction, int], y: Union[Fraction, int]) -> Fraction:
    """x + y reduced into [0, 1), for exact coordinates."""
    n1, d1, n2, d2 = x.numerator, x.denominator, y.numerator, y.denominator
    if not n2:
        return _coord(x)
    return _fraction(n1 * d2 + n2 * d1, d1 * d2)


def _reduced(curve: CurveSpec, s, t) -> JacPoint:
    """The point s + t*tau with both coordinates reduced into [0, 1).

    ``% 1`` keeps Fractions exact.  For a tiny negative float it rounds up to
    1.0, which is the seam 0; canonical_sort relies on getting 0 there.
    """
    s, t = s % 1, t % 1
    return JacPoint(curve, s if s < 1 else 0.0, t if t < 1 else 0.0)


def zero(curve: CurveSpec) -> JacPoint:
    return JacPoint(curve, s=_ZERO, t=_ZERO)


def canon(raw: Union[tuple, complex, float, int], curve: CurveSpec) -> JacPoint:
    """Canonical fundamental-domain representative; exact inputs stay exact,
    and a point on curve with reduced coordinates is returned as it is, so
    that points given as one object stay one (see merge_triple)."""
    if isinstance(raw, JacPoint):
        s, t = raw.s, raw.t
        if raw.is_exact:
            s, t = _coord(s), _coord(t)
            if s is raw.s and t is raw.t and raw.curve is curve:
                return raw
            return JacPoint(curve, s, t)
        if type(s) is type(t) is float and 0 <= s < 1 and 0 <= t < 1 and raw.curve is curve:
            return raw
        return _reduced(curve, s, t)
    if isinstance(raw, tuple):
        return JacPoint(curve, _coord(raw[0]), _coord(raw[1]))
    return _from_complex(complex(raw), curve)


def _from_complex(z: complex, curve: CurveSpec) -> JacPoint:
    """canon of a complex z."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite input")
    tau = curve.tau
    t = z.imag / tau.imag
    return _reduced(curve, z.real - t * tau.real, t)


def _check_curves(p: JacPoint, q: JacPoint):
    if p.curve is not q.curve and p.curve != q.curve:
        raise CurveMismatchError(f"points over different curves: {p.curve.tau} vs {q.curve.tau}")


def add(p: JacPoint, q: JacPoint) -> JacPoint:
    """Group law of (C/Lambda, +).  Exact in, exact out; mixing yields approx."""
    _check_curves(p, q)
    if p.is_exact:
        if q.is_exact:
            return JacPoint(p.curve, _sum(p.s, q.s), _sum(p.t, q.t))
        p, q = q, p  # float addition commutes
    # float + Fraction adds float(Fraction): the same sums, without
    # Fraction's operator fallbacks
    qs, qt = (q.s, q.t) if type(q.s) is float else q.coords()
    return _reduced(p.curve, p.s + qs, p.t + qt)


def neg(p: JacPoint) -> JacPoint:
    if p.is_exact:
        s, t = p.s, p.t
        return JacPoint(p.curve, _fraction(-s.numerator, s.denominator),
                        _fraction(-t.numerator, t.denominator))
    return _reduced(p.curve, -p.s, -p.t)


def sub(p: JacPoint, q: JacPoint) -> JacPoint:
    return add(p, neg(q))


def mul(k: int, p: JacPoint) -> JacPoint:
    if p.is_exact:
        s, t = p.s, p.t
        return JacPoint(p.curve, _fraction(k * s.numerator, s.denominator),
                        _fraction(k * t.numerator, t.denominator))
    return _reduced(p.curve, k * p.s, k * p.t)


def sums_to_zero(p: JacPoint, q: JacPoint, r: JacPoint) -> bool:
    """add(add(p, q), r).is_zero(EQ_TOL): does the triple sum to 0 mod Lambda.

    Three exact points are decided on their coordinates' integers, building
    no point or Fraction.  Six plain float coordinates make the composition's
    float operations in its order, building no point; any other mix takes the
    composition itself.  Either way the answer keeps every bit."""
    ps, pt, qs, qt, rs, rt = p.s, p.t, q.s, q.t, r.s, r.t
    if type(ps) is type(pt) is type(qs) is type(qt) is type(rs) is type(rt) is float:
        # the composition's arithmetic written out: add's two _reduced sums,
        # then is_zero's lattice distance of the plain floats
        _check_curves(p, q)
        _check_curves(p, r)
        s, t = (ps + qs) % 1, (pt + qt) % 1
        s, t = (s if s < 1 else 0.0) + rs, (t if t < 1 else 0.0) + rt
        s, t = s % 1, t % 1
        s, t = s if s < 1 else 0.0, t if t < 1 else 0.0
        return math.hypot(min(s % 1.0, -s % 1.0), min(t % 1.0, -t % 1.0)) <= EQ_TOL
    if (isinstance(ps, float) or isinstance(pt, float) or isinstance(qs, float)
            or isinstance(qt, float) or isinstance(rs, float) or isinstance(rt, float)):
        return add(add(p, q), r).is_zero(EQ_TOL)
    _check_curves(p, q)
    _check_curves(p, r)
    return _integral_sum(ps, qs, rs) and _integral_sum(pt, qt, rt)


def _integral_sum(x, y, z) -> bool:
    """x + y + z is an integer, for exact coordinates."""
    d1, d2, d3 = x.denominator, y.denominator, z.denominator
    return not (x.numerator * d2 * d3 + y.numerator * d1 * d3
                + z.numerator * d1 * d2) % (d1 * d2 * d3)


def is_torsion(p: JacPoint, n: int) -> bool:
    """mul(n, p).is_zero(EQ_TOL): is p n-torsion.

    An exact point is decided on its coordinates' integers, building no
    point or Fraction; a float coordinate takes the composition itself."""
    s, t = p.s, p.t
    if isinstance(s, float) or isinstance(t, float):
        return mul(n, p).is_zero(EQ_TOL)
    return not n * s.numerator % s.denominator and not n * t.numerator % t.denominator


def equal(p: JacPoint, q: JacPoint, tol: float = EQ_TOL) -> bool:
    """Equality mod Lambda.

    Exact/exact comparison is exact: it compares the stored coordinates, so
    it is equality mod Lambda only on reduced points (canon reduces).  Any
    other pair is compared at tolerance by its distance, which reduces the
    difference mod Lambda itself."""
    ps, pt, qs, qt = p.s, p.t, q.s, q.t
    if not (isinstance(ps, float) or isinstance(pt, float)
            or isinstance(qs, float) or isinstance(qt, float)):
        _check_curves(p, q)
        return ps == qs and pt == qt  # both exact, as is_exact decides
    return distance(p, q) <= tol


def distance(p: JacPoint, q: JacPoint) -> float:
    """The distance of p and q mod Lambda in lattice coordinates: the length
    of the shortest (ds, dt) with p - q = ds + dt*tau mod Lambda."""
    _check_curves(p, q)
    ps, pt, qs, qt = p.s, p.t, q.s, q.t
    if not type(ps) is type(pt) is type(qs) is type(qt) is float:
        # four plain floats are their own coords(); read any other pair so
        ps, pt = p.coords()
        qs, qt = q.coords()
    ds = min((ps - qs) % 1.0, (qs - ps) % 1.0)
    dt = min((pt - qt) % 1.0, (qt - pt) % 1.0)
    return math.hypot(ds, dt)


def merge_triple(zs: Sequence[JacPoint]) -> Sequence[JacPoint]:
    """The coincidences of a zero-sum triple zs at EQ_TOL: zs with each class
    of coincident points as one shared point, position by position, and zs
    itself when every class is one object already.

    Points given as one object are one point, and the classes are
    single-linkage: a point equal at EQ_TOL to any member joins the class, so
    they do not depend on the order of zs.  A class's point is its first
    exact member, which never moves, else its first member.  A merge moves
    the sum by up to EQ_TOL, which a class of two or more distinct approximate
    points takes up: a double point d moves to the root of 2d + r = 0
    nearest d, r the third point (a vertical tangent touches at a 2-torsion
    point), and joins r if it comes within EQ_TOL of it; a triple point moves
    to the flex nearest its first member, as the floats of that exact flex.
    """
    z1, z2, z3 = zs
    tol = EQ_TOL
    s1, t1, s2, t2, s3, t3 = z1.s, z1.t, z2.s, z2.t, z3.s, z3.t
    # three objects of plain floats on one curve object, each pair apart at tol by
    # distance's arithmetic: zs.  A repeated object, at distance 0, is left to
    # the identity tests below without its distances.
    if (z1 is not z2 and z1 is not z3 and z2 is not z3
            and type(s1) is type(t1) is type(s2) is type(t2) is type(s3) is type(t3) is float
            and z1.curve is z2.curve is z3.curve
            and math.hypot(min((s1 - s2) % 1.0, (s2 - s1) % 1.0),
                           min((t1 - t2) % 1.0, (t2 - t1) % 1.0)) > tol
            and math.hypot(min((s1 - s3) % 1.0, (s3 - s1) % 1.0),
                           min((t1 - t3) % 1.0, (t3 - t1) % 1.0)) > tol
            and math.hypot(min((s2 - s3) % 1.0, (s3 - s2) % 1.0),
                           min((t2 - t3) % 1.0, (t3 - t2) % 1.0)) > tol):
        return zs
    # identity answers a pair before equal does, and each pair is compared once
    e12 = z1 is z2 or equal(z1, z2, tol)
    e13 = e12 if z2 is z3 else z1 is z3 or equal(z1, z3, tol)
    e23 = e13 if z1 is z2 else e12 if z1 is z3 else z2 is z3 or equal(z2, z3, tol)
    if not (e12 or e13 or e23):
        return zs
    if e12 + e13 + e23 == 1:
        (a, b), r = ((z1, z2), z3) if e12 else ((z1, z3), z2) if e13 else ((z2, z3), z1)
        if a is b:
            return zs
        if a.is_exact or b.is_exact:
            d = a if a.is_exact else b
        else:
            s, t = add(mul(2, a), r).coords()
            d = sub(a, JacPoint(a.curve, (s - round(s)) / 2, (t - round(t)) / 2))
        if d is a or d is b or not equal(d, r, tol):
            return (d, d, z3) if e12 else (d, z2, d) if e13 else (z1, d, d)
        # the moved double reached r: one class, whose first member is z1
        first = r if r is z1 else d
    elif z1 is z2 is z3:
        return zs
    else:
        first = z1
    d = next((z for z in zs if z.is_exact), None)
    if d is None:
        d = JacPoint(first.curve, *snap_to_torsion(first, 3).coords())
    return (d, d, d)


def snap_to_torsion(p: JacPoint, n: int) -> JacPoint:
    """The n-torsion point nearest p, which every caller has found n-torsion:
    an exact p is then n-torsion exactly, and only canon is left to do; one
    with reduced Fraction coordinates, as torsion_points builds them, is
    returned as it is, as canon would return it."""
    s, t = p.s, p.t
    if (type(s) is type(t) is Fraction
            and 0 <= s.numerator < s.denominator and 0 <= t.numerator < t.denominator):
        return p
    if p.is_exact:
        return canon(p, p.curve)
    s, t = p.coords()
    return JacPoint(p.curve, s=Fraction(round(s * n) % n, n), t=Fraction(round(t * n) % n, n))


def torsion_points(n: int, curve: CurveSpec) -> list[JacPoint]:
    """The n^2 exact n-torsion points {(a/n, b/n)}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = [Fraction(a, n) for a in range(n)]
    return [JacPoint(curve, s=s, t=t) for s in coords for t in coords]


def from_holonomy(a: complex, b: complex, curve: CurveSpec) -> JacPoint:
    """The Jacobian class of b/a^tau under C*/<e^{2*pi*i*tau}> = Jac(X).

    Computed as (log b - tau * log a) / (2*pi*i) reduced mod Lambda, with the
    principal branch of the logarithm; the mod-Lambda reduction absorbs the
    branch ambiguity.
    """
    a, b = complex(a), complex(b)
    if a == 0 or b == 0:
        raise ValueError("holonomy entries must be nonzero")
    z = (cmath.log(b) - curve.tau * cmath.log(a)) / TWO_PI_I
    return canon(z, curve)


def _sort_key(p: JacPoint) -> tuple:
    """canonical_sort's key, coords(): a point with plain float coordinates
    is its own (s, t)."""
    s, t = p.s, p.t
    return (s, t) if type(s) is type(t) is float else p.coords()


def canonical_sort(points: Iterable[JacPoint]) -> list[JacPoint]:
    """Deterministic ordering: lexicographic on fundamental-domain (s, t)."""
    return sorted(points, key=_sort_key)
