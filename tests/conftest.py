import cmath
from fractions import Fraction

import numpy as np
import pytest

from ellpar import jaclattice as jl
from ellpar.jaclattice import CurveSpec, JacPoint

TAU = 0.3 + 1.1j


@pytest.fixture
def curve():
    return CurveSpec(TAU)


@pytest.fixture
def square_curve():
    return CurveSpec(1j)


def exact(curve, s, t) -> JacPoint:
    return JacPoint(curve, s=Fraction(s), t=Fraction(t))


def holonomy_scalars(p: JacPoint) -> tuple[complex, complex]:
    """(a, b) with from_holonomy(a, b) equal to p: a = e(-t), b = e(s)."""
    s, t = p.coords()
    e = lambda w: cmath.exp(2j * cmath.pi * w)
    return e(-t), e(s)


def random_unimodular(rng: np.random.RandomState) -> np.ndarray:
    M = rng.randn(3, 3) + 1j * rng.randn(3, 3)
    return M / np.linalg.det(M) ** (1.0 / 3.0)


def count_calls(monkeypatch, calls, cls, names):
    """Wrap the named methods of cls so that each call appends its name to calls."""
    for name in names:
        original = cls.__dict__[name]
        if isinstance(original, staticmethod):
            f = original.__func__
            wrapper = staticmethod(lambda *a, _n=name, _f=f: calls.append(_n) or _f(*a))
        else:
            wrapper = lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a)
        monkeypatch.setattr(cls, name, wrapper)
