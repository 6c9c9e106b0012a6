"""Shared field constructors and a call counter for the test suite.

Random fields are built through the polynomial algebra so that structural
properties (no-slip, zero divergence) hold exactly rather than to rounding,
which lets the tests pin tight tolerances on the operators themselves.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from compatflow import HarmonicScalar, WaveField, YProfile

WALL = np.array([-1.0, 0.0, 1.0])  # y^2 - 1, ascending coefficients
WALL2 = npoly.polymul(WALL, WALL)


def prof(grid, coeffs):
    return YProfile.from_poly(grid, np.atleast_1d(np.asarray(coeffs, dtype=float)))


def random_scalar(params, grid, rng, harmonics=(0, 1, 2, 3), degree=3):
    """Random harmonic scalar with polynomial profiles (no wall conditions)."""
    data = {}
    for j in harmonics:
        a = prof(grid, rng.uniform(-1, 1, degree + 1))
        b = prof(grid, rng.uniform(-1, 1, degree + 1))
        data[j] = (a, b)
    return HarmonicScalar(params, grid, data)


def random_vector(params, grid, rng, harmonics=(0, 1, 2), degree=3):
    """Random vector field; generally neither no-slip nor divergence-free."""
    return WaveField(*(random_scalar(params, grid, rng, harmonics, degree) for _ in range(3)))


def random_admissible(params, grid, rng, harmonics=(1, 2), degree=3):
    """Random no-slip, exactly divergence-free field.

    u1 carries a (y^2-1) factor, u2 a (y^2-1)^2 factor (so its wall
    derivative vanishes as well), and u3 is completed from continuity.
    The mean mode, when requested, gets independent u1/u3 profiles and no
    wall-normal flow.
    """
    u1, u2, u3 = {}, {}, {}
    zero = YProfile.zero(grid)
    for j in harmonics:
        if j == 0:
            u1[0] = (prof(grid, npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))), zero)
            u3[0] = (prof(grid, npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))), zero)
            continue
        a1 = npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))
        b1 = npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))
        a2 = npoly.polymul(WALL2, rng.uniform(-1, 1, degree + 1))
        b2 = npoly.polymul(WALL2, rng.uniform(-1, 1, degree + 1))
        ja, jb = j * params.alpha, j * params.beta
        b3 = -npoly.polyadd(ja * b1, npoly.polyder(a2)) / jb
        a3 = npoly.polyadd(npoly.polyder(b2), -ja * a1) / jb
        u1[j] = (prof(grid, a1), prof(grid, b1))
        u2[j] = (prof(grid, a2), prof(grid, b2))
        u3[j] = (prof(grid, a3), prof(grid, b3))
    return WaveField(*(HarmonicScalar(params, grid, c) for c in (u1, u2, u3)))


def random_u2zero(params, grid, rng, harmonics=(1, 2), degree=2):
    """Random admissible field with identically zero wall-normal component.

    Continuity with u2 = 0 reduces to alpha*u1 + beta*u3 = 0 per harmonic,
    so u3 is a fixed multiple of u1. With the default degree the profiles
    are polynomials of total degree four.
    """
    ratio = params.alpha / params.beta
    u1, u3 = {}, {}
    zero = YProfile.zero(grid)
    for j in harmonics:
        a1 = npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))
        b1 = npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))
        if j == 0:
            u1[0] = (prof(grid, a1), zero)
            u3[0] = (prof(grid, npoly.polymul(WALL, rng.uniform(-1, 1, degree + 1))), zero)
        else:
            u1[j] = (prof(grid, a1), prof(grid, b1))
            u3[j] = (prof(grid, -ratio * a1), prof(grid, -ratio * b1))
    return WaveField(*(HarmonicScalar(params, grid, c) for c in (u1, {}, u3)))


def rel_diff(f, g):
    """Max-abs difference normalized by the larger operand scale."""
    scale = max(f.max_abs(), g.max_abs())
    if scale == 0.0:
        return 0.0
    return (f - g).max_abs() / scale


def count_calls(monkeypatch, module, name):
    """Patch module.name to record the positional arguments of each call;
    returns the list they are appended to."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
