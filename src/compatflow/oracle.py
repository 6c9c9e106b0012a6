"""Closed-form reference solutions for the worked example field.

The example is a single-harmonic field with no streamwise component:

    u1 = 0
    u2 = cos(theta) (y^2 - 1)^2
    u3 = -4 y sin(theta) (y^2 - 1) / beta

(u3 follows from continuity, hence the 1/beta). Every stage of the
diagnostic pipeline has a closed form for this field: vorticity, forcing,
time derivative, divergence defect coefficients, and the tangential wall
residual coefficients. These are used as independent cross-checks of the
numerical pipeline; the polynomial stages are exact, the remaining ones mix
polynomials and hyperbolic terms in y. The hyperbolic terms are ratios
written in exponentials of non-positive arguments (see _ratios), so no
wavenumber overflows them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fieldops import FlowParams, HarmonicScalar, WaveField
from .spectral import ChebGrid, YProfile


def _need_beta(params: FlowParams):
    if params.beta == 0:
        raise DomainError("the example construction divides by beta; beta must be nonzero")


def _ratios(a, y):
    """cosh(a y) / cosh(a) and sinh(a y) / sinh(a) for a > 0 and |y| <= 1,
    in exponentials of non-positive arguments, as compat._green writes its
    kernels."""
    p, m = np.exp(a * (y - 1)), np.exp(-a * (y + 1))
    return (p + m) / (1 + np.exp(-2 * a)), (p - m) / -np.expm1(-2 * a)


def _tanh(a):
    """tanh(a) for a > 0, in exponentials of non-positive arguments."""
    return -np.expm1(-2 * a) / (1 + np.exp(-2 * a))


def example_field(params: FlowParams, grid: ChebGrid) -> WaveField:
    """The example velocity field, with exact polynomial profiles."""
    _need_beta(params)
    be = params.beta
    u1 = HarmonicScalar(params, grid)
    u2 = HarmonicScalar(
        params,
        grid,
        {1: (YProfile.from_poly(grid, [1.0, 0.0, -2.0, 0.0, 1.0]), YProfile.zero(grid))},
    )
    u3 = HarmonicScalar(
        params,
        grid,
        {1: (YProfile.zero(grid), YProfile.from_poly(grid, [0.0, 4.0 / be, 0.0, -4.0 / be]))},
    )
    return WaveField(u1, u2, u3)


def example_vorticity(params: FlowParams, grid: ChebGrid) -> WaveField:
    """curl of the example field, componentwise closed forms."""
    _need_beta(params)
    al, be = params.alpha, params.beta
    zero = YProfile.zero(grid)
    # w1 = sin(theta) (be^2 (y^2-1)^2 - 12 y^2 + 4) / be
    w1b = YProfile.from_poly(
        grid, np.array([be**2 + 4.0, 0.0, -2.0 * be**2 - 12.0, 0.0, be**2]) / be
    )
    # w2 = 4 al y cos(theta) (y^2 - 1) / be
    w2a = YProfile.from_poly(grid, np.array([0.0, -4.0 * al, 0.0, 4.0 * al]) / be)
    # w3 = -al sin(theta) (y^2 - 1)^2
    w3b = YProfile.from_poly(grid, -al * np.array([1.0, 0.0, -2.0, 0.0, 1.0]))
    w1 = HarmonicScalar(params, grid, {1: (zero, w1b)})
    w2 = HarmonicScalar(params, grid, {1: (w2a, zero)})
    w3 = HarmonicScalar(params, grid, {1: (zero, w3b)})
    return WaveField(w1, w2, w3)


def example_forcing(params: FlowParams, grid: ChebGrid) -> WaveField:
    """Forcing of the du/dt Poisson problem for the example field.

    Nonzero blocks: harmonic-2 sine of f1, harmonic-1 and harmonic-2
    cosine of f2, harmonic-1 and harmonic-2 sine of f3. All polynomial."""
    _need_beta(params)
    al, be, Re = params.alpha, params.beta, params.reynolds
    k2 = params.k2
    zero = YProfile.zero(grid)

    # f1, harmonic 2, sine: -8 al (y^2-1)^2 (y^2+1)
    B12 = YProfile.from_poly(
        grid, -8.0 * al * np.array([1.0, 0.0, -1.0, 0.0, -1.0, 0.0, 1.0])
    )
    # f2, harmonic 1, cosine
    A21 = YProfile.from_poly(
        grid,
        np.array([k2**2 + 8.0 * k2 + 24.0, 0.0, -(2.0 * k2**2 + 24.0 * k2), 0.0, k2**2])
        / Re,
    )
    # f2, harmonic 2, cosine: 8 y (3 y^2 + 1)(y^2 - 1)
    A22 = YProfile.from_poly(grid, np.array([0.0, -8.0, 0.0, -16.0, 0.0, 24.0]))
    # f3, harmonic 1, sine: 4 y k2 (k2 (1 - y^2) + 12) / (Re be)
    B31 = YProfile.from_poly(
        grid,
        np.array([0.0, 4.0 * k2 * (k2 + 12.0), 0.0, -4.0 * k2**2]) / (Re * be),
    )
    # f3, harmonic 2, sine
    B32 = YProfile.from_poly(
        grid,
        np.array(
            [
                2.0 * al**2 + 1.0,
                0.0,
                6.0 - 2.0 * al**2,
                0.0,
                -(2.0 * al**2 + 15.0),
                0.0,
                2.0 * al**2,
            ]
        )
        * (4.0 / be),
    )

    f1 = HarmonicScalar(params, grid, {2: (zero, B12)})
    f2 = HarmonicScalar(params, grid, {1: (A21, zero), 2: (A22, zero)})
    f3 = HarmonicScalar(params, grid, {1: (zero, B31), 2: (zero, B32)})
    return WaveField(f1, f2, f3)


def example_dudt(params: FlowParams, grid: ChebGrid) -> WaveField:
    """Closed forms of the Dirichlet-solved time derivative.

    The u1 and u2 blocks are polynomial plus wall-clamped hyperbolic
    corrections; the u3 blocks follow from the same solve structure."""
    _need_beta(params)
    al, be, Re = params.alpha, params.beta, params.reynolds
    k2 = params.k2
    s = np.sqrt(k2)
    y = grid.y
    ch1, sh1 = _ratios(s, y)
    ch2, sh2 = _ratios(2 * s, y)
    zero = YProfile.zero(grid)

    b12 = (
        2 * al * y**6 / k2
        - al
        * (
            -4 * al**6
            - 12 * al**4 * be**2
            + 2 * al**4
            - 12 * al**2 * be**4
            + 4 * al**2 * be**2
            + 6 * al**2
            - 4 * be**6
            + 2 * be**4
            + 6 * be**2
            - 45
        )
        / (2 * k2**4)
        - al * y**4 * (2 * al**2 + 2 * be**2 - 15) / k2**2
        - al
        * y**2
        * (2 * al**4 + 4 * al**2 * be**2 + 6 * al**2 + 2 * be**4 + 6 * be**2 - 45)
        / k2**3
        - al * ch2 * (16 * k2**2 + 84 * k2 + 45) / (2 * k2**4)
    )
    a21 = (
        2 * y**2 * (k2 + 6) / Re
        - y**4 * k2 / Re
        - (k2 + 4) / Re
        - 8 * ch1 / Re
    )
    a22 = (
        2 * y**3 * (2 * k2 - 15) / k2**2
        - 6 * y**5 / k2
        + y * (2 * al**4 + 4 * al**2 * be**2 + 6 * al**2 + 2 * be**4 + 6 * be**2 - 45) / k2**3
        + 3 * sh2 * (8 * k2 + 15) / k2**3
    )
    b31 = (4.0 / (Re * be)) * (k2 * y**3 - (k2 + 6.0) * y) + 24.0 * sh1 / (Re * be)
    b32 = (
        -(2 * al**2 / (be * k2)) * y**6
        + ((2 * al**2 * k2 + 15 * be**2) / (be * k2**2)) * y**4
        + ((2 * al**2 * k2**2 - 6 * be**2 * k2 + 45 * be**2) / (be * k2**3)) * y**2
        - 2 * al**2 / (be * k2)
        - be * (2 * k2**2 + 6 * k2 - 45) / (2 * k2**4)
        - be * (16 * k2**2 + 84 * k2 + 45) * ch2 / (2 * k2**4)
    )

    du1 = HarmonicScalar(params, grid, {2: (zero, YProfile.from_values(grid, b12))})
    du2 = HarmonicScalar(
        params,
        grid,
        {
            1: (YProfile.from_values(grid, a21), zero),
            2: (YProfile.from_values(grid, a22), zero),
        },
    )
    du3 = HarmonicScalar(
        params,
        grid,
        {
            1: (zero, YProfile.from_values(grid, b31)),
            2: (zero, YProfile.from_values(grid, b32)),
        },
    )
    return WaveField(du1, du2, du3)


def example_div_coeffs(params: FlowParams, grid: ChebGrid) -> HarmonicScalar:
    """Divergence defect of the example's time derivative: cosine profiles
    at harmonics 1 and 2, sine profiles identically zero."""
    _need_beta(params)
    Re, k2 = params.reynolds, params.k2
    s = np.sqrt(k2)
    _, sh1 = _ratios(s, grid.y)
    ch2, _ = _ratios(2 * s, grid.y)

    da1 = 8 * sh1 * (3 - s * _tanh(s)) / Re
    P = 16 * k2**3 + 84 * k2**2 + 45 * k2
    Q = (48 * k2 + 90) * k2**1.5
    da2 = -ch2 * (P - Q / _tanh(2 * s)) / k2**4

    zero = YProfile.zero(grid)
    return HarmonicScalar(
        params,
        grid,
        {
            1: (YProfile.from_values(grid, da1), zero),
            2: (YProfile.from_values(grid, da2), zero),
        },
    )


def example_cc_coeffs(params: FlowParams) -> dict:
    """Tangential wall residual coefficients of the example at y = +1,
    keyed by direction and harmonic. Cosine entries vanish by symmetry."""
    _need_beta(params)
    al, be, Re = params.alpha, params.beta, params.reynolds
    k2 = params.k2
    s = np.sqrt(k2)

    ccxb1 = 8 * al * _tanh(s) / (Re * s)
    cczb1 = 8 * be * _tanh(s) / (Re * s) - 24 / (Re * be)
    C3 = (
        (2 * al**2 + 2 * be**2 - 15) / (2 * k2**2)
        - 1 / k2
        + (2 * al**4 + 4 * al**2 * be**2 + 6 * al**2 + 2 * be**4 + 6 * be**2 - 45)
        / (2 * k2**3)
        + (
            -4 * al**6
            - 12 * al**4 * be**2
            + 2 * al**4
            - 12 * al**2 * be**4
            + 4 * al**2 * be**2
            + 6 * al**2
            - 4 * be**6
            + 2 * be**4
            + 6 * be**2
            - 45
        )
        / (4 * k2**4)
        + (24 * k2 + 45) / (2 * _tanh(2 * s) * k2**3.5)
    )
    ccxb2 = -2 * al * C3
    cczb2 = -2 * be * C3
    return {
        "x": {1: {"cos": 0.0, "sin": float(ccxb1)}, 2: {"cos": 0.0, "sin": float(ccxb2)}},
        "z": {1: {"cos": 0.0, "sin": float(cczb1)}, 2: {"cos": 0.0, "sin": float(cczb2)}},
    }
