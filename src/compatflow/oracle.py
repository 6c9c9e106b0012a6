"""Reference solutions for the worked example field, in exact algebra.

The example is a single-harmonic field with no streamwise component:

    u1 = 0
    u2 = cos(theta) (y^2 - 1)^2
    u3 = -4 y sin(theta) (y^2 - 1) / beta

(u3 follows from continuity, hence the 1/beta). Every stage of the
diagnostic pipeline has an exact form for this field, used as an
independent cross-check of the numerical pipeline. The field, its
vorticity and its forcing are polynomials in y: each is one table of
hand-derived coefficients keyed by (component, slot, harmonic), and one
builder, _field, makes the field of a table. The time derivative,
the divergence defect and the tangential wall residual all come from one
routine, _helmholtz, which solves u'' - a^2 u = f for a polynomial f: a
polynomial particular solution plus cosh and sinh ratios written in
exponentials of non-positive arguments (see _ratios), so that no
wavenumber overflows them, or below a = SMALL_A a power series in a^2 of
polynomials. The module shares no operator with the pipeline: no
collocation matrix, quadrature or boundary value solve.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fieldops import FlowParams, HarmonicScalar, WaveField
from .spectral import ChebGrid, YProfile

# below this a, the powers of 1/a in _helmholtz's closed form cancel to
# 1e-12 of a degree-6 solution; its series shrinks by (2a / pi)^2 <= 0.41
# a term, so 40 terms reach 2e-16
SMALL_A = 1.0
SERIES_TERMS = 40


def _need_beta(params: FlowParams):
    if params.beta == 0:
        raise DomainError("the example construction divides by beta; beta must be nonzero")


def _ratios(a, y):
    """cosh(a y) / cosh(a) and sinh(a y) / sinh(a) for a > 0 and |y| <= 1,
    in exponentials of non-positive arguments, as compat._green writes its
    kernels."""
    p, m = np.exp(a * (y - 1)), np.exp(-a * (y + 1))
    return (p + m) / (1 + np.exp(-2 * a)), (p - m) / -np.expm1(-2 * a)


def _helmholtz(f, a: float, y, flux=None):
    """u and u' at y of the solution of u'' - a^2 u = f on [-1, 1], a > 0,
    with f a polynomial (ascending coefficients): u(+-1) = 0, or with a
    flux (g+, g-), u'(+1) = g+ and u'(-1) = g-.

    From a = SMALL_A up, u is the polynomial -sum_m f^(2m) / a^(2m+2) plus
    the cosh and sinh ratios of _ratios that meet the walls. Below it those
    powers of 1/a cancel, and u = sum_k a^(2k) u_k with u_0'' = f and
    u_k'' = u_(k-1): each u_k vanishes at the walls, or for a flux has zero
    slope there and zero mean, after the mean mode (g+ - g- - int f) / (2
    a^2) and a quadratic that carries the flux are taken out of u."""
    f, a2 = np.asarray(f, dtype=float), a * a
    # powers of y; the value at y = -1 and the mean over [-1, 1] of each
    i = np.arange(len(f) + 2 * SERIES_TERMS + 2)
    sign, mean = (-1.0) ** i, (i % 2 == 0) / (i + 1.0)
    if a < SMALL_A:
        u, w = np.zeros(len(i)), np.pad(f, (0, len(i) - len(f)))
        if flux is not None:
            g1, g0 = flux
            c = (g1 - g0 - 2 * (mean @ w)) / (2 * a2)
            u[:3] = c - (g1 - g0) / 12, (g1 + g0) / 2, (g1 - g0) / 4
            w = w + a2 * u
            w[0] -= 2 * u[2]
        for _ in range(SERIES_TERMS):
            # the second antiderivative with zero value and slope at y = 0
            w = np.concatenate([[0.0, 0.0], w[:-2] / ((i[:-2] + 1) * (i[:-2] + 2))])
            if flux is None:
                top, bot = w.sum(), w @ sign
                w[:2] -= (top + bot) / 2, (top - bot) / 2
            else:
                w[1] -= i @ w
                w[0] -= mean @ w
            u += w
            w = a2 * w
        return np.polyval(u[::-1], y), np.polyval((u[1:] * i[1:])[::-1], y)

    up, t = np.zeros(len(f)), -f / a2
    while np.any(t):
        up[: len(t)] += t
        t = t[2:] * i[2 : len(t)] * i[1 : len(t) - 1] / a2
    dup, th = up[1:] * i[1 : len(up)], np.tanh(a)
    if flux is None:
        top, bot = up.sum(), up @ sign[: len(up)]
        even, odd = -(top + bot) / 2, -(top - bot) / 2
    else:
        r1, r0 = np.subtract(flux, (dup.sum(), dup @ sign[: len(dup)]))
        even, odd = (r1 - r0) / (2 * a * th), (r1 + r0) * th / (2 * a)
    ch, sh = _ratios(a, y)
    return (np.polyval(up[::-1], y) + even * ch + odd * sh,
            np.polyval(dup[::-1], y) + even * a * th * sh + odd * a / th * ch)


def _field(params: FlowParams, grid: ChebGrid, table: dict) -> WaveField:
    """The field whose profile in component c, (cos, sin) slot t and
    harmonic j has the ascending coefficients table[c, t, j], and is zero
    where the table has no entry."""
    zero = YProfile.zero(grid)
    prof = {k: YProfile.from_poly(grid, v) for k, v in table.items()}
    pairs = [{j: (prof.get((c, 0, j), zero), prof.get((c, 1, j), zero))
              for k, _, j in prof if k == c} for c in range(3)]
    return WaveField(*(HarmonicScalar(params, grid, p) for p in pairs))


def example_field(params: FlowParams, grid: ChebGrid) -> WaveField:
    """The example velocity field, with exact polynomial profiles."""
    _need_beta(params)
    be = params.beta
    return _field(params, grid, {
        # u2 = cos(theta) (y^2 - 1)^2
        (1, 0, 1): [1.0, 0.0, -2.0, 0.0, 1.0],
        # u3 = -4 y sin(theta) (y^2 - 1) / be
        (2, 1, 1): [0.0, 4.0 / be, 0.0, -4.0 / be],
    })


def example_vorticity(params: FlowParams, grid: ChebGrid) -> WaveField:
    """curl of the example field, componentwise closed forms."""
    _need_beta(params)
    al, be = params.alpha, params.beta
    return _field(params, grid, {
        # w1 = sin(theta) (be^2 (y^2-1)^2 - 12 y^2 + 4) / be
        (0, 1, 1): np.array([be**2 + 4.0, 0.0, -2.0 * be**2 - 12.0, 0.0, be**2]) / be,
        # w2 = 4 al y cos(theta) (y^2 - 1) / be
        (1, 0, 1): np.array([0.0, -4.0 * al, 0.0, 4.0 * al]) / be,
        # w3 = -al sin(theta) (y^2 - 1)^2
        (2, 1, 1): -al * np.array([1.0, 0.0, -2.0, 0.0, 1.0]),
    })


def example_forcing(params: FlowParams, grid: ChebGrid) -> WaveField:
    """Forcing of the du/dt Poisson problem for the example field: the sine
    of f1 at harmonic 2, the cosine of f2 and the sine of f3 at harmonics 1
    and 2, all polynomial."""
    _need_beta(params)
    al, be, Re, k2 = params.alpha, params.beta, params.reynolds, params.k2
    return _field(params, grid, {
        # f1, harmonic 2, sine: -8 al (y^2-1)^2 (y^2+1)
        (0, 1, 2): -8.0 * al * np.array([1.0, 0.0, -1.0, 0.0, -1.0, 0.0, 1.0]),
        # f2, harmonic 1, cosine: (k2^2 (y^2-1)^2 + 8 k2 (1 - 3 y^2) + 24) / Re
        (1, 0, 1): np.array([k2**2 + 8.0 * k2 + 24.0, 0.0, -(2.0 * k2**2 + 24.0 * k2), 0.0,
                             k2**2]) / Re,
        # f2, harmonic 2, cosine: 8 y (3 y^2 + 1)(y^2 - 1)
        (1, 0, 2): np.array([0.0, -8.0, 0.0, -16.0, 0.0, 24.0]),
        # f3, harmonic 1, sine: 4 y k2 (k2 (1 - y^2) + 12) / (Re be)
        (2, 1, 1): np.array([0.0, 4.0 * k2 * (k2 + 12.0), 0.0, -4.0 * k2**2]) / (Re * be),
        # f3, harmonic 2, sine: 4 (2 al^2 (y^2-1)^2 (y^2+1) + 1 + 6 y^2 - 15 y^4) / be
        (2, 1, 2): np.array([2.0 * al**2 + 1.0, 0.0, 6.0 - 2.0 * al**2, 0.0,
                             -(2.0 * al**2 + 15.0), 0.0, 2.0 * al**2]) * (4.0 / be),
    })


def _scalar(params: FlowParams, grid: ChebGrid, a: np.ndarray) -> HarmonicScalar:
    """The scalar of sampled (cos, sin) profiles a[slot, j] for j >= 1."""
    pairs = {j: (YProfile.from_values(grid, a[0, j]), YProfile.from_values(grid, a[1, j]))
             for j in range(1, a.shape[1])}
    return HarmonicScalar(params, grid, pairs)


def _solved(params: FlowParams, grid: ChebGrid) -> np.ndarray:
    """u and u' on the nodes of the Dirichlet solve of every block of
    example_forcing, shape (2, slot, j, component, n)."""
    f = example_forcing(params, grid).stacked.block.poly
    out = np.zeros((2,) + f.shape[:-1] + (grid.n,))
    s = np.sqrt(params.k2)
    for t, j, c in zip(*np.nonzero(np.any(f, axis=-1))):
        out[:, t, j, c] = _helmholtz(f[t, j, c], j * s, grid.y)
    return out


def example_dudt(params: FlowParams, grid: ChebGrid) -> WaveField:
    """The time derivative: each polynomial block of example_forcing solved
    with homogeneous Dirichlet walls."""
    u = _solved(params, grid)[0]
    return WaveField(*(_scalar(params, grid, u[..., c, :]) for c in range(3)))


def example_div_coeffs(params: FlowParams, grid: ChebGrid) -> HarmonicScalar:
    """Divergence defect of the example's time derivative, the exact
    divergence j al du1 + du2' + j be du3 of its solved blocks: cosine
    profiles at harmonics 1 and 2, sine profiles identically zero."""
    u, du = _solved(params, grid)
    j = np.arange(u.shape[2])[:, None]
    jal, jbe = params.alpha * j, params.beta * j
    # d/dx of a cos + b sin at harmonic j is j al (b cos - a sin)
    cos = jal * u[1, :, 0] + du[0, :, 1] + jbe * u[1, :, 2]
    sin = -jal * u[0, :, 0] + du[1, :, 1] - jbe * u[0, :, 2]
    return _scalar(params, grid, np.stack([cos, sin]))


def example_cc_coeffs(params: FlowParams) -> dict:
    """Tangential wall residual coefficients of the example at y = +1,
    keyed by direction and harmonic. Cosine entries vanish by symmetry.

    The residual's sine entry is (1/Re) lap(u . t) + j k p, with p the
    cosine pressure at y = +1. It solves p'' - (jk)^2 p = q with dp/dy =
    (1/Re) lap(u2) at both walls: at j = 1 the source is zero and the wall
    data 8/Re, at j = 2 the source is -4 (y^2 + 1)(y^2 - 1)^2 and the wall
    data zero. The only viscous term is (1/Re) lap(u3)(+1) = -24/(Re be) at
    j = 1."""
    _need_beta(params)
    al, be, Re = params.alpha, params.beta, params.reynolds
    s = np.sqrt(params.k2)
    p1 = float(_helmholtz(np.zeros(1), s, 1.0, flux=(8 / Re, 8 / Re))[0])
    p2 = float(_helmholtz([-4.0, 0.0, 4.0, 0.0, 4.0, 0.0, -4.0], 2 * s, 1.0, flux=(0.0, 0.0))[0])
    return {
        "x": {1: {"cos": 0.0, "sin": al * p1}, 2: {"cos": 0.0, "sin": 2 * al * p2}},
        "z": {1: {"cos": 0.0, "sin": be * p1 - 24 / (Re * be)},
              2: {"cos": 0.0, "sin": 2 * be * p2}},
    }
