"""Harmonic field algebra for wavelike channel flow states.

A scalar field is stored as a truncated phase series

    f(x, y, z) = sum_j  a_j(y) cos(j theta) + b_j(y) sin(j theta),
    theta = alpha x + beta z,

held in one block of wall-normal profiles (a YProfile) whose leading axes
are the (cos, sin) slot and the harmonic index j. Every operation acts on
all harmonics at once: d/dx and d/dz scale the slots by j alpha or j beta
and swap them, d/dy and the Laplacian act on the whole block, and a
product is one outer product over the pairs of harmonics (j1, j2), summed
into j1 + j2 and |j1 - j2| by the product-to-sum identities, so no
collocation in theta and no aliasing is involved. A block keeps exact
polynomial coefficients only when every profile in it has them. The j = 0
sine slot multiplies sin(0) = 0 and is kept identically zero. A vector
field is one such block with one more row axis, the component, so curl,
the products and the solves act on all three components at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, ValidationError
from .spectral import ChebGrid, YProfile, polyadd

# admissibility thresholds, relative to the field's own max-abs scale
NOSLIP_RTOL = 1e-10
DIVFREE_WARN_RTOL = 1e-8
DIVFREE_ERROR_RTOL = 1e-4


@dataclass(frozen=True)
class FlowParams:
    """Streamwise/spanwise wavenumbers and Reynolds number."""

    alpha: float
    beta: float
    reynolds: float

    def __post_init__(self):
        # NaN passes every comparison and reaches the solves as a singular
        # matrix; Infinity gives NaN there
        if not np.all(np.isfinite([self.alpha, self.beta, self.reynolds])):
            raise ConfigurationError(
                f"alpha, beta and reynolds must be finite, got "
                f"{self.alpha}, {self.beta}, {self.reynolds}"
            )
        if self.reynolds <= 0:
            raise ConfigurationError(f"reynolds must be positive, got {self.reynolds}")
        # Python's ** raises OverflowError, and two finite squares can sum to inf
        with np.errstate(over="ignore"):
            k2 = np.square(float(self.alpha)) + np.square(float(self.beta))
        if not np.isfinite(k2):
            raise ConfigurationError(
                f"alpha^2 + beta^2 must be finite, got alpha {self.alpha}, beta {self.beta}"
            )

    @property
    def k2(self) -> float:
        """Squared magnitude of the (alpha, beta) wavevector."""
        return self.alpha**2 + self.beta**2


def _map(p: YProfile, fn) -> YProfile:
    """fn applied to the array the profile is held in (see YProfile.data)."""
    if p.poly is None:
        return YProfile(p.grid, fn(p.values))
    return YProfile(p.grid, poly=fn(p.poly))


def _stack(grid: ChebGrid, profiles, axis: int = 0) -> YProfile:
    """One block from a list of profiles, stacked along `axis`: rows
    broadcast, coefficients zero-padded to the longest. The block is a
    polynomial only when every profile is one."""
    sampled = any(p.poly is None for p in profiles)
    if sampled:
        arrays = [p.values for p in profiles]
    else:
        d = max(p.poly.shape[-1] for p in profiles)
        arrays = [polyadd(p.poly, np.zeros(d)) for p in profiles]
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    block = np.stack([np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays], axis)
    return YProfile(grid, block) if sampled else YProfile(grid, poly=block)


def _fit(p: YProfile, size: int, ndim: int) -> YProfile:
    """Scalar block with `size` harmonics (zeros appended) and unit row
    axes appended after its own rows up to `ndim` dimensions, so that the
    first row axes of two blocks line up (the component axis of a field
    against that of a block of fields)."""

    def fit(a):
        if a.ndim < ndim:
            a = a.reshape(a.shape[:-1] + (1,) * (ndim - a.ndim) + a.shape[-1:])
        if a.shape[1] == size:
            return a
        out = np.zeros(a.shape[:1] + (size,) + a.shape[2:], a.dtype)
        out[:, : a.shape[1]] = a
        return out

    return _map(p, fit)


def _scale(fac: np.ndarray, p: YProfile) -> YProfile:
    """Block times one factor per (trig slot, harmonic); fac is (2, J+1)
    or broadcasts to it."""
    return _map(p, lambda a: fac.reshape(fac.shape + (1,) * (a.ndim - 2)) * a)


class HarmonicScalar:
    """Scalar harmonic series held in one profile block: `block.values` is
    (2, J+1, n), or (2, J+1, rows, n) for a block of fields, with the
    (cos, sin) slot on axis 0 and the harmonic index j on axis 1; `poly`
    follows the same layout. Built from its (cos, sin) profile pairs
    {j: (a, b)}, zero without them, and never changed in place."""

    def __init__(self, params: FlowParams, grid: ChebGrid, data=None):
        self.params = params
        self.grid = grid
        pairs = {int(j): pair for j, pair in (data or {}).items()}
        for j, (a, b) in pairs.items():
            if j < 0:
                raise ConfigurationError(f"harmonic index must be >= 0, got {j}")
            if a.grid != grid or b.grid != grid:
                raise ConfigurationError("profile grid does not match field grid")
        zero = YProfile.zero(grid)
        slots = [pairs.get(j, (zero, zero)) for j in range(max(pairs, default=0) + 1)]
        # sin(0) = 0; a coefficient there carries no field content
        block = _stack(grid, [a for a, _ in slots] + [zero] + [b for _, b in slots[1:]])
        self.block = _map(block, lambda a: a.reshape((2, len(slots)) + a.shape[1:]))

    def _like(self, block: YProfile) -> "HarmonicScalar":
        """Scalar with this freshly computed block, its j = 0 sine slot set
        to zero whatever the operation left there (-0.0, NaN)."""
        block.data[1, 0] = 0.0
        return self._view(block)

    def _view(self, block: YProfile) -> "HarmonicScalar":
        out = object.__new__(HarmonicScalar)
        out.params, out.grid, out.block = self.params, self.grid, block
        return out

    @property
    def _size(self) -> int:
        return self.block.data.shape[1]

    def row(self, i) -> "HarmonicScalar":
        """The rows of a stacked scalar (see stack) that the numpy index i
        selects, counted from the first row axis; a view unless i is a
        fancy index."""
        i = i if isinstance(i, tuple) else (i,)
        return self._view(_map(self.block, lambda a: a[(slice(None), slice(None)) + i]))

    def swap_rows(self) -> "HarmonicScalar":
        """A view with the first two row axes swapped."""
        return self._view(_map(self.block, lambda a: a.swapaxes(2, 3)))

    def get(self, j: int) -> tuple[YProfile, YProfile]:
        if 0 <= j < self._size:
            return _map(self.block, lambda a: a[0, j]), _map(self.block, lambda a: a[1, j])
        z = YProfile.zero(self.grid)
        return z, z

    def items(self):
        return [(j, self.get(j)) for j in self.harmonics()]

    def harmonics(self) -> list[int]:
        live = np.any(self.block.data.reshape(2, self._size, -1), axis=(0, 2))
        return np.flatnonzero(live).tolist()

    def _compat(self, other: "HarmonicScalar"):
        if self.grid != other.grid:
            raise ConfigurationError("fields live on different grids")
        if self.params != other.params:
            raise ConfigurationError(
                f"flow parameters differ: {self.params} vs {other.params}"
            )

    def __add__(self, other: "HarmonicScalar") -> "HarmonicScalar":
        self._compat(other)
        size = max(self._size, other._size)
        ndim = max(self.block.data.ndim, other.block.data.ndim)
        return self._like(_fit(self.block, size, ndim) + _fit(other.block, size, ndim))

    def __sub__(self, other: "HarmonicScalar") -> "HarmonicScalar":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, HarmonicScalar):
            return harmonic_product(self, other)
        return self._like(self.block * other)

    __rmul__ = __mul__

    def __neg__(self) -> "HarmonicScalar":
        return (-1.0) * self

    def _dtheta(self, k: float) -> "HarmonicScalar":
        """k d/dtheta: cos_j -> -j k sin, sin_j -> +j k cos."""
        jk = k * np.arange(self._size)
        swapped = _map(self.block, lambda a: a[::-1])
        return self._like(_scale(np.stack([jk, -jk]), swapped))

    def dx(self) -> "HarmonicScalar":
        return self._dtheta(self.params.alpha)

    def dz(self) -> "HarmonicScalar":
        return self._dtheta(self.params.beta)

    def dy(self) -> "HarmonicScalar":
        return self._like(self.block.deriv())

    def laplacian(self) -> "HarmonicScalar":
        """d2/dy2 - j^2 (alpha^2 + beta^2) per harmonic."""
        fac = -(np.arange(self._size)[None] ** 2) * self.params.k2
        return self._like(self.block.deriv().deriv() + _scale(fac, self.block))

    def max_abs(self) -> float:
        """Largest magnitude over all profiles; NaN if any sample is NaN
        (np.max propagates it, the builtin max would drop it)."""
        return self.block.max_abs

    def l2(self) -> float:
        """Volume-mean L2 norm: harmonic orthogonality in theta, Clenshaw-
        Curtis quadrature in y, normalized by the channel height."""
        fac = np.where(np.arange(self._size) == 0, 1.0, 0.5)
        tot = fac @ (np.abs(self.block.values) ** 2 @ self.grid.weights).sum(axis=0)
        return float(np.sqrt(tot / 2.0))

    def strip_poly(self) -> "HarmonicScalar":
        return self._like(self.block.strip_poly())

    def evaluate(self, x, y, z):
        """Pointwise values at broadcastable coordinate arrays.

        Each profile is interpolated once per distinct y and gathered back
        to the points, so a plane of nx * ny points costs ny interpolations.
        """
        x, y, z = np.broadcast_arrays(
            np.asarray(x, dtype=float),
            np.asarray(y, dtype=float),
            np.asarray(z, dtype=float),
        )
        theta = self.params.alpha * x + self.params.beta * z
        yu, inv = np.unique(y, return_inverse=True)
        # numpy < 2 returns a flat inverse
        inv = inv.reshape(y.shape)
        out = np.zeros(theta.shape)
        for j, (a, b) in self.items():
            ay, by = a(yu)[inv], b(yu)[inv]
            out = out + ay * np.cos(j * theta) + by * np.sin(j * theta)
        return out


def harmonic_product(f: HarmonicScalar, g: HarmonicScalar) -> HarmonicScalar:
    """Pointwise product of two harmonic scalars, in coefficient space: the
    outer product over the live harmonics (j1, j2) of f and g, sent to
    s = j1 + j2 and d = |j1 - j2| (sgn = sign(j1 - j2)) by one matrix

        cos cos -> (cos d + cos s) / 2,      sin sin -> (cos d - cos s) / 2,
        sin cos -> (sin s + sgn sin d) / 2,  cos sin -> (sin s - sgn sin d) / 2.

    The matrix multiplies each row of a block on its own, so a row gets the
    same bits in any block: products of a stacked scalar that are equal up
    to sign cancel exactly, as they do one at a time.
    """
    f._compat(g)
    ndim = max(f.block.data.ndim, g.block.data.ndim)
    jf, jg = (np.array(h.harmonics() or [0]) for h in (f, g))
    # axes: f slot, g slot, j1, j2, then rows and y
    x1 = _map(_fit(f.block, f._size, ndim), lambda a: a[:, None, jf, None])
    x2 = _map(_fit(g.block, g._size, ndim), lambda a: a[None, :, None, jg])
    j1, j2 = jf[:, None], jg[None, :]
    k = np.arange(f._size + g._size - 1)[:, None, None]
    s, d, sgn = 0.5 * (k == j1 + j2), 0.5 * (k == abs(j1 - j2)), np.sign(j1 - j2)
    o = np.zeros_like(s)
    M = np.array([[[d + s, o], [o, d - s]], [[o, s - sgn * d], [s + sgn * d, o]]])
    M = M.transpose(0, 3, 1, 2, 4, 5).reshape(2 * len(k), -1)
    out = (2, len(k))

    def contract(a):
        rows = np.moveaxis(a.reshape(M.shape[1:] + a.shape[4:]), 0, -2)
        return np.moveaxis(M @ rows, -2, 0).reshape(out + a.shape[4:])

    return f._like(_map(x1 * x2, contract))


def stack(scalars) -> HarmonicScalar:
    """Scalars of one flow on a new first row axis (axis 2 of the block),
    harmonics zero-padded to the longest and rows broadcast (see _fit), so
    that each operation acts on all of them at once; row(i) gives scalar i
    back."""
    first = scalars[0]
    for h in scalars[1:]:
        first._compat(h)
    size = max(h._size for h in scalars)
    ndim = max(h.block.data.ndim for h in scalars)
    return first._view(_stack(first.grid, [_fit(h.block, size, ndim) for h in scalars], 2))


class WaveField:
    """Velocity-like vector field with components (u1, u2, u3) =
    (streamwise, wall-normal, spanwise), held as one stacked scalar whose
    first row axis is the component (see stack), so that every operation
    acts on the three components at once; the flow parameters and the
    grid are the components' own, and stack refuses components that
    disagree on them. u1, u2, u3 and components are views of its rows. A
    field that mixes polynomial and sampled components is held sampled as
    a whole. Neither a field nor a scalar is ever changed in place, so its
    velocity gradient is built once, on first use, and kept (see
    gradient)."""

    def __init__(self, u1: HarmonicScalar, u2: HarmonicScalar, u3: HarmonicScalar):
        self.stacked = stack([u1, u2, u3])

    @classmethod
    def of(cls, stacked: HarmonicScalar) -> "WaveField":
        """The field whose components are rows 0, 1, 2 of the first row
        axis of a stacked scalar, held as it is, without restacking."""
        out = object.__new__(cls)
        out.stacked = stacked
        return out

    params = property(lambda self: self.stacked.params)
    grid = property(lambda self: self.stacked.grid)
    u1 = property(lambda self: self.stacked.row(0))
    u2 = property(lambda self: self.stacked.row(1))
    u3 = property(lambda self: self.stacked.row(2))

    @property
    def components(self) -> tuple[HarmonicScalar, HarmonicScalar, HarmonicScalar]:
        return (self.u1, self.u2, self.u3)

    @cached_property
    def gradient(self) -> HarmonicScalar:
        """The velocity gradient, one stacked scalar with rows (derivative,
        component): the only place the field's first derivatives are built."""
        u = self.stacked
        return stack([u.dx(), u.dy(), u.dz()])

    def max_abs(self) -> float:
        return self.stacked.max_abs()

    def l2(self) -> float:
        return float(np.sqrt(sum(c.l2() ** 2 for c in self.components)))

    def strip_poly(self) -> "WaveField":
        return WaveField.of(self.stacked.strip_poly())

    def __add__(self, other: "WaveField") -> "WaveField":
        return WaveField.of(self.stacked + other.stacked)

    def __sub__(self, other: "WaveField") -> "WaveField":
        return WaveField.of(self.stacked - other.stacked)

    def __mul__(self, s):
        return WaveField.of(s * self.stacked)

    __rmul__ = __mul__


def divergence(field: WaveField) -> HarmonicScalar:
    """The trace of field.gradient, dx u1 + dy u2 + dz u3."""
    g = field.gradient
    return g.row((0, 0)) + g.row((1, 1)) + g.row((2, 2))


def curl(field: WaveField) -> WaveField:
    """One subtraction of two sets of rows of field.gradient, (dy u3, dz u1,
    dx u2) minus (dz u2, dx u3, dy u1)."""
    g = field.gradient
    return WaveField.of(g.row(([1, 2, 0], [2, 0, 1])) - g.row(([2, 0, 1], [1, 2, 0])))


def _continuity_u3(params: FlowParams, j: int, u1_pair, u2_pair):
    """Spanwise (cos, sin) profiles a3, b3 that close the divergence at
    harmonic j >= 1 of the u1 and u2 pairs: j alpha b1 + a2' + j beta b3 = 0
    and -j alpha a1 + b2' - j beta a3 = 0. Zero at j = 0."""
    a1, b1 = u1_pair
    a2, b2 = u2_pair
    if j == 0:
        z = YProfile.zero(a1.grid)
        return z, z
    if params.beta == 0:
        raise DomainError("u3 continuity recovery divides by beta")
    al, be = params.alpha, params.beta
    b3 = (-1.0 / (j * be)) * (j * al * b1 + a2.deriv())
    a3 = (1.0 / (j * be)) * (b2.deriv() - j * al * a1)
    return a3, b3


def admissibility_violations(field: WaveField):
    """No-slip and divergence checks; returns a list of violation strings
    (empty when the field is admissible). Periodicity in x and z holds by
    construction of the harmonic representation."""
    scale = field.max_abs()
    if scale == 0.0:
        return []
    out = []
    trig = ("cos", "sin")
    for name, comp in zip(("u1", "u2", "u3"), field.components):
        for wall, vals in (("+1", comp.block.top), ("-1", comp.block.bottom)):
            for t, j in zip(*np.nonzero(np.abs(vals) > NOSLIP_RTOL * scale)):
                out.append(
                    f"{name} {trig[t]} j={j}: no-slip violated at "
                    f"y={wall} (|u| = {abs(vals[t, j]):.3e})"
                )
    div = divergence(field)
    dmax = div.max_abs()
    if dmax > DIVFREE_ERROR_RTOL * scale:
        mags = np.max(np.abs(div.block.values), axis=-1)
        t, j = np.unravel_index(np.argmax(mags), mags.shape)
        out.append(
            f"divergence-free violated: max |div u| = {dmax:.3e} "
            f"({dmax / scale:.3e} relative, worst at {trig[t]} j={j})"
        )
    elif dmax > DIVFREE_WARN_RTOL * scale:
        warnings.warn(
            f"field divergence {dmax / scale:.3e} relative exceeds "
            f"{DIVFREE_WARN_RTOL:.0e}; results may lose accuracy",
            stacklevel=2,
        )
    return out


def require_admissible(field: WaveField):
    violations = admissibility_violations(field)
    if violations:
        raise ValidationError(violations)
