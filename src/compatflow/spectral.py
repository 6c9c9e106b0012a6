"""Chebyshev collocation primitives: Gauss-Lobatto grids, differentiation
matrices, quadrature weights, and wall-normal profiles.

Grid orientation: nodes are stored descending, y[0] = +1 down to y[-1] = -1,
matching the usual collocation construction. Everything downstream (profile
samples, file formats, CSV output) follows this ordering.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError


class ChebGrid:
    """Chebyshev-Gauss-Lobatto collocation grid with n nodes.

    Attributes:
        n:       number of collocation nodes (polynomial degree n-1)
        y:       nodes, descending from +1 to -1
        D, D2:   first and second derivative matrices
        weights: Clenshaw-Curtis quadrature weights (sum to 2)
    """

    def __init__(self, n: int):
        if n < 4:
            raise ConfigurationError(f"grid needs at least 4 nodes, got {n}")
        self.n = n
        N = n - 1
        k = np.arange(n)
        self.y = np.cos(np.pi * k / N)
        c = np.ones(n)
        c[0] = 2.0
        c[-1] = 2.0
        c = c * (-1.0) ** k
        X = np.tile(self.y, (n, 1)).T
        dX = X - X.T
        D = np.outer(c, 1.0 / c) / (dX + np.eye(n))
        self.D = D - np.diag(D.sum(axis=1))
        self.D2 = self.D @ self.D
        self.weights = _clencurt(n)
        # barycentric weights for interpolation off the nodes
        bw = np.ones(n)
        bw[0] = 0.5
        bw[-1] = 0.5
        self._bary = bw * (-1.0) ** k

    def __eq__(self, other):
        return isinstance(other, ChebGrid) and other.n == self.n

    def __hash__(self):
        return hash(("ChebGrid", self.n))

    def __repr__(self):
        return f"ChebGrid(n={self.n})"

    def interpolate(self, values: np.ndarray, yq) -> np.ndarray:
        """Barycentric interpolation at points yq in [-1, 1] of nodal values
        with the node axis first and any trailing axes; the result has shape
        yq.shape + values.shape[1:]. Each column is one matrix-vector
        product, so a block gives the bits of its columns taken one by one."""
        yq = np.asarray(yq, dtype=float)
        if np.any(yq < -1.0) or np.any(yq > 1.0):
            raise DomainError("evaluation points must satisfy -1 <= y <= 1")
        flat = np.atleast_1d(yq).ravel()
        diff = flat[:, None] - self.y[None, :]
        exact_q, exact_j = np.nonzero(diff == 0.0)
        cols = values.reshape(len(values), -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = self._bary[None, :] / diff
            out = (w @ cols.T[..., None])[..., 0].T / w.sum(axis=1)[:, None]
        out[exact_q] = cols[exact_j]
        return out.reshape(yq.shape + values.shape[1:])[()]


@lru_cache(maxsize=32)
def cheb_grid(n: int) -> ChebGrid:
    """Shared ChebGrid instances keyed by node count."""
    return ChebGrid(n)


def _clencurt(n: int) -> np.ndarray:
    N = n - 1
    theta = np.pi * np.arange(n) / N
    w = np.zeros(n)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = 1.0 / (N**2 - 1)
        w[N] = w[0]
        for kk in range(1, N // 2):
            v -= 2.0 * np.cos(2 * kk * theta[ii]) / (4 * kk**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = 1.0 / N**2
        w[N] = w[0]
        for kk in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * kk * theta[ii]) / (4 * kk**2 - 1)
    w[ii] = 2.0 * v / N
    return w


def polyadd(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum of coefficient arrays (ascending powers on the last axis),
    broadcast over leading axes; the shorter one is padded with zeros."""
    d = max(p.shape[-1], q.shape[-1])
    lead = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    out = np.zeros(lead + (d,), dtype=np.result_type(p, q))
    out[..., : p.shape[-1]] += p
    out[..., : q.shape[-1]] += q
    return out


def polymul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays, broadcast over leading axes: a
    convolution with one shifted add per coefficient of the shorter one."""
    if p.shape[-1] < q.shape[-1]:
        p, q = q, p
    dp = p.shape[-1]
    lead = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    out = np.zeros(lead + (dp + q.shape[-1] - 1,), dtype=np.result_type(p, q))
    for i in range(q.shape[-1]):
        out[..., i : i + dp] += p * q[..., i : i + 1]
    return out


def polyder(p: np.ndarray) -> np.ndarray:
    """Derivative of a coefficient array; a constant gives one zero."""
    if p.shape[-1] == 1:
        return np.zeros_like(p)
    return p[..., 1:] * np.arange(1, p.shape[-1])


def _polyval(grid: ChebGrid, p: np.ndarray) -> np.ndarray:
    """Samples at the nodes of coefficient arrays with any leading axes,
    by Horner's rule (the same operations as numpy's polyval)."""
    out = np.zeros(p.shape[:-1] + (grid.n,), np.result_type(p, grid.y))
    for i in range(p.shape[-1] - 1, -1, -1):
        out *= grid.y
        out += p[..., i, None]
    return out


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    # a NaN profile fails every comparison downstream, so it could pass
    # the admissibility checks and the verdict alike
    if not np.all(np.isfinite(a)):
        raise ConfigurationError(f"profile {what} must be finite (got NaN or Infinity)")
    return a


class YProfile:
    """A scalar function of y on a ChebGrid, held in one of two forms.

    A sampled profile holds its nodal samples `values` (real or complex),
    shape (n,) for one profile or (..., n) for a block of profiles that
    share every operation (rows of a search block, harmonics of a
    HarmonicScalar). A polynomial profile holds only its coefficients
    `poly`, ascending powers of y, shape (d,) or (..., d): +, * and deriv
    act on them exactly, and `values` is evaluated from them by Horner's
    rule on first use and kept. `data` is the array a profile is held in.
    An operation that mixes the two forms gives a sampled profile. Rows
    broadcast against single profiles, so a block and a single profile go
    through the same code.
    """

    __slots__ = ("grid", "poly", "_values")

    def __init__(self, grid: ChebGrid, values=None, poly=None):
        self.grid = grid
        self.poly = poly
        self._values = values

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _polyval(self.grid, self.poly)
        return self._values

    @property
    def data(self) -> np.ndarray:
        """The coefficients of a polynomial profile, the samples otherwise;
        both have the rows as leading axes."""
        return self._values if self.poly is None else self.poly

    @classmethod
    def zero(cls, grid: ChebGrid) -> "YProfile":
        return cls(grid, poly=np.zeros(1))

    @classmethod
    def from_poly(cls, grid: ChebGrid, coeffs) -> "YProfile":
        c = _finite(np.atleast_1d(np.asarray(coeffs, dtype=float)), "coefficients")
        return cls(grid, poly=c)

    @classmethod
    def from_values(cls, grid: ChebGrid, values) -> "YProfile":
        v = np.asarray(values)
        if v.shape != (grid.n,):
            raise ConfigurationError(
                f"profile needs {grid.n} samples, got shape {v.shape}"
            )
        return cls(grid, _finite(v, "samples"))

    def _check(self, other: "YProfile"):
        if self.grid != other.grid:
            raise ConfigurationError("profiles live on different grids")

    @property
    def top(self):
        """Value at y = +1 (one per row)."""
        return self.values[..., 0]

    @property
    def bottom(self):
        """Value at y = -1 (one per row)."""
        return self.values[..., -1]

    @property
    def max_abs(self) -> float:
        """Largest magnitude over all samples and rows; NaN if any is NaN."""
        return float(np.max(np.abs(self.values)))

    def is_zero(self) -> bool:
        """True when every sample (coefficient) of every row is zero."""
        return not np.any(self.data)

    def __add__(self, other: "YProfile") -> "YProfile":
        self._check(other)
        if self.poly is not None and other.poly is not None:
            return YProfile(self.grid, poly=polyadd(self.poly, other.poly))
        return YProfile(self.grid, self.values + other.values)

    def __sub__(self, other: "YProfile") -> "YProfile":
        return self + (-1.0) * other

    def __neg__(self) -> "YProfile":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, YProfile):
            self._check(other)
            if self.poly is not None and other.poly is not None:
                return YProfile(self.grid, poly=polymul(self.poly, other.poly))
            return YProfile(self.grid, self.values * other.values)
        s = complex(other) if np.iscomplexobj(self.data) else float(other)
        if self.poly is not None:
            return YProfile(self.grid, poly=s * self.poly)
        return YProfile(self.grid, s * self.values)

    __rmul__ = __mul__

    def deriv(self) -> "YProfile":
        """d/dy. Exact polynomial derivative of a polynomial profile,
        collocation derivative otherwise, as one matrix-vector product per
        profile: a matrix-matrix product over a block sums in another order,
        and the third derivatives in the forcing of a sampled field amplify
        that to up to 3.5e-6 of the forcing scale at n = 128."""
        if self.poly is not None:
            return YProfile(self.grid, poly=polyder(self.poly))
        return YProfile(self.grid, (self.values[..., None, :] @ self.grid.D.T)[..., 0, :])

    def __call__(self, yq):
        return self.grid.interpolate(self.values, yq)

    def integral(self) -> float:
        """Integral over [-1, 1] by Clenshaw-Curtis quadrature."""
        return self.values @ self.grid.weights

    def strip_poly(self) -> "YProfile":
        """Sampled profile with the same samples."""
        return YProfile(self.grid, self.values.copy())
