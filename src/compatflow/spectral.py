"""Chebyshev collocation primitives: Gauss-Lobatto grids, differentiation
matrices, quadrature weights, and wall-normal profiles.

Grid orientation: nodes are stored descending, y[0] = +1 down to y[-1] = -1,
matching the usual collocation construction. Everything downstream (profile
samples, file formats, CSV output) follows this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

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
        """Barycentric interpolation of nodal values at points yq in [-1, 1]."""
        yq = np.asarray(yq, dtype=float)
        if np.any(yq < -1.0) or np.any(yq > 1.0):
            raise DomainError("evaluation points must satisfy -1 <= y <= 1")
        flat = np.atleast_1d(yq).ravel()
        diff = flat[:, None] - self.y[None, :]
        exact_q, exact_j = np.nonzero(diff == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = self._bary[None, :] / diff
            out = (w @ values) / w.sum(axis=1)
        out[exact_q] = values[exact_j]
        return out.reshape(yq.shape) if yq.shape else out[0]


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


@dataclass
class YProfile:
    """A scalar function of y sampled on a ChebGrid.

    `values` holds the nodal samples (real or complex), shape (n,) for one
    profile or (rows, n) for a block of profiles that share every
    operation. When the profile is known to be a polynomial, `poly` carries
    its coefficients in ascending powers of y, shape (d,) or (rows, d);
    arithmetic propagates the polynomial form where it stays exact and
    drops it otherwise. Rows broadcast against single profiles, so a block
    and a single profile go through the same code.
    """

    grid: ChebGrid
    values: np.ndarray
    poly: np.ndarray | None = None

    @classmethod
    def zero(cls, grid: ChebGrid) -> "YProfile":
        return cls(grid, np.zeros(grid.n), np.zeros(1))

    @classmethod
    def from_poly(cls, grid: ChebGrid, coeffs) -> "YProfile":
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        return cls(grid, npoly.polyval(grid.y, c.T), c)

    @classmethod
    def from_values(cls, grid: ChebGrid, values) -> "YProfile":
        v = np.asarray(values)
        if v.shape != (grid.n,):
            raise ConfigurationError(
                f"profile needs {grid.n} samples, got shape {v.shape}"
            )
        return cls(grid, v)

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
        """True when every sample of every row is zero."""
        return not np.any(self.values)

    def __add__(self, other: "YProfile") -> "YProfile":
        self._check(other)
        p = None
        if self.poly is not None and other.poly is not None:
            p = polyadd(self.poly, other.poly)
        return YProfile(self.grid, self.values + other.values, p)

    def __sub__(self, other: "YProfile") -> "YProfile":
        return self + (-1.0) * other

    def __neg__(self) -> "YProfile":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, YProfile):
            self._check(other)
            p = None
            if self.poly is not None and other.poly is not None:
                p = polymul(self.poly, other.poly)
            return YProfile(self.grid, self.values * other.values, p)
        s = complex(other) if np.iscomplexobj(self.values) else float(other)
        p = None if self.poly is None else s * self.poly
        return YProfile(self.grid, s * self.values, p)

    __rmul__ = __mul__

    def deriv(self) -> "YProfile":
        """d/dy. Exact polynomial derivative when the form is known,
        collocation derivative otherwise."""
        if self.poly is not None:
            p = polyder(self.poly)
            return YProfile(self.grid, npoly.polyval(self.grid.y, p.T), p)
        return YProfile(self.grid, self.values @ self.grid.D.T)

    def __call__(self, yq):
        return self.grid.interpolate(self.values, yq)

    def integral(self) -> float:
        """Integral over [-1, 1] by Clenshaw-Curtis quadrature."""
        return self.values @ self.grid.weights

    def strip_poly(self) -> "YProfile":
        """Same samples with the polynomial annotation dropped."""
        return YProfile(self.grid, self.values.copy())
