"""Harmonic field algebra for wavelike channel flow states.

A scalar field is stored as a truncated phase series

    f(x, y, z) = sum_j  a_j(y) cos(j theta) + b_j(y) sin(j theta),
    theta = alpha x + beta z,

with one pair of wall-normal profiles per harmonic j >= 0. Products are
formed in coefficient space (product-to-sum identities), so no collocation
in theta and no aliasing is involved. The j = 0 sine slot multiplies
sin(0) = 0 and is kept identically zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .spectral import ChebGrid, YProfile

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
        if self.reynolds <= 0:
            raise ConfigurationError(f"reynolds must be positive, got {self.reynolds}")

    @property
    def k2(self) -> float:
        """Squared magnitude of the (alpha, beta) wavevector."""
        return self.alpha**2 + self.beta**2


class HarmonicScalar:
    """Scalar harmonic series: dict j -> (cos profile, sin profile)."""

    def __init__(self, params: FlowParams, grid: ChebGrid, data=None):
        self.params = params
        self.grid = grid
        self.data: dict[int, tuple[YProfile, YProfile]] = {}
        if data:
            for j, (a, b) in data.items():
                self.put(int(j), a, b)

    def put(self, j: int, a: YProfile, b: YProfile):
        if j < 0:
            raise ConfigurationError(f"harmonic index must be >= 0, got {j}")
        if a.grid != self.grid or b.grid != self.grid:
            raise ConfigurationError("profile grid does not match field grid")
        if j == 0 and not b.is_zero():
            # sin(0) = 0; a nonzero coefficient here carries no field content
            b = YProfile.zero(self.grid)
        if a.is_zero() and b.is_zero():
            self.data.pop(j, None)
        else:
            self.data[j] = (a, b)

    @classmethod
    def zero(cls, params: FlowParams, grid: ChebGrid) -> "HarmonicScalar":
        return cls(params, grid)

    def get(self, j: int) -> tuple[YProfile, YProfile]:
        z = YProfile.zero(self.grid)
        return self.data.get(j, (z, z))

    def items(self):
        return sorted(self.data.items())

    def harmonics(self) -> list[int]:
        return sorted(self.data)

    def copy(self) -> "HarmonicScalar":
        return HarmonicScalar(self.params, self.grid, dict(self.data))

    def _compat(self, other: "HarmonicScalar"):
        if self.grid != other.grid:
            raise ConfigurationError("fields live on different grids")
        if self.params != other.params:
            raise ConfigurationError(
                f"flow parameters differ: {self.params} vs {other.params}"
            )

    def __add__(self, other: "HarmonicScalar") -> "HarmonicScalar":
        self._compat(other)
        out = self.copy()
        for j, (a, b) in other.data.items():
            a0, b0 = out.get(j)
            out.put(j, a0 + a, b0 + b)
        return out

    def __sub__(self, other: "HarmonicScalar") -> "HarmonicScalar":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, HarmonicScalar):
            return harmonic_product(self, other)
        out = HarmonicScalar(self.params, self.grid)
        for j, (a, b) in self.data.items():
            out.put(j, other * a, other * b)
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "HarmonicScalar":
        return (-1.0) * self

    def dx(self) -> "HarmonicScalar":
        """d/dx: cos_j -> -j alpha sin, sin_j -> +j alpha cos."""
        al = self.params.alpha
        out = HarmonicScalar(self.params, self.grid)
        for j, (a, b) in self.data.items():
            out.put(j, j * al * b, -j * al * a)
        return out

    def dz(self) -> "HarmonicScalar":
        be = self.params.beta
        out = HarmonicScalar(self.params, self.grid)
        for j, (a, b) in self.data.items():
            out.put(j, j * be * b, -j * be * a)
        return out

    def dy(self) -> "HarmonicScalar":
        out = HarmonicScalar(self.params, self.grid)
        for j, (a, b) in self.data.items():
            out.put(j, a.deriv(), b.deriv())
        return out

    def laplacian(self) -> "HarmonicScalar":
        """d2/dy2 - j^2 (alpha^2 + beta^2) per harmonic."""
        k2 = self.params.k2
        out = HarmonicScalar(self.params, self.grid)
        for j, (a, b) in self.data.items():
            fac = -(j**2) * k2
            out.put(j, a.deriv().deriv() + fac * a, b.deriv().deriv() + fac * b)
        return out

    def max_abs(self) -> float:
        """Largest magnitude over all profiles; NaN if any sample is NaN
        (np.max propagates it, the builtin max would drop it)."""
        profiles = [p for pair in self.data.values() for p in pair]
        return float(np.max([0.0] + [p.max_abs for p in profiles]))

    def l2(self) -> float:
        """Volume-mean L2 norm: harmonic orthogonality in theta, Clenshaw-
        Curtis quadrature in y, normalized by the channel height."""
        w = self.grid.weights
        tot = 0.0
        for j, (a, b) in self.data.items():
            fac = 1.0 if j == 0 else 0.5
            tot += fac * (w @ np.abs(a.values) ** 2 + w @ np.abs(b.values) ** 2)
        return float(np.sqrt(tot / 2.0))

    def strip_poly(self) -> "HarmonicScalar":
        out = HarmonicScalar(self.params, self.grid)
        for j, (a, b) in self.data.items():
            out.put(j, a.strip_poly(), b.strip_poly())
        return out

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
        for j, (a, b) in self.data.items():
            ay, by = a(yu)[inv], b(yu)[inv]
            out = out + ay * np.cos(j * theta) + by * np.sin(j * theta)
        return out


def harmonic_product(f: HarmonicScalar, g: HarmonicScalar) -> HarmonicScalar:
    """Pointwise product of two harmonic scalars, in coefficient space."""
    f._compat(g)
    grid = f.grid
    zero = YProfile.zero(grid)
    out = HarmonicScalar(f.params, grid)

    def add(j, a, b):
        a0, b0 = out.get(j)
        out.put(j, a0 + a, b0 + b)

    for j1, (a1, b1) in f.data.items():
        for j2, (a2, b2) in g.data.items():
            jd, js = abs(j1 - j2), j1 + j2
            sgn = 1.0 if j1 >= j2 else -1.0
            aa = 0.5 * (a1 * a2)
            bb = 0.5 * (b1 * b2)
            ba = 0.5 * (b1 * a2)
            ab = 0.5 * (a1 * b2)
            # cos cos -> cos(d) + cos(s); sin sin -> cos(d) - cos(s)
            add(jd, aa + bb, zero)
            add(js, aa - bb, zero)
            # sin(j1) cos(j2) -> sin(s) + sgn sin(d)
            # cos(j1) sin(j2) -> sin(s) - sgn sin(d)
            add(js, zero, ba + ab)
            add(jd, zero, sgn * (ba - ab))
    return out


@dataclass
class WaveField:
    """Velocity-like vector field with components (u1, u2, u3) =
    (streamwise, wall-normal, spanwise)."""

    u1: HarmonicScalar
    u2: HarmonicScalar
    u3: HarmonicScalar
    params: FlowParams
    grid: ChebGrid

    def __post_init__(self):
        for c in (self.u1, self.u2, self.u3):
            if c.grid != self.grid or c.params != self.params:
                raise ConfigurationError("component grid/params mismatch")

    @classmethod
    def zero(cls, params: FlowParams, grid: ChebGrid) -> "WaveField":
        z = HarmonicScalar.zero(params, grid)
        return cls(z, z.copy(), z.copy(), params, grid)

    @property
    def components(self) -> tuple[HarmonicScalar, HarmonicScalar, HarmonicScalar]:
        return (self.u1, self.u2, self.u3)

    def max_abs(self) -> float:
        return float(np.max([c.max_abs() for c in self.components]))

    def l2(self) -> float:
        return float(np.sqrt(sum(c.l2() ** 2 for c in self.components)))

    def strip_poly(self) -> "WaveField":
        return WaveField(
            self.u1.strip_poly(),
            self.u2.strip_poly(),
            self.u3.strip_poly(),
            self.params,
            self.grid,
        )

    def __add__(self, other: "WaveField") -> "WaveField":
        return WaveField(
            self.u1 + other.u1,
            self.u2 + other.u2,
            self.u3 + other.u3,
            self.params,
            self.grid,
        )

    def __sub__(self, other: "WaveField") -> "WaveField":
        return WaveField(
            self.u1 - other.u1,
            self.u2 - other.u2,
            self.u3 - other.u3,
            self.params,
            self.grid,
        )

    def __mul__(self, s):
        return WaveField(s * self.u1, s * self.u2, s * self.u3, self.params, self.grid)

    __rmul__ = __mul__


def divergence(field: WaveField) -> HarmonicScalar:
    return field.u1.dx() + field.u2.dy() + field.u3.dz()


def curl(field: WaveField) -> WaveField:
    u1, u2, u3 = field.components
    return WaveField(
        u3.dy() - u2.dz(),
        u1.dz() - u3.dx(),
        u2.dx() - u1.dy(),
        field.params,
        field.grid,
    )


def gradient(f: HarmonicScalar):
    return (f.dx(), f.dy(), f.dz())


def eval_field(field: WaveField, x, y, z):
    """Velocity components at physical points. y must lie in [-1, 1]."""
    return tuple(c.evaluate(x, y, z) for c in field.components)


def admissibility_violations(field: WaveField, div_rtol: float = DIVFREE_ERROR_RTOL):
    """No-slip and divergence checks; returns a list of violation strings
    (empty when the field is admissible). Periodicity in x and z holds by
    construction of the harmonic representation."""
    scale = field.max_abs()
    if scale == 0.0:
        return []
    out = []
    names = ("u1", "u2", "u3")
    for name, comp in zip(names, field.components):
        for j, (a, b) in comp.items():
            for trig, prof in (("cos", a), ("sin", b)):
                for wall, val in (("+1", prof.top), ("-1", prof.bottom)):
                    if abs(val) > NOSLIP_RTOL * scale:
                        out.append(
                            f"{name} {trig} j={j}: no-slip violated at "
                            f"y={wall} (|u| = {abs(val):.3e})"
                        )
    div = divergence(field)
    dmax = div.max_abs()
    if dmax > div_rtol * scale:
        worst = max(
            ((j, trig, p.max_abs) for j, (a, b) in div.items()
             for trig, p in (("cos", a), ("sin", b))),
            key=lambda t: t[2],
        )
        out.append(
            f"divergence-free violated: max |div u| = {dmax:.3e} "
            f"({dmax / scale:.3e} relative, worst at {worst[1]} j={worst[0]})"
        )
    elif dmax > DIVFREE_WARN_RTOL * scale:
        warnings.warn(
            f"field divergence {dmax / scale:.3e} relative exceeds "
            f"{DIVFREE_WARN_RTOL:.0e}; results may lose accuracy",
            stacklevel=2,
        )
    return out


def require_admissible(field: WaveField, div_rtol: float = DIVFREE_ERROR_RTOL):
    violations = admissibility_violations(field, div_rtol)
    if violations:
        raise ValidationError(violations)
