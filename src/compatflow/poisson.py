"""Two-point Helmholtz boundary value solves on the collocation grid, and
the two field-level Poisson problems built on them: the Dirichlet solve for
the velocity time derivative and the Neumann solve for the pressure.

All solves are for   u'' - k2 u = rhs   on y in [-1, 1], one harmonic at a
time, with boundary conditions imposed by row replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .fieldops import HarmonicScalar, WaveField, stack
from .spectral import ChebGrid, YProfile


@dataclass
class BVPSpec:
    """One wall-normal boundary value problem, or a block of them that
    share the operator: rhs may carry leading row axes.

    bc_values is ordered (value at y = +1, value at y = -1), each a number
    or an array with one value per row of rhs; for Neumann problems the
    values prescribe du/dy (not the outward normal derivative) at the two
    walls.
    """

    helmholtz_k2: float
    rhs: YProfile
    bc_kind: str = "dirichlet"
    bc_values: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.helmholtz_k2 < 0:
            raise ConfigurationError(
                f"helmholtz_k2 must be >= 0, got {self.helmholtz_k2}"
            )
        if self.bc_kind not in ("dirichlet", "neumann"):
            raise ConfigurationError(f"unknown bc_kind {self.bc_kind!r}")


def require_neumann_solvable(rhs: np.ndarray, bc: tuple, grid: ChebGrid):
    """Raise NumericalError unless every row of u'' = rhs with du/dy =
    bc[0] at y = +1 and bc[1] at y = -1 is solvable: the integral of rhs
    must equal the net flux, to 1e-8 of the row's scale."""
    bc_scale = np.maximum(1.0, np.maximum(np.abs(bc[0]), np.abs(bc[1])))
    scale = np.maximum(np.max(np.abs(rhs), axis=-1), bc_scale)
    mismatch = np.abs(rhs @ grid.weights - (bc[0] - bc[1]))
    if np.any(mismatch > 1e-8 * scale):
        raise NumericalError(
            "Neumann problem at k2=0 is not solvable: flux/source mismatch "
            f"{np.max(mismatch):.3e} (integral of rhs must equal the net flux)"
        )


def solve_bvp(spec: BVPSpec, grid: ChebGrid) -> YProfile:
    """All rows of spec.rhs (shape (..., n)) in one solve. The first and
    last rows of the operator are replaced by the wall conditions: the
    value for Dirichlet problems, du/dy for Neumann ones."""
    if spec.rhs.grid != grid:
        raise ConfigurationError("rhs profile lives on a different grid")
    n, k2, bc = grid.n, spec.helmholtz_k2, spec.bc_values
    rhs = spec.rhs.values
    # the interior rows are divided by the largest power of two <= k2 (1
    # below k2 = 1), so their -k2 diagonal does not swamp the wall rows:
    # exact, and nothing overflows
    s = np.ldexp(1.0, np.frexp(max(1.0, k2))[1] - 1)
    A = (grid.D2 - k2 * np.eye(n)) / s
    wall = np.eye(n) if spec.bc_kind == "dirichlet" else grid.D
    A[0], A[-1] = wall[0], wall[-1]
    b = np.array(rhs, dtype=float) / s
    b[..., 0], b[..., -1] = bc
    if spec.bc_kind == "neumann" and k2 == 0:
        # pure Neumann problem: check solvability row by row, then fix the
        # additive constant with a mean-zero gauge row and a least squares
        # solve
        require_neumann_solvable(rhs, bc, grid)
        A2 = np.vstack([A, grid.weights])
        b2 = np.concatenate([b, np.zeros(b.shape[:-1] + (1,))], axis=-1)
        sol, *_ = np.linalg.lstsq(A2, b2.reshape(-1, n + 1).T, rcond=None)
        return YProfile(grid, sol.T.reshape(b.shape))
    return YProfile(grid, np.linalg.solve(A, b.reshape(-1, n).T).T.reshape(b.shape))


def solve_dudt(forcing: WaveField) -> WaveField:
    """Velocity time derivative from its vector Poisson problem with
    homogeneous Dirichlet walls: one solve per harmonic, whose right-hand
    side block holds every component, slot and row."""
    params, grid = forcing.params, forcing.grid
    f = forcing.stacked
    rhs = f.block.values
    out = np.zeros(rhs.shape)
    for j in f.harmonics():
        spec = BVPSpec(j * j * params.k2, YProfile(grid, rhs[:, j]))
        out[:, j] = solve_bvp(spec, grid).values
    return WaveField.of(f._like(YProfile(grid, out)))


def pressure_rhs(field: WaveField) -> HarmonicScalar:
    """Source term of the pressure Poisson equation,
    -(du_j/dx_i)(du_i/dx_j), assembled in coefficient space: one
    harmonic_product of the velocity gradient (field.gradient, rows
    (i, j)) and its transpose, with the terms added in the order i, j."""
    grad = field.gradient
    products = grad * grad.swap_rows()
    q = -products.row((0, 0))
    for i, j in np.ndindex(3, 3):
        if i or j:
            q = q - products.row((i, j))
    return q


def solve_pressure(field: WaveField) -> HarmonicScalar:
    """Pressure from its Poisson problem with Neumann walls, one solve per
    harmonic for both slots and every row.

    The wall data comes from the wall-normal momentum balance,
    dp/dy = (1/Re) lap(u2) at y = +1 and y = -1. Harmonics j >= 1 are
    uniquely solvable; the j = 0 mode is fixed by a zero-mean gauge.
    """
    params, grid = field.params, field.grid
    Re = params.reynolds
    # rows: the source and the wall-normal viscous term
    both = stack([pressure_rhs(field), field.u2.laplacian()])
    vals = both.block.values
    out = np.zeros(vals[:, :, 0].shape)
    for j in both.harmonics():
        lap = vals[:, j, 1]
        bc = (lap[..., 0] / Re, lap[..., -1] / Re)
        spec = BVPSpec(j * j * params.k2, YProfile(grid, vals[:, j, 0]), "neumann", bc)
        out[:, j] = solve_bvp(spec, grid).values
    return both._like(YProfile(grid, out))
