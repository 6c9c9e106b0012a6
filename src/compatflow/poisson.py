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
from .fieldops import HarmonicScalar, WaveField, gradient
from .spectral import ChebGrid, YProfile


@dataclass
class BVPSpec:
    """One wall-normal boundary value problem.

    bc_values is ordered (value at y = +1, value at y = -1); for Neumann
    problems the values prescribe du/dy (not the outward normal derivative)
    at the two walls.
    """

    helmholtz_k2: float
    rhs: YProfile
    bc_kind: str = "dirichlet"
    bc_values: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.helmholtz_k2 < 0:
            raise ConfigurationError(
                f"helmholtz_k2 must be >= 0, got {self.helmholtz_k2}"
            )
        if self.bc_kind not in ("dirichlet", "neumann"):
            raise ConfigurationError(f"unknown bc_kind {self.bc_kind!r}")


def solve_bvp(spec: BVPSpec, grid: ChebGrid) -> YProfile:
    if spec.rhs.grid != grid:
        raise ConfigurationError("rhs profile lives on a different grid")
    if spec.bc_kind == "dirichlet":
        vals = _dirichlet(spec.helmholtz_k2, spec.rhs.values, grid, spec.bc_values)
    else:
        vals = _neumann(spec.helmholtz_k2, spec.rhs.values, grid, spec.bc_values)
    return YProfile(grid, vals)


def _dirichlet(k2, rhs_vals, grid, bc):
    """All rows of rhs_vals (shape (n,) or (rows, n)) in one solve."""
    n = grid.n
    A = grid.D2 - k2 * np.eye(n)
    b = np.array(rhs_vals, dtype=float)
    A[0] = 0.0
    A[0, 0] = 1.0
    b[..., 0] = bc[0]
    A[-1] = 0.0
    A[-1, -1] = 1.0
    b[..., -1] = bc[1]
    return np.linalg.solve(A, b.T).T


def _neumann(k2, rhs_vals, grid, bc):
    n = grid.n
    A = grid.D2 - k2 * np.eye(n)
    b = np.array(rhs_vals, dtype=float)
    A[0] = grid.D[0]
    b[0] = bc[0]
    A[-1] = grid.D[-1]
    b[-1] = bc[1]
    if k2 == 0:
        # pure Neumann problem: check solvability, then fix the additive
        # constant with a mean-zero gauge row and a least squares solve
        scale = max(1.0, float(np.max(np.abs(rhs_vals))), abs(bc[0]), abs(bc[1]))
        mismatch = abs(grid.weights @ rhs_vals - (bc[0] - bc[1]))
        if mismatch > 1e-8 * scale:
            raise NumericalError(
                "Neumann problem at k2=0 is not solvable: flux/source mismatch "
                f"{mismatch:.3e} (integral of rhs must equal the net flux)"
            )
        A2 = np.vstack([A, grid.weights])
        b2 = np.concatenate([b, [0.0]])
        sol, *_ = np.linalg.lstsq(A2, b2, rcond=None)
        return sol
    return np.linalg.solve(A, b)


def solve_dudt(forcing: WaveField) -> WaveField:
    """Velocity time derivative from its vector Poisson problem with
    homogeneous Dirichlet walls, one harmonic per component at a time."""
    params, grid = forcing.params, forcing.grid
    k2 = params.k2
    comps = []
    for comp in forcing.components:
        out = HarmonicScalar.zero(params, grid)
        for j, (a, b) in comp.items():
            kk = j * j * k2
            out.put(
                j,
                solve_bvp(BVPSpec(kk, a), grid),
                solve_bvp(BVPSpec(kk, b), grid),
            )
        comps.append(out)
    return WaveField(comps[0], comps[1], comps[2], params, grid)


def pressure_rhs(field: WaveField) -> HarmonicScalar:
    """Source term of the pressure Poisson equation,
    -(du_j/dx_i)(du_i/dx_j), assembled in coefficient space."""
    G = [gradient(c) for c in field.components]
    q = HarmonicScalar.zero(field.params, field.grid)
    for i in range(3):
        for j in range(3):
            q = q - G[j][i] * G[i][j]
    return q


def solve_pressure(field: WaveField) -> HarmonicScalar:
    """Pressure from its Poisson problem with Neumann walls.

    The wall data comes from the wall-normal momentum balance,
    dp/dy = (1/Re) lap(u2) at y = +1 and y = -1. Harmonics j >= 1 are
    uniquely solvable; the j = 0 mode is fixed by a zero-mean gauge.
    """
    params, grid = field.params, field.grid
    Re = params.reynolds
    q = pressure_rhs(field)
    lap_u2 = field.u2.laplacian()
    out = HarmonicScalar.zero(params, grid)
    for j in sorted(set(q.harmonics()) | set(lap_u2.harmonics())):
        qa, qb = q.get(j)
        la, lb = lap_u2.get(j)
        kk = j * j * params.k2
        pa = solve_bvp(
            BVPSpec(kk, qa, "neumann", (la.top / Re, la.bottom / Re)), grid
        )
        if j == 0:
            pb = YProfile.zero(grid)
        else:
            pb = solve_bvp(
                BVPSpec(kk, qb, "neumann", (lb.top / Re, lb.bottom / Re)), grid
            )
        out.put(j, pa, pb)
    return out
