"""Wall-normal eigenmodes of the linearized problem about Poiseuille flow,
and their conversion to admissible initial velocity fields.

The temporal eigenproblem for the wall-normal velocity amplitude vhat is

    i al U (D2 - k2) vhat - i al U'' vhat - (1/Re)(D2 - k2)^2 vhat
        = omega * i (D2 - k2) vhat,

with U = 1 - y^2, k2 = al^2 + be^2, and clamped walls vhat = vhat' = 0.
Modes evolve like exp(-i omega t), so Im(omega) is the growth rate and the
returned list is sorted by growth rate, most unstable first.

It is discretized by Chebyshev collocation with the clamped walls built
in: the wall samples are zero, the interior samples lie in the null space
of the two wall-slope rows, and the equation is collocated at the n - 4
nodes next to neither wall. The resulting (n - 4) pencil is regular, so
one standard eigensolve gives the whole spectrum with no infinite
eigenvalues. Unresolved modes are found by repeating the solve at n + 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# the eigensolve goes through this name: bench/layers.py traces modes.sla.eig
import numpy.linalg as sla

from .errors import ConfigurationError, DomainError, NumericalError
from .fieldops import FlowParams, HarmonicScalar, WaveField
from .spectral import ChebGrid, YProfile, cheb_grid

SPURIOUS_EIGENFUNCTION_TOL = 1e-4


@dataclass
class ModeResult:
    """One eigenmode: complex eigenvalue and its vhat profile, normalized
    so that the largest-magnitude sample equals 1."""

    eigenvalue: complex
    vhat: YProfile
    params: FlowParams
    grid: ChebGrid


def poiseuille_base(params: FlowParams, grid: ChebGrid) -> WaveField:
    """Parabolic base flow as a j = 0 field: u1 = 1 - y^2."""
    u1 = HarmonicScalar(
        params,
        grid,
        {0: (YProfile.from_poly(grid, [1.0, 0.0, -1.0]), YProfile.zero(grid))},
    )
    z = HarmonicScalar(params, grid)
    return WaveField(u1, z, z)


def _os_pencil(params: FlowParams, grid: ChebGrid):
    """The clamped pencil (A_r, B_r), square of size n - 4, and the
    orthonormal basis Z of interior samples with zero wall slopes, so that
    vhat[1:-1] = Z g; rows are the collocation nodes 2..n-3."""
    y, k2 = grid.y, params.k2
    Z = np.linalg.svd(grid.D[[0, -1], 1:-1])[2][2:].T  # the wall-slope rows have rank 2
    # (D2 - k2)^2 / Re overflows long before k2 itself does (alpha = 1e100,
    # Re = 1e-320): refused once here instead of warned about per operation
    with np.errstate(over="ignore", invalid="ignore"):
        S = grid.D2 - k2 * np.eye(grid.n)
        A = (
            1j * params.alpha * ((1.0 - y**2)[:, None] * S)
            + 2j * params.alpha * np.eye(grid.n)
            - (1.0 / params.reynolds) * (S @ S)
        )
        A, B = A[2:-2, 1:-1] @ Z, 1j * S[2:-2, 1:-1] @ Z
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NumericalError(f"Orr-Sommerfeld operator is not finite at {params}")
    return A, B, Z


def _os_spectrum(params: FlowParams, grid: ChebGrid):
    """Eigenvalues, most unstable first, and eigenvectors as nodal samples
    (one column each, zero at the walls).

    The standard problem is posed for h = B_r g, the collocated
    i (D2 - k2) vhat: A_r B_r^-1 h = omega h. Recovering g = B_r^-1 h
    smooths the eigensolver's rounding before the fourth derivatives of the
    forcing see it; posed for g itself, B_r^-1 A_r, the linear defect of
    mode fields comes out 20 to 35 times larger (n = 40 to 96).
    """
    A, B, Z = _os_pencil(params, grid)
    try:
        w, H = sla.eig(np.linalg.solve(B.T, A.T).T)
        order = np.argsort(-w.imag)
        G = np.linalg.solve(B, H[:, order])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolve failed at n={grid.n}: {exc}; cond(B) ~ {np.linalg.cond(B):.2e}"
        ) from exc
    V = np.zeros((grid.n, w.size), complex)
    V[1:-1] = Z @ G
    return w[order], V


def _peak_normalized(V: np.ndarray) -> np.ndarray:
    """Columns of V scaled so that each one's largest-magnitude entry is 1."""
    return V / V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]


def _clamp_walls(grid, V: np.ndarray) -> np.ndarray:
    """Remove the rounding-level residuals of v = v' = 0 at both walls from
    each column of V.

    The reduced pencil satisfies the wall conditions exactly in exact
    arithmetic; in floating point Z g leaves wall slopes up to about 1e-12
    times the peak. The correction must be small and also smooth: the
    forcing takes fourth derivatives of v, and a rough correction (the
    minimum-norm one lies in the span of the rows D[0] and D[-1]) is
    amplified there into a defect that the eigenmode does not have. The
    cubic in y that carries the four residuals is as small as they are and
    has no fourth derivative.
    """
    c = np.zeros((4, grid.n))
    c[0, 0] = 1.0
    c[1, -1] = 1.0
    c[2] = grid.D[0]
    c[3] = grid.D[-1]
    cubic = np.vander(grid.y, 4, increasing=True)
    return V - cubic @ np.linalg.solve(c @ cubic, c @ V)


def solve_orr_sommerfeld(params: FlowParams, n: int = 64) -> list[ModeResult]:
    """All resolved eigenmodes at node count n, sorted by growth rate.

    The spectrum comes from one standard eigensolve of the clamped
    (n - 4) pencil. Eigenvalues whose eigenfunctions move by more than 1e-4
    (max-abs, after normalization) when recomputed with n + 8 nodes are
    discretization artifacts and are dropped.
    """
    if n < 24:
        raise ConfigurationError(f"eigenproblem needs n >= 24 nodes, got {n}")
    grid = cheb_grid(n)
    fine = cheb_grid(n + 8)
    w, V = _os_spectrum(params, grid)
    wf, Vf = _os_spectrum(params, fine)

    # each eigenvalue against its nearest one at n + 8
    match = np.argmin(np.abs(wf[None, :] - w[:, None]), axis=1)
    V_fine = fine.interpolate(Vf[:, match], grid.y)
    # Normalize both vectors at the same node. Anchoring each at its own
    # peak is ambiguous for modes with two near-equal peaks (the coarse and
    # fine solves can pick different ones), which used to discard perfectly
    # converged eigenfunctions.
    V = _peak_normalized(V)
    anchor = V_fine[np.argmax(np.abs(V), axis=0), np.arange(w.size)]
    keep = np.abs(anchor) >= 0.1 * np.max(np.abs(V_fine), axis=0)
    moved = np.max(np.abs(V - V_fine / np.where(keep, anchor, 1.0)), axis=0)
    keep &= moved <= SPURIOUS_EIGENFUNCTION_TOL

    V = _peak_normalized(_clamp_walls(grid, V[:, keep]))
    return [
        ModeResult(complex(wi), YProfile(grid, v), params, grid)
        for wi, v in zip(w[keep], V.T.copy())
    ]


def mode_to_field(
    mode: ModeResult, amplitude: float, include_base: bool = True
) -> WaveField:
    """Real velocity field of a mode at the given amplitude.

    The wave part lives in harmonic 1: u2 comes from vhat, u1 and u3 from
    continuity together with zero wall-normal vorticity, which keeps the
    field inside the single-phase representation. With include_base the
    j = 0 Poiseuille profile is added to u1.
    """
    if not np.isfinite(amplitude):
        raise ConfigurationError(f"amplitude must be finite, got {amplitude}")
    params, grid = mode.params, mode.grid
    k2 = params.k2
    if k2 == 0:
        raise DomainError("mode_to_field divides by k2: alpha = beta = 0 gives k2 = 0")
    vh = amplitude * mode.vhat.values
    Dv = grid.D @ vh
    u1h = 1j * params.alpha * Dv / k2
    u3h = 1j * params.beta * Dv / k2

    def pair(c):
        return (
            YProfile.from_values(grid, c.real.copy()),
            YProfile.from_values(grid, -c.imag),
        )

    u1 = HarmonicScalar(params, grid, {1: pair(u1h)})
    u2 = HarmonicScalar(params, grid, {1: pair(vh)})
    u3 = HarmonicScalar(params, grid, {1: pair(u3h)})
    field = WaveField(u1, u2, u3)
    if include_base:
        field = field + poiseuille_base(params, grid)
    return field
