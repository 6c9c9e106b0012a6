"""Compatibility diagnostics for an initial velocity field.

Given an admissible field u0 (divergence-free, no-slip), the time derivative
at t = 0 is obtained from the curl of the vorticity transport equation,

    lap(du/dt) = f,   f = -curl( (1/Re) lap(w) - (u.grad) w + (w.grad) u ),
    w = curl(u0),

solved with homogeneous Dirichlet wall conditions. Two symptoms of an
incompatible field are measured, both from wall moments by Green's identity
for u'' - a^2 u (a = j k in harmonic j), with no boundary-value solve:

  * the divergence defect d of du/dt. As div f = 0, d'' = a^2 d, and as
    du/dt = 0 at the walls, d(+-1) = d(du2/dt)/dy(+-1) = +-int f2 phi_+-
    with phi_+- = sinh(a (1 +- y)) / sinh(2a), (1 +- y)/2 at a = 0. So
    d = d(+1) phi_+ + d(-1) phi_- = A cosh(a y) + B sinh(a y), largest at
    a wall; nonzero d means the Dirichlet problem and the incompressibility
    constraint disagree;
  * the tangential wall residual (1/Re) lap(u) . t - grad(p) . t, where p
    solves the pressure Poisson problem with source q and Neumann wall data
    g_+- = (1/Re) lap(u2)(+-1) from the wall-normal momentum balance:
    p(+-1) = psi_+-(1) g_+ - psi_+-(-1) g_- - int psi_+- q with
    psi_+- = cosh(a (1 +- y)) / (a sinh(2a)), (1 +- y)^2/4 at a = 0 under
    the zero-mean gauge.

The integrals are Clenshaw-Curtis sums. poisson.solve_dudt (of the
forcing) and poisson.solve_pressure solve the two problems on the nodes
instead: they are the independent route that the tests compare against.

The verdict is decided by the divergence defect alone, measured relative to
the max-abs of the forcing f. The tangential residuals are reported next to
it: they carry a component invisible to the divergence symptom (a mean or
wavevector-perpendicular viscous wall trace has no divergence signature),
so a field can be regular by the divergence measure while a plain reading
of the wall residual is nonzero. Both numbers appear in the report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dfield

import numpy as np

from . import __version__ as _version
from .errors import ConfigurationError, NumericalError
from .fieldfile import _head
from .fieldops import (
    DIVFREE_WARN_RTOL,
    FlowParams,
    HarmonicScalar,
    WaveField,
    curl,
    divergence,
    require_admissible,
    stack,
)
from .poisson import pressure_rhs, require_neumann_solvable
from .spectral import YProfile

DEFAULT_TOL_REL = 1e-7


def vorticity_rhs(field: WaveField) -> WaveField:
    """Right side of the vorticity transport equation at t = 0:
    (1/Re) lap(w_i) - u_m dw_i/dx_m + w_m du_i/dx_m.

    The 18 products are one harmonic_product of stacked scalars with rows
    (term, m, i): u_m and w_m, broadcast over i, times dw_i/dx_m and
    du_i/dx_m. Each component adds its terms for m = 0, 1, 2 in turn,
    advection before stretching. The divergence, w and du_i/dx_m all come
    from the one gradient of the field.

    The divergence warning compares the arrays the profiles are held in
    (the coefficients of a polynomial field), so no polynomial is sampled
    on the way to the forcing."""

    def size(h: HarmonicScalar) -> float:
        return float(np.max(np.abs(h.block.data)))

    div_rel = size(divergence(field))
    scale = size(field.stacked)
    if scale > 0 and div_rel > DIVFREE_WARN_RTOL * scale:
        warnings.warn(
            f"input field divergence {div_rel / scale:.3e} relative; "
            "the vorticity route assumes a solenoidal field",
            stacklevel=2,
        )
    u, gu, w = field.stacked, field.gradient, curl(field)
    products = stack([u, w.stacked]).row(np.s_[:, :, None]) * stack([w.gradient, gu])
    acc = (1.0 / field.params.reynolds) * w.stacked.laplacian()
    for m in range(3):
        acc = acc - products.row((0, m))
        acc = acc + products.row((1, m))
    return WaveField.of(acc)


def forcing(field: WaveField) -> WaveField:
    """Source of the vector Poisson problem for du/dt: minus the curl of
    the vorticity transport right side."""
    return (-1.0) * curl(vorticity_rhs(field))


def _green(h: HarmonicScalar, values: np.ndarray, even: bool):
    """Clenshaw-Curtis moments of profiles (2 slots, J+1, rows..., n) of the
    flow of h against the kernels phi_+- (even=False) or psi_+- (even=True)
    of their harmonic, shape (2 walls, 2 slots, J+1, rows...), and the
    kernels, shaped to broadcast against them with a node axis. The kernels
    are written in exponentials of non-positive arguments: no a overflows."""
    t = 1.0 + np.array([1.0, -1.0])[:, None, None] * h.grid.y  # 1 +- y
    a = np.sqrt(h.params.k2) * np.arange(values.shape[1])
    k = np.repeat(t**2 / 4 if even else t / 2, len(a), axis=1)
    b = a[a > 0, None]
    c = np.exp(b * (t - 2)) / -np.expm1(-4 * b)
    k[:, a > 0] = c * (1 + np.exp(-2 * b * t)) / b if even else -c * np.expm1(-2 * b * t)
    m = np.einsum("tj...y,sjy->stj...", values, k * h.grid.weights)
    return m, k.reshape((2, 1, len(a)) + (1,) * (m.ndim - 3) + t.shape[2:])


def _defect(f: WaveField) -> HarmonicScalar:
    """The divergence defect d(+1) phi_+ + d(-1) phi_- on the nodes."""
    f2 = f.u2
    m, phi = _green(f2, f2.block.values, even=False)
    return f2._like(YProfile(f.grid, m[0, ..., None] * phi[0] - m[1, ..., None] * phi[1]))


def _wall_pressure(field: WaveField, lap: HarmonicScalar) -> np.ndarray:
    """solve_pressure(field) at the walls y = +1, -1, shape (wall, slot, j),
    from psi moments of the source. The Neumann data (1/Re) lap(u2) comes
    from the u2 row of the stacked velocity Laplacian lap. Harmonics with
    a = 0 keep the solvability test of the Neumann solve."""
    src = pressure_rhs(field)
    q = src.block.values
    u2 = lap.row(1).block
    pad = [(0, 0), (0, 0), (0, src._size - lap._size)]
    g = np.pad(np.stack([u2.top, u2.bottom]), pad) / field.params.reynolds
    flat = np.sqrt(field.params.k2) * np.arange(src._size) == 0
    require_neumann_solvable(q[:, flat], (g[0][:, flat], g[1][:, flat]), field.grid)
    m, psi = _green(src, q, even=True)
    return psi[..., 0] * g[0] - psi[..., -1] * g[1] - m


def tangential_residual(lap: HarmonicScalar, p: np.ndarray):
    """Wall residual (1/Re) lap(u) . t - grad(p) . t for the two tangential
    directions t = x, z at both walls, per harmonic, from the stacked
    velocity Laplacian lap and the wall pressures p (wall, slot, j).

    Returns the residual, shape (wall, direction, slot, j) with the walls
    y = +1, -1 and the directions x, z, and the harmonics it is reported
    for, a mask of shape (direction, j): those where lap(u . t) or p is not
    zero.
    """
    params = lap.params
    rows = lap.row([0, 2])
    pad = [(0, 0), (0, p.shape[-1] - lap._size)]
    # scaled before the wall values are read, so a polynomial block is
    # evaluated from the coefficients of (1/Re) lap: the other order moves
    # the last digit of many reports
    visc = ((1.0 / params.reynolds) * rows).block
    visc = np.pad(np.stack([visc.top, visc.bottom]).transpose(0, 3, 1, 2), [(0, 0)] * 2 + pad)
    # grad(p) . t = k dp/dtheta: cos entry j k pb, sin entry -j k pa
    jk = np.array([params.alpha, params.beta])[:, None] * np.arange(p.shape[-1])
    dp = np.stack([jk, -jk], axis=1) * p[:, None, ::-1]
    live = np.pad(np.any(rows.block.data, axis=(0, -1)).T, pad) | np.any(p, axis=(0, 1))
    return visc - dp, live


def _report_head(params: FlowParams, n: int) -> dict:
    """The entries every report of the command line tool starts with: the
    field file head (see fieldfile) and the tool that wrote it."""
    return {**_head(params, n), "tool": {"name": "compatflow", "version": _version}}


@dataclass
class CompatReport:
    """Everything measured by check(), JSON-serializable via to_dict(),
    with the defect and the forcing it was measured from."""

    params: FlowParams
    n: int
    tol_rel: float
    verdict: str
    velocity_max_abs: float
    forcing_max_abs: float
    defect_max_abs: float
    defect_l2: float
    defect_rel_max: float
    defect_rel_l2: float
    tangential_max_abs: float
    tangential_rel: float
    # (wall, direction, slot, j) and the harmonics reported per direction,
    # as tangential_residual returns them
    tangential: np.ndarray
    tangential_live: np.ndarray
    defect: HarmonicScalar = dfield(repr=False)
    forcing: WaveField = dfield(repr=False)

    def to_dict(self) -> dict:
        peaks = np.max(np.abs(self.defect.block.values), axis=-1)
        per_harmonic = {
            str(j): {"cos_max": float(peaks[0, j]), "sin_max": float(peaks[1, j])}
            for j in self.defect.harmonics()
        }
        tang = {
            wall: {
                t: {
                    str(j): {"cos": float(res[0, j]), "sin": float(res[1, j])}
                    for j in np.flatnonzero(live)
                }
                for t, res, live in zip("xz", walls, self.tangential_live)
            }
            for wall, walls in zip(("+1", "-1"), self.tangential)
        }
        return {
            **_report_head(self.params, self.n),
            "tolerance_rel": float(self.tol_rel),
            "velocity_max_abs": float(self.velocity_max_abs),
            "forcing_max_abs": float(self.forcing_max_abs),
            "divergence_defect": {
                "max_abs": float(self.defect_max_abs),
                "l2": float(self.defect_l2),
                "max_abs_rel": float(self.defect_rel_max),
                "l2_rel": float(self.defect_rel_l2),
                "per_harmonic": per_harmonic,
            },
            "tangential_residual": {
                "max_abs": float(self.tangential_max_abs),
                "max_abs_rel": float(self.tangential_rel),
                "walls": tang,
            },
            "verdict": self.verdict,
        }


def check(field: WaveField, tol_rel: float = DEFAULT_TOL_REL) -> CompatReport:
    """Run the full diagnostic on an admissible field.

    Raises ValidationError when the field violates no-slip or is not
    divergence-free to DIVFREE_ERROR_RTOL (relative). The verdict compares
    the divergence defect of du/dt against tol_rel times the forcing scale.
    """
    if not 0.0 <= tol_rel < np.inf:
        raise ConfigurationError(f"tolerance must be finite and >= 0, got {tol_rel}")
    # overflow in the gradient and the products surfaces as inf/NaN in the
    # two scales and is reported once, below, instead of as one warning per
    # operation; a divergent input is warned about once, by require_admissible
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "input field divergence", UserWarning)
        require_admissible(field)
        f = forcing(field)
        fscale = f.max_abs()
        defect = _defect(f)
        dmax = defect.max_abs()
    if not (np.isfinite(fscale) and np.isfinite(dmax)):
        # NaN compares false against any tolerance, so it would pass as
        # "compatible"
        raise NumericalError(
            f"non-finite result: forcing max-abs {fscale}, defect max-abs {dmax}"
        )
    dl2 = defect.l2()

    lap = field.stacked.laplacian()
    p = _wall_pressure(field, lap)
    tres, live = tangential_residual(lap, p)
    tmax = float(np.max(np.abs(tres)))
    pmax = float(np.max(np.abs(p)))
    if not (np.isfinite(pmax) and np.isfinite(tmax)):
        # a NaN here would reach report.json as the invalid JSON token NaN
        raise NumericalError(
            f"non-finite result: wall pressure max-abs {pmax}, "
            f"tangential residual max-abs {tmax}"
        )

    rel_max = dmax / fscale if fscale > 0 else 0.0
    rel_l2 = dl2 / fscale if fscale > 0 else 0.0
    verdict = "compatible" if dmax <= tol_rel * fscale else "incompatible"

    return CompatReport(
        params=field.params,
        n=field.grid.n,
        tol_rel=tol_rel,
        verdict=verdict,
        velocity_max_abs=field.max_abs(),
        forcing_max_abs=fscale,
        defect_max_abs=dmax,
        defect_l2=dl2,
        defect_rel_max=rel_max,
        defect_rel_l2=rel_l2,
        tangential_max_abs=tmax,
        tangential_rel=tmax / fscale if fscale > 0 else 0.0,
        tangential=tres,
        tangential_live=live,
        defect=defect,
        forcing=f,
    )
