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

The integrals are Clenshaw-Curtis sums. dudt (through solve_dudt) and
solve_pressure solve the two problems on the nodes instead: they are the
independent route that the tests compare against.

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
    _curl,
    curl,
    divergence,
    gradient,
    require_admissible,
    stack,
)
from .poisson import pressure_rhs, require_neumann_solvable, solve_dudt
from .spectral import YProfile

DEFAULT_TOL_REL = 1e-7


def vorticity_rhs(field: WaveField) -> WaveField:
    """Right side of the vorticity transport equation at t = 0:
    (1/Re) lap(w_i) - u_m dw_i/dx_m + w_m du_i/dx_m.

    The 18 products are one harmonic_product of stacked scalars with rows
    (term, m, i): u_m and w_m, broadcast over i, times dw_i/dx_m and
    du_i/dx_m. Each component adds its terms for m = 0, 1, 2 in turn,
    advection before stretching.

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
    u = field.stacked
    gu = stack(gradient(u))
    w = _curl(gu).stacked
    products = stack([u, w]).row(np.s_[:, :, None]) * stack([stack(gradient(w)), gu])
    acc = (1.0 / field.params.reynolds) * w.laplacian()
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


def _wall_pressure(field: WaveField) -> HarmonicScalar:
    """solve_pressure(field) at the walls, from psi moments of the source,
    held as the profile p(+1) (1 + y)/2 + p(-1) (1 - y)/2, which is all
    tangential_residual reads. Harmonics with a = 0 keep the solvability
    test of the Neumann solve."""
    grid = field.grid
    # rows: the source and the wall-normal viscous term, as solve_pressure
    both = stack([pressure_rhs(field), field.u2.laplacian()])
    q, g = both.block.values[:, :, 0], both.block.values[:, :, 1] / field.params.reynolds
    flat = np.sqrt(field.params.k2) * np.arange(both._size) == 0
    require_neumann_solvable(q[:, flat], (g[:, flat, ..., 0], g[:, flat, ..., -1]), grid)
    m, psi = _green(both, q, even=True)
    p = psi[..., 0] * g[..., 0] - psi[..., -1] * g[..., -1] - m
    ends = np.stack([1.0 + grid.y, 1.0 - grid.y]).reshape((2,) + (1,) * (p.ndim - 1) + (-1,))
    return both._like(YProfile(grid, (p[..., None] * ends / 2).sum(axis=0)))


def dudt(field: WaveField) -> WaveField:
    """du/dt from the Dirichlet solves (the independent route)."""
    return solve_dudt(forcing(field))


def divergence_defect(field: WaveField) -> HarmonicScalar:
    """Divergence of the Dirichlet-solved du/dt, per harmonic, from the
    wall moments of the forcing."""
    return _defect(forcing(field))


def tangential_residual(field: WaveField, pressure: HarmonicScalar) -> dict:
    """Wall residual (1/Re) lap(u) . t - grad(p) . t for the two tangential
    directions t = x, z at both walls, per harmonic.

    Returns {"+1"|"-1": {"x"|"z": {j: {"cos": value, "sin": value}}}}.
    """
    Re = field.params.reynolds
    out = {"+1": {}, "-1": {}}
    # grad(p) . x = dp/dx: cos entry j alpha pb, sin entry -j alpha pa
    for t, u, dp in (("x", field.u1, pressure.dx()), ("z", field.u3, pressure.dz())):
        lap = u.laplacian()
        res = (1.0 / Re) * lap - dp
        js = sorted(set(lap.harmonics()) | set(pressure.harmonics()))
        for wall, vals in (("+1", res.block.top), ("-1", res.block.bottom)):
            out[wall][t] = {j: dict(cos=float(vals[0, j]), sin=float(vals[1, j])) for j in js}
    return out


def _tangential_max(tres: dict) -> float:
    """Largest magnitude over all entries; NaN if any entry is NaN (the
    builtin max would drop it)."""
    vals = [
        abs(entry[k])
        for walls in tres.values()
        for per in walls.values()
        for entry in per.values()
        for k in ("cos", "sin")
    ]
    return float(np.max(vals, initial=0.0))


def _report_head(params: FlowParams, n: int) -> dict:
    """The entries every report of the command line tool starts with: the
    field file head (see fieldfile) and the tool that wrote it."""
    return {**_head(params, n), "tool": {"name": "compatflow", "version": _version}}


@dataclass
class CompatReport:
    """Everything measured by check(), JSON-serializable via to_dict()."""

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
    tangential: dict
    defect: HarmonicScalar = dfield(repr=False, default=None)

    def to_dict(self) -> dict:
        per_harmonic = {}
        if self.defect is not None:
            for j, (a, b) in self.defect.items():
                per_harmonic[str(j)] = {
                    "cos_max": float(a.max_abs),
                    "sin_max": float(b.max_abs),
                }
        tang = {
            wall: {
                t: {
                    str(j): {"cos": float(e["cos"]), "sin": float(e["sin"])}
                    for j, e in per.items()
                }
                for t, per in walls.items()
            }
            for wall, walls in self.tangential.items()
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
    require_admissible(field)

    # overflow in the products surfaces as inf/NaN in the two scales and is
    # reported once, below, instead of as one warning per operation; a
    # divergent input has been warned about once, by require_admissible
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "input field divergence", UserWarning)
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

    p = _wall_pressure(field)
    tres = tangential_residual(field, p)
    tmax = _tangential_max(tres)
    pmax = p.max_abs()
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
        defect=defect,
    )
