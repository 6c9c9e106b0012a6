"""Compatibility diagnostics for an initial velocity field.

Given an admissible field u0 (divergence-free, no-slip), the time derivative
at t = 0 is obtained from the curl of the vorticity transport equation,

    lap(du/dt) = f,   f = -curl( (1/Re) lap(w) - (u.grad) w + (w.grad) u ),
    w = curl(u0),

solved with homogeneous Dirichlet wall conditions. Two symptoms of an
incompatible field are measured:

  * the divergence defect of that time derivative (nonzero divergence means
    the Dirichlet problem and the incompressibility constraint disagree),
  * the tangential wall residual (1/Re) lap(u) . t - grad(p) . t, where p
    solves the pressure Poisson problem with Neumann wall data from the
    wall-normal momentum balance.

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
from .errors import NumericalError
from .fieldops import (
    DIVFREE_ERROR_RTOL,
    DIVFREE_WARN_RTOL,
    FlowParams,
    HarmonicScalar,
    WaveField,
    curl,
    divergence,
    gradient,
    require_admissible,
    stack,
)
from .poisson import solve_dudt, solve_pressure
from .spectral import ChebGrid

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
    u, w = field.stacked, curl(field).stacked
    products = stack([u, w]).row(np.s_[:, :, None]) * stack(
        [stack(gradient(w)), stack(gradient(u))]
    )
    acc = (1.0 / field.params.reynolds) * w.laplacian()
    for m in range(3):
        acc = acc - products.row((0, m))
        acc = acc + products.row((1, m))
    return WaveField.of(acc)


def forcing(field: WaveField) -> WaveField:
    """Source of the vector Poisson problem for du/dt: minus the curl of
    the vorticity transport right side."""
    return (-1.0) * curl(vorticity_rhs(field))


def _pipeline(field: WaveField):
    """The forcing, the Dirichlet-solved du/dt and its divergence (the
    defect), in that order."""
    f = forcing(field)
    du = solve_dudt(f)
    return f, du, divergence(du)


def dudt(field: WaveField) -> WaveField:
    return _pipeline(field)[1]


def divergence_defect(field: WaveField) -> HarmonicScalar:
    """Divergence of the Dirichlet-solved du/dt, per harmonic."""
    return _pipeline(field)[2]


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
    dudt: WaveField = dfield(repr=False, default=None)
    pressure: HarmonicScalar = dfield(repr=False, default=None)

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
            "schema_version": 1,
            "tool": {"name": "compatflow", "version": _version},
            "params": {
                "alpha": float(self.params.alpha),
                "beta": float(self.params.beta),
                "reynolds": float(self.params.reynolds),
            },
            "n": int(self.n),
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


def check(
    field: WaveField,
    tol_rel: float = DEFAULT_TOL_REL,
    div_rtol: float = DIVFREE_ERROR_RTOL,
) -> CompatReport:
    """Run the full diagnostic on an admissible field.

    Raises ValidationError when the field violates no-slip or is not
    divergence-free to `div_rtol` (relative). The verdict compares the
    divergence defect of du/dt against tol_rel times the forcing scale.
    """
    require_admissible(field, div_rtol)

    # overflow in the products surfaces as inf/NaN in the two scales and is
    # reported once, below, instead of as one warning per operation; a
    # divergent input has been warned about once, by require_admissible
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "input field divergence", UserWarning)
        f, du, defect = _pipeline(field)
        fscale = f.max_abs()
        dmax = defect.max_abs()
    if not (np.isfinite(fscale) and np.isfinite(dmax)):
        # NaN compares false against any tolerance, so it would pass as
        # "compatible"
        raise NumericalError(
            f"non-finite result: forcing max-abs {fscale}, defect max-abs {dmax}"
        )
    dl2 = defect.l2()

    p = solve_pressure(field)
    tres = tangential_residual(field, p)
    tmax = _tangential_max(tres)
    pmax = p.max_abs()
    if not (np.isfinite(pmax) and np.isfinite(tmax)):
        # a NaN here would reach report.json as the invalid JSON token NaN
        raise NumericalError(
            f"non-finite result: pressure max-abs {pmax}, "
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
        dudt=du,
        pressure=p,
    )
