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
from .errors import NumericalError, ValidationError
from .fieldops import (
    DIVFREE_ERROR_RTOL,
    DIVFREE_WARN_RTOL,
    FlowParams,
    HarmonicScalar,
    WaveField,
    admissibility_violations,
    curl,
    divergence,
    gradient,
)
from .poisson import solve_dudt, solve_pressure
from .spectral import ChebGrid

DEFAULT_TOL_REL = 1e-7


def vorticity(field: WaveField) -> WaveField:
    return curl(field)


def vorticity_rhs(field: WaveField) -> WaveField:
    """Right side of the vorticity transport equation at t = 0:
    (1/Re) lap(w_i) - u_m dw_i/dx_m + w_m du_i/dx_m."""
    div_rel = divergence(field).max_abs()
    scale = field.max_abs()
    if scale > 0 and div_rel > DIVFREE_WARN_RTOL * scale:
        warnings.warn(
            f"input field divergence {div_rel / scale:.3e} relative; "
            "the vorticity route assumes a solenoidal field",
            stacklevel=2,
        )
    w = curl(field)
    GU = [gradient(c) for c in field.components]
    GW = [gradient(c) for c in w.components]
    params, grid = field.params, field.grid
    out = []
    for i in range(3):
        acc = (1.0 / params.reynolds) * w.components[i].laplacian()
        for m in range(3):
            acc = acc - field.components[m] * GW[i][m]
            acc = acc + w.components[m] * GU[i][m]
        out.append(acc)
    return WaveField(out[0], out[1], out[2], params, grid)


def forcing(field: WaveField) -> WaveField:
    """Source of the vector Poisson problem for du/dt: minus the curl of
    the vorticity transport right side."""
    return (-1.0) * curl(vorticity_rhs(field))


def dudt(field: WaveField) -> WaveField:
    return solve_dudt(forcing(field))


def divergence_defect(field: WaveField) -> HarmonicScalar:
    """Divergence of the Dirichlet-solved du/dt, per harmonic."""
    return divergence(dudt(field))


def tangential_residual(field: WaveField, pressure: HarmonicScalar) -> dict:
    """Wall residual (1/Re) lap(u) . t - grad(p) . t for the two tangential
    directions t = x, z at both walls, per harmonic.

    Returns {"+1"|"-1": {"x"|"z": {j: {"cos": value, "sin": value}}}}.
    """
    params = field.params
    Re = params.reynolds
    lap1 = field.u1.laplacian()
    lap3 = field.u3.laplacian()
    out = {}
    for wall, pick in (("+1", lambda p: p.top), ("-1", lambda p: p.bottom)):
        walls = {}
        for tname, lap_t, wavenum in (
            ("x", lap1, params.alpha),
            ("z", lap3, params.beta),
        ):
            per = {}
            js = set(lap_t.harmonics()) | set(pressure.harmonics())
            for j in sorted(js):
                la, lb = lap_t.get(j)
                pa, pb = pressure.get(j)
                # grad(p) . x has cos entry j*alpha*pb and sin entry -j*alpha*pa
                per[j] = {
                    "cos": float(pick(la)) / Re - j * wavenum * float(pick(pb)),
                    "sin": float(pick(lb)) / Re + j * wavenum * float(pick(pa)),
                }
            walls[tname] = per
        out[wall] = walls
    return out


def _tangential_max(tres: dict) -> float:
    m = 0.0
    for walls in tres.values():
        for per in walls.values():
            for entry in per.values():
                m = max(m, abs(entry["cos"]), abs(entry["sin"]))
    return m


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
    violations = admissibility_violations(field, div_rtol)
    if violations:
        raise ValidationError(violations)

    f = forcing(field)
    du = solve_dudt(f)
    defect = divergence(du)
    fscale = f.max_abs()
    dmax = defect.max_abs()
    dl2 = defect.l2()
    if not (np.isfinite(fscale) and np.isfinite(dmax)):
        # NaN compares false against any tolerance, so it would pass as
        # "compatible"; overflow in the products ends up here too
        raise NumericalError(
            f"non-finite result: forcing max-abs {fscale}, defect max-abs {dmax}"
        )

    p = solve_pressure(field)
    tres = tangential_residual(field, p)
    tmax = _tangential_max(tres)

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
