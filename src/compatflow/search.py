"""Search for compatible fields inside a polynomial ansatz.

The ansatz is a single-harmonic field with built-in no-slip factors:

    u1 profiles:  c(y) (y^2 - 1)       (cos and sin slots)
    u2 profiles:  c(y) (y^2 - 1)^2     (cos and sin slots)
    u3:           from continuity (never free)

with c(y) a free polynomial of the configured degree per slot. The residual
is the divergence defect of the resulting du/dt, sampled at interior nodes
of the harmonics it can populate.

The defect is a quadratic polynomial map of the coefficient vector: the
field is linear in the coefficients and the pipeline applies exactly one
bilinear stage (the advective products). find_compatible therefore probes
the exact quadratic model once per ansatz (second differences along basis
directions and pairs) and runs a damped Newton iteration on that model,
which costs nothing in the pipeline per iteration. The converged point is
then re-verified against the real pipeline. A finite difference Jacobian
fallback was tried first and stalls around 1e-7 relative, well short of the
target, which motivates the probed model.

Only the u2 coefficients are probed. The ansatz is one harmonic, so every
field depends on x and z only through xi = alpha x + beta z. A change d in
a u1 slot, with u3 completed by continuity, adds (d, 0, -(alpha/beta) d):
a vector along e_perp = (beta, 0, -alpha)/k, the flow's invariant
direction. The in-plane velocity (u_par, v) is untouched, and for such a
2.5-D flow the Squire part w = u . e_perp cannot reach the divergence of
du/dt:

- the e_perp component of the vorticity transport right side is the 2-D
  one, because its stretching term dy w d_par w - d_par w dy w cancels,
  and the in-plane components of the forcing (its curl) depend on that
  component alone;
- the Dirichlet solve applies one operator to x and z, so it commutes
  with the rotation;
- div(du/dt) sees only du_par/dt and dv/dt.

So the u1 columns of L and every B entry that touches u1 are exactly
zero, and the model is built from 1 + 2k + k(k-1)/2 probes over the k u2
coefficients: 66 for the default ansatz, where all 20 would take 231. A
multi-harmonic ansatz breaks the single-xi structure and would need the
u1 probes again.

The probes do not run the pipeline one by one. Profiles carry an optional
leading row axis, so assemble takes a (rows, m) block of coefficient
vectors and the unchanged pipeline (forcing, Dirichlet solves, divergence)
evaluates the whole block at once, PROBE_BLOCK rows per run. The default
probe set fits one block: each pipeline run has a fixed overhead of about
2 ms, and a 66-row block holds about what the 64-row blocks of the full
probe set did, so peak memory, a measured cost of the search, stays put.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .compat import _pipeline
from .errors import ConfigurationError, DomainError
from .fieldops import FlowParams, HarmonicScalar, WaveField
from .spectral import ChebGrid, YProfile, cheb_grid, polymul

RESIDUAL_HARMONICS = (1, 2)
NONTRIVIAL_RTOL = 1e-3
# probe rows per pipeline evaluation while building the quadratic model
PROBE_BLOCK = 80

# a degree-4 coefficient set for (1, 1, 80) that sits near (not on) the
# zero set of the defect; useful as a warm start and as a regression anchor
REFERENCE_COEFFS = np.array(
    [
        # u1 cos: (0.8147 y^4 + 0.9058 y^3 + 0.127 y^2 + 0.9134 y + 0.6324)(y^2-1)
        0.6324, 0.9134, 0.127, 0.9058, 0.8147,
        # u1 sin
        0.9649, 0.9575, 0.5469, 0.2785, 0.09754,
        # u2 cos
        1.599, 0.4689, 0.7068, -0.1986, -0.6011,
        # u2 sin
        1.537, 0.3238, 0.8618, 0.2864, 0.1063,
    ]
)


@dataclass(frozen=True)
class AnsatzSpec:
    """Which profile slots are free and at what polynomial degree.

    free_u1 / free_u2 flag the (cos, sin) slots of the respective
    component; coefficients are ordered u1-cos, u1-sin, u2-cos, u2-sin
    (free slots only), ascending powers within each slot.
    """

    params: FlowParams
    degree: int = 4
    free_u1: tuple[bool, bool] = (True, True)
    free_u2: tuple[bool, bool] = (True, True)

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigurationError(f"degree must be >= 0, got {self.degree}")
        if not any(self.free_u2):
            raise ConfigurationError(
                "at least one u2 slot must be free; without wall-normal "
                "content the ansatz is trivially defect-free"
            )

    @property
    def slots(self) -> int:
        return sum(self.free_u1) + sum(self.free_u2)

    @property
    def ncoeffs(self) -> int:
        return (self.degree + 1) * self.slots


def assemble(spec: AnsatzSpec, coeffs, grid: ChebGrid | None = None) -> WaveField:
    """Admissible field from a coefficient vector (length spec.ncoeffs).

    A (rows, spec.ncoeffs) array gives a block of fields in one WaveField
    whose profiles carry the leading row axis.
    """
    params = spec.params
    if params.beta == 0:
        raise DomainError("continuity recovery of u3 divides by beta")
    grid = grid or cheb_grid(64)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != spec.ncoeffs:
        raise ConfigurationError(
            f"expected {spec.ncoeffs} coefficients "
            f"({spec.slots} slots x degree {spec.degree}), got shape {coeffs.shape}"
        )
    chunks = iter(np.split(coeffs, spec.slots, axis=-1))

    def slot(active, weight):
        if not active:
            return YProfile.zero(grid)
        return YProfile.from_poly(grid, polymul(next(chunks), weight))

    wall1 = np.array([-1.0, 0.0, 1.0])  # (y^2 - 1)
    wall2 = polymul(wall1, wall1)
    a1 = slot(spec.free_u1[0], wall1)
    b1 = slot(spec.free_u1[1], wall1)
    a2 = slot(spec.free_u2[0], wall2)
    b2 = slot(spec.free_u2[1], wall2)

    al, be = params.alpha, params.beta
    b3 = (-1.0 / be) * (al * b1 + a2.deriv())
    a3 = (1.0 / be) * (b2.deriv() - al * a1)

    u1 = HarmonicScalar(params, grid, {1: (a1, b1)})
    u2 = HarmonicScalar(params, grid, {1: (a2, b2)})
    u3 = HarmonicScalar(params, grid, {1: (a3, b3)})
    return WaveField(u1, u2, u3, params, grid)


def _defect_samples(field: WaveField):
    """Interior defect samples of harmonics 1 and 2, and the forcing
    max-abs (over all rows). For a block from assemble the samples come
    back as (rows, nr)."""
    f, _, defect = _pipeline(field)
    parts = [p.values[..., 1:-1] for j in RESIDUAL_HARMONICS for p in defect.get(j)]
    return np.concatenate(parts, axis=-1), f.max_abs()


def residual(spec: AnsatzSpec, coeffs, grid: ChebGrid | None = None) -> np.ndarray:
    """Divergence defect samples at interior nodes, harmonics 1 and 2.

    The harmonic-0 defect of this ansatz vanishes identically (checked in
    the test suite, not assumed silently), so it is not sampled."""
    r, _ = _defect_samples(assemble(spec, coeffs, grid))
    return r


@dataclass
class SearchResult:
    success: bool
    coeffs: np.ndarray
    residual_rel: float
    model_gap_rel: float
    iterations: int
    restarts: int
    message: str
    trace: list = dfield(default_factory=list)
    field: WaveField | None = None


class _QuadraticModel:
    """Exact quadratic model r(c) = r0 + L c + B[c, c] of the defect map,
    built from polarization probes along the u2 coordinate directions.

    The u1 coefficients cannot reach the divergence defect of a
    single-harmonic field (see the module docstring), so their columns of
    L and rows and columns of B are exact zeros and are not probed. The
    probes 0, +-e_q and e_q + e_p (q < p, both u2 indices) are stacked into
    one array and evaluated PROBE_BLOCK rows per pipeline run; then

        L[:, q]    = (r(e_q) - r(-e_q)) / 2
        B[:, q, q] = (r(e_q) + r(-e_q)) / 2 - r0
        B[:, q, p] = B[:, p, q] = (r(e_q + e_p) - r(e_q) - r(e_p) + r0) / 2
    """

    def __init__(self, spec: AnsatzSpec, grid: ChebGrid):
        m = spec.ncoeffs
        live = np.arange((spec.degree + 1) * sum(spec.free_u1), m)
        k = live.size
        eye = np.eye(m)[live]
        q, p = np.triu_indices(k, k=1)
        probes = np.vstack([np.zeros((1, m)), eye, -eye, eye[q] + eye[p]])
        R = np.vstack([
            _defect_samples(assemble(spec, block, grid))[0]
            for block in np.split(probes, range(PROBE_BLOCK, len(probes), PROBE_BLOCK))
        ])
        r0, rp, rm, rqp = R[0], R[1 : k + 1], R[k + 1 : 2 * k + 1], R[2 * k + 1 :]
        L = np.zeros((r0.size, m))
        L[:, live] = 0.5 * (rp - rm).T
        B = np.zeros((r0.size, m, m))
        B[:, live, live] = (0.5 * (rp + rm) - r0).T
        cross = (0.5 * (rqp - rp[q] - rp[p] + r0)).T
        B[:, live[q], live[p]] = cross
        B[:, live[p], live[q]] = cross
        self.r0, self.L, self.B = r0, L, B

    def __call__(self, c):
        return self.r0 + self.L @ c + np.einsum("ipq,p,q->i", self.B, c, c)

    def jac(self, c):
        return self.L + 2.0 * np.einsum("ipq,q->ip", self.B, c)


def find_compatible(
    spec: AnsatzSpec,
    seed: int | None = 0,
    x0=None,
    grid: ChebGrid | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    max_restarts: int = 5,
) -> SearchResult:
    """Damped Newton search for a nontrivial root of the defect map.

    Starts from x0 when given, otherwise from a seeded random draw; retries
    with fresh draws on stalls or trivial (vanishing-u2) limits. Success
    means the max-abs defect is at most tol times the forcing max-abs and
    u2 carries at least 1e-3 of the field's volume-mean norm. Failure returns the
    best iterate rather than raising. model_gap_rel is the max-abs distance
    between the model and the pipeline at the returned point, in units of
    the forcing max-abs.
    """
    m = spec.ncoeffs
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (m,):
            raise ConfigurationError(
                f"x0 must have shape ({m},) for this ansatz, got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ConfigurationError("x0 has non-finite entries")
    grid = grid or cheb_grid(64)
    rng = np.random.default_rng(seed)
    model = _QuadraticModel(spec, grid)

    best = None
    for restart in range(max_restarts + 1):
        if restart == 0 and x0 is not None:
            c = x0.copy()
        else:
            c = rng.standard_normal(m)
        trace = []
        r = model(c)
        used = 0
        for it in range(max_iter):
            rnorm = float(np.max(np.abs(r)))
            trace.append(rnorm)
            if rnorm < 1e-14 * max(1.0, float(np.max(np.abs(model.L)))):
                break
            step, *_ = np.linalg.lstsq(model.jac(c), -r, rcond=None)
            t = 1.0
            while t > 1e-6:
                r_new = model(c + t * step)
                if np.max(np.abs(r_new)) < rnorm:
                    break
                t *= 0.5
            if t <= 1e-6:
                break  # stalled; try another start
            c = c + t * step
            r = r_new
            used = it + 1

        field = assemble(spec, c, grid)
        r_true, fscale = _defect_samples(field)
        if fscale > 0:
            rel = float(np.max(np.abs(r_true)) / fscale)
            gap = float(np.max(np.abs(r - r_true)) / fscale)
        else:
            rel = gap = np.inf
        trace.append(float(np.max(np.abs(r_true))))
        # the u2 share of the volume-mean norm, as acceptance criterion 8
        # counts a root; a max-abs share can pass where this one fails
        scale = field.l2()
        nontrivial = scale > 0 and field.u2.l2() >= NONTRIVIAL_RTOL * scale
        candidate = SearchResult(
            success=bool(rel <= tol and nontrivial),
            coeffs=c,
            residual_rel=rel,
            model_gap_rel=gap,
            iterations=used,
            restarts=restart,
            message="converged" if rel <= tol else "stalled",
            trace=trace,
            field=field,
        )
        if candidate.success:
            return candidate
        if rel <= tol and not nontrivial:
            candidate.message = "converged to a trivial (u2 ~ 0) field"
        if best is None or candidate.residual_rel < best.residual_rel:
            best = candidate
    best.message += f"; no acceptable root in {max_restarts + 1} starts"
    return best
