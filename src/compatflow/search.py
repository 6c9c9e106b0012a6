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

The probes do not run the pipeline one by one. Profiles carry an optional
leading row axis, so assemble takes a (rows, m) block of coefficient
vectors and the unchanged pipeline (forcing, Dirichlet solves, divergence)
evaluates the whole block at once; the 1 + 2m + m(m-1)/2 probes (231 for
the default ansatz) go through in a few blocks of PROBE_BLOCK rows. The
block size is fixed rather than the whole probe set at once: one 231-row
block is a little faster but holds about four times the intermediate
arrays, and peak memory is a measured cost of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .compat import forcing
from .errors import ConfigurationError, DomainError
from .fieldops import FlowParams, HarmonicScalar, WaveField, divergence
from .poisson import solve_dudt
from .spectral import ChebGrid, YProfile, cheb_grid, polymul

RESIDUAL_HARMONICS = (1, 2)
NONTRIVIAL_RTOL = 1e-3
# probe rows per pipeline evaluation while building the quadratic model
PROBE_BLOCK = 64

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


def _defect_samples(field: WaveField, rows: int | None = None):
    """Interior defect samples of harmonics 1 and 2, and the forcing
    max-abs (over all rows).

    For a block from assemble, rows is its row count and the samples come
    back as (rows, nr). A profile that vanishes in every row of the block
    is dropped or stored as a single zero row, so the row count is taken
    from the caller, not from a profile's shape.
    """
    f = forcing(field)
    defect = divergence(solve_dudt(f))
    shape = (field.grid.n - 2,) if rows is None else (rows, field.grid.n - 2)
    parts = [
        np.broadcast_to(p.values[..., 1:-1], shape)
        for j in RESIDUAL_HARMONICS
        for p in defect.get(j)
    ]
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
    iterations: int
    restarts: int
    message: str
    trace: list = dfield(default_factory=list)
    field: WaveField | None = None


class _QuadraticModel:
    """Exact quadratic model r(c) = r0 + L c + B[c, c] of the defect map,
    built from polarization probes along the coordinate directions.

    The probes 0, +-e_q and e_q + e_p (q < p) are stacked into one array and
    evaluated PROBE_BLOCK rows per pipeline run (see the module docstring
    for why the block size is fixed); then

        L[:, q]    = (r(e_q) - r(-e_q)) / 2
        B[:, q, q] = (r(e_q) + r(-e_q)) / 2 - r0
        B[:, q, p] = B[:, p, q] = (r(e_q + e_p) - r(e_q) - r(e_p) + r0) / 2
    """

    def __init__(self, spec: AnsatzSpec, grid: ChebGrid):
        m = spec.ncoeffs
        eye = np.eye(m)
        q, p = np.triu_indices(m, k=1)
        probes = np.vstack([np.zeros((1, m)), eye, -eye, eye[q] + eye[p]])
        R = np.vstack([
            _defect_samples(assemble(spec, block, grid), len(block))[0]
            for block in np.split(probes, range(PROBE_BLOCK, len(probes), PROBE_BLOCK))
        ])
        r0, rp, rm, rqp = R[0], R[1 : m + 1], R[m + 1 : 2 * m + 1], R[2 * m + 1 :]
        diag = np.arange(m)
        B = np.empty((r0.size, m, m))
        B[:, diag, diag] = (0.5 * (rp + rm) - r0).T
        cross = (0.5 * (rqp - rp[q] - rp[p] + r0)).T
        B[:, q, p] = cross
        B[:, p, q] = cross
        self.r0, self.L, self.B = r0, 0.5 * (rp - rm).T, B

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
    the u2 content is at least 1e-3 of the field scale. Failure returns the
    best iterate rather than raising.
    """
    grid = grid or cheb_grid(64)
    rng = np.random.default_rng(seed)
    model = _QuadraticModel(spec, grid)
    m = spec.ncoeffs

    best = None
    for restart in range(max_restarts + 1):
        if restart == 0 and x0 is not None:
            c = np.asarray(x0, dtype=float).copy()
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
        rel = float(np.max(np.abs(r_true)) / fscale) if fscale > 0 else np.inf
        trace.append(float(np.max(np.abs(r_true))))
        nontrivial = (
            field.max_abs() > 0
            and field.u2.max_abs() >= NONTRIVIAL_RTOL * field.max_abs()
        )
        candidate = SearchResult(
            success=bool(rel <= tol and nontrivial),
            coeffs=c,
            residual_rel=rel,
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
