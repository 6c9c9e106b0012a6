"""Search for compatible fields inside a polynomial ansatz.

The ansatz is a single-harmonic field with built-in no-slip factors:

    u1 profiles:  c(y) (y^2 - 1)       (cos and sin slots)
    u2 profiles:  c(y) (y^2 - 1)^2     (cos and sin slots)
    u3:           from continuity (never free)

with c(y) a free polynomial of the configured degree per slot. The residual
is the divergence defect of the resulting du/dt in the harmonics it can
populate, 1 and 2: the two wall values of each slot, which fix its profile
and are wall moments of the forcing (see compat), 8 numbers in all.

The defect is a quadratic polynomial map of the coefficient vector: the
field is linear in the coefficients and the pipeline applies exactly one
bilinear stage (the advective products). find_compatible therefore probes
the exact quadratic model once per ansatz (second differences along basis
directions and pairs), solves it and re-verifies the root in the pipeline.

The model splits by harmonic. A product of two harmonic-1 terms lands in
harmonics 0 and 2 only, so harmonic 1 holds only the viscous term, which
is linear, and harmonic 2 only products, which are quadratic: a root
solves L1 c = 0 (4 rows) and c^T B2 c = 0 (4 homogeneous quadratics), and
every multiple of a root is a root. The search runs Gauss-Newton on the
null space N of L1, z^T (N^T B2 N) z = 0 with |z| = 1 to keep z = 0 out.

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

So the model holds only the k u2 coefficients, and it is built from
2k + k(k-1)/2 probes over them: 65 for the default ansatz, where all 20
coefficients would take 230. A multi-harmonic ansatz breaks the
single-xi structure and would need the u1 probes again.

The probes do not run the pipeline one by one. Profiles carry an optional
leading row axis, so assemble takes a (rows, m) block of coefficient
vectors and the pipeline (forcing, then the wall moments of its u2
component) evaluates the whole block at once, PROBE_BLOCK rows per run.
The default 65 probes fit one block, and L1 (4, k) and B2 (4, k, k)
come from one (65, 8) array of moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .compat import _defect, forcing
from .errors import ConfigurationError, NumericalError
from .fieldops import FlowParams, HarmonicScalar, WaveField, _continuity_u3
from .spectral import ChebGrid, YProfile, cheb_grid, polymul

RESIDUAL_HARMONICS = (1, 2)
NONTRIVIAL_RTOL = 1e-3
# the max-abs defect of a root, relative to the forcing's (find --tol)
DEFAULT_TOL = 1e-10
# probe rows per pipeline evaluation while building the quadratic model
PROBE_BLOCK = 80
# Gauss-Newton steps per start, and fresh draws after the first start
MAX_ITER = 50
MAX_RESTARTS = 5

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
    """The ansatz at a polynomial degree: the four profile slots of u1 and
    u2 are free, coefficients ordered u1-cos, u1-sin, u2-cos, u2-sin,
    ascending powers within each slot."""

    params: FlowParams
    degree: int = 4

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigurationError(f"degree must be >= 0, got {self.degree}")

    @property
    def ncoeffs(self) -> int:
        return 4 * (self.degree + 1)


def assemble(spec: AnsatzSpec, coeffs, grid: ChebGrid | None = None) -> WaveField:
    """Admissible field from a coefficient vector (length spec.ncoeffs).

    A (rows, spec.ncoeffs) array gives a block of fields in one WaveField
    whose profiles carry the leading row axis.
    """
    params = spec.params
    grid = grid or cheb_grid(64)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != spec.ncoeffs:
        raise ConfigurationError(
            f"expected {spec.ncoeffs} coefficients "
            f"(4 slots x degree {spec.degree}), got shape {coeffs.shape}"
        )
    wall1 = np.array([-1.0, 0.0, 1.0])  # (y^2 - 1)
    wall2 = polymul(wall1, wall1)
    a1, b1, a2, b2 = (
        YProfile.from_poly(grid, polymul(c, w))
        for c, w in zip(np.split(coeffs, 4, axis=-1), (wall1, wall1, wall2, wall2))
    )
    pairs = ((a1, b1), (a2, b2), _continuity_u3(params, 1, (a1, b1), (a2, b2)))
    u1, u2, u3 = (HarmonicScalar(params, grid, {1: pair}) for pair in pairs)
    return WaveField(u1, u2, u3)


def _defect_samples(field: WaveField):
    """The wall values d(+1), d(-1) of the divergence defect in each slot
    of harmonics 1 and 2, ordered (j, slot, wall): 8 numbers, or (rows, 8)
    for a block from assemble. Also returns the forcing they come from,
    whose max-abs only the callers that read it evaluate. The harmonic-0
    defect vanishes for every field (the test suite checks it), so it is
    not sampled."""
    f = forcing(field)
    d = _defect(f).block.values[:, list(RESIDUAL_HARMONICS)][..., [0, -1]]
    d = np.moveaxis(d, (1, 0), (-3, -2))
    return d.reshape(d.shape[:-3] + (-1,)), f


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
    """Exact quadratic model of the defect map over the k u2 coefficients
    c2 = c[u2]: harmonic-1 rows L1 c2 and harmonic-2 rows B2[c2, c2], all
    that the map holds (see the module docstring). The probes +-e_q and
    e_q + e_p (q < p) along the u2 directions are stacked into one array
    and evaluated PROBE_BLOCK rows per pipeline run; then

        L1[:, q]    = (r(e_q) - r(-e_q))[:4] / 2
        B2[:, q, q] = (r(e_q) + r(-e_q))[4:] / 2
        B2[:, q, p] = B2[:, p, q] = (r(e_q + e_p) - r(e_q) - r(e_p))[4:] / 2

    Under the split r(-e_q) mirrors r(e_q) exactly; those rows stay until a
    faster search can be benchmarked (ROADMAP Direction 1), and dropping
    them then changes no bit."""

    def __init__(self, spec: AnsatzSpec, grid: ChebGrid):
        m = spec.ncoeffs
        self.u2 = slice(2 * (spec.degree + 1), m)
        eye = np.eye(m)[self.u2]
        k = len(eye)
        q, p = np.triu_indices(k, k=1)
        probes = np.vstack([eye, -eye, eye[q] + eye[p]])
        # overflow is reported once, below, and not as a failed SVD
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.vstack([
                _defect_samples(assemble(spec, block, grid))[0]
                for block in np.split(probes, range(PROBE_BLOCK, len(probes), PROBE_BLOCK))
            ])
            rp, rm, rqp = R[:k], R[k : 2 * k], R[2 * k :]
            self.L1 = 0.5 * (rp - rm).T[:4]
            self.B2 = np.zeros((4, k, k))
            self.B2[:, range(k), range(k)] = 0.5 * (rp + rm).T[4:]
            self.B2[:, q, p] = self.B2[:, p, q] = 0.5 * (rqp - rp[q] - rp[p]).T[4:]
        for name in ("L1", "B2"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericalError(f"search model {name} is non-finite: the "
                                     f"pipeline overflows at {spec.params}")

    def __call__(self, c):
        c2 = c[self.u2]
        return np.concatenate([self.L1 @ c2, np.einsum("ipq,p,q->i", self.B2, c2, c2)])


def _sphere_root(Q, z):
    """Gauss-Newton for z^T Q[r] z = 0 (every r) and |z| = 1 from a unit z:
    the end point, the steps taken and max-abs z^T Q z at each iterate."""
    stop = 1e-14 * max(1.0, float(np.max(np.abs(Q))))
    trace = []
    for it in range(MAX_ITER):
        Qz = Q @ z
        F = np.append(Qz @ z, 0.5 * (z @ z - 1.0))
        trace.append(float(np.max(np.abs(F[:-1]))))
        if not np.max(np.abs(F)) > stop:
            return z, it, trace
        step, *_ = np.linalg.lstsq(np.vstack([2.0 * Qz, z]), -F, rcond=None)
        z = z + step
    return z, MAX_ITER, trace


def find_compatible(
    spec: AnsatzSpec,
    seed: int | None = 0,
    x0=None,
    grid: ChebGrid | None = None,
    tol: float = DEFAULT_TOL,
) -> SearchResult:
    """Gauss-Newton search for a nontrivial root of the defect map.

    Starts from x0 when given, otherwise from a seeded random draw; retries
    with fresh draws on stalls or trivial (vanishing-u2) limits, up to
    MAX_RESTARTS times, or not at all when the null space of L1 has no
    more dimensions than the 4 quadratics (degree <= 3), which then
    generically holds no root. A start's u2 coefficients are projected onto
    the null space of L1 and scaled to unit norm; its u1 coefficients are kept.
    Success means the max-abs defect is at most tol times the forcing
    max-abs and u2 carries at least 1e-3 of the field's volume-mean norm.
    Failure returns the best iterate rather than raising. model_gap_rel is
    the max-abs model-pipeline distance at the returned point, in units of
    the forcing max-abs.
    """
    if not 0.0 <= tol < np.inf:
        raise ConfigurationError(f"tolerance must be finite and >= 0, got {tol}")
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
    N = np.linalg.svd(model.L1)[2][np.linalg.matrix_rank(model.L1):].T
    Q = N.T @ model.B2 @ N

    # z^T Q z = 0 and |z| = 1: len(Q) + 1 equations in N.shape[1] unknowns
    starts = MAX_RESTARTS + 1 if N.shape[1] > len(Q) else 1
    best = None
    for restart in range(starts):
        c = x0.copy() if restart == 0 and x0 is not None else rng.standard_normal(m)
        z = N.T @ c[model.u2]
        norm = np.linalg.norm(z)
        # a start with no u2 in the null space has nowhere to go
        z, used, trace = _sphere_root(Q, z / norm) if norm > 0 else (z, 0, [])
        c[model.u2] = N @ z
        field = assemble(spec, c, grid)
        r_true, f = _defect_samples(field)
        fscale = f.max_abs()
        if fscale > 0:
            rel = float(np.max(np.abs(r_true)) / fscale)
            gap = float(np.max(np.abs(model(c) - r_true)) / fscale)
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
    best.message += (f"; no acceptable root in {starts} starts" if starts > 1 else
                     f"; one start: the null space of L1 has dimension {N.shape[1]}, "
                     f"fewer than the {len(Q) + 1} equations")
    return best
