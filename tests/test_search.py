"""Ansatz assembly and the root search over its coefficients."""

import math
import warnings

import numpy as np
import pytest

import compatflow as cf
import compatflow.search as search
from compatflow.search import (
    PROBE_BLOCK,
    REFERENCE_COEFFS,
    AnsatzSpec,
    _defect_samples,
    _QuadraticModel,
    assemble,
    find_compatible,
)

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
SPEC = AnsatzSpec(params=PARAMS)
G = cf.cheb_grid(64)


def test_default_ansatz_has_twenty_coefficients():
    assert SPEC.ncoeffs == 20
    assert len(REFERENCE_COEFFS) == 20


def test_ansatz_spec_validation():
    with pytest.raises(cf.ConfigurationError):
        AnsatzSpec(params=PARAMS, degree=-1)


def test_assemble_rejects_wrong_length():
    with pytest.raises(cf.ConfigurationError):
        assemble(SPEC, np.zeros(7))


def test_assemble_requires_spanwise_wavenumber():
    spec = AnsatzSpec(params=cf.FlowParams(1.0, 0.0, 80.0))
    with pytest.raises(cf.DomainError):
        assemble(spec, np.zeros(spec.ncoeffs))


def test_assembled_fields_are_admissible():
    rng = np.random.RandomState(31)
    for _ in range(5):
        u = assemble(SPEC, rng.uniform(-1, 1, SPEC.ncoeffs))
        assert cf.admissibility_violations(u) == []
        assert cf.divergence(u).max_abs() < 1e-13 * max(1.0, u.max_abs())


def test_defect_has_no_mean_mode():
    u = assemble(SPEC, REFERENCE_COEFFS)
    defect = cf.check(u).defect
    assert 0 not in defect.harmonics()
    assert set(defect.harmonics()) <= {1, 2}


def test_residual_samples_cover_the_unknowns():
    r, f = _defect_samples(assemble(SPEC, REFERENCE_COEFFS, G))
    assert r.ndim == 1
    assert r.size == 8
    assert np.all(np.isfinite(r))
    # the wall values of the Dirichlet-solved defect, ordered (j, slot, wall)
    u = assemble(SPEC, REFERENCE_COEFFS, G)
    d = cf.divergence(cf.solve_dudt(f))
    want = [p.values[wall] for j in (1, 2) for p in d.get(j) for wall in (0, -1)]
    assert np.max(np.abs(r - want)) <= 1e-12 * f.max_abs()


def test_quadratic_model_reproduces_residual():
    """The defect is exactly quadratic in the coefficients, which the
    search exploits; three random points validate the reconstruction."""
    model = _QuadraticModel(SPEC, G)
    rng = np.random.RandomState(32)
    for _ in range(3):
        c = rng.uniform(-1.5, 1.5, SPEC.ncoeffs)
        r_true, _ = _defect_samples(assemble(SPEC, c, G))
        err = np.max(np.abs(model(c) - r_true))
        assert err < 1e-9 * max(1.0, np.max(np.abs(r_true)))


def test_assemble_rejects_bad_block_shape():
    with pytest.raises(cf.ConfigurationError):
        assemble(SPEC, np.zeros((3, 7)))
    with pytest.raises(cf.ConfigurationError):
        assemble(SPEC, np.zeros((2, 3, SPEC.ncoeffs)))


@pytest.mark.parametrize("zero_cols", [None, slice(10, 15), slice(10, 20)],
                         ids=["random", "u2-cos-zero", "u1-only"])
def test_block_rows_match_scalar_evaluation(zero_cols):
    """A block through the batched pipeline gives, row by row, the scalar
    pipeline's samples. Forcing is bit-identical; the samples are compared
    in units of the row's forcing scale (the unit of the search's
    tolerance). The u1-only case (u2 = 0 in every row) has rounding-level
    samples."""
    rng = np.random.RandomState(33)
    C = rng.uniform(-1, 1, (7, SPEC.ncoeffs))
    if zero_cols is not None:
        C[:, zero_cols] = 0.0
    R, _ = _defect_samples(assemble(SPEC, C, G))
    assert R.shape == (7, 8)
    for row, c in zip(R, C):
        r, f = _defect_samples(assemble(SPEC, c, G))
        assert np.max(np.abs(row - r)) <= 1e-13 * f.max_abs()


def test_quadratic_model_matches_scalar_polarization():
    """L1 and B2 from the probe blocks equal the polarization formulas
    evaluated one probe at a time over the u2 coordinates: every diagonal
    entry and 10 pairs."""
    model = _QuadraticModel(SPEC, G)
    ev = lambda c: _defect_samples(assemble(SPEC, c, G))[0]
    eye = np.eye(SPEC.ncoeffs)[model.u2]
    k = len(eye)
    rp = np.array([ev(e) for e in eye])
    rm = np.array([ev(-e) for e in eye])
    Lscale, Bscale = np.max(np.abs(model.L1)), np.max(np.abs(model.B2))
    assert np.max(np.abs(model.L1 - 0.5 * (rp - rm)[:, :4].T)) <= 1e-12 * Lscale
    for q in range(k):
        diag = 0.5 * (rp[q] + rm[q])[4:]
        assert np.max(np.abs(model.B2[:, q, q] - diag)) <= 1e-12 * Bscale
    rng = np.random.RandomState(34)
    for _ in range(10):
        q, p = sorted(rng.choice(k, 2, replace=False))
        cross = 0.5 * (ev(eye[q] + eye[p]) - rp[q] - rp[p])[4:]
        assert np.max(np.abs(model.B2[:, q, p] - cross)) <= 1e-12 * Bscale
        assert np.array_equal(model.B2[:, q, p], model.B2[:, p, q])


def test_model_build_is_batched_and_not_cached(monkeypatch):
    """Building the model takes a few block evaluations, not one per probe,
    and a repeated search does the same pipeline work as the first (no
    model kept across calls)."""
    calls = []
    orig = search._defect_samples

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(search, "_defect_samples", counting)
    m = SPEC.ncoeffs
    nprobes = 1 + 2 * m + m * (m - 1) // 2
    _QuadraticModel(SPEC, G)
    assert 1 <= len(calls) <= math.ceil(nprobes / PROBE_BLOCK)
    counts = []
    for _ in range(2):
        calls.clear()
        assert find_compatible(SPEC, seed=0).success
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_u1_slots_do_not_move_the_defect():
    """A u1 change, with u3 from continuity, only moves the velocity along
    the invariant direction of a one-harmonic field, which the divergence
    of du/dt cannot see; the model build skips the u1 probes on this."""
    rng = np.random.RandomState(35)
    for n in (32, 48, 64, 32, 48, 64):
        params = cf.FlowParams(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
                               10 ** rng.uniform(1.5, 3.5))
        spec = AnsatzSpec(params=params, degree=int(rng.randint(2, 7)))
        grid = cf.cheb_grid(n)
        k1 = 2 * (spec.degree + 1)
        c = rng.uniform(-1, 1, spec.ncoeffs)
        r, _ = _defect_samples(assemble(spec, c, grid))
        for _ in range(2):
            moved = c.copy()
            moved[:k1] = rng.uniform(-2, 2, k1)
            diff = np.max(np.abs(_defect_samples(assemble(spec, moved, grid))[0] - r))
            assert diff <= 1e-11 * np.max(np.abs(r))


def test_model_probes_only_u2_in_one_pipeline_run(monkeypatch):
    """The default model takes one pipeline run over 2k + k(k-1)/2 = 65
    probe rows (k = 10 u2 coefficients) and holds only the harmonic-1 rows
    L1 and the harmonic-2 rows B2 over those coefficients."""
    rows = []
    orig = search._defect_samples

    def counting(field):
        out = orig(field)
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(search, "_defect_samples", counting)
    model = _QuadraticModel(SPEC, G)
    assert rows == [65]
    assert model.u2 == slice(10, 20)
    assert model.L1.shape == (4, 10) and model.B2.shape == (4, 10, 10)


@pytest.mark.parametrize(
    "x0", [np.zeros(7), np.zeros((1, 20)), np.full(20, np.nan),
           np.r_[np.ones(19), np.inf]],
    ids=["short", "2-d", "nan", "inf"])
def test_search_rejects_bad_x0(x0, capfd):
    with pytest.raises(cf.ConfigurationError, match="x0"):
        find_compatible(SPEC, x0=x0)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_search_rejects_bad_tolerance(tol):
    """No start can meet a NaN tolerance: the search would run every start
    and call a rounding-level root "stalled"."""
    with pytest.raises(cf.ConfigurationError, match="tolerance"):
        find_compatible(SPEC, seed=0, tol=tol)


def test_search_reports_model_gap():
    """The model is exact, so at the returned point it agrees with the
    pipeline to rounding."""
    res = find_compatible(SPEC, seed=0)
    assert res.success
    assert 0.0 <= res.model_gap_rel <= 1e-12


def test_search_rejects_root_with_small_u2_norm_share():
    """The start's u2 is scaled to unit norm on the null space, so a start
    with u1 1e5 times larger converges to a root whose u2 carries about
    1e-5 of the volume-mean norm; acceptance criterion 8 counts it as
    trivial, so the search restarts."""
    x0 = REFERENCE_COEFFS.copy()
    x0[:10] *= 1e5
    res = find_compatible(SPEC, x0=x0)
    assert res.success
    assert res.restarts == 1
    assert res.field.u2.l2() >= 1e-3 * res.field.l2()


def test_search_restarts_from_a_start_without_u2():
    """A start whose u2 is zero projects to z = 0, which cannot be scaled
    to the unit sphere; the search takes a fresh draw (pytest turns a
    RuntimeWarning from 0/0 into an error)."""
    x0 = REFERENCE_COEFFS.copy()
    x0[10:] = 0.0
    res = find_compatible(SPEC, x0=x0)
    assert res.success
    assert res.restarts == 1


def test_search_without_null_space_fails_cleanly():
    """At degree 1, L1 (4 x 4) has full rank: no u2 direction leaves the
    harmonic-1 defect at zero, so the start is the trivial u2 = 0 field,
    reached without a Gauss-Newton step."""
    res = find_compatible(AnsatzSpec(params=PARAMS, degree=1), seed=0)
    assert not res.success
    assert res.message.startswith("converged to a trivial (u2 ~ 0) field")
    assert res.iterations == 0
    assert not res.coeffs[4:].any()


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_search_below_degree_4_makes_one_start(degree):
    """2 (degree + 1) u2 coefficients less the 4 rows of L1 leave a null
    space of dimension at most 4, fewer than the 4 quadratics plus |z| = 1:
    generically no root, so the search stops after its first start."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = find_compatible(AnsatzSpec(params=PARAMS, degree=degree), seed=0)
    assert not res.success
    assert res.restarts == 0
    dim = max(2 * (degree + 1) - 4, 0)
    assert (f"one start: the null space of L1 has dimension {dim}, "
            "fewer than the 5 equations") in res.message


def test_search_seeded_at_reference_root():
    res = find_compatible(SPEC, x0=REFERENCE_COEFFS)
    assert res.success
    assert res.iterations <= 50
    assert res.residual_rel < 1e-10
    # the root is a genuine field, not a rescaled zero
    assert res.field.u2.l2() > 1e-3 * res.field.l2()
    # only u2 moves: the u1 coefficients cannot reach the defect
    assert np.array_equal(res.coeffs[:10], REFERENCE_COEFFS[:10])


_SPLIT_RNG = np.random.RandomState(36)
SPLIT_PARAMS = [PARAMS] + [
    cf.FlowParams(_SPLIT_RNG.uniform(0.5, 1.5), _SPLIT_RNG.uniform(0.5, 1.5),
                  10 ** _SPLIT_RNG.uniform(1.5, 3.5))
    for _ in range(2)
]


@pytest.mark.parametrize("params", SPLIT_PARAMS, ids=["default", "random-1", "random-2"])
@pytest.mark.parametrize("degree", [4, 8, 12])
def test_model_splits_into_linear_and_quadratic_harmonics(degree, params):
    """A product of two harmonic-1 terms lands in harmonics 0 and 2 only:
    on the pipeline, the defect of c = 0 is exactly zero, the harmonic-1
    rows (0-3) of the defect of s c are s times those of c, and the
    harmonic-2 rows (4-7) s^2 times, u1 included. The search model holds
    L1 and B2 alone on this."""
    spec = AnsatzSpec(params=params, degree=degree)
    assert not _defect_samples(assemble(spec, np.zeros(spec.ncoeffs), G))[0].any()
    rng = np.random.RandomState(37)
    for _ in range(3):
        c = rng.uniform(-1, 1, spec.ncoeffs)
        r, _ = _defect_samples(assemble(spec, c, G))
        for s in (-3.0, 0.5, 7.0):
            rs, f = _defect_samples(assemble(spec, s * c, G))
            assert np.max(np.abs(rs[:4] - s * r[:4])) <= 1e-13 * f.max_abs()
            assert np.max(np.abs(rs[4:] - s**2 * r[4:])) <= 1e-13 * f.max_abs()


@pytest.mark.parametrize("degree", [4, 8, 12])
def test_negative_probes_mirror_positive_ones(degree):
    """r(-e_q) is r(e_q) with its harmonic-1 rows negated and its
    harmonic-2 rows repeated, bit for bit, in one probe block as the model
    evaluates it: the -e_q probes add nothing to L1 and B2."""
    spec = AnsatzSpec(params=PARAMS, degree=degree)
    eye = np.eye(spec.ncoeffs)[2 * (degree + 1):]
    R, _ = _defect_samples(assemble(spec, np.vstack([eye, -eye]), G))
    rp, rm = np.split(R, 2)
    assert np.array_equal(rm[:, :4], -rp[:, :4])
    assert np.array_equal(rm[:, 4:], rp[:, 4:])


def test_search_reports_a_non_finite_model():
    """At alpha = 1e100, k2 is finite but the viscous rows of the model
    overflow: the search names the non-finite model instead of warning and
    failing in the SVD."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cf.NumericalError, match="model L1 is non-finite"):
            find_compatible(AnsatzSpec(params=cf.FlowParams(1e100, 1.0, 80.0)))


def test_roots_form_a_cone():
    """Harmonic 1 is linear and harmonic 2 homogeneous quadratic, so every
    multiple of a root is a root: scaling its u2 part, or the whole field,
    keeps the field compatible."""
    u2 = slice(10, 20)
    for seed in range(6):
        root = find_compatible(SPEC, seed=seed).coeffs
        for s in (1e-4, 1e-2, 1.0, 1e2):
            scaled_u2 = root.copy()
            scaled_u2[u2] *= s
            for c in (scaled_u2, s * root):
                rep = cf.check(assemble(SPEC, c, G))
                assert rep.verdict == "compatible", (seed, s)
                assert rep.defect_rel_max <= 1e-10, (seed, s, rep.defect_rel_max)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("params", [PARAMS, cf.FlowParams(5.0, 5.0, 100.0)],
                         ids=["default", "5-5-100"])
def test_roots_recheck_on_a_finer_grid(params, n):
    """A root found on n nodes is a root of the field, not of the grid: it
    re-checks on 128 nodes. Below about 28 nodes it does not (README
    "Known limitations")."""
    spec = AnsatzSpec(params=params)
    for seed in range(3):
        res = find_compatible(spec, seed=seed, grid=cf.cheb_grid(n))
        assert res.success, res.message
        rep = cf.check(assemble(spec, res.coeffs, cf.cheb_grid(128)))
        assert rep.defect_rel_max <= 1e-12, (seed, rep.defect_rel_max)


def test_search_result_passes_check():
    res = find_compatible(SPEC, seed=0)
    assert res.success
    rep = cf.check(res.field, tol_rel=1e-8)
    assert rep.verdict == "compatible"


def test_search_is_deterministic():
    a = find_compatible(SPEC, seed=3)
    b = find_compatible(SPEC, seed=3)
    assert a.success and b.success
    assert np.array_equal(a.coeffs, b.coeffs)


def test_search_from_several_seeds():
    for seed in (1, 2):
        res = find_compatible(SPEC, seed=seed)
        assert res.success, res.message
        assert res.residual_rel < 1e-10


def test_trace_records_progress():
    res = find_compatible(SPEC, seed=0)
    assert len(res.trace) >= 2
    assert res.trace[-1] < res.trace[0]
