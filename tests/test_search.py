"""Ansatz assembly and the root search over its coefficients."""

import math

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
    residual,
)

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
SPEC = AnsatzSpec(params=PARAMS)
G = cf.cheb_grid(64)


def test_default_ansatz_has_twenty_coefficients():
    assert SPEC.slots == 4
    assert SPEC.ncoeffs == 20
    assert len(REFERENCE_COEFFS) == 20


def test_ansatz_spec_validation():
    with pytest.raises(cf.ConfigurationError):
        AnsatzSpec(params=PARAMS, degree=-1)
    with pytest.raises(cf.ConfigurationError):
        AnsatzSpec(params=PARAMS, free_u2=(False, False))


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
    defect = cf.divergence_defect(u)
    assert 0 not in defect.harmonics()
    assert set(defect.harmonics()) <= {1, 2}


def test_residual_samples_cover_the_unknowns():
    r = residual(SPEC, REFERENCE_COEFFS)
    assert r.ndim == 1
    assert r.size == 4 * (G.n - 2)
    assert r.size >= SPEC.ncoeffs
    assert np.all(np.isfinite(r))


def test_quadratic_model_reproduces_residual():
    """The defect is exactly quadratic in the coefficients, which the
    search exploits; three random points validate the reconstruction."""
    model = _QuadraticModel(SPEC, G)
    rng = np.random.RandomState(32)
    for _ in range(3):
        c = rng.uniform(-1.5, 1.5, SPEC.ncoeffs)
        r_true = residual(SPEC, c)
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
    pipeline's samples. Forcing is bit-identical; the Dirichlet solve with
    several right-hand sides rounds differently from a single one, so the
    samples are compared in units of the row's forcing scale (the unit of
    the search's tolerance). With u2 = 0 in every row (u1-only) every
    defect harmonic is dropped and the samples broadcast to zeros."""
    rng = np.random.RandomState(33)
    C = rng.uniform(-1, 1, (7, SPEC.ncoeffs))
    if zero_cols is not None:
        C[:, zero_cols] = 0.0
    R, _ = _defect_samples(assemble(SPEC, C, G))
    assert R.shape == (7, 4 * (G.n - 2))
    for row, c in zip(R, C):
        r, fscale = _defect_samples(assemble(SPEC, c, G))
        assert np.max(np.abs(row - r)) <= 1e-13 * fscale


def test_quadratic_model_matches_scalar_polarization():
    """L and B from the probe blocks equal the polarization formulas
    evaluated one probe at a time: every diagonal entry and 10 pairs."""
    model = _QuadraticModel(SPEC, G)
    m = SPEC.ncoeffs
    ev = lambda c: residual(SPEC, c, G)
    eye = np.eye(m)
    r0 = ev(np.zeros(m))
    rp = np.array([ev(e) for e in eye])
    rm = np.array([ev(-e) for e in eye])
    Lscale, Bscale = np.max(np.abs(model.L)), np.max(np.abs(model.B))
    assert np.max(np.abs(model.L - 0.5 * (rp - rm).T)) <= 1e-12 * Lscale
    for q in range(m):
        diag = 0.5 * (rp[q] + rm[q]) - r0
        assert np.max(np.abs(model.B[:, q, q] - diag)) <= 1e-12 * Bscale
    rng = np.random.RandomState(34)
    for _ in range(10):
        q, p = sorted(rng.choice(m, 2, replace=False))
        cross = 0.5 * (ev(eye[q] + eye[p]) - rp[q] - rp[p] + r0)
        assert np.max(np.abs(model.B[:, q, p] - cross)) <= 1e-12 * Bscale
        assert np.array_equal(model.B[:, q, p], model.B[:, p, q])


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
        k1 = (spec.degree + 1) * sum(spec.free_u1)
        c = rng.uniform(-1, 1, spec.ncoeffs)
        r = residual(spec, c, grid)
        for _ in range(2):
            moved = c.copy()
            moved[:k1] = rng.uniform(-2, 2, k1)
            diff = np.max(np.abs(residual(spec, moved, grid) - r))
            assert diff <= 1e-11 * np.max(np.abs(r))


def test_model_probes_only_u2_in_one_pipeline_run(monkeypatch):
    """The default model takes one pipeline run over 1 + 2k + k(k-1)/2 = 66
    probe rows (k = 10 u2 coefficients), and its u1 rows and columns are
    exact zeros rather than probed rounding noise."""
    rows = []
    orig = search._defect_samples

    def counting(field):
        out = orig(field)
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(search, "_defect_samples", counting)
    model = _QuadraticModel(SPEC, G)
    assert rows == [66]
    u1 = slice(0, 10)
    assert not model.L[:, u1].any()
    assert not model.B[:, u1, :].any() and not model.B[:, :, u1].any()
    assert model.L[:, 10:].any() and model.B[:, 10:, 10:].any()


@pytest.mark.parametrize(
    "x0", [np.zeros(7), np.zeros((1, 20)), np.full(20, np.nan),
           np.r_[np.ones(19), np.inf]],
    ids=["short", "2-d", "nan", "inf"])
def test_search_rejects_bad_x0(x0, capfd):
    with pytest.raises(cf.ConfigurationError, match="x0"):
        find_compatible(SPEC, x0=x0)
    assert capfd.readouterr().err == ""


def test_search_reports_model_gap():
    """The model is exact, so at the returned point it agrees with the
    pipeline to rounding."""
    res = find_compatible(SPEC, seed=0)
    assert res.success
    assert 0.0 <= res.model_gap_rel <= 1e-12


def test_search_rejects_root_with_small_u2_norm_share():
    """The first start of this seed converges to a root whose u2 carries
    6e-4 of the volume-mean norm but 1.2e-3 of the max-abs; acceptance
    criterion 8 counts it as trivial, so the search restarts."""
    res = find_compatible(SPEC, seed=223013981)
    assert res.success
    assert res.restarts == 1
    assert res.field.u2.l2() >= 1e-3 * res.field.l2()


def test_search_seeded_at_reference_root():
    res = find_compatible(SPEC, x0=REFERENCE_COEFFS)
    assert res.success
    assert res.iterations <= 50
    assert res.residual_rel < 1e-10
    # the root is a genuine field, not a rescaled zero
    assert res.field.u2.l2() > 1e-3 * res.field.l2()


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
