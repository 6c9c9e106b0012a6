"""Orr-Sommerfeld spectrum, mode filtering, and eigenmode velocity fields."""

import numpy as np
import pytest
import scipy.linalg as sla

import compatflow as cf
from compatflow import modes as modes_mod

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
# Orszag (1971), J. Fluid Mech. 50: least stable eigenvalue of plane
# Poiseuille flow at alpha = 1, Re = 1e4
ORSZAG = cf.FlowParams(1.0, 0.0, 1e4)
ORSZAG_OMEGA = 0.23752649 + 0.00373967j

# leading eigenvalues at n = 64, frozen from a converged run; these agree
# with n = 80 and n = 96 to ten digits
FROZEN = [
    0.57643470 - 0.15650477j,
    0.71402322 - 0.28609698j,
    0.69014125 - 0.48810705j,
]


@pytest.fixture(scope="module")
def modes():
    return cf.solve_orr_sommerfeld(PARAMS, 64)


def test_leading_eigenvalues(modes):
    for got, want in zip(modes, FROZEN):
        assert got.eigenvalue == pytest.approx(want, abs=2e-8)


def test_sorted_by_growth_rate(modes):
    ims = [m.eigenvalue.imag for m in modes]
    assert ims == sorted(ims, reverse=True)


def test_all_modes_decay(modes):
    # plane Poiseuille flow at Re = 80 is far below the stability limit
    assert all(m.eigenvalue.imag < 0 for m in modes)


def test_spectrum_stable_under_refinement():
    a = cf.solve_orr_sommerfeld(PARAMS, 40)
    b = cf.solve_orr_sommerfeld(PARAMS, 60)
    assert len(a) >= 5 and len(b) >= 5
    for x, y in zip(a[:5], b[:5]):
        assert abs(x.eigenvalue - y.eigenvalue) < 1e-6


def test_spectrum_stable_n_plus_16(modes):
    b = cf.solve_orr_sommerfeld(PARAMS, 80)
    for x, y in zip(modes[:5], b[:5]):
        assert abs(x.eigenvalue - y.eigenvalue) < 1e-6


def test_eigenfunctions_clamped_at_walls(modes):
    for m in modes:
        v = m.vhat
        dv = m.grid.D @ v.values
        assert abs(v.top) < 1e-12
        assert abs(v.bottom) < 1e-12
        assert abs(dv[0]) < 1e-12
        assert abs(dv[-1]) < 1e-12


def test_eigenfunction_normalization(modes):
    v = modes[0].vhat.values
    assert np.max(np.abs(v)) == pytest.approx(1.0, abs=1e-13)


def test_orszag_1971_least_stable_eigenvalue():
    w = cf.solve_orr_sommerfeld(ORSZAG, 96)[0].eigenvalue
    assert abs(w.real - ORSZAG_OMEGA.real) < 1e-7
    assert abs(w.imag - ORSZAG_OMEGA.imag) < 1e-7


def _bordered_spectrum(params, n):
    """Finite spectrum of the full n x n pencil with the four boundary rows
    overwritten by v(+-1) = 0 and v'(+-1) = 0, which leaves four infinite
    eigenvalues; the clamped (n - 4) pencil must reproduce the rest."""
    g = cf.cheb_grid(n)
    S = g.D2 - params.k2 * np.eye(n)
    A = (1j * params.alpha * (np.diag(1 - g.y**2) @ S) + 2j * params.alpha * np.eye(n)
         - (S @ S) / params.reynolds)
    B = 1j * S
    for r, row in ((0, np.eye(n)[0]), (1, g.D[0]), (n - 2, g.D[-1]), (n - 1, np.eye(n)[-1])):
        A[r], B[r] = row, 0.0
    w = sla.eig(A, B, right=False)
    return w[np.isfinite(w) & (np.abs(w) < 1e6)]


@pytest.mark.parametrize("params, n", [(PARAMS, 40), (PARAMS, 64), (ORSZAG, 96)])
def test_reduced_pencil_matches_bordered_pencil(params, n):
    A, B, Z = modes_mod._os_pencil(params, cf.cheb_grid(n))
    assert A.shape == B.shape == (n - 4, n - 4)
    assert Z.shape == (n - 2, n - 4)
    assert np.all(np.isfinite(sla.eig(A, B, right=False)))
    ref = _bordered_spectrum(params, n)
    kept = np.array([m.eigenvalue for m in cf.solve_orr_sommerfeld(params, n)])
    assert kept.size > 0
    assert np.max(np.min(np.abs(kept[:, None] - ref[None, :]), axis=1)) < 1e-7


@pytest.mark.parametrize("n", [24, 40, 64, 96])
def test_null_space_matches_scipy(n):
    """The clamped basis is numpy's SVD of the two wall-slope rows; scipy's
    null_space is the independent reference."""
    g = cf.cheb_grid(n)
    Z = modes_mod._os_pencil(PARAMS, g)[2]
    ref = sla.null_space(g.D[[0, -1], 1:-1])
    assert Z.shape == ref.shape
    assert np.max(np.abs(Z - ref)) <= 1e-14


@pytest.mark.parametrize("params, n", [(PARAMS, 64), (ORSZAG, 96)])
def test_eigenvalues_match_scipy(params, n):
    """Every kept eigenvalue is one that scipy's eig finds for the same
    standard matrix A_r B_r^-1."""
    A, B, _ = modes_mod._os_pencil(params, cf.cheb_grid(n))
    ref = sla.eig(np.linalg.solve(B.T, A.T).T, right=False)
    kept = np.array([m.eigenvalue for m in cf.solve_orr_sommerfeld(params, n)])
    assert kept.size > 0
    gap = np.min(np.abs(kept[:, None] - ref[None, :]), axis=1)
    assert np.all(gap <= 1e-12 * np.abs(kept))


def test_failed_eigensolve_names_node_count(monkeypatch):
    def fail(*args, **kwargs):
        raise sla.LinAlgError("did not converge")

    monkeypatch.setattr(modes_mod.sla, "eig", fail)
    with pytest.raises(cf.NumericalError, match="n=48"):
        cf.solve_orr_sommerfeld(PARAMS, 48)


def test_rejects_tiny_grids():
    with pytest.raises(cf.ConfigurationError):
        cf.solve_orr_sommerfeld(PARAMS, 16)


def test_poiseuille_base_profile():
    base = cf.poiseuille_base(PARAMS, cf.cheb_grid(48))
    g = cf.cheb_grid(48)
    a, b = base.u1.get(0)
    assert np.max(np.abs(a.values - (1 - g.y**2))) < 1e-13
    assert b.is_zero()
    assert base.u2.harmonics() == []
    assert cf.admissibility_violations(base) == []


@pytest.mark.parametrize("n", [40, 64, 96])
def test_mode_fields_have_no_linear_defect(n):
    """A mode solves the linearized balance about the base flow, so the
    defect of U + a*vhat has no harmonic-1 (linear in a) part. Wall
    clamping that is not smooth leaves one, amplified by the fourth
    derivatives in the forcing; defect_rel_max cannot see it under the
    quadratic harmonics 0 and 2."""
    for mode in cf.solve_orr_sommerfeld(PARAMS, n)[:3]:
        rep = cf.check(cf.mode_to_field(mode, 1e-3))
        a, b = rep.defect.get(1)
        assert max(a.max_abs, b.max_abs) <= 1e-8 * rep.forcing_max_abs


class TestModeToField:
    def test_divergence_free_and_admissible(self, modes):
        for amp in (1e-4, 1e-2, 0.3, 1.0):
            u = cf.mode_to_field(modes[0], amp)
            scale = max(1.0, u.max_abs())
            assert cf.divergence(u).max_abs() < 1e-12 * scale
            assert cf.admissibility_violations(u) == []

    def test_zero_amplitude_gives_pure_base(self, modes):
        u = cf.mode_to_field(modes[0], 0.0)
        base = cf.poiseuille_base(PARAMS, modes[0].grid)
        assert (u - base).max_abs() == 0.0

    def test_rejects_non_finite_mode_vector(self, modes):
        m = modes[0]
        vals = m.vhat.values.copy()
        vals[5] = np.nan
        bad = cf.ModeResult(eigenvalue=m.eigenvalue, vhat=cf.YProfile(m.grid, vals),
                            params=m.params)
        with pytest.raises(cf.ConfigurationError, match="finite"):
            cf.mode_to_field(bad, 0.3)

    @pytest.mark.parametrize("amp", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitude(self, modes, amp):
        with pytest.raises(cf.ConfigurationError, match="amplitude must be finite"):
            cf.mode_to_field(modes[0], amp)

    def test_rejects_zero_wavenumber(self):
        """u1 and u3 of a mode come from continuity, which divides by k2."""
        mode = cf.solve_orr_sommerfeld(cf.FlowParams(0.0, 0.0, 80.0), 32)[0]
        with pytest.raises(cf.DomainError, match="alpha = beta = 0"):
            cf.mode_to_field(mode, 1e-3)

    def test_streamwise_spanwise_ratio(self, modes):
        # both in-plane components come from the same derivative of vhat,
        # weighted by their wavenumbers; the base lives in harmonic 0 only
        u = cf.mode_to_field(modes[0], 1.0)
        a1, b1 = u.u1.get(1)
        a3, b3 = u.u3.get(1)
        r = PARAMS.beta / PARAMS.alpha
        assert np.max(np.abs(a3.values - r * a1.values)) < 1e-12
        assert np.max(np.abs(b3.values - r * b1.values)) < 1e-12

    def test_defect_grows_linearly_with_amplitude(self, modes):
        """The eigenmode satisfies the linearized balance, so the defect
        comes from the quadratic terms alone: relative to the (linear)
        forcing scale it grows like the amplitude itself, at about 0.14
        times it. An amplitude passes a tolerance only when it is below a
        few times that tolerance (1e-6 passes 1e-6, criterion 6)."""
        rels = {}
        for amp in (1e-3, 1e-2):
            rep = cf.check(cf.mode_to_field(modes[0], amp))
            rels[amp] = rep.defect_rel_max
        ratio10 = rels[1e-2] / rels[1e-3]
        assert 8.0 < ratio10 < 12.0
        assert 0.10 < rels[1e-2] / 1e-2 < 0.20
