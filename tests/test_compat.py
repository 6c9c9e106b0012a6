"""The compatibility check itself: verdicts, report contents, scaling."""

import json
import warnings

import numpy as np
import pytest

import compatflow as cf
import compatflow.fieldops as fieldops
import compatflow.spectral as spectral
from compatflow.search import AnsatzSpec, assemble
from helpers import count_calls, random_admissible, random_u2zero

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
G = cf.cheb_grid(64)


def test_poiseuille_is_compatible():
    base = cf.poiseuille_base(PARAMS, G)
    rep = cf.check(base)
    assert rep.verdict == "compatible"
    assert rep.forcing_max_abs < 1e-12
    assert rep.defect_max_abs < 1e-12


def test_worked_example_is_incompatible():
    rep = cf.check(cf.example_field(PARAMS, G))
    assert rep.verdict == "incompatible"
    assert 0.04 < rep.defect_rel_max < 0.06
    assert rep.forcing_max_abs == pytest.approx(32.0, rel=1e-10)
    assert 0.010 < rep.tangential_rel < 0.013


def test_verdict_matches_reported_numbers():
    rng = np.random.RandomState(23)
    for _ in range(10):
        u = random_admissible(PARAMS, G, rng)
        rep = cf.check(u, tol_rel=1e-7)
        expect = rep.defect_max_abs <= 1e-7 * rep.forcing_max_abs
        assert (rep.verdict == "compatible") == expect


def test_tolerance_flag_loosens_verdict():
    field = cf.example_field(PARAMS, G)
    assert cf.check(field).verdict == "incompatible"
    assert cf.check(field, tol_rel=1e-1).verdict == "compatible"


def test_defect_scales_as_linear_plus_quadratic():
    """The defect of s*u is s*(viscous part) + s^2*(advective part), so
    three scalings determine each other: d(3) = 3 (d(2) - d(1))."""
    rng = np.random.RandomState(24)
    u = random_admissible(PARAMS, G, rng)
    d1 = cf.divergence_defect(u)
    d2 = cf.divergence_defect(2.0 * u)
    d3 = cf.divergence_defect(3.0 * u)
    pred = 3.0 * (d2 - d1)
    assert (d3 - pred).max_abs() < 1e-9 * max(1.0, d3.max_abs())


def test_zero_field_is_compatible():
    rep = cf.check(cf.WaveField.zero(PARAMS, G))
    assert rep.verdict == "compatible"
    assert rep.defect_rel_max == 0.0


def test_check_rejects_inadmissible_input():
    u2 = cf.HarmonicScalar.zero(PARAMS, G)
    u2.put(1, cf.YProfile.from_poly(G, [1.0, 1.0]), cf.YProfile.zero(G))
    bad = cf.WaveField(cf.HarmonicScalar.zero(PARAMS, G), u2,
                       cf.HarmonicScalar.zero(PARAMS, G), PARAMS, G)
    with pytest.raises(cf.ValidationError):
        cf.check(bad)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_raises_on_nan_profile():
    # NaN fails every comparison, so without the guard a NaN field passes
    # admissibility and the tolerance test alike
    # from_values rejects NaN samples, so build the profile directly: the
    # guard in check must hold for a profile that arrives by any route
    u1, u2, u3 = cf.example_field(PARAMS, G).strip_poly().components
    a, b = u2.get(1)
    u2.put(1, cf.YProfile(G, np.full(G.n, np.nan)), b)
    field = cf.WaveField(u1, u2, u3, PARAMS, G)
    assert np.isnan(field.max_abs())
    with pytest.raises(cf.NumericalError, match="non-finite"):
        cf.check(field)


def test_report_serializes():
    rep = cf.check(cf.example_field(PARAMS, G))
    doc = rep.to_dict()
    text = json.dumps(doc)
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "incompatible"
    assert doc["params"]["alpha"] == 1.0
    assert doc["n"] == 64
    assert "divergence_defect" in doc and "tangential_residual" in doc
    assert json.loads(text) == doc


def test_report_per_harmonic_breakdown():
    rep = cf.check(cf.example_field(PARAMS, G))
    per = rep.to_dict()["divergence_defect"]["per_harmonic"]
    assert set(per) == {"1", "2"}
    assert per["2"]["cos_max"] == pytest.approx(1.513994178022856, rel=1e-8)
    assert per["2"]["sin_max"] == 0.0


def test_tangential_residual_covers_both_walls():
    rep = cf.check(cf.example_field(PARAMS, G))
    assert set(rep.tangential) == {"+1", "-1"}
    for wall in rep.tangential.values():
        assert set(wall) == {"x", "z"}


def test_vorticity_rhs_warns_on_divergent_input():
    u2 = cf.HarmonicScalar.zero(PARAMS, G)
    wall2 = np.array([1.0, 0.0, -2.0, 0.0, 1.0])
    u2.put(1, cf.YProfile.from_poly(G, wall2), cf.YProfile.zero(G))
    # no u1/u3 to balance continuity: divergence is order one
    bad = cf.WaveField(cf.HarmonicScalar.zero(PARAMS, G), u2,
                       cf.HarmonicScalar.zero(PARAMS, G), PARAMS, G)
    with pytest.warns(UserWarning):
        cf.vorticity_rhs(bad)


def test_check_warns_once_on_slightly_divergent_input():
    # divergence about 1e-6 of the field scale: inside the warning band of
    # both the admissibility check and vorticity_rhs, reported once
    rng = np.random.RandomState(18)
    u = random_admissible(PARAMS, G, rng)
    bump = cf.HarmonicScalar.zero(PARAMS, G)
    bump.put(1, cf.YProfile.from_poly(G, 1e-6 * np.array([-1.0, 0.0, 1.0])),
             cf.YProfile.zero(G))
    dirty = cf.WaveField(u.u1 + bump, u.u2, u.u3, PARAMS, G)
    rel = cf.divergence(dirty).max_abs() / dirty.max_abs()
    assert 1e-8 < rel < 1e-4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cf.check(dirty)
    user = [w for w in caught if issubclass(w.category, UserWarning)]
    assert len(user) == 1, [str(w.message) for w in user]
    assert "divergence" in str(user[0].message)


def test_defect_ignores_squire_part_of_single_harmonic_field():
    """Adding (beta, 0, -alpha) phi(y) to a one-harmonic field changes only
    the velocity along its invariant direction, which the divergence of
    du/dt cannot see. Sampled profiles, so no exact polynomial algebra
    carries the identity."""
    rng = np.random.RandomState(28)
    for params, j in ((PARAMS, 1), (cf.FlowParams(0.6, 1.4, 900.0), 1),
                      (cf.FlowParams(1.3, 0.7, 150.0), 2)):
        u = random_admissible(params, G, rng, harmonics=(j,)).strip_poly()
        y = G.y
        amp, freq, phase = rng.uniform(-2, 2, 2), rng.uniform(1, 4, 2), rng.uniform(0, 3, 2)
        phi = [cf.YProfile.from_values(G, a * (1 - y**2) * np.cos(f * y + s))
               for a, f, s in zip(amp, freq, phase)]
        squire = cf.HarmonicScalar(params, G, {j: tuple(phi)})
        moved = cf.WaveField(u.u1 + params.beta * squire, u.u2,
                             u.u3 + (-params.alpha) * squire, params, G)
        base, rep = cf.check(u), cf.check(moved)
        assert (rep.defect - base.defect).max_abs() <= 1e-11 * base.forcing_max_abs
        assert base.defect.max_abs() > 1e-3 * base.forcing_max_abs


class TestZeroWallNormalFamily:
    """Fields with u2 = 0 cannot excite the divergence symptom: the
    nonlinear terms drop out of the momentum balance along the phase and
    the remaining viscous forcing solves to a solenoidal rate of change.
    The wall shear it leaves behind is a different story, tracked by the
    tangential residual."""

    def test_divergence_defect_vanishes(self):
        rng = np.random.RandomState(25)
        for _ in range(10):
            u = random_u2zero(PARAMS, G, rng)
            rep = cf.check(u)
            assert rep.defect_rel_max < 1e-12
            assert rep.verdict == "compatible"

    def test_pressure_vanishes(self):
        rng = np.random.RandomState(26)
        u = random_u2zero(PARAMS, G, rng)
        from compatflow.poisson import solve_pressure
        assert solve_pressure(u).max_abs() < 1e-12 * u.max_abs()

    def test_tangential_residual_does_not_vanish(self):
        rng = np.random.RandomState(27)
        vals = []
        for _ in range(5):
            rep = cf.check(random_u2zero(PARAMS, G, rng))
            vals.append(rep.tangential_rel)
        assert max(vals) > 1e-3


def test_vorticity_rhs_is_one_product(monkeypatch):
    """The 18 advection and stretching products are one stacked product."""
    field = random_admissible(PARAMS, G, np.random.RandomState(50), harmonics=(1, 2, 3))
    calls = count_calls(monkeypatch, fieldops, "harmonic_product")
    cf.vorticity_rhs(field)
    assert len(calls) == 1


def test_forcing_of_polynomial_field_samples_nothing(monkeypatch):
    """The forcing of a polynomial field stays in coefficients: no profile
    is evaluated at the nodes on the way, and the result is polynomial."""
    field = random_admissible(PARAMS, G, np.random.RandomState(51), harmonics=(0, 1, 2))
    calls = count_calls(monkeypatch, spectral, "_polyval")
    f = cf.forcing(field)
    assert calls == []
    assert all(c.block.poly is not None for c in f.components)
    assert f.max_abs() > 0 and len(calls) == 1


def _reference_forcing(field):
    """The forcing assembled one component and one product at a time."""
    params = field.params
    w = cf.curl(field)
    gu = [cf.gradient(c) for c in field.components]
    gw = [cf.gradient(c) for c in w.components]
    rhs = []
    for i in range(3):
        acc = (1.0 / params.reynolds) * w.components[i].laplacian()
        for m in range(3):
            acc = acc - field.components[m] * gw[i][m]
            acc = acc + w.components[m] * gu[i][m]
        rhs.append(acc)
    return (-1.0) * cf.curl(cf.WaveField(*rhs, params, field.grid))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_sampled_forcing_matches_per_component_loop(n):
    """Stacking the components and products keeps every bit of the
    forcing of a sampled field; a stacked block may carry more (zero)
    harmonics than the per-component result."""
    rng = np.random.default_rng(n)
    params = cf.FlowParams(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), 300.0)
    grid = cf.cheb_grid(n)
    u = random_admissible(params, grid, rng, harmonics=(0, 1, 2, 3)).strip_poly()
    for got, want in zip(cf.forcing(u).components, _reference_forcing(u).components):
        a, b = got.block.values, want.block.values
        assert got.block.poly is None
        k = min(a.shape[1], b.shape[1])
        assert np.array_equal(a[:, :k], b[:, :k])
        assert not a[:, k:].any() and not b[:, k:].any()


@pytest.mark.parametrize("n", [64, 96])
def test_polynomial_and_sampled_defects_agree_at_high_degree(n):
    """Coefficient-only evaluation stays accurate as the ansatz degree
    grows: the defect of a polynomial field and of its sampled twin agree
    to 1e-11 of the forcing scale at degrees 4 to 16."""
    rng = np.random.default_rng(52)
    grid = cf.cheb_grid(n)
    for degree in (4, 8, 12, 16):
        spec = AnsatzSpec(PARAMS, degree=degree)
        u = assemble(spec, rng.standard_normal(spec.ncoeffs), grid)
        exact, sampled = cf.check(u), cf.check(u.strip_poly())
        gap = (exact.defect - sampled.defect).max_abs() / exact.forcing_max_abs
        assert gap <= 1e-11, (degree, gap)
