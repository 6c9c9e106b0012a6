"""The compatibility check itself: verdicts, report contents, scaling."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import compatflow as cf
import compatflow.compat as compat
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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_check_rejects_bad_tolerance(tol):
    """NaN compares false against everything and a negative tolerance
    fails every field; neither is a verdict."""
    with pytest.raises(cf.ConfigurationError, match="tolerance"):
        cf.check(cf.example_field(PARAMS, G), tol_rel=tol)


def test_defect_scales_as_linear_plus_quadratic():
    """The defect of s*u is s*(viscous part) + s^2*(advective part), so
    three scalings determine each other: d(3) = 3 (d(2) - d(1))."""
    rng = np.random.RandomState(24)
    u = random_admissible(PARAMS, G, rng)
    d1, d2, d3 = (cf.check(s * u).defect for s in (1.0, 2.0, 3.0))
    pred = 3.0 * (d2 - d1)
    assert (d3 - pred).max_abs() < 1e-9 * max(1.0, d3.max_abs())


def test_zero_field_is_compatible():
    zero = cf.HarmonicScalar(PARAMS, G)
    rep = cf.check(cf.WaveField(zero, zero, zero))
    assert rep.verdict == "compatible"
    assert rep.defect_rel_max == 0.0


def test_check_rejects_inadmissible_input():
    zero = cf.HarmonicScalar(PARAMS, G)
    u2 = cf.HarmonicScalar(PARAMS, G, {1: (cf.YProfile.from_poly(G, [1.0, 1.0]),
                                           cf.YProfile.zero(G))})
    bad = cf.WaveField(zero, u2, zero)
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
    u2 = cf.HarmonicScalar(PARAMS, G, {1: (cf.YProfile(G, np.full(G.n, np.nan)), b)})
    field = cf.WaveField(u1, u2, u3)
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
    assert rep.tangential.shape == (2, 2, 2, 3)
    walls = rep.to_dict()["tangential_residual"]["walls"]
    assert set(walls) == {"+1", "-1"}
    for wall in walls.values():
        assert set(wall) == {"x", "z"}
    # (wall, direction, slot, j): wall 0 is y = +1, direction 0 is x
    assert walls["+1"]["x"]["1"]["sin"] == rep.tangential[0, 0, 1, 1]
    assert walls["-1"]["z"]["2"]["cos"] == rep.tangential[1, 1, 0, 2]


def test_vorticity_rhs_warns_on_divergent_input():
    wall2 = np.array([1.0, 0.0, -2.0, 0.0, 1.0])
    u2 = cf.HarmonicScalar(PARAMS, G, {1: (cf.YProfile.from_poly(G, wall2),
                                           cf.YProfile.zero(G))})
    # no u1/u3 to balance continuity: divergence is order one
    zero = cf.HarmonicScalar(PARAMS, G)
    bad = cf.WaveField(zero, u2, zero)
    with pytest.warns(UserWarning):
        cf.vorticity_rhs(bad)


def test_check_warns_once_on_slightly_divergent_input():
    # divergence about 1e-6 of the field scale: inside the warning band of
    # both the admissibility check and vorticity_rhs, reported once
    rng = np.random.RandomState(18)
    u = random_admissible(PARAMS, G, rng)
    bump = cf.HarmonicScalar(PARAMS, G, {1: (
        cf.YProfile.from_poly(G, 1e-6 * np.array([-1.0, 0.0, 1.0])), cf.YProfile.zero(G))})
    dirty = cf.WaveField(u.u1 + bump, u.u2, u.u3)
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
                             u.u3 + (-params.alpha) * squire)
        base, rep = cf.check(u), cf.check(moved)
        assert (rep.defect - base.defect).max_abs() <= 1e-11 * base.forcing_max_abs
        assert base.defect.max_abs() > 1e-3 * base.forcing_max_abs


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("sampled", [False, True], ids=["poly", "sampled"])
@pytest.mark.parametrize("family", ["admissible", "u2zero"])
def test_harmonic_zero_defect_is_exactly_zero(family, sampled, n):
    """The wall-normal forcing f2 = -(dz R1 - dx R3) has no y-derivative,
    so its harmonic 0, and with it the defect's, is exactly 0.0 for every
    field, mean modes included: not rounding, but a zero."""
    rng = np.random.default_rng([n, sampled, family == "u2zero"])
    grid = cf.cheb_grid(n)
    draw = random_admissible if family == "admissible" else random_u2zero
    for _ in range(30):
        params = cf.FlowParams(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
                               np.exp(rng.uniform(np.log(50.0), np.log(5000.0))))
        harmonics = (0,) + tuple(range(1, int(rng.integers(1, 4)) + 1))
        u = draw(params, grid, rng, harmonics=harmonics)
        rep = cf.check(u.strip_poly() if sampled else u)
        assert not rep.forcing.u2.block.values[:, 0].any()
        assert not rep.defect.block.values[:, 0].any()


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


@pytest.mark.parametrize("sampled", [False, True], ids=["poly", "sampled"])
def test_check_builds_each_gradient_once(monkeypatch, sampled):
    """One check takes d/dy three times, once per field whose gradient it
    needs (u, its vorticity w and the vorticity balance), and reports the
    forcing it computed, bit for bit that of forcing()."""
    field = random_admissible(PARAMS, G, np.random.RandomState(52), harmonics=(0, 1, 2))
    field = field.strip_poly() if sampled else field
    calls = count_calls(monkeypatch, fieldops.HarmonicScalar, "dy")
    rep = cf.check(field)
    assert len(calls) == 3
    want = cf.forcing(field)
    assert np.array_equal(rep.forcing.stacked.block.data, want.stacked.block.data)


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
    gu = [(c.dx(), c.dy(), c.dz()) for c in field.components]
    gw = [(c.dx(), c.dy(), c.dz()) for c in w.components]
    rhs = []
    for i in range(3):
        acc = (1.0 / params.reynolds) * w.components[i].laplacian()
        for m in range(3):
            acc = acc - field.components[m] * gw[i][m]
            acc = acc + w.components[m] * gu[i][m]
        rhs.append(acc)
    return (-1.0) * cf.curl(cf.WaveField(*rhs))


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


FAMILIES = ("ansatz", "admissible", "u2zero")


def _draw(family, params, grid, rng):
    if family == "ansatz":
        spec = AnsatzSpec(params)
        return assemble(spec, rng.standard_normal(spec.ncoeffs), grid)
    if family == "admissible":
        harmonics = tuple(range(1, int(rng.integers(1, 4)) + 1))
        return random_admissible(params, grid, rng, harmonics=harmonics)
    return random_u2zero(params, grid, rng)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("sampled", [False, True], ids=["poly", "sampled"])
@pytest.mark.parametrize("family", FAMILIES)
def test_wall_moments_match_the_boundary_value_solves(family, sampled, n):
    """The moment route of check against the solve route, in units of the
    forcing scale: the defect profile equals div(du/dt), the wall
    pressures equal those of solve_pressure (j >= 1), and so does check's
    tangential residual (1/Re) lap(u_t) - d_t p (j >= 1); the solved
    defect is A cosh(j k y) + B sinh(j k y) (A + B y at j = 0) through its
    own wall values."""
    rng = np.random.default_rng([n, sampled, FAMILIES.index(family)])
    grid = cf.cheb_grid(n)
    params = cf.FlowParams(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
                           np.exp(rng.uniform(np.log(50.0), np.log(5000.0))))
    u = _draw(family, params, grid, rng)
    if sampled:
        u = u.strip_poly()
    rep = cf.check(u)
    fscale = rep.forcing_max_abs
    solved = cf.divergence(cf.solve_dudt(rep.forcing))
    assert (rep.defect - solved).max_abs() <= 1e-12 * fscale

    def walls(h):
        return np.stack([h.block.top, h.block.bottom])

    def close(got, ref):
        k = min(got.shape[-1], ref.shape[-1])
        assert np.max(np.abs(got[..., 1:k] - ref[..., 1:k])) <= 1e-12 * fscale
        assert not got[..., k:].any() and not ref[..., k:].any()

    want = cf.solve_pressure(u)
    close(compat._wall_pressure(u, u.stacked.laplacian()), walls(want))
    visc = [(1.0 / params.reynolds) * c.laplacian() for c in (u.u1, u.u3)]
    tangential = [walls(v - dp) for v, dp in zip(visc, (want.dx(), want.dz()))]
    close(rep.tangential, np.stack(tangential, axis=1))

    vals = solved.block.values
    top, bottom = vals[..., :1], vals[..., -1:]
    a = np.sqrt(params.k2) * np.arange(1, vals.shape[1])[:, None]
    curve = np.concatenate([
        (top + bottom)[:, :1] / 2 + (top - bottom)[:, :1] / 2 * grid.y,
        (top + bottom)[:, 1:] / (2 * np.cosh(a)) * np.cosh(a * grid.y)
        + (top - bottom)[:, 1:] / (2 * np.sinh(a)) * np.sinh(a * grid.y),
    ], axis=1)
    assert np.max(np.abs(vals - curve)) <= 1e-12 * fscale


def _shifted(field, phi):
    """The field with x = 0 moved so that theta becomes theta + phi: each
    harmonic's (cos, sin) pair rotated through j phi."""
    def rotated(comp):
        out = {}
        for j, (a, b) in comp.items():
            c, s = np.cos(j * phi), np.sin(j * phi)
            out[j] = (a * c + b * s, b * c - a * s)
        return cf.HarmonicScalar(field.params, field.grid, out)

    return cf.WaveField(*map(rotated, field.components))


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("n", [32, 64])
def test_l2_numbers_do_not_depend_on_the_phase(n, sampled):
    """The L2 norms of the defect and of the forcing sum a^2 + b^2 per
    harmonic, so a phase shift leaves them as they are. The max-abs
    numbers take a max over the cos and sin samples and do move.

    A sampled forcing differentiates the rounding of the rotated samples
    three times: over 20 draws it moved by up to 5.5e-12 relative at
    n = 64 (1.5e-15 for the polynomial form)."""
    rtol = 1e-10 if sampled else 1e-12
    grid = cf.cheb_grid(n)
    rng = np.random.default_rng([n, sampled])
    for _ in range(2):
        u = random_admissible(PARAMS, grid, rng, harmonics=(1, 2, 3))
        u = u.strip_poly() if sampled else u
        ref = (cf.check(u).defect_l2, cf.forcing(u).l2())
        for phi in (0.3, np.pi / 4, 1.0):
            v = _shifted(u, phi)
            got = (cf.check(v).defect_l2, cf.forcing(v).l2())
            assert got == pytest.approx(ref, rel=rtol, abs=0), phi


# Reports that check wrote for these fields before its wall quantities
# became arrays (compatflow at commit f0c8753, numpy 2.4); tests/data holds
# one report_<name>.json per entry.
STORED_REPORTS = {
    "example_n64_poly": lambda: cf.example_field(PARAMS, G),
    "example_n128_sampled": lambda: cf.example_field(PARAMS, cf.cheb_grid(128)).strip_poly(),
    "admissible_3_harmonics": lambda: random_admissible(
        PARAMS, G, np.random.default_rng(2021), harmonics=(1, 2, 3)),
    "u2zero": lambda: random_u2zero(
        cf.FlowParams(0.8, 1.3, 400.0), G, np.random.default_rng(2022), harmonics=(0, 1, 2)),
}


def _assert_close(got, want, fscale, path="report"):
    """Same keys at every level; numbers within 1e-12 relative, or 1e-12
    of the forcing scale (1e-12 for the *_rel numbers, which are already
    in its units) where a number is at rounding level; other values
    equal."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], 1.0 if key.endswith("_rel") else fscale,
                          f"{path}/{key}")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * fscale), path
    else:
        assert got == want, path


@pytest.mark.parametrize("name", sorted(STORED_REPORTS))
def test_report_matches_the_stored_report(name):
    want = json.loads((Path(__file__).parent / "data" / f"report_{name}.json").read_text())
    got = json.loads(json.dumps(cf.check(STORED_REPORTS[name]()).to_dict()))
    _assert_close(got, want, want["forcing_max_abs"])
