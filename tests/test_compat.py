"""The compatibility check itself: verdicts, report contents, scaling."""

import json

import numpy as np
import pytest

import compatflow as cf
from helpers import random_admissible, random_u2zero

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
    field = cf.example_field(PARAMS, G).strip_poly()
    a, b = field.u2.get(1)
    field.u2.put(1, cf.YProfile.from_values(G, np.full(G.n, np.nan)), b)
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
