"""Closed-form reference solutions against the generic pipeline.

The reference module evaluates hand-derived formulas for one worked field;
the pipeline arrives at the same quantities through collocation operators
and boundary value solves. Agreement across unrelated code paths is the
strongest correctness evidence this package has, so the tolerances here
are kept near rounding level.
"""

import pytest

import compatflow as cf

TRIPLES = [(1.0, 1.0, 80.0), (2.0, 1.0, 100.0), (0.5, 3.0, 500.0)]
G = cf.cheb_grid(64)

# frozen values of the closed-form wall coefficients, (alpha, beta, Re) ->
# (x sin j=1, z sin j=1, x sin j=2)
FROZEN_CC = {
    (1.0, 1.0, 80.0): (0.062818345490544, -0.237181654509456, 0.378498544505717),
    (2.0, 1.0, 100.0): (0.0699379264257718, -0.205031036787114, 0.203047961083927),
    (0.5, 3.0, 500.0): (0.00261840676950056, -0.000289559382996615, 0.0193583536536982),
}


@pytest.mark.parametrize("triple", TRIPLES)
def test_vorticity_closed_form(triple):
    p = cf.FlowParams(*triple)
    field = cf.example_field(p, G)
    got = cf.curl(field)
    want = cf.example_vorticity(p, G)
    assert (got - want).max_abs() < 1e-11 * want.max_abs()


@pytest.mark.parametrize("triple", TRIPLES)
def test_forcing_closed_form(triple):
    p = cf.FlowParams(*triple)
    got = cf.forcing(cf.example_field(p, G))
    want = cf.example_forcing(p, G)
    assert (got - want).max_abs() < 1e-11 * want.max_abs()


@pytest.mark.parametrize("triple", TRIPLES)
def test_dudt_closed_form(triple):
    p = cf.FlowParams(*triple)
    got = cf.solve_dudt(cf.forcing(cf.example_field(p, G)))
    want = cf.example_dudt(p, G)
    assert (got - want).max_abs() < 1e-11 * want.max_abs()


@pytest.mark.parametrize("triple", TRIPLES)
def test_divergence_defect_closed_form(triple):
    p = cf.FlowParams(*triple)
    got = cf.check(cf.example_field(p, G)).defect
    want = cf.example_div_coeffs(p, G)
    assert got.harmonics() == want.harmonics()
    assert (got - want).max_abs() < 1e-11 * want.max_abs()


@pytest.mark.parametrize("triple", TRIPLES)
def test_wall_coefficients_frozen(triple):
    cc = cf.example_cc_coeffs(cf.FlowParams(*triple))
    x1, z1, x2 = FROZEN_CC[triple]
    assert cc["x"][1]["sin"] == pytest.approx(x1, rel=1e-12)
    assert cc["z"][1]["sin"] == pytest.approx(z1, rel=1e-12)
    assert cc["x"][2]["sin"] == pytest.approx(x2, rel=1e-12)
    assert cc["x"][1]["cos"] == 0.0
    assert cc["z"][1]["cos"] == 0.0


@pytest.mark.parametrize("triple", TRIPLES)
def test_wall_coefficients_match_pipeline(triple):
    p = cf.FlowParams(*triple)
    rep = cf.check(cf.example_field(p, G))
    cc = cf.example_cc_coeffs(p)
    top = rep.tangential[0]
    for d, t in enumerate("xz"):
        for j in (1, 2):
            for slot, k in enumerate(("cos", "sin")):
                assert top[d, slot, j] == pytest.approx(
                    cc[t][j][k], rel=1e-9, abs=1e-9 * rep.forcing_max_abs
                )


def test_defect_maxima_frozen():
    d = cf.example_div_coeffs(cf.FlowParams(1.0, 1.0, 80.0), G)
    assert d.get(1)[0].max_abs == pytest.approx(0.17436330901891206, rel=1e-10)
    assert d.get(2)[0].max_abs == pytest.approx(1.513994178022856, rel=1e-10)


def test_example_field_structure():
    p = cf.FlowParams(1.0, 1.0, 80.0)
    field = cf.example_field(p, G)
    assert cf.admissibility_violations(field) == []
    assert cf.divergence(field).max_abs() < 1e-13
    assert field.u1.harmonics() == []
    assert field.u2.harmonics() == [1]
    assert field.u3.harmonics() == [1]
    # wall-normal profile (1 - y^2)^2 has a vanishing wall derivative
    a2 = field.u2.get(1)[0]
    da = G.D @ a2.values
    assert abs(da[0]) < 1e-12 and abs(da[-1]) < 1e-12


def test_sampled_profile_path():
    """Dropping the polynomial coefficients exercises the collocation
    operators on raw samples. The third derivative inside the forcing
    amplifies rounding on the degree-4 data, so the forcing loses half
    of the digits the exact path has; the solves downstream damp the
    noise back out."""
    p = cf.FlowParams(1.0, 1.0, 80.0)
    field = cf.example_field(p, G).strip_poly()
    rep = cf.check(field)
    f = rep.forcing
    fw = cf.example_forcing(p, G)
    assert (f - fw).max_abs() < 1e-7 * fw.max_abs()
    d = cf.solve_dudt(f)
    dw = cf.example_dudt(p, G)
    assert (d - dw).max_abs() < 1e-10 * dw.max_abs()
    defect = rep.defect
    want = cf.example_div_coeffs(p, G)
    assert (defect - want).max_abs() < 1e-10 * want.max_abs()


def test_spanwise_wavenumber_required():
    p = cf.FlowParams(1.0, 0.0, 80.0)
    for fn in (cf.example_field, cf.example_vorticity, cf.example_forcing,
               cf.example_dudt, cf.example_div_coeffs):
        with pytest.raises(cf.DomainError):
            fn(p, G)
    with pytest.raises(cf.DomainError):
        cf.example_cc_coeffs(p)
