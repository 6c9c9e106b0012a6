"""Two-point boundary value solves and the velocity/pressure recovery."""

import numpy as np
import pytest

import compatflow as cf
import compatflow.fieldops as fieldops
import compatflow.poisson as poisson
from compatflow.poisson import BVPSpec, solve_bvp, solve_dudt, solve_pressure
from helpers import count_calls, random_admissible

PARAMS = cf.FlowParams(1.0, 1.0, 80.0)
G = cf.cheb_grid(64)


def test_bvp_spec_rejects_negative_helmholtz_coefficient():
    with pytest.raises(cf.ConfigurationError):
        BVPSpec(helmholtz_k2=-1.0, rhs=cf.YProfile.zero(G),
                bc_kind="dirichlet", bc_values=(0.0, 0.0))


def test_bvp_spec_rejects_unknown_bc_kind():
    with pytest.raises(cf.ConfigurationError):
        BVPSpec(helmholtz_k2=1.0, rhs=cf.YProfile.zero(G),
                bc_kind="robin", bc_values=(0.0, 0.0))


def test_dirichlet_poisson_parabola():
    # u'' = 2 with u(+-1) = 0 has the exact solution y^2 - 1
    spec = BVPSpec(helmholtz_k2=0.0, rhs=cf.YProfile.from_poly(G, [2.0]),
                   bc_kind="dirichlet", bc_values=(0.0, 0.0))
    u = solve_bvp(spec, G)
    assert np.max(np.abs(u.values - (G.y**2 - 1))) < 1e-12


def test_dirichlet_boundary_value_ordering():
    # u'' - 3u = -3y with u(+1) = 1, u(-1) = -1 gives u = y; a swapped
    # wall assignment would flip the sign
    spec = BVPSpec(helmholtz_k2=3.0, rhs=cf.YProfile.from_poly(G, [0.0, -3.0]),
                   bc_kind="dirichlet", bc_values=(1.0, -1.0))
    u = solve_bvp(spec, G)
    assert np.max(np.abs(u.values - G.y)) < 1e-12


def test_dirichlet_manufactured_nonpolynomial():
    # u = (1 - y^2) e^y, u'' - 4u = e^y (3y^2 - 4y - 5)
    rhs = cf.YProfile.from_values(G, np.exp(G.y) * (3 * G.y**2 - 4 * G.y - 5))
    spec = BVPSpec(helmholtz_k2=4.0, rhs=rhs, bc_kind="dirichlet", bc_values=(0.0, 0.0))
    u = solve_bvp(spec, G)
    exact = (1 - G.y**2) * np.exp(G.y)
    assert np.max(np.abs(u.values - exact)) < 1e-10


def test_dirichlet_residual_property():
    rng = np.random.RandomState(21)
    for _ in range(10):
        k2 = float(rng.uniform(0, 9))
        rhs = cf.YProfile.from_poly(G, rng.uniform(-1, 1, 7))
        spec = BVPSpec(helmholtz_k2=k2, rhs=rhs, bc_kind="dirichlet", bc_values=(0.0, 0.0))
        u = solve_bvp(spec, G)
        res = G.D2 @ u.values - k2 * u.values - rhs.values
        scale = max(1.0, np.max(np.abs(rhs.values)))
        assert np.max(np.abs(res[1:-1])) < 1e-9 * scale
        assert abs(u.top) < 1e-12 and abs(u.bottom) < 1e-12


def test_neumann_cubic_with_mean_zero_gauge():
    # u'' = 2y, u'(+-1) = 0: u = y^3/3 - y up to a constant, fixed by the
    # zero-mean gauge (and this particular solution already integrates to 0)
    spec = BVPSpec(helmholtz_k2=0.0, rhs=cf.YProfile.from_poly(G, [0.0, 2.0]),
                   bc_kind="neumann", bc_values=(0.0, 0.0))
    u = solve_bvp(spec, G)
    assert np.max(np.abs(u.values - (G.y**3 / 3 - G.y))) < 1e-10
    assert abs(G.weights @ u.values) < 1e-12


def test_neumann_flux_ordering():
    # u'' = 1 with u'(+1) = 2, u'(-1) = 0 gives u = y^2/2 + y - 1/6 after
    # the gauge; swapping the walls would negate the linear part
    spec = BVPSpec(helmholtz_k2=0.0, rhs=cf.YProfile.from_poly(G, [1.0]),
                   bc_kind="neumann", bc_values=(2.0, 0.0))
    u = solve_bvp(spec, G)
    assert np.max(np.abs(u.values - (G.y**2 / 2 + G.y - 1 / 6))) < 1e-10


def test_neumann_helmholtz_hyperbolic():
    # u'' - 4u = 0 with u'(+-1) = +-1: u = cosh(2y) / (2 sinh 2)
    spec = BVPSpec(helmholtz_k2=4.0, rhs=cf.YProfile.zero(G),
                   bc_kind="neumann", bc_values=(1.0, -1.0))
    u = solve_bvp(spec, G)
    exact = np.cosh(2 * G.y) / (2 * np.sinh(2.0))
    assert np.max(np.abs(u.values - exact)) < 1e-11


def test_neumann_solvability_violation():
    spec = BVPSpec(helmholtz_k2=0.0, rhs=cf.YProfile.from_poly(G, [1.0]),
                   bc_kind="neumann", bc_values=(0.0, 0.0))
    with pytest.raises(cf.NumericalError, match="solvab"):
        solve_bvp(spec, G)


@pytest.mark.parametrize("k2, per_row", [
    pytest.param(2.5, False, id="2.5"),
    pytest.param(0.0, False, id="0.0"),
    pytest.param(2.5, True, id="2.5-per-row-walls"),
    pytest.param(0.0, True, id="0.0-per-row-walls"),
])
def test_neumann_row_block_matches_single_solves(k2, per_row):
    """A (rows, n) source solves row by row, like the Dirichlet solve; at
    k2 = 0 each row is made solvable (its integral equals the net flux).
    The wall data is one pair for all rows or one value per row and wall,
    as in the one pressure solve per harmonic."""
    rng = np.random.RandomState(22)
    if per_row:
        bc = (rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
    else:
        bc = (0.7, -0.4)
    rhs = np.array([cf.YProfile.from_poly(G, rng.uniform(-1, 1, 6)).values
                    for _ in range(5)])
    if k2 == 0:
        rhs -= ((rhs @ G.weights - (bc[0] - bc[1])) / 2.0)[:, None]
    block = solve_bvp(BVPSpec(k2, cf.YProfile(G, rhs), "neumann", bc), G)
    assert block.values.shape == (5, G.n)
    for r, (row, f) in enumerate(zip(block.values, rhs)):
        one_bc = tuple(np.broadcast_to(v, (5,))[r] for v in bc)
        one = solve_bvp(BVPSpec(k2, cf.YProfile(G, f), "neumann", one_bc), G).values
        assert np.max(np.abs(row - one)) <= 1e-12 * max(1.0, np.max(np.abs(one)))


def test_neumann_row_block_solvability_is_per_row():
    # the middle row alone violates the flux balance
    rhs = np.zeros((3, G.n))
    rhs[1] = 1.0
    spec = BVPSpec(0.0, cf.YProfile(G, rhs), "neumann", (0.0, 0.0))
    with pytest.raises(cf.NumericalError, match="solvab"):
        solve_bvp(spec, G)


def test_dudt_matches_reference_profiles():
    f = cf.example_forcing(PARAMS, G)
    got = solve_dudt(f)
    want = cf.example_dudt(PARAMS, G)
    assert (got - want).max_abs() < 1e-11 * want.max_abs()


def test_dudt_no_slip():
    got = solve_dudt(cf.example_forcing(PARAMS, G))
    for comp in got.components:
        for _, (a, b) in comp.items():
            assert abs(a.top) < 1e-12 and abs(a.bottom) < 1e-12
            assert abs(b.top) < 1e-12 and abs(b.bottom) < 1e-12


def test_dudt_mesh_convergence():
    g48 = cf.cheb_grid(48)
    d64 = solve_dudt(cf.example_forcing(PARAMS, G))
    d48 = solve_dudt(cf.example_forcing(PARAMS, g48))
    a64 = d64.u1.get(1)[1]
    a48 = d48.u1.get(1)[1]
    assert np.max(np.abs(a48(G.y) - a64.values)) < 1e-10


@pytest.mark.parametrize("alpha", [1e10, 1e50])
def test_dudt_holds_the_walls_at_huge_wavenumbers(alpha):
    """The interior rows are scaled down with k2, so their -k2 diagonal
    does not swamp the unit wall rows (unscaled, the wall value at alpha =
    1e10 is the profile's largest)."""
    p = cf.FlowParams(alpha, 1.0, 80.0)
    got = solve_dudt(cf.forcing(cf.example_field(p, G).strip_poly()))
    want = cf.example_dudt(p, G)
    assert (got - want).max_abs() <= 1e-12 * want.max_abs()
    assert not np.any(got.stacked.block.values[..., [0, -1]])


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_bvp_solves_at_the_largest_k2(kind):
    # the scale is a power of two <= k2: 2.0 ** 1024 would overflow
    spec = BVPSpec(1e308, cf.YProfile.from_poly(G, [1e300]), kind, (0.0, 0.0))
    u = solve_bvp(spec, G).values
    assert np.max(np.abs(u[1:-1] + 1e-8)) < 1e-20
    if kind == "dirichlet":
        assert u[0] == 0.0 and u[-1] == 0.0


def test_pressure_gauge_and_flux():
    field = cf.example_field(PARAMS, G)
    p = solve_pressure(field)
    lap2 = field.u2.laplacian()
    scale = max(1.0, p.max_abs())
    for j, (a, b) in p.items():
        if j == 0:
            assert abs(G.weights @ a.values) < 1e-10 * scale
        la, lb = lap2.get(j)
        for prof, flux in ((a, la), (b, lb)):
            dp = G.D @ prof.values
            assert abs(dp[0] - flux.top / PARAMS.reynolds) < 1e-8 * scale
            assert abs(dp[-1] - flux.bottom / PARAMS.reynolds) < 1e-8 * scale


def test_pressure_mean_mode_has_no_sine():
    field = cf.example_field(PARAMS, G)
    p = solve_pressure(field)
    if 0 in p.harmonics():
        assert p.get(0)[1].is_zero()


def _harmonics(*scalars):
    return sorted(set().union(*(h.harmonics() for h in scalars)))


def test_dudt_solves_once_per_harmonic(monkeypatch):
    """Every component, slot and row of one harmonic share one solve."""
    field = random_admissible(PARAMS, G, np.random.RandomState(40), harmonics=(0, 1, 3))
    f = cf.forcing(field)
    calls = count_calls(monkeypatch, poisson, "solve_bvp")
    solve_dudt(f)
    js = _harmonics(*f.components)
    assert len(js) >= 5
    assert [spec.helmholtz_k2 for spec, _ in calls] == [j * j * PARAMS.k2 for j in js]
    assert all(spec.rhs.values.shape == (2, 3, G.n) for spec, _ in calls)


def test_pressure_solves_once_per_harmonic(monkeypatch):
    field = random_admissible(PARAMS, G, np.random.RandomState(41), harmonics=(1, 2))
    js = _harmonics(poisson.pressure_rhs(field), field.u2.laplacian())
    calls = count_calls(monkeypatch, poisson, "solve_bvp")
    solve_pressure(field)
    assert len(js) >= 4
    assert [spec.helmholtz_k2 for spec, _ in calls] == [j * j * PARAMS.k2 for j in js]
    assert all(spec.bc_kind == "neumann" for spec, _ in calls)
    assert all(np.shape(spec.bc_values[0]) == (2,) for spec, _ in calls)


def test_pressure_rhs_is_one_product(monkeypatch):
    field = random_admissible(PARAMS, G, np.random.RandomState(42))
    calls = count_calls(monkeypatch, fieldops, "harmonic_product")
    poisson.pressure_rhs(field)
    assert len(calls) == 1
