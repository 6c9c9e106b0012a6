"""Grid construction, differentiation, quadrature, and profile containers."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from compatflow import ChebGrid, ConfigurationError, DomainError, YProfile, cheb_grid


def test_nodes_descend_from_plus_one():
    g = cheb_grid(17)
    assert g.n == 17
    assert g.y[0] == 1.0
    assert g.y[-1] == -1.0
    assert np.all(np.diff(g.y) < 0)


def test_grid_cache_and_equality():
    assert cheb_grid(64) is cheb_grid(64)
    assert cheb_grid(64) == ChebGrid(64)
    assert cheb_grid(64) != cheb_grid(48)
    assert hash(cheb_grid(32)) == hash(ChebGrid(32))


def test_differentiation_exact_for_polynomials():
    g = cheb_grid(24)
    rng = np.random.RandomState(11)
    for _ in range(20):
        c = rng.uniform(-1, 1, 20)
        err = g.D @ npoly.polyval(g.y, c) - npoly.polyval(g.y, npoly.polyder(c))
        assert np.max(np.abs(err)) < 1e-11


def test_second_derivative_is_square_of_first():
    g = cheb_grid(32)
    assert np.array_equal(g.D2, g.D @ g.D)


def test_row_sums_of_d_vanish():
    # constants differentiate to zero
    g = cheb_grid(40)
    assert np.max(np.abs(g.D @ np.ones(40))) < 1e-12


def test_quadrature_integrates_monomials():
    g = cheb_grid(20)
    for k in range(18):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert g.weights @ g.y**k == pytest.approx(exact, abs=1e-13)


def test_quadrature_smooth_function():
    g = cheb_grid(64)
    assert g.weights @ np.cos(np.pi * g.y / 2) == pytest.approx(4 / np.pi, abs=1e-14)


def test_interpolation_matches_polynomial_off_grid():
    g = cheb_grid(30)
    c = np.arange(1.0, 9.0)
    vals = npoly.polyval(g.y, c)
    yq = np.linspace(-1, 1, 101)
    assert np.max(np.abs(g.interpolate(vals, yq) - npoly.polyval(yq, c))) < 1e-12


def test_interpolation_exact_at_nodes():
    g = cheb_grid(16)
    vals = np.sin(3 * g.y)
    assert np.array_equal(g.interpolate(vals, g.y), vals)


@pytest.mark.parametrize("dtype", [float, complex])
def test_interpolation_of_a_block_matches_its_columns(dtype):
    """An (n, 5) block gives, bit for bit, the five 1-D interpolations of
    its columns, at nodes, off the nodes and at a scalar point."""
    g = cheb_grid(40)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((g.n, 5)).astype(dtype)
    if dtype is complex:
        block += 1j * rng.standard_normal((g.n, 5))
    yq = np.concatenate([rng.uniform(-1, 1, 16), g.y[::7], [1.0, -1.0]])
    for points in (yq, yq.reshape(3, 8), 0.3, g.y[4]):
        got = g.interpolate(block, points)
        assert got.shape == np.shape(points) + (5,)
        for j in range(5):
            assert np.array_equal(got[..., j], g.interpolate(block[:, j], points))


def test_interpolation_rejects_points_outside_channel():
    g = cheb_grid(16)
    with pytest.raises(DomainError):
        g.interpolate(np.ones(16), np.array([0.0, 1.5]))


class TestYProfile:
    def test_from_poly_matches_polyval(self):
        g = cheb_grid(20)
        c = np.array([1.0, -2.0, 0.0, 3.0])
        p = YProfile.from_poly(g, c)
        assert np.allclose(p.values, npoly.polyval(g.y, c), atol=1e-14)
        assert p.poly is not None

    def test_deriv_poly_and_collocation_agree(self):
        g = cheb_grid(24)
        c = np.array([0.5, 1.0, -1.0, 0.25, 2.0])
        p = YProfile.from_poly(g, c)
        exact = npoly.polyval(g.y, npoly.polyder(c))
        assert np.max(np.abs(p.deriv().values - exact)) < 1e-13
        assert np.max(np.abs(p.strip_poly().deriv().values - exact)) < 1e-11

    def test_arithmetic_propagates_polynomials(self):
        g = cheb_grid(16)
        p = YProfile.from_poly(g, [1.0, 2.0])
        q = YProfile.from_poly(g, [0.0, 0.0, 1.0])
        r = p * q + 2.5 * p - q
        assert r.poly is not None
        # (1 + 2y) y^2 + 2.5 (1 + 2y) - y^2 = 2.5 + 5y + 2y^3
        expect = npoly.polyval(g.y, [2.5, 5.0, 0.0, 2.0])
        assert np.allclose(r.values, expect, atol=1e-13)

    def test_mul_falls_back_to_values(self):
        g = cheb_grid(16)
        p = YProfile.from_poly(g, [1.0, 2.0])
        q = YProfile.from_poly(g, [0.0, 1.0]).strip_poly()
        r = p * q
        assert r.poly is None
        assert np.allclose(r.values, (1 + 2 * g.y) * g.y, atol=1e-14)

    def test_call_interpolates(self):
        g = cheb_grid(24)
        p = YProfile.from_values(g, np.exp(g.y))
        yq = np.array([-0.73, 0.0, 0.41])
        assert np.max(np.abs(p(yq) - np.exp(yq))) < 1e-12

    def test_integral(self):
        g = cheb_grid(12)
        assert YProfile.from_poly(g, [0.0, 0.0, 1.0]).integral() == pytest.approx(2 / 3)

    def test_endpoints(self):
        g = cheb_grid(12)
        p = YProfile.from_poly(g, [0.0, 0.0, 0.0, 1.0])
        assert p.top == pytest.approx(1.0)
        assert p.bottom == pytest.approx(-1.0)

    def test_is_zero(self):
        g = cheb_grid(8)
        assert YProfile.zero(g).is_zero()
        assert YProfile.from_poly(g, [0.0]).is_zero()
        assert not YProfile.from_poly(g, [0.0, 1e-30]).is_zero()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_from_values_rejects_non_finite(self, bad):
        g = cheb_grid(8)
        vals = np.zeros(g.n)
        vals[3] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            YProfile.from_values(g, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_from_poly_rejects_non_finite(self, bad):
        g = cheb_grid(8)
        with pytest.raises(ConfigurationError, match="finite"):
            YProfile.from_poly(g, [1.0, bad, 0.0])
        with pytest.raises(ConfigurationError, match="finite"):
            YProfile.from_poly(g, [[1.0, 0.0], [0.0, bad]])
