"""Harmonic algebra: products, derivative operators, vector identities."""

import numpy as np
import pytest

import compatflow as cf
from helpers import (prof, random_admissible, random_scalar, random_u2zero, random_vector,
                     rel_diff)

PARAMS = cf.FlowParams(1.2, 0.7, 50.0)
GRID = cf.cheb_grid(32)


def test_k2():
    assert cf.FlowParams(3.0, 4.0, 10.0).k2 == 25.0


def test_reynolds_must_be_positive():
    with pytest.raises(cf.ConfigurationError):
        cf.FlowParams(1.0, 1.0, 0.0)
    with pytest.raises(cf.ConfigurationError):
        cf.FlowParams(1.0, 1.0, -5.0)


@pytest.mark.parametrize("alpha, beta", [(1e200, 1.0), (1.0, -1e200), (1e154, 1e154)],
                         ids=["alpha", "beta", "sum"])
def test_wavenumbers_need_a_finite_k2(alpha, beta):
    # Python's ** raises OverflowError on the first; the last two squares
    # are finite and their sum is not
    with pytest.raises(cf.ConfigurationError, match=r"alpha\^2 \+ beta\^2 must be finite"):
        cf.FlowParams(alpha, beta, 80.0)


def test_constructor_rejects_negative_harmonic():
    zero = cf.YProfile.zero(GRID)
    with pytest.raises(cf.ConfigurationError):
        cf.HarmonicScalar(PARAMS, GRID, {-1: (zero, zero)})


def test_constructor_rejects_grid_mismatch():
    other = cf.cheb_grid(16)
    with pytest.raises(cf.ConfigurationError):
        cf.HarmonicScalar(PARAMS, GRID, {1: (cf.YProfile.zero(other), cf.YProfile.zero(other))})


def test_mean_mode_sine_slot_is_zeroed():
    f = cf.HarmonicScalar(PARAMS, GRID, {0: (prof(GRID, [1.0]), prof(GRID, [1.0]))})
    a, b = f.get(0)
    assert not a.is_zero()
    assert b.is_zero()


def test_zero_pair_is_dropped():
    zero = cf.YProfile.zero(GRID)
    assert cf.HarmonicScalar(PARAMS, GRID, {2: (zero, zero)}).harmonics() == []


def test_field_rejects_mismatched_components():
    f = random_scalar(PARAMS, GRID, np.random.RandomState(2))
    other = random_scalar(cf.FlowParams(2.0, 0.7, 50.0), GRID, np.random.RandomState(2))
    coarse = random_scalar(PARAMS, cf.cheb_grid(16), np.random.RandomState(2))
    for bad in (other, coarse):
        with pytest.raises(cf.ConfigurationError):
            cf.WaveField(f, bad, f)
    u = cf.WaveField(f, f, f)
    assert u.params is PARAMS and u.grid is GRID


@pytest.mark.parametrize("sampled", [False, True], ids=["poly", "sampled"])
def test_operations_leave_their_operands_unchanged(sampled):
    """A scalar is never changed in place, so a field can keep its
    gradient: every operation returns a new block."""
    rng = np.random.RandomState(4)
    f, g = (random_scalar(PARAMS, GRID, rng) for _ in range(2))
    if sampled:
        f, g = f.strip_poly(), g.strip_poly()
    before = [h.block.data.copy() for h in (f, g)]
    for h in (f + g, f - g, -f, 2.0 * f, f * g, f.dx(), f.dy(), f.dz(),
              f.laplacian(), f.strip_poly()):
        h.block.data[...] = np.nan
    u = cf.WaveField(f, g, f)
    for h in (u.gradient, cf.curl(u).stacked, cf.divergence(u), (2.0 * u).stacked):
        h.block.data[...] = np.nan
    for h, want in zip((f, g), before):
        assert np.array_equal(h.block.data, want)


def test_params_mismatch_raises_on_add():
    f = random_scalar(PARAMS, GRID, np.random.RandomState(0))
    g = random_scalar(cf.FlowParams(2.0, 0.7, 50.0), GRID, np.random.RandomState(1))
    with pytest.raises(cf.ConfigurationError):
        f + g


def test_x_and_z_derivatives_match_finite_differences():
    rng = np.random.RandomState(3)
    f = random_scalar(PARAMS, GRID, rng)
    x, y, z = 0.37, 0.21, -1.94
    h = 1e-5
    fd_x = (f.evaluate(x + h, y, z) - f.evaluate(x - h, y, z)) / (2 * h)
    fd_z = (f.evaluate(x, y, z + h) - f.evaluate(x, y, z - h)) / (2 * h)
    assert f.dx().evaluate(x, y, z) == pytest.approx(fd_x, abs=2e-8)
    assert f.dz().evaluate(x, y, z) == pytest.approx(fd_z, abs=2e-8)


def test_y_derivative_matches_finite_differences():
    rng = np.random.RandomState(4)
    f = random_scalar(PARAMS, GRID, rng)
    h = 1e-5
    fd = (f.evaluate(0.2, 0.5 + h, 1.3) - f.evaluate(0.2, 0.5 - h, 1.3)) / (2 * h)
    assert f.dy().evaluate(0.2, 0.5, 1.3) == pytest.approx(fd, abs=2e-8)


def test_laplacian_is_sum_of_second_derivatives():
    rng = np.random.RandomState(5)
    f = random_scalar(PARAMS, GRID, rng)
    direct = f.laplacian()
    composed = f.dx().dx() + f.dy().dy() + f.dz().dz()
    assert rel_diff(direct, composed) < 1e-12


def test_evaluate_broadcasts():
    rng = np.random.RandomState(6)
    f = random_scalar(PARAMS, GRID, rng)
    x = np.linspace(0, 2, 5)
    out = f.evaluate(x, 0.0, 0.0)
    assert out.shape == (5,)
    X, Y = np.meshgrid(x, np.linspace(-1, 1, 7), indexing="ij")
    assert f.evaluate(X, Y, 0.0).shape == (5, 7)


def _pointwise(f, x, y, z):
    """Reference evaluation: one interpolation per point, no sharing."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    out = np.zeros(x.shape)
    for idx in np.ndindex(x.shape):
        theta = PARAMS.alpha * x[idx] + PARAMS.beta * z[idx]
        for j, (a, b) in f.items():
            out[idx] += a(y[idx]) * np.cos(j * theta) + b(y[idx]) * np.sin(j * theta)
    return out


class TestEvaluate:
    """evaluate interpolates once per distinct y and gathers; every shape
    must give what evaluating each point on its own gives."""

    f = random_scalar(PARAMS, GRID, np.random.RandomState(11))

    def close(self, got, want):
        scale = max(1.0, np.max(np.abs(want)))
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_scalar_inputs(self):
        got = self.f.evaluate(0.3, -0.45, 1.1)
        assert np.ndim(got) == 0
        self.close(got, _pointwise(self.f, 0.3, -0.45, 1.1))

    def test_mixed_broadcast_shapes(self):
        x = np.linspace(0.0, 3.0, 5)[:, None]
        y = np.array([0.9, -0.2, 0.9, 0.0, -0.2, 1.0, -1.0])
        z = np.array([0.0, 0.4, -1.3])[:, None, None]
        got = self.f.evaluate(x, y, z)
        assert got.shape == (3, 5, 7)
        self.close(got, _pointwise(self.f, x, y, z))
        # the same y in two places gives bit-identical values
        assert np.array_equal(got[..., 0], got[..., 2])

    def test_nodes_and_walls_reproduce_samples(self):
        # at x = z = 0 only the cosine slots contribute, with weight 1
        y = np.concatenate([GRID.y, [1.0, -1.0]])
        got = self.f.evaluate(0.0, y, 0.0)
        want = np.zeros(GRID.n)
        for _, (a, b) in self.f.items():
            want = want + a.values * 1.0 + b.values * 0.0
        assert np.array_equal(got[: GRID.n], want)
        assert got[-2] == want[0] and got[-1] == want[-1]

    def test_all_distinct_y(self):
        rng = np.random.RandomState(12)
        x = rng.uniform(0.0, 6.0, 40)
        y = rng.uniform(-1.0, 1.0, 40)
        assert np.unique(y).size == y.size
        self.close(self.f.evaluate(x, y, 0.25), _pointwise(self.f, x, y, 0.25))

    @pytest.mark.parametrize("y", [1.0 + 1e-12, -1.5, [0.2, np.nextafter(-1.0, -2.0)]],
                             ids=["above", "below", "one-of-many"])
    def test_y_outside_channel_raises(self, y):
        with pytest.raises(cf.DomainError):
            self.f.evaluate(0.0, y, 0.0)


class TestHarmonicProduct:
    def test_pointwise_consistency(self):
        rng = np.random.RandomState(7)
        x = np.linspace(0, 2 * np.pi, 117) / PARAMS.alpha
        for _ in range(10):
            f = random_scalar(PARAMS, GRID, rng)
            g = random_scalar(PARAMS, GRID, rng)
            for y in (-0.83, 0.0, 0.61):
                lhs = (f * g).evaluate(x, y, 0.3)
                rhs = f.evaluate(x, y, 0.3) * g.evaluate(x, y, 0.3)
                scale = max(1.0, np.max(np.abs(rhs)))
                assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    def test_commutative(self):
        rng = np.random.RandomState(8)
        f = random_scalar(PARAMS, GRID, rng)
        g = random_scalar(PARAMS, GRID, rng)
        assert rel_diff(f * g, g * f) < 1e-14

    def test_bilinear(self):
        rng = np.random.RandomState(9)
        f = random_scalar(PARAMS, GRID, rng)
        g = random_scalar(PARAMS, GRID, rng)
        h = random_scalar(PARAMS, GRID, rng)
        assert rel_diff(f * (g + h), f * g + f * h) < 1e-13

    def test_unit_scalar_is_identity(self):
        one = cf.HarmonicScalar(PARAMS, GRID, {0: (prof(GRID, [1.0]), cf.YProfile.zero(GRID))})
        f = random_scalar(PARAMS, GRID, np.random.RandomState(10))
        assert rel_diff(one * f, f) < 1e-14

    def test_mean_mode_has_no_sine_content(self):
        rng = np.random.RandomState(12)
        f = random_scalar(PARAMS, GRID, rng, harmonics=(1, 2))
        g = random_scalar(PARAMS, GRID, rng, harmonics=(1, 2))
        p = f * g
        assert 0 in p.harmonics()
        assert p.get(0)[1].is_zero()


class TestHarmonicSet:
    """Which harmonics a scalar reports, and which form its profiles keep:
    only harmonics with a nonzero profile are listed, whatever the storage
    holds, and a block is polynomial only when all of its profiles are."""

    def test_difference_and_zero_multiple_are_empty(self):
        f = random_scalar(PARAMS, GRID, np.random.RandomState(30))
        assert (f - f).harmonics() == []
        assert (0.0 * f).harmonics() == []
        assert (f - f).items() == []

    def test_product_of_first_harmonics_holds_zero_and_two(self):
        rng = np.random.RandomState(31)
        f = random_scalar(PARAMS, GRID, rng, harmonics=(1,))
        g = random_scalar(PARAMS, GRID, rng, harmonics=(1,))
        assert (f * g).harmonics() == [0, 2]

    def test_x_and_z_derivatives_of_mean_mode_are_empty(self):
        f = random_scalar(PARAMS, GRID, np.random.RandomState(32), harmonics=(0,))
        assert f.harmonics() == [0]
        assert f.dx().harmonics() == []
        assert f.dz().harmonics() == []

    def test_mean_mode_sine_slot_stays_positive_zero(self):
        # dx of a positive mean profile computes -0 * a; the slot is reset
        # to +0.0 so that written files read 0.0, not -0.0
        f = cf.HarmonicScalar(PARAMS, GRID, {0: (prof(GRID, [2.0, 1.0]), cf.YProfile.zero(GRID))})
        for h in (f.dx(), f.dz(), -1.0 * f.dx(), f * f):
            b = h.get(0)[1]
            assert b.is_zero() and not np.signbit(b.values).any()

    def test_poly_plus_sampled_keeps_samples(self):
        rng = np.random.RandomState(33)
        f = random_scalar(PARAMS, GRID, rng)
        g = random_scalar(PARAMS, GRID, rng)
        mixed = f + g.strip_poly()
        for j in f.harmonics():
            for p, q, r in zip(mixed.get(j), f.get(j), g.get(j)):
                assert p.poly is None
                assert np.array_equal(p.values, q.values + r.values)
        pure = f + g
        assert all(p.poly is not None for _, pair in pure.items() for p in pair)

    def test_one_sampled_profile_drops_the_coefficients(self):
        f = random_scalar(PARAMS, GRID, np.random.RandomState(34), harmonics=(1, 2))
        a, b = f.get(2)
        f = cf.HarmonicScalar(PARAMS, GRID, {**dict(f.items()), 2: (a.strip_poly(), b)})
        assert all(p.poly is None for _, pair in f.items() for p in pair)
        assert f.harmonics() == [1, 2]

    def test_row_block_product_matches_single_rows(self):
        rng = np.random.RandomState(35)
        rows = 5

        def block(coeffs):
            # coeffs: (harmonic, slot, rows, degree + 1)
            return cf.HarmonicScalar(PARAMS, GRID, {
                j: (prof(GRID, c[0]), prof(GRID, c[1])) for j, c in enumerate(coeffs)
            })

        c_f = rng.uniform(-1, 1, (3, 2, rows, 4))
        c_g = rng.uniform(-1, 1, (2, 2, rows, 5))
        prod = block(c_f) * block(c_g)
        assert prod.harmonics() == [0, 1, 2, 3]
        for r in range(rows):
            want = block(c_f[:, :, r]) * block(c_g[:, :, r])
            scale = want.max_abs()
            assert prod.harmonics() == want.harmonics()
            for j, (a, b) in want.items():
                got_a, got_b = prod.get(j)
                assert got_a.values.shape == (rows, GRID.n)
                assert np.max(np.abs(got_a.values[r] - a.values)) <= 1e-14 * scale
                assert np.max(np.abs(got_b.values[r] - b.values)) <= 1e-14 * scale

    def test_row_block_times_single_field(self):
        rng = np.random.RandomState(36)
        coeffs = rng.uniform(-1, 1, (4, 3))
        zero = cf.YProfile.zero(GRID)
        rowed = cf.HarmonicScalar(PARAMS, GRID, {1: (prof(GRID, coeffs), zero)})
        g = random_scalar(PARAMS, GRID, rng, harmonics=(0, 2))
        prod = rowed * g
        for r in range(4):
            want = cf.HarmonicScalar(PARAMS, GRID, {1: (prof(GRID, coeffs[r]), zero)}) * g
            for j, (a, b) in want.items():
                got_a, got_b = prod.get(j)
                assert np.max(np.abs(got_a.values[r] - a.values)) <= 1e-14 * want.max_abs()
                assert np.max(np.abs(got_b.values[r] - b.values)) <= 1e-14 * want.max_abs()


def test_divergence_of_constructed_fields_vanishes():
    rng = np.random.RandomState(13)
    for _ in range(5):
        u = random_admissible(PARAMS, GRID, rng, harmonics=(0, 1, 2))
        assert cf.divergence(u).max_abs() < 1e-13 * max(1.0, u.max_abs())


def test_curl_of_gradient_vanishes():
    rng = np.random.RandomState(14)
    for _ in range(5):
        f = random_scalar(PARAMS, GRID, rng)
        g = cf.WaveField(f.dx(), f.dy(), f.dz())
        assert cf.curl(g).max_abs() < 1e-11 * max(1.0, f.max_abs())


def test_curl_curl_identity():
    # curl(curl u) = grad(div u) - laplacian(u), for arbitrary fields
    rng = np.random.RandomState(15)
    for _ in range(5):
        u = random_vector(PARAMS, GRID, rng)
        lhs = cf.curl(cf.curl(u))
        div = cf.divergence(u)
        grads = (div.dx(), div.dy(), div.dz())
        for i, (l, g) in enumerate(zip(lhs.components, grads)):
            r = g - u.components[i].laplacian()
            assert rel_diff(l, r) < 1e-11


def test_divergence_of_curl_vanishes():
    rng = np.random.RandomState(16)
    for _ in range(5):
        u = random_vector(PARAMS, GRID, rng)
        assert cf.divergence(cf.curl(u)).max_abs() < 1e-11 * max(1.0, u.max_abs())


def _row_scalar(rng, harmonics, degree, rows):
    """Random polynomial scalar whose profiles carry `rows` leading rows
    (none when rows is None)."""
    shape = (degree + 1,) if rows is None else (rows, degree + 1)
    draw = lambda: cf.YProfile(GRID, poly=rng.uniform(-1, 1, shape))
    return cf.HarmonicScalar(PARAMS, GRID, {j: (draw(), draw()) for j in harmonics})


@pytest.mark.parametrize("rows", [None, 4], ids=["single", "rows"])
@pytest.mark.parametrize("sampled", [False, True], ids=["poly", "sampled"])
def test_block_curl_and_divergence_match_per_component_formulas(sampled, rows):
    """curl and divergence of the stacked field equal, bit for bit, the
    per-component formulas on separately held components with their own
    harmonic counts and degrees; with rows, u1 has none and broadcasts."""
    rng = np.random.default_rng(61)
    u1 = _row_scalar(rng, (0, 1), 3, None)
    u2 = _row_scalar(rng, (1, 2, 3), 5, rows)
    u3 = _row_scalar(rng, (2,), 2, rows)
    if sampled:
        u1, u2, u3 = (c.strip_poly() for c in (u1, u2, u3))
    field = cf.WaveField(u1, u2, u3)
    got = [*cf.curl(field).components, cf.divergence(field)]
    want = [u3.dy() - u2.dz(), u1.dz() - u3.dx(), u2.dx() - u1.dy(),
            u1.dx() + u2.dy() + u3.dz()]
    for g, w in zip(got, want):
        assert (g.block.poly is None) == sampled
        a, b = g.block.values, w.block.values
        k = min(a.shape[1], b.shape[1])
        assert np.array_equal(a[:, :k], b[:, :k])
        assert not a[:, k:].any() and not b[:, k:].any()


def _gradient_fields():
    """Seeded ansatz, admissible, u2 = 0 and sampled fields, and a 65-row
    block from search.assemble."""
    rng = np.random.default_rng(62)
    spec = cf.AnsatzSpec(PARAMS)
    ansatz = cf.assemble(spec, rng.standard_normal(spec.ncoeffs), GRID)
    admissible = random_admissible(PARAMS, GRID, rng, harmonics=(0, 1, 2, 3))
    u2zero = random_u2zero(PARAMS, GRID, rng)
    return {
        "ansatz": ansatz,
        "admissible": admissible,
        "u2zero": u2zero,
        "sampled-ansatz": ansatz.strip_poly(),
        "sampled-admissible": admissible.strip_poly(),
        "block": cf.assemble(spec, rng.standard_normal((65, spec.ncoeffs)), GRID),
    }


@pytest.mark.parametrize("name", list(_gradient_fields()))
def test_divergence_and_curl_read_the_one_gradient(name):
    """divergence and curl, both read from the field's one cached gradient,
    equal bit for bit the componentwise formulas on its rows."""
    u = _gradient_fields()[name]
    assert u.gradient is u.gradient
    u1, u2, u3 = u.components
    pairs = [(cf.divergence(u), u1.dx() + u2.dy() + u3.dz())]
    want = (u3.dy() - u2.dz(), u1.dz() - u3.dx(), u2.dx() - u1.dy())
    pairs += zip(cf.curl(u).components, want)
    for got, ref in pairs:
        assert np.array_equal(got.block.data, ref.block.data)


def _cos1(coeffs):
    """The scalar coeffs(y) cos(theta)."""
    return cf.HarmonicScalar(PARAMS, GRID, {1: (prof(GRID, coeffs), cf.YProfile.zero(GRID))})


ZERO = cf.HarmonicScalar(PARAMS, GRID)


def test_l2_volume_mean_convention():
    one = cf.HarmonicScalar(PARAMS, GRID, {0: (prof(GRID, [1.0]), cf.YProfile.zero(GRID))})
    assert one.l2() == pytest.approx(1.0, abs=1e-13)
    assert _cos1([1.0]).l2() == pytest.approx(1 / np.sqrt(2), abs=1e-13)
    lin = cf.HarmonicScalar(PARAMS, GRID, {0: (prof(GRID, [0.0, 1.0]), cf.YProfile.zero(GRID))})
    assert lin.l2() == pytest.approx(1 / np.sqrt(3), abs=1e-13)


def test_field_l2_adds_in_quadrature():
    a = _cos1([1.0])
    assert cf.WaveField(a, a, ZERO).l2() == pytest.approx(1.0, abs=1e-13)


def test_admissibility_flags_wall_slip():
    out = cf.admissibility_violations(cf.WaveField(_cos1([1.0]), ZERO, ZERO))
    assert any("u1" in v and "no-slip" in v for v in out)


def test_admissibility_flags_divergence():
    # a lone generic u2 profile has nonzero divergence (and wall slip)
    out = cf.admissibility_violations(cf.WaveField(ZERO, _cos1([0.3, 1.0, 0.4]), ZERO))
    assert any("divergence-free violated" in v for v in out)


def test_admissibility_warning_band():
    rng = np.random.RandomState(18)
    u = random_admissible(PARAMS, GRID, rng)
    bump = _cos1(1e-6 * np.array([-1.0, 0.0, 1.0]))
    dirty = cf.WaveField(u.u1 + bump, u.u2, u.u3)
    with pytest.warns(UserWarning, match="divergence"):
        out = cf.admissibility_violations(dirty)
    assert out == []


def test_require_admissible_raises_with_details():
    with pytest.raises(cf.ValidationError, match="no-slip"):
        cf.require_admissible(cf.WaveField(_cos1([1.0]), ZERO, ZERO))


def test_zero_field_is_admissible():
    assert cf.admissibility_violations(cf.WaveField(ZERO, ZERO, ZERO)) == []
