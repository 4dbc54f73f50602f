"""Nonlinearity catalogue and initial-data constructors."""

import tracemalloc

import numpy as np
import pytest

import stochwave as sw
from stochwave.noise import standard_uniforms
from stochwave.problems import _DATA_STREAMS, check_initial
from stochwave.spectral import collocation_nodes, mode_indices

from helpers import bits, full_layout, random_state, zero_state


def node_value(state, x_target):
    u, _ = sw.state_to_fields(state)
    nodes = collocation_nodes(state.band)
    return u[np.argmin(np.abs(nodes - x_target))]


class TestNonlinearities:
    def test_scaled_sine_values(self):
        sigma = sw.scaled_sine(16.0)
        assert sigma(np.array([0.0]))[0] == 0.0
        assert sigma(np.array([np.pi / 2]))[0] == pytest.approx(16.0)

    @pytest.mark.parametrize("shape", [(16, 1024), (4, 128, 128)])
    def test_trig_kinds_match_direct_formula(self, shape):
        u = np.random.default_rng(0).standard_normal(shape) * 3.0
        # b = 1 takes no product, which must keep -0 and NaN as they are
        u.reshape(-1)[:3] = -0.0, np.nan, np.inf
        before = u.copy()
        with np.errstate(invalid="ignore"):
            for spec, trig in ((sw.scaled_sine(16.0, 16.0), np.sin),
                               (sw.scaled_cosine(2.5, 0.3), np.cos),
                               (sw.scaled_sine(16.0), np.sin),
                               (sw.scaled_cosine(0.5), np.cos)):
                np.testing.assert_array_equal(bits(spec(u)), bits(spec.a * trig(spec.b * u)))
                np.testing.assert_array_equal(bits(u), bits(before))

    def test_zero_kind(self):
        out = sw.zero_fn()(np.linspace(-5, 5, 11))
        assert not out.any()

    def test_constant_kind(self):
        out = sw.constant_fn(4.0)(np.zeros(3))
        np.testing.assert_array_equal(out, 4.0)

    @pytest.mark.parametrize("spec,expected_bound", [
        (sw.scaled_sine(16.0), 16.0),
        (sw.scaled_sine(2.0, 3.0), 6.0),
        (sw.scaled_cosine(5.0, 0.5), 2.5),
    ])
    def test_derivative_uniformly_bounded(self, spec, expected_bound):
        x = np.linspace(-100, 100, 400001)
        fd = np.diff(spec(x)) / np.diff(x)
        assert np.abs(fd).max() <= expected_bound * (1 + 1e-6)

    def test_higher_derivatives_bounded(self):
        spec = sw.scaled_sine(16.0, 2.0)
        x = np.linspace(-100, 100, 200001)
        h = x[1] - x[0]
        y = spec(x)
        d2 = np.diff(y, 2) / h**2
        d3 = np.diff(y, 3) / h**3
        assert np.abs(d2).max() <= 16.0 * 4.0 * (1 + 1e-4)
        assert np.abs(d3).max() <= 16.0 * 8.0 * (1 + 1e-4)

    def test_unknown_kind_raises(self):
        # refused at construction, before anything is built from it
        with pytest.raises(ValueError, match="unknown nonlinearity kind 'cubic'"):
            sw.NonlinearitySpec(kind="cubic")


def plateaus(kind, grid):
    return sw.build_initial(sw.InitialDataSpec(kind), grid)


class TestIndicator1D:
    # band 64 with alpha=1 puts 128 nodes on the torus; both plateaus cover
    # 16 whole cells, so the interpolant reproduces the plateau values at
    # the nodes exactly
    grid = sw.make_grid(1, 64, 1.0)

    def test_plateau_values_at_nodes(self):
        state = plateaus("indicator_1d", self.grid)
        assert node_value(state, 0.35) == pytest.approx(5.0, abs=1e-12)
        assert node_value(state, 0.6) == pytest.approx(2.5, abs=1e-12)
        assert node_value(state, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert node_value(state, 0.05) == pytest.approx(0.0, abs=1e-12)

    def test_mean_matches_plateau_measure(self):
        state = plateaus("indicator_1d", self.grid)
        exact = 5.0 * 0.125 + 2.5 * 0.125
        cell = 1.0 / (2 * state.band)
        assert abs(state.u_hat[0].real - exact) <= 7.5 * 2 * cell

    def test_velocity_slot_empty(self):
        state = plateaus("indicator_1d", self.grid)
        assert not state.v_hat.any()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            plateaus("indicator_1d", sw.make_grid(2, 8, 1.0))


class TestIndicator2D:
    grid = sw.make_grid(2, 8, 1.5)  # 44 nodes per axis

    def test_plateau_values_at_nodes(self):
        # the square is centred at 0.5, so it always covers an odd node
        # count per axis and keeps O(1/points) content on the dropped
        # unpaired Nyquist line; nodal values match to that order
        state = plateaus("indicator_2d", self.grid)
        u, _ = sw.state_to_fields(state)
        nodes = collocation_nodes(state.band)
        mid = np.argmin(np.abs(nodes - 0.5))
        lo = np.argmin(np.abs(nodes - 0.1))
        tol = 3.0 / (2 * state.band)
        assert u[mid, mid] == pytest.approx(0.5, abs=tol)
        assert u[lo, lo] == pytest.approx(0.0, abs=tol)

    def test_dc_coefficient_is_plateau_area(self):
        state = plateaus("indicator_2d", self.grid)
        cell = 1.0 / (2 * state.band)
        assert abs(state.u_hat[0, 0].real - 0.5 * 0.25**2) <= 0.5 * 4 * cell

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            plateaus("indicator_2d", sw.make_grid(1, 8, 1.0))


@pytest.mark.parametrize("preset,band,peak_arrays", [(1, 2**18, 4.5), (3, 512, 3.5)])
def test_indicator_build_peak(preset, band, peak_arrays):
    # the plateaus transform u alone and take v as zeros: the second build
    # in a process (the first also fills the mask caches) peaks at 4.0
    # (preset 1) and 3.0 (preset 3) full-band half arrays, measured with
    # tracemalloc, where transforming a zero v too peaked at 6.0 for both
    dim, _, problem = sw.preset_problem(preset)
    grid = sw.make_grid(dim, band, 1.0)
    sw.build_initial(problem.initial, grid)
    tracemalloc.start()
    try:
        sw.build_initial(problem.initial, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_arrays * 16 * (2 * band) ** (dim - 1) * (band + 1)


class TestRandomHGamma:
    def test_real_field_by_symmetry(self):
        # real coefficients: the k = 0 coefficient is real, so the half
        # spectrum is a real field's, and that field is even
        grid = sw.make_grid(1, 32, 1.5)
        state = sw.build_random_hgamma(grid, 0.5, seed=4)
        sw.state_to_fields(state)
        for arr in (state.u_hat, state.v_hat):
            assert arr.any()
            assert not arr.imag.any()
            field = sw.inverse(arr)
            np.testing.assert_allclose(field[-np.arange(field.size)], field,
                                       rtol=0, atol=1e-14 * np.abs(field).max())

    def test_conjugate_pairs_share_draw(self):
        # the half spectrum stores k >= 0 only; the oracle's full spectrum
        # of its field holds the same value at -k
        grid = sw.make_grid(1, 16, 1.0)
        state = sw.build_random_hgamma(grid, 0.5, seed=4)
        for arr in (state.u_hat, state.v_hat):
            full = full_layout(arr)
            for k in range(1, 16):
                assert full[-k] == pytest.approx(arr[k], rel=1e-14, abs=1e-15)

    def test_seed_reproducibility(self):
        grid = sw.make_grid(2, 8, 1.5)
        a = sw.build_random_hgamma(grid, 0.5, seed=77)
        b = sw.build_random_hgamma(grid, 0.5, seed=77)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)
        np.testing.assert_array_equal(a.v_hat, b.v_hat)

    def test_band_doubling_in_class(self):
        # partial sums of the gamma-norm converge: the data sits in its class
        gamma = 0.5
        small = sw.build_random_hgamma(sw.make_grid(1, 256, 1.0), gamma, seed=12)
        large = sw.build_random_hgamma(sw.make_grid(1, 512, 1.0), gamma, seed=12)
        ratio = sw.sobolev_norm(large, gamma) / sw.sobolev_norm(small, gamma)
        assert 1.0 <= ratio <= 1.1

    def test_band_doubling_escapes_higher_class(self):
        # one order of smoothness up, the partial sums blow up with the band
        gamma = 0.5
        small = sw.build_random_hgamma(sw.make_grid(1, 256, 1.0), gamma, seed=12)
        large = sw.build_random_hgamma(sw.make_grid(1, 512, 1.0), gamma, seed=12)
        ratio = sw.sobolev_norm(large, gamma + 1) / sw.sobolev_norm(small, gamma + 1)
        assert ratio >= 1.2

    def test_nested_band_extension(self):
        # the wide build restricted to the narrow band is the narrow build
        gamma = 0.5
        small_grid = sw.make_grid(1, 8, 1.0)
        small = sw.build_random_hgamma(small_grid, gamma, seed=3)
        large = sw.build_random_hgamma(sw.make_grid(1, 16, 1.0), gamma, seed=3)
        np.testing.assert_array_equal(sw.with_band(large, small_grid.n_high).u_hat,
                                      small.u_hat)

    def test_2d_tensor_structure(self):
        grid = sw.make_grid(2, 8, 1.0)
        state = sw.build_random_hgamma(grid, 0.5, seed=6)
        # axes carry no content (either index zero kills the product)
        assert not state.u_hat[0, :].any()
        assert not state.u_hat[:, 0].any()
        # real and even along the first axis, whose slots hold k and -k
        assert not state.u_hat.imag.any()
        np.testing.assert_array_equal(state.u_hat, state.u_hat[-np.arange(16)])

    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    def test_matches_documented_formula(self, dim):
        # mode by mode: the product over the axes j of the axis profiles,
        # u from stream 2j and v from stream 2j + 1, zero where some |k_j|
        # is 0 or above kmax
        gamma, seed = 0.5, 9
        grid = sw.make_grid(dim, 8, 1.5)
        kmax = min(grid.n_cut, grid.n_high - 1)
        assert kmax < grid.n_high - 1  # the grid has modes above kmax
        state = sw.build_random_hgamma(grid, gamma, seed)
        # the power is evaluated on the vector |k| = 1..kmax, as numpy's
        # vector pow may round differently from a scalar pow
        absk = np.arange(1, kmax + 1, dtype=np.float64)
        u_pow = absk ** (-gamma - 0.51)
        v_pow = absk ** (-gamma + 0.49)
        draws = [standard_uniforms(seed, s, kmax) for s in _DATA_STREAMS[:2 * dim]]
        # the first axes take every slot, the last one |k| = 0..n_high
        k = [np.abs(mode_indices(grid.n_high))] * (dim - 1) + [np.arange(grid.n_high + 1)]
        assert state.u_hat.shape == tuple(a.size for a in k)
        for idx in np.ndindex(state.u_hat.shape):
            u = v = 1.0
            for j, i in enumerate(idx):
                a = int(k[j][i])
                if not 1 <= a <= kmax:
                    u = v = 0.0
                    break
                u *= 0.5 * draws[2 * j][a - 1] * u_pow[a - 1]
                v *= 0.5 * draws[2 * j + 1][a - 1] * v_pow[a - 1]
            assert state.u_hat[idx] == u and state.v_hat[idx] == v, idx

    def test_build_peak(self):
        # each axis profile is built on its half axis, |k| = 0..band: a
        # second build of preset 2's data at band 2^18 peaks at 2.5 full-band
        # half arrays (the two results and one profile, tracemalloc), where
        # profiles built on the full axis peaked at 4.0
        grid = sw.make_grid(1, 512, 2.0)
        sw.build_random_hgamma(grid, 0.5, 0)
        tracemalloc.start()
        try:
            sw.build_random_hgamma(grid, 0.5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * 16 * (grid.n_high + 1)

    def test_rejects_nonpositive_gamma(self):
        # and a non-finite one: check_initial's rule, for the builder and
        # for a config alike
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be finite and positive"):
                check_initial(sw.InitialDataSpec("random_hgamma", gamma=gamma), 1)
            with pytest.raises(ValueError, match="gamma must be finite and positive"):
                sw.build_random_hgamma(sw.make_grid(1, 8, 1.0), gamma, seed=0)


class TestSpecsAndPresets:
    def test_build_initial_dispatch(self):
        grid = sw.make_grid(1, 64, 1.0)
        state = sw.build_initial(sw.InitialDataSpec("indicator_1d"), grid)
        assert state.band == 64
        explicit = sw.build_initial(sw.InitialDataSpec("explicit", state=state), grid)
        assert explicit is state
        with pytest.raises(ValueError):
            sw.build_initial(sw.InitialDataSpec("explicit"), grid)
        with pytest.raises(ValueError, match="2-dimensional"):
            sw.build_initial(sw.InitialDataSpec("explicit", state=zero_state(2, 4)), grid)
        with pytest.raises(ValueError):
            sw.build_initial(sw.InitialDataSpec("mystery"), grid)

    @pytest.mark.parametrize("band", [8, 200])
    def test_explicit_state_handed_out_at_the_full_band(self, band):
        # re-stored at the grid's band 64, padded or truncated
        grid = sw.make_grid(1, 8, 2.0)
        state = random_state(grid, band=band)
        got = sw.build_initial(sw.InitialDataSpec("explicit", state=state), grid)
        want = sw.with_band(state, 64)
        assert got.band == 64
        np.testing.assert_array_equal(got.u_hat, want.u_hat)
        np.testing.assert_array_equal(got.v_hat, want.v_hat)

    def test_explicit_from_snapshot(self, tmp_path):
        grid = sw.make_grid(1, 64, 1.0)
        state = plateaus("indicator_1d", grid)
        path = tmp_path / "init.swv"
        sw.save_snapshot(path, state, 0.0)
        dim, points, _, u, v = sw.load_snapshot(path)
        assert (dim, points) == (1, 128)
        reloaded = sw.state_from_fields(u, v)
        np.testing.assert_allclose(reloaded.u_hat, state.u_hat, atol=1e-14)

    @pytest.mark.parametrize("preset,dim,alpha", [(1, 1, 2.0), (2, 1, 2.0),
                                                  (3, 2, 1.5), (4, 2, 1.5)])
    def test_presets(self, preset, dim, alpha):
        got_dim, got_alpha, problem = sw.preset_problem(preset, gamma=0.5, seed=1)
        assert (got_dim, got_alpha) == (dim, alpha)
        assert problem.sigma.kind == "scaled_sine" and problem.sigma.a == 16.0
        assert problem.f.is_zero

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            sw.preset_problem(9)
