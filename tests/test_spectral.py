"""Transforms, masks, norms and band changes."""

import functools
import itertools
import math

import numpy as np
import pytest

import stochwave as sw
from stochwave.spectral import (
    _keep_shells,
    check_hermitian,
    collocation_nodes,
    lambda_sq,
    mode_indices,
)

from helpers import band_mask, bits, full_layout, masked, random_state, shell_index, zero_state


def modes(slot, band):
    """The frequencies (k_1, ..., k_d) of a slot of a band-m half spectrum."""
    return [int(mode_indices(band)[i]) for i in slot[:-1]] + [slot[-1]]


class TestMakeGrid:
    def test_scaling_exponent_two(self):
        grid = sw.make_grid(1, 1024, 2)
        assert grid.n_high == 1048576

    def test_identity_exponent(self):
        grid = sw.make_grid(1, 8, 1)
        assert grid.n_high == 8
        assert 2 * grid.n_high == 16

    def test_fractional_exponent_2d(self):
        # independent integer route: floor(128^1.5) = floor(sqrt(128^3))
        expected = math.isqrt(128**3)
        grid = sw.make_grid(2, 128, 1.5)
        assert grid.n_high == expected == 1448

    @pytest.mark.parametrize("args", [(3, 8, 1.0), (0, 8, 1.0), (1, 8, 0.5), (1, 0, 1.0)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            sw.make_grid(*args)


class TestTransforms:
    def test_constant_field_is_dc_mode(self):
        samples = np.full(16, 3.25)
        coeffs = sw.forward(samples)
        assert coeffs[0] == pytest.approx(3.25, abs=1e-14)
        assert np.abs(coeffs[1:]).max() < 1e-14

    def test_single_harmonic(self):
        # cos(2 pi x) = (e^(2i pi x) + e^(-2i pi x)) / 2: the half spectrum
        # holds the k = 1 coefficient, its partner at -1 is not stored
        x = collocation_nodes(8)
        coeffs = sw.forward(np.cos(2 * np.pi * x))
        assert coeffs.shape == (9,)
        assert coeffs[1] == pytest.approx(0.5, abs=1e-14)
        rest = coeffs.copy()
        rest[1] = 0
        assert np.abs(rest).max() < 1e-14

    @pytest.mark.parametrize("dim,band", [(1, 8), (1, 64), (2, 8), (2, 16)])
    def test_round_trip(self, dim, band):
        rng = np.random.default_rng(42 + band + dim)
        samples = rng.standard_normal((2 * band,) * dim)
        back = sw.inverse(sw.forward(samples))
        rel = np.abs(back - samples).max() / np.abs(samples).max()
        assert rel < 1e-12

    def test_parseval(self):
        # the half spectrum holds k_last in [0, 16]: the slots 0 and 16
        # (the Nyquist alias) are their own partners, every other slot
        # stands for itself and its conjugate at -k
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((32, 32))
        coeffs = sw.forward(samples)
        assert coeffs.shape == (32, 17)
        weight = np.full(17, 2.0)
        weight[[0, 16]] = 1.0
        lhs = np.sum(samples**2) / samples.size
        rhs = np.sum(weight * np.abs(coeffs) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sw.forward(np.zeros(15))
        with pytest.raises(ValueError):
            sw.forward(np.zeros((16, 8)))

    def test_inverse_through_scratch_keeps_the_bits(self):
        # a 2D block whose first axis passes through the scratch: the
        # samples are those of the fresh-array path, bit for bit, and the
        # half spectrum is not written
        half = sw.forward(np.random.default_rng(5).standard_normal((3, 16, 16)), dim=2)
        keep = half.copy()
        got = sw.inverse(half, 2, work=np.empty_like(half))
        np.testing.assert_array_equal(bits(got), bits(sw.inverse(half, 2)))
        np.testing.assert_array_equal(bits(half), bits(keep))

    @pytest.mark.parametrize("shape", [(1,), (6, 3), (8, 4, 5)])
    def test_inverse_needs_a_half_spectrum(self, shape):
        with pytest.raises(ValueError, match="not a half spectrum"):
            sw.inverse(np.zeros(shape, dtype=np.complex128))

    @pytest.mark.parametrize("u_shape,v_shape", [((8,), (4,)), ((8, 8), (8,)),
                                                 ((4, 4, 4), (4, 4, 4))])
    def test_state_from_fields_needs_matching_fields_of_a_supported_rank(self, u_shape, v_shape):
        with pytest.raises(ValueError, match="matching arrays"):
            sw.state_from_fields(np.zeros(u_shape), np.zeros(v_shape))

    def test_state_from_fields_is_hermitian(self):
        # the slots k_last in [0, m] of the fields' full spectrum, unpaired
        # slots zeroed; the k_last = 0 plane is Hermitian to rounding
        grid = sw.make_grid(2, 8, 1.5)
        n = grid.n_high
        rng = np.random.default_rng(3)
        u, v = (rng.standard_normal((2 * n, 2 * n)) for _ in range(2))
        state = sw.state_from_fields(u, v)
        assert state.u_hat.shape == (2 * n, n + 1)
        for field, arr in ((u, state.u_hat), (v, state.v_hat)):
            full = np.fft.fftn(field, norm="forward")
            np.testing.assert_allclose(arr, full[:, :n + 1] * band_mask(2, n, n),
                                       rtol=0, atol=1e-14 * np.abs(full).max())
            plane = arr[:, 0]
            resid = np.abs(plane - np.conj(plane[-np.arange(2 * n)])).max()
            assert resid < 1e-15 * np.abs(arr).max()
        check_hermitian(state)

    def test_non_hermitian_state_refused(self):
        # the one constraint of a half spectrum is its k_last = 0 plane: a
        # 1D k = 0 coefficient must be real, and in 2D u(1, 0) must be
        # conj u(-1, 0); any value above k_last = 0 is a real field's
        for dim, slot in ((1, (0,)), (2, (1, 0))):
            state = random_state(sw.make_grid(dim, 8, 1.0))
            bad = state.u_hat.copy()
            bad[slot] += 0.5j
            with pytest.raises(ValueError, match="not Hermitian"):
                sw.state_to_fields(sw.SpectralState(bad, state.v_hat))
            with pytest.raises(ValueError, match="not Hermitian"):
                sw.state_to_fields(sw.SpectralState(state.u_hat, bad))
            sw.state_to_fields(state)
            fine = state.u_hat.copy()
            fine[(0,) * (dim - 1) + (1,)] += 0.5j
            sw.state_to_fields(sw.SpectralState(fine, state.v_hat))


def kept(state, lo, hi):
    """A copy of ``state`` with the slots outside the shells lo <= max_j
    |k_j| < hi zeroed by ``_keep_shells``."""
    return sw.SpectralState(*(_keep_shells(a.copy(), state.dim, lo, hi)
                              for a in (state.u_hat, state.v_hat)))


class TestProjections:
    """A box truncation, or a band of shells, is ``_keep_shells``."""

    def test_full_band_projection_is_identity(self):
        grid = sw.make_grid(1, 8, 1.5)
        state = random_state(grid)
        out = kept(state, 0, state.band)
        np.testing.assert_array_equal(bits(out.u_hat), bits(state.u_hat))
        np.testing.assert_array_equal(bits(out.v_hat), bits(state.v_hat))
        # but the unpaired Nyquist slot never survives the box of the band
        u = state.u_hat.copy()
        u[state.band] = 1.0
        out = kept(sw.SpectralState(u, state.v_hat), 0, state.band)
        assert out.u_hat[state.band] == 0
        np.testing.assert_array_equal(out.u_hat[:-1], u[:-1])

    def test_idempotent(self):
        grid = sw.make_grid(1, 16, 1.0)
        once = kept(random_state(grid), 0, 6)
        twice = kept(once, 0, 6)
        np.testing.assert_array_equal(bits(once.u_hat), bits(twice.u_hat))

    def test_mode_survival(self):
        grid = sw.make_grid(1, 16, 1.0)
        state = zero_state(grid.dim, grid.n_high)
        assert state.u_hat.shape == (17,)
        u = state.u_hat.copy()
        for k in (0, 3, 9):
            u[k] = 1.0
        out = kept(sw.SpectralState(u, state.v_hat), 0, 5)
        # oracle: direct enumeration over every mode
        for k in range(17):
            expect = 1.0 if k in (0, 3) else 0.0
            assert out.u_hat[k] == expect

    def test_band_selects_annulus(self):
        u = np.zeros(17, dtype=np.complex128)
        for k in (0, 3, 9):
            u[k] = 1.0
        out = kept(sw.SpectralState(u, np.zeros_like(u)), 4, 10)
        for k in range(17):
            expect = 1.0 if k == 9 else 0.0
            assert out.u_hat[k] == expect

    def test_partition_of_unity(self):
        grid = sw.make_grid(1, 8, 2.0)
        state = random_state(grid)
        total = sum(kept(state, lo, hi).u_hat
                    for lo, hi in ((0, 4), (4, 21), (21, grid.n_high)))
        np.testing.assert_array_equal(total, state.u_hat)

    def test_band_of_everything_drops_dc(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = kept(state, 1, 8)
        expect = state.u_hat.copy()
        expect[0] = 0
        np.testing.assert_array_equal(out.u_hat, expect)

    def test_cut_outside_the_band_rejected(self):
        # the truncation of a nonlinear image takes a cut in [0, band]
        for dim, cut in itertools.product((1, 2), (-1, 9)):
            state = random_state(sw.make_grid(dim, 8, 1.0))
            with pytest.raises(ValueError, match=rf"cut {cut} outside \[0, 8\]"):
                sw.pseudospectral_apply(np.sin, state.u_hat, cut)

    def test_projection_composition(self):
        grid = sw.make_grid(2, 8, 1.0)
        state = random_state(grid, seed=11)
        a = kept(kept(state, 0, 7), 0, 4)
        b = kept(state, 0, 4)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)
        c = kept(state, 3, 7)
        d = kept(state, 0, 3)
        np.testing.assert_array_equal(c.u_hat + d.u_hat, kept(state, 0, 7).u_hat)


class TestSobolevNorm:
    def test_single_mode_multiplier(self):
        u = np.zeros(9, dtype=np.complex128)
        u[1] = 1.0  # exp(2 pi i x) + exp(-2 pi i x): the slot stands for both
        state = sw.SpectralState(u, np.zeros_like(u))
        assert sw.sobolev_norm(state, 1.0) == pytest.approx(
            math.sqrt(2 * (1 + 4 * math.pi**2)), rel=1e-13)

    def test_constant_velocity(self):
        v = np.zeros(16, dtype=np.complex128)
        v[0] = -2.5
        state = sw.SpectralState(np.zeros_like(v), v)
        for gamma in (-1.0, 0.0, 0.5, 2.0):
            assert sw.sobolev_norm(state, gamma) == pytest.approx(2.5, rel=1e-13)

    def test_matches_independent_mode_loop(self):
        # every mode of the oracle's full spectrum, k and -k alike, in 1D and 2D
        for dim in (1, 2):
            grid = sw.make_grid(dim, 6, 1.5)
            state = random_state(grid, seed=5)
            full_u, full_v = full_layout(state.u_hat), full_layout(state.v_hat)
            idx = mode_indices(state.band)
            acc = 0.0
            for slot in np.ndindex(full_u.shape):
                lam2 = (2 * np.pi) ** 2 * sum(float(idx[i]) ** 2 for i in slot)
                acc += abs(full_u[slot]) ** 2 * (1 + lam2) ** 0.5
                acc += abs(full_v[slot]) ** 2 * (1 + lam2) ** -0.5
            assert sw.sobolev_norm(state, 0.5) == pytest.approx(math.sqrt(acc), rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    def test_padded_difference_matches_full_layout(self, dim):
        # states at bands 5 and 8, compared as the norm of their difference
        # once both are stored at band 8: the oracle pads the narrow one's
        # full spectrum to the wide box by frequency and sums over every
        # mode, so a half-spectrum slot above k_last = 0 must count twice
        def distance(x, y):
            x, y = sw.with_band(x, 8), sw.with_band(y, 8)
            return sw.sobolev_norm(sw.SpectralState(x.u_hat - y.u_hat, x.v_hat - y.v_hat), 0.5)

        rng = np.random.default_rng(50 + dim)
        a, b = (sw.state_from_fields(rng.standard_normal((2 * n,) * dim),
                                     rng.standard_normal((2 * n,) * dim)) for n in (5, 8))
        keep = np.ix_(*[np.arange(-4, 5)] * dim)
        k = np.fft.fftfreq(16, 1 / 16)
        lam2 = (2 * np.pi) ** 2 * sum(np.meshgrid(*[k * k] * dim, indexing="ij"))
        acc = 0.0
        for gamma_shift, ha, hb in ((0.0, a.u_hat, b.u_hat), (-1.0, a.v_hat, b.v_hat)):
            diff = -full_layout(hb)
            diff[keep] += full_layout(ha)[keep]
            acc += np.sum(np.abs(diff) ** 2 * (1 + lam2) ** (0.5 + gamma_shift))
        assert distance(a, b) == pytest.approx(math.sqrt(acc), rel=1e-12)
        assert distance(b, a) == pytest.approx(math.sqrt(acc), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_bernstein_multiplier_bound(self, gamma):
        grid = sw.make_grid(2, 16, 1.0)
        m = 5
        state = masked(random_state(grid, seed=int(gamma * 10) + 1), band_mask(2, grid.n_high, m))
        bound = (1 + 4 * np.pi**2 * grid.dim * m**2) ** (gamma / 2)
        assert sw.sobolev_norm(state, gamma) <= bound * sw.sobolev_norm(state, 0.0) * (1 + 1e-12)


class TestPseudospectral:
    @staticmethod
    def apply(fn, state, cut):
        return sw.pseudospectral_apply(fn, state.u_hat, cut)

    def test_identity_reproduces_band_limited(self):
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid)
        out = self.apply(lambda u: u, state, 7)
        np.testing.assert_allclose(out, state.u_hat * band_mask(1, state.band, 7), atol=1e-13)

    def test_constant_maps_to_dc(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = self.apply(lambda u: np.full_like(u, 4.0), state, 8)
        assert out[0] == pytest.approx(4.0, abs=1e-13)
        assert np.abs(out[1:]).max() < 1e-13

    def test_square_of_cosine(self):
        # cos^2(2 pi x) = 1/2 + cos(4 pi x)/2, exactly representable at band 8
        x = collocation_nodes(8)
        state = sw.state_from_fields(np.cos(2 * np.pi * x), np.zeros(16))
        out = self.apply(lambda u: u * u, state, 8)
        expect = np.zeros(9, dtype=np.complex128)
        expect[0] = 0.5
        expect[2] = 0.25
        np.testing.assert_allclose(out, expect, atol=1e-14)

    def test_cut_above_the_band_rejected(self):
        state = random_state(sw.make_grid(1, 4, 1.0))
        with pytest.raises(ValueError, match=r"cut 5 outside \[0, 4\]"):
            self.apply(np.sin, state, 5)

    def test_non_finite_sample_gives_non_finite_image(self):
        # finiteness is the stepper's concern: a NaN sample leaves its own
        # field's image non-finite, alone or as one row of a block, raises
        # nothing, and the other rows keep their own images bit for bit
        grid = sw.make_grid(1, 8, 1.0)
        states = [random_state(grid, seed=s) for s in range(4)]

        def nan_in_last_row(u):
            out = np.sin(u)
            out[(-1,) * (out.ndim - 1) + (0,)] = np.nan
            return out

        assert not np.isfinite(self.apply(nan_in_last_row, states[0], 8)).all()
        block = np.stack([s.u_hat for s in states])
        out = sw.pseudospectral_apply(nan_in_last_row, block, 8, dim=1)
        assert not np.isfinite(out[-1]).all()
        for row, state in enumerate(states[:-1]):
            np.testing.assert_array_equal(out[row], self.apply(np.sin, state, 8))


class TestBandChanges:
    def test_embed_same_grid_is_identity(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = sw.with_band(state, grid.n_high)
        np.testing.assert_array_equal(out.u_hat, state.u_hat)

    def test_restrict_left_inverse_of_embed(self):
        coarse = sw.make_grid(1, 8, 1.0)
        fine = sw.make_grid(1, 8, 2.0)
        state = random_state(coarse)
        back = sw.with_band(sw.with_band(state, fine.n_high), coarse.n_high)
        np.testing.assert_array_equal(back.u_hat, state.u_hat)
        np.testing.assert_array_equal(back.v_hat, state.v_hat)

    def test_embed_2d_round_trip(self):
        coarse = sw.make_grid(2, 4, 1.0)
        fine = sw.make_grid(2, 4, 2.0)
        state = random_state(coarse)
        back = sw.with_band(sw.with_band(state, fine.n_high), coarse.n_high)
        np.testing.assert_array_equal(back.u_hat, state.u_hat)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5])
    def test_norm_preserved_by_embedding(self, gamma):
        coarse = sw.make_grid(2, 6, 1.0)
        fine = sw.make_grid(2, 6, 1.7)
        state = random_state(coarse)
        assert sw.sobolev_norm(sw.with_band(state, fine.n_high), gamma) == pytest.approx(
            sw.sobolev_norm(state, gamma), rel=1e-12)

    @pytest.mark.parametrize("dim,old,new", [(1, 4, 9), (1, 9, 4), (1, 8, 7),
                                             (2, 3, 6), (2, 6, 3), (2, 5, 4)])
    def test_every_mode_lands_in_its_slot(self, dim, old, new):
        # oracle, mode by mode: k moves from its slot at the old band to its
        # slot at the new one when every |k_j| <= new - 1; all else is zero
        rng = np.random.default_rng(100 * dim + 10 * old + new)
        shape = (2 * old,) * (dim - 1) + (old + 1,)
        u, v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(2))
        out = sw.with_band(sw.SpectralState(u, v), new)
        slot = {int(k): i for i, k in enumerate(mode_indices(new))}
        for given, got in ((u, out.u_hat), (v, out.v_hat)):
            expect = np.zeros((2 * new,) * (dim - 1) + (new + 1,), dtype=np.complex128)
            for idx in np.ndindex(*shape):
                ks = modes(idx, old)
                if all(abs(k) <= new - 1 for k in ks):
                    expect[tuple(slot[k] for k in ks[:-1]) + (ks[-1],)] = given[idx]
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("dim,old,new", [(1, 8, 13), (1, 13, 8), (2, 6, 9), (2, 9, 6)])
    def test_matches_full_layout_oracle(self, dim, old, new):
        # padding and truncation of a real field's spectrum: the oracle's
        # full spectrum keeps every mode with all |k_j| <= min(old, new) - 1
        # and is zero elsewhere in the new box
        rng = np.random.default_rng(200 * dim + 10 * old + new)
        state = sw.state_from_fields(*(rng.standard_normal((2 * old,) * dim) for _ in range(2)))
        out = sw.with_band(state, new)
        keep = np.ix_(*[np.arange(1 - min(old, new), min(old, new))] * dim)
        for given, got in ((state.u_hat, out.u_hat), (state.v_hat, out.v_hat)):
            expect = np.zeros((2 * new,) * dim, dtype=np.complex128)
            expect[keep] = full_layout(given)[keep]
            np.testing.assert_allclose(full_layout(got), expect, rtol=0,
                                       atol=1e-14 * np.abs(expect).max())

    @pytest.mark.parametrize("dim,old,new", [(1, 4, 9), (1, 9, 4), (2, 3, 6), (2, 6, 3)])
    def test_block_rows_restored_alone(self, dim, old, new):
        # with a leading row axis, each row equals that row re-stored alone
        rng = np.random.default_rng(100 * dim + 10 * old + new)
        shape = (3,) + (2 * old,) * (dim - 1) + (old + 1,)
        u, v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(2))
        out = sw.with_band(sw.SpectralState(u, v), new, dim)
        assert out.band == new
        for row in range(3):
            alone = sw.with_band(sw.SpectralState(u[row], v[row]), new)
            np.testing.assert_array_equal(out.u_hat[row], alone.u_hat)
            np.testing.assert_array_equal(out.v_hat[row], alone.v_hat)

    def test_dimension_mismatch_rejected(self):
        # a state meets a grid of another dimension only as a run's initial data
        state = random_state(sw.make_grid(1, 8, 1.0))
        problem = sw.ProblemSpec(sw.zero_fn(), sw.zero_fn(),
                                 sw.InitialDataSpec("explicit", state=state))
        with pytest.raises(ValueError, match="dimension"):
            sw.run(sw.method_spec("stm", 0.25, 0.25), sw.make_grid(2, 8, 2.0),
                   problem, sw.sample_path(0, 0, 0.25, 0.25))

    def test_hermitian_preserved_through_pipeline(self):
        grid = sw.make_grid(1, 16, 1.5)
        state = random_state(grid)
        out = masked(state, band_mask(1, state.band, 14) & ~band_mask(1, state.band, 2))
        out = sw.with_band(out, 16)
        assert out.u_hat.any()
        # the one constraint, the real k = 0 coefficient, is kept bit for bit
        assert state.u_hat[0].imag == 0 and state.v_hat[0].imag == 0
        assert out.u_hat[0].imag == 0 and out.v_hat[0].imag == 0
        check_hermitian(out)


class TestSnapshotFormat:
    def test_round_trip_bits(self, tmp_path):
        grid = sw.make_grid(2, 4, 1.5)
        state = random_state(grid, seed=9)
        path = tmp_path / "state.swv"
        written = sw.save_snapshot(path, state, 0.125)
        dim, points, t, u, v = sw.load_snapshot(path)
        assert (dim, points, t) == (2, 2 * grid.n_high, 0.125)
        u0, v0 = sw.state_to_fields(state)
        np.testing.assert_array_equal(u, u0)
        np.testing.assert_array_equal(v, v0)
        # the samples handed back are the ones written
        np.testing.assert_array_equal(written[0], u)
        np.testing.assert_array_equal(written[1], v)

    def test_header_layout(self, tmp_path):
        grid = sw.make_grid(1, 4, 1.0)
        state = random_state(grid)
        path = tmp_path / "state.swv"
        sw.save_snapshot(path, state, 1.0)
        blob = path.read_bytes()
        assert blob[:4] == b"SWV1"
        assert len(blob) == 4 + 4 + 4 + 8 + 2 * 8 * 2 * grid.n_high

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.swv"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError):
            sw.load_snapshot(path)


def test_nyquist_slot_stays_empty():
    """Band changes keep the unpaired slot at zero."""
    grid = sw.make_grid(1, 8, 1.0)
    state = random_state(grid)
    assert state.u_hat[8] == 0
    fine = sw.with_band(state, 64)
    assert fine.u_hat[16] == 0 and fine.u_hat[64] == 0
    assert sw.with_band(fine, 8).u_hat[8] == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_lambda_grid_matches_definition(dim):
    lam2 = lambda_sq(dim, 8)
    assert lam2.shape == (16,) * (dim - 1) + (9,)
    for slot in np.ndindex(lam2.shape):
        expect = (2 * np.pi) ** 2 * sum(float(k) ** 2 for k in modes(slot, 8))
        assert lam2[slot] == expect, slot


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cut", [0, 3, 6])
def test_band_mask_matches_definition(dim, cut):
    # the tests' oracle, and the box the package cuts for it
    mask = band_mask(dim, 6, cut)
    assert mask.shape == (12,) * (dim - 1) + (7,)
    for slot in np.ndindex(mask.shape):
        # the unpaired slots hold -6 on the first axes and +6 on the last
        expect = all(abs(k) <= cut and abs(k) != 6 for k in modes(slot, 6))
        assert mask[slot] == expect, slot
    box = _keep_shells(np.ones(mask.shape, dtype=bool), dim, 0, min(cut + 1, 6))
    np.testing.assert_array_equal(box, mask)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("band", [1, 2, 3, 8])
def test_keep_shells_matches_the_oracle(dim, band):
    # every 0 <= lo <= hi <= band + 1, on a block with two leading axes: the
    # slots outside lo <= max_j |k_j| < hi read +0 and every other keeps its
    # bits, a planted -0 - 1j among them
    shell = shell_index(dim, band)
    rng = np.random.default_rng(band)
    block = (rng.standard_normal((2, 3) + shell.shape)
             + 1j * rng.standard_normal((2, 3) + shell.shape))
    block[(1, 2) + (0,) * dim] = complex(-0.0, -1.0)
    for lo in range(band + 2):
        for hi in range(lo, band + 2):
            inside = (lo <= shell) & (shell < hi)
            got = _keep_shells(block.copy(), dim, lo, hi)
            expect = np.where(inside, block, 0)
            np.testing.assert_array_equal(bits(got), bits(expect), err_msg=f"{lo}, {hi}")
            if inside.flat[0]:
                assert math.copysign(1.0, got[(1, 2) + (0,) * dim].real) == -1.0
