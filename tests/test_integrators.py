"""Time steppers, the run driver, and the zero-mode oracle of the tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import stochwave as sw
from stochwave.integrators import recovered_modes, stepping_key
from stochwave.semigroup import propagator_tables
from stochwave.spectral import band_mask, half_shape

from helpers import (
    bits,
    exact_linear_zero_mode,
    flow,
    full_layout,
    linear_exact_discrepancy,
    masked,
    random_state,
    reference_step,
    zero_state,
)


def explicit_problem(state, f=None, sigma=None):
    return sw.ProblemSpec(f or sw.zero_fn(), sigma or sw.zero_fn(),
                          sw.InitialDataSpec("explicit", state=state))


def step(kind, state, tau, dw, f, sigma, cut=None):
    """One step of scheme ``kind`` at the state's band, as one row of
    ``run_block``; a given ``cut`` must be the filter cut that
    ``stepping_key`` takes at tau."""
    spec = sw.method_spec(kind, tau, tau)
    if cut is not None:
        assert stepping_key(spec, state.band)[2] == cut
    block, = sw.run_block([spec], state, f, sigma, np.array([[dw]]))
    assert not block.failed
    return sw.SpectralState(block.u_hat[0], block.v_hat[0])


# ---------------------------------------------------------------------------
# brute-force transcription of one exponential step, built from independent
# per-mode loops and an O(n^2) DFT; no shared code with the implementation


def dft_oracle(samples):
    n = samples.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += samples[j] * np.exp(-2j * np.pi * k * j / n)
        out[k] = acc / n
    return out


def idft_oracle(coeffs):
    n = coeffs.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            acc += coeffs[k] * np.exp(2j * np.pi * k * j / n)
        out[j] = acc
    return out


def lri_step_oracle(u_hat, v_hat, tau, dw, sigma, cut):
    """One filtered exponential step, every mode handled by its own 2x2."""
    n = u_hat.shape[0]
    band = n // 2
    freqs = [(k if k < band else k - n) for k in range(n)]
    keep = np.array([abs(k) <= cut and k != -band for k in freqs])
    u_f = np.where(keep, u_hat, 0)
    z_hat = dft_oracle(sigma(idft_oracle(u_f).real)) * keep
    out_u = np.zeros(n, dtype=np.complex128)
    out_v = np.zeros(n, dtype=np.complex128)
    for i, k in enumerate(freqs):
        lam = 2 * np.pi * abs(k)
        if lam == 0:
            mat = np.array([[1.0, tau], [0.0, 1.0]])
        else:
            mat = np.array([[np.cos(lam * tau), np.sin(lam * tau) / lam],
                            [-lam * np.sin(lam * tau), np.cos(lam * tau)]])
        vec = mat @ np.array([u_hat[i], v_hat[i] + dw * z_hat[i]])
        out_u[i], out_v[i] = vec
    return out_u, out_v


def full_step_oracle(kind, state, tau, dw, f, sigma, cut):
    """One 2D step in the full layout: np.fft.ifft2/fft2 on the whole mode
    box, the mask from its own frequency grid, and the per-mode 2x2 from
    propagator_tables (the explicit resolvent for sem).  Returns the new
    full-layout (u, v)."""
    u_hat, v_hat = full_layout(state.u_hat), full_layout(state.v_hat)
    n = 2 * state.band
    k = np.fft.fftfreq(n, 1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    top = min(cut, state.band - 1)
    keep = (np.abs(kx) <= top) & (np.abs(ky) <= top)
    field = np.fft.ifft2(u_hat * keep).real * n * n

    def image(g):
        return np.fft.fft2(g(field)) / (n * n) * keep

    w = v_hat + tau * image(f) + dw * image(sigma)
    lam2 = (2 * np.pi) ** 2 * (kx * kx + ky * ky)
    if kind == "sem":
        det = 1.0 + tau * tau * lam2
        a11, a12, a21, a22 = 1.0 / det, tau / det, -tau * lam2 / det, 1.0 / det
    else:
        a11, a12, a21, a22 = propagator_tables(np.sqrt(lam2), tau)
    return a11 * u_hat + a12 * w, a21 * u_hat + a22 * w


class TestStep2D:
    @pytest.mark.parametrize("kind,cut", [("hr_lri", 8), ("lri", 8), ("stm", 8),
                                          ("sem", 8), ("lri", 5)])
    def test_matches_full_layout_transcription(self, kind, cut):
        grid = sw.make_grid(2, 8, 1.0)
        state = random_state(grid, seed=40)
        # lri filters at min(floor(1/tau), 8): tau = 1/5 cuts at 5
        tau, dw = (1 / 32 if cut == 8 else 1 / cut), 0.37
        f, sigma = sw.scaled_cosine(3.0), sw.scaled_sine(16.0)
        out = step(kind, state, tau, dw, f, sigma, cut)
        ou, ov = full_step_oracle(kind, state, tau, dw, f, sigma, cut)
        for got, want in ((out.u_hat, ou[:, :9]), (out.v_hat, ov[:, :9])):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


class TestStepLRI:
    def test_degenerates_to_group_without_terms(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = step("lri", state, 0.1, 0.7, sw.zero_fn(), sw.zero_fn(), 8)
        ref = flow(state, 0.1)
        np.testing.assert_array_equal(out.u_hat, ref.u_hat)

    def test_zero_increment_zero_forcing_is_linear(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = step("lri", state, 0.1, 0.0, sw.zero_fn(), sw.scaled_sine(16.0), 8)
        ref = flow(state, 0.1)
        np.testing.assert_array_equal(out.u_hat, ref.u_hat)
        np.testing.assert_array_equal(out.v_hat, ref.v_hat)

    def test_matches_brute_force_transcription(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid, seed=3)
        tau, dw, cut = 1 / 6, 0.41, 6
        out = step("lri", state, tau, dw, sw.zero_fn(), sw.scaled_sine(1.0), cut)
        u_hat, v_hat = full_layout(state.u_hat), full_layout(state.v_hat)
        ou, ov = lri_step_oracle(u_hat, v_hat, tau, dw, np.sin, cut)
        scale = max(np.abs(ou).max(), np.abs(ov).max())
        assert np.abs(out.u_hat - ou[:9]).max() < 1e-12 * scale
        assert np.abs(out.v_hat - ov[:9]).max() < 1e-12 * scale

    def test_matches_brute_force_with_forcing(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid, seed=5)
        tau, dw, cut = 1 / 16, -0.8, 8
        f = sw.scaled_cosine(2.0)
        out = step("lri", state, tau, dw, f, sw.scaled_sine(1.0), cut)
        # fold the deterministic forcing into the oracle's diffusion slot:
        # tau*g + dw*z with two separate oracle passes
        u_hat, v_hat = full_layout(state.u_hat), full_layout(state.v_hat)
        ou1, ov1 = lri_step_oracle(u_hat, v_hat, tau, dw, np.sin, cut)
        zero_u = np.zeros_like(u_hat)
        gu, gv = lri_step_oracle(u_hat, zero_u, tau, tau,
                                 lambda s: 2.0 * np.cos(s), cut)
        # remove the duplicated linear flow of (u_hat, 0)
        lin_u, lin_v = lri_step_oracle(u_hat, zero_u, tau, 0.0, np.sin, cut)
        ou = ou1 + (gu - lin_u)
        ov = ov1 + (gv - lin_v)
        scale = max(np.abs(ou).max(), np.abs(ov).max())
        assert np.abs(out.u_hat - ou[:9]).max() < 1e-12 * scale
        assert np.abs(out.v_hat - ov[:9]).max() < 1e-12 * scale

    def test_prefiltered_input_unchanged(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        pre = masked(state, band_mask(1, state.band, grid.n_cut))
        a = step("lri", state, 0.1, 0.3, sw.zero_fn(), sw.scaled_sine(4.0), 8)
        b = step("lri", pre, 0.1, 0.3, sw.zero_fn(), sw.scaled_sine(4.0), 8)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)


class TestStepHRLRI:
    def test_zero_state_fixed_point(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = zero_state(grid.dim, 8)
        out = step("hr_lri", state, 0.1, 1.3, sw.zero_fn(), sw.scaled_sine(16.0))
        assert not out.u_hat.any() and not out.v_hat.any()

    def test_pure_rotation_without_terms(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = step("hr_lri", state, 0.25, 0.9, sw.zero_fn(), sw.zero_fn())
        ref = flow(state, 0.25)
        np.testing.assert_array_equal(out.u_hat, ref.u_hat)


class TestRecoverHigh:
    def test_zero_time_identity(self):
        grid = sw.make_grid(1, 4, 2.0)
        band = masked(random_state(grid), band_mask(1, 16, 16) & ~band_mask(1, 16, 4))
        out = sw.recover_high(band, 0.0)
        np.testing.assert_allclose(out.u_hat, band.u_hat, atol=1e-15)

    def test_energy_conserved(self):
        grid = sw.make_grid(1, 4, 2.0)
        band = masked(random_state(grid, seed=3), band_mask(1, 16, 16) & ~band_mask(1, 16, 4))
        out = sw.recover_high(band, 0.37)
        lam2 = (2 * np.pi * np.arange(17)) ** 2
        e0 = np.abs(band.v_hat) ** 2 + lam2 * np.abs(band.u_hat) ** 2
        e1 = np.abs(out.v_hat) ** 2 + lam2 * np.abs(out.u_hat) ** 2
        np.testing.assert_allclose(e1, e0, rtol=1e-12, atol=1e-20)

    def test_matches_composed_steps(self):
        grid = sw.make_grid(1, 4, 2.0)
        band = masked(random_state(grid, seed=4), band_mask(1, 16, 16) & ~band_mask(1, 16, 4))
        tau, n = 1 / 64, 48
        stepped = band
        for _ in range(n):
            stepped = flow(stepped, tau)
        direct = sw.recover_high(band, n * tau)
        scale = max(np.abs(direct.u_hat).max(), 1e-12)
        assert np.abs(stepped.u_hat - direct.u_hat).max() < 1e-11 * max(scale, 1)


class TestStepSEM:
    def test_zero_mode_semi_implicit(self):
        u = np.zeros(8, dtype=np.complex128)
        v = np.zeros(8, dtype=np.complex128)
        u[0], v[0] = 1.0, 2.0
        tau, dw = 0.25, 0.6
        out = step("sem", sw.SpectralState(u, v), tau, dw, sw.zero_fn(),
                   sw.constant_fn(3.0))
        v_new = 2.0 + dw * 3.0
        assert out.v_hat[0] == pytest.approx(v_new, rel=1e-14)
        assert out.u_hat[0] == pytest.approx(1.0 + tau * v_new, rel=1e-14)

    def test_deterministic_energy_nonincreasing(self):
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid, seed=6)
        out = step("sem", state, 0.1, 0.0, sw.zero_fn(), sw.scaled_sine(16.0))
        lam2 = (2 * np.pi * np.arange(17)) ** 2
        e0 = np.abs(state.v_hat) ** 2 + lam2 * np.abs(state.u_hat) ** 2
        e1 = np.abs(out.v_hat) ** 2 + lam2 * np.abs(out.u_hat) ** 2
        assert np.all(e1 <= e0 * (1 + 1e-12))

    def test_against_dense_solve(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid, seed=7)
        tau, dw = 0.2, -0.35
        sigma = sw.scaled_sine(2.0)
        out = step("sem", state, tau, dw, sw.zero_fn(), sigma)
        z = sw.pseudospectral_apply(sigma, state.u_hat, 8)
        for i in range(9):
            lam = 2 * np.pi * i
            a = np.array([[1.0, -tau], [tau * lam**2, 1.0]])
            rhs = np.array([state.u_hat[i], state.v_hat[i] + dw * z[i]])
            expect = np.linalg.solve(a, rhs)
            assert out.u_hat[i] == pytest.approx(expect[0], rel=1e-12, abs=1e-14)
            assert out.v_hat[i] == pytest.approx(expect[1], rel=1e-12, abs=1e-14)


class TestStepSTM:
    def test_exact_linear_when_sigma_zero(self):
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid)
        out = step("stm", state, 0.3, 1.1, sw.zero_fn(), sw.zero_fn())
        ref = flow(state, 0.3)
        np.testing.assert_array_equal(out.u_hat, ref.u_hat)

    def test_equals_hrlri_without_forcing(self):
        # and with it: both take the full cut, so the steps are the same
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid, seed=9)
        for f in (sw.zero_fn(), sw.scaled_cosine(2.0)):
            stm = step("stm", state, 0.05, 0.77, f, sw.scaled_sine(16.0))
            hr = step("hr_lri", state, 0.05, 0.77, f, sw.scaled_sine(16.0))
            np.testing.assert_array_equal(stm.u_hat, hr.u_hat)
            np.testing.assert_array_equal(stm.v_hat, hr.v_hat)

    def test_zero_fixed_point(self):
        grid = sw.make_grid(1, 8, 1.0)
        out = step("stm", zero_state(grid.dim, 8), 0.1, 0.9, sw.zero_fn(),
                   sw.scaled_sine(16.0))
        assert not out.u_hat.any()


class TestRunDriver:
    def test_zero_steps_truncates(self):
        grid = sw.make_grid(1, 8, 1.5)
        u0 = random_state(sw.make_grid(1, 8, 2.0))  # wider source state
        problem = explicit_problem(u0)
        spec = sw.method_spec("hr_lri", 0.25, 0.0)
        lattice = sw.sample_path(0, 0, 0.25, 0.25)
        res = sw.run(spec, grid, problem, lattice)
        ref = sw.with_band(u0, grid.n_high)
        np.testing.assert_array_equal(res.u_hat, ref.u_hat)

    def test_linear_run_is_exact_propagation(self):
        grid = sw.make_grid(1, 8, 2.0)
        problem = explicit_problem(random_state(grid, seed=10))
        spec = sw.method_spec("hr_lri", 2**-6, 0.25)
        lattice = sw.sample_path(1, 0, 0.25, 2**-6)
        assert linear_exact_discrepancy(spec, grid, problem, lattice) < 1e-10

    @pytest.mark.parametrize("kind", ["lri", "stm"])
    def test_linear_degeneration_other_methods(self, kind):
        grid = sw.make_grid(1, 8, 1.0)
        problem = explicit_problem(random_state(grid, seed=11))
        spec = sw.method_spec(kind, 2**-6, 0.25)
        lattice = sw.sample_path(1, 0, 0.25, 2**-6)
        assert linear_exact_discrepancy(spec, grid, problem, lattice) < 1e-10

    def test_determinism(self):
        grid = sw.make_grid(1, 8, 2.0)
        problem = explicit_problem(random_state(grid, seed=12), sigma=sw.scaled_sine(16.0))
        spec = sw.method_spec("hr_lri", 2**-5, 0.25)
        lattice = sw.sample_path(42, 3, 0.25, 2**-7)
        a = sw.run(spec, grid, problem, lattice)
        b = sw.run(spec, grid, problem, lattice)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)
        np.testing.assert_array_equal(a.v_hat, b.v_hat)

    def test_high_band_ignores_noise(self):
        grid = sw.make_grid(1, 8, 2.0)
        problem = explicit_problem(random_state(grid, seed=13), sigma=sw.scaled_sine(16.0))
        spec = sw.method_spec("hr_lri", 2**-5, 0.25)
        run_a = sw.run(spec, grid, problem, sw.sample_path(1, 0, 0.25, 2**-5))
        run_b = sw.run(spec, grid, problem, sw.sample_path(2, 0, 0.25, 2**-5))
        high = band_mask(1, 64, 64) & ~band_mask(1, 64, 8)
        high_a, high_b = masked(run_a, high), masked(run_b, high)
        np.testing.assert_array_equal(high_a.u_hat, high_b.u_hat)
        np.testing.assert_array_equal(high_a.v_hat, high_b.v_hat)
        # while the stepped band does depend on the path
        assert np.abs(run_a.u_hat - run_b.u_hat).max() > 1e-6

    def test_mean_zero_noise_response(self):
        # constant diffusion forces only the mean mode; the Monte Carlo
        # average of the final state matches the deterministic flow
        grid = sw.make_grid(1, 4, 1.0)
        u0 = random_state(grid, seed=14)
        problem = explicit_problem(u0, sigma=sw.constant_fn(4.0))
        spec = sw.method_spec("stm", 2**-5, 0.25)
        finals_u0 = []
        finals_v0 = []
        deterministic = None
        for s in range(64):
            res = sw.run(spec, grid, problem, sw.sample_path(7, s, 0.25, 2**-5))
            finals_u0.append(res.u_hat[0].real)
            finals_v0.append(res.v_hat[0].real)
            # away from the mean mode everything is path-independent
            if deterministic is None:
                deterministic = res.u_hat[1]
            else:
                assert res.u_hat[1] == deterministic
        ref = flow(sw.with_band(u0, 4), 0.25)
        for vals, target in ((finals_u0, ref.u_hat[0].real),
                             (finals_v0, ref.v_hat[0].real)):
            arr = np.array(vals)
            stderr = arr.std(ddof=1) / np.sqrt(len(arr))
            assert abs(arr.mean() - target) < 3 * stderr

    def test_nan_state_aborts_with_step_index(self):
        grid = sw.make_grid(1, 4, 1.0)
        u = np.zeros(8, dtype=np.complex128)
        u[0] = np.nan
        bad = sw.SpectralState(u, np.zeros_like(u))
        problem = explicit_problem(bad)
        spec = sw.method_spec("stm", 2**-4, 0.25)
        lattice = sw.sample_path(0, 0, 0.25, 2**-4)
        with pytest.raises(sw.NumericalError, match="step 0"):
            sw.run(spec, grid, problem, lattice)

    def test_nonfinite_image_is_numerical_error(self):
        # a NaN nonlinearity image leaves the new state non-finite, so the
        # run fails at that step with the one error type for non-finite
        # values
        grid = sw.make_grid(1, 4, 1.0)
        problem = explicit_problem(random_state(grid), sigma=sw.scaled_sine(np.nan))
        spec = sw.method_spec("stm", 2**-4, 0.25)
        lattice = sw.sample_path(0, 0, 0.25, 2**-4)
        with pytest.raises(sw.NumericalError, match="step 0"):
            sw.run(spec, grid, problem, lattice)

    def test_final_state_independent_of_snapshot_stride(self):
        # a run steps one block per snapshot segment, each from the previous
        # segment's final row; the segments change no bit of the final state
        grid = sw.make_grid(1, 8, 2.0)
        problem = explicit_problem(random_state(grid, seed=18), f=sw.scaled_cosine(2.0),
                                   sigma=sw.scaled_sine(16.0))
        spec = sw.method_spec("hr_lri", 2**-5, 0.25)
        lattice = sw.sample_path(4, 0, 0.25, 2**-7)
        finals = {}
        for stride in (1, 3, None):
            steps = []
            kw = {} if stride is None else dict(snapshot_stride=stride,
                                                on_snapshot=lambda n, t, s: steps.append(n))
            finals[stride] = sw.run(spec, grid, problem, lattice, **kw)
            expect = [] if stride is None else list(range(0, 8, stride)) + [8]
            assert steps == expect
        for stride in (1, 3):
            np.testing.assert_array_equal(finals[stride].u_hat, finals[None].u_hat)
            np.testing.assert_array_equal(finals[stride].v_hat, finals[None].v_hat)

    @pytest.mark.parametrize("dim,stride", [(1, 1), (1, 3), (2, 3)])
    def test_snapshot_states_are_the_padded_rows_plus_the_flow(self, dim, stride):
        # every state a recovering run hands out, the final one included, is
        # with_band(stepped row) + recover_high(recovered modes, t) bit for
        # bit, though the run assembles them all in one reused pair
        grid = sw.make_grid(dim, 8 if dim == 1 else 4, 2.0)
        problem = explicit_problem(random_state(grid, seed=19), f=sw.scaled_cosine(2.0),
                                   sigma=sw.scaled_sine(16.0))
        spec = sw.method_spec("hr_lri", 2**-5, 0.25)
        lattice = sw.sample_path(5, 0, 0.25, 2**-7)
        got = []
        final = sw.run(spec, grid, problem, lattice, snapshot_stride=stride,
                       on_snapshot=lambda n, t, s: got.append((n, t, bits(s.u_hat).copy(),
                                                               bits(s.v_hat).copy())))
        u0 = sw.build_initial(problem.initial, grid)
        rec0 = masked(u0, recovered_modes(dim, grid.n_high, grid.n_cut, grid.n_high))
        row = sw.with_band(u0, grid.n_cut)
        dws = sw.coarsen(lattice, spec.tau)
        expect, last = [], 0
        for n in sorted({0, *range(stride, spec.n_steps, stride), spec.n_steps}):
            if n:
                block, = sw.run_block([spec], row, problem.f, problem.sigma, dws[None, last:n])
                row, last = sw.SpectralState(block.u_hat[0], block.v_hat[0]), n
            pad, rec = sw.with_band(row, grid.n_high), sw.recover_high(rec0, n * spec.tau)
            expect.append((n, n * spec.tau, bits(pad.u_hat + rec.u_hat),
                           bits(pad.v_hat + rec.v_hat)))
        assert [(n, t) for n, t, _, _ in got] == [(n, t) for n, t, _, _ in expect]
        for (_, _, u, v), (_, _, eu, ev) in zip(got, expect):
            np.testing.assert_array_equal(u, eu)
            np.testing.assert_array_equal(v, ev)
        np.testing.assert_array_equal(bits(final.u_hat), expect[-1][2])

    def test_failure_step_counts_from_run_start(self):
        # with stride 2 a NaN increment at step 5 fails the third segment at
        # its second step: the error names the run's step 5
        grid = sw.make_grid(1, 4, 1.0)
        problem = explicit_problem(random_state(grid), sigma=sw.scaled_sine(1.0))
        spec = sw.method_spec("stm", 2**-4, 0.5)
        lattice = sw.sample_path(0, 0, 0.5, 2**-4)
        poisoned = lattice.increments.copy()
        poisoned[5] = np.nan
        lattice = dataclasses.replace(lattice, increments=poisoned)
        steps = []
        with pytest.raises(sw.NumericalError, match="non-finite state at step 5$"):
            sw.run(spec, grid, problem, lattice, snapshot_stride=2,
                   on_snapshot=lambda n, t, s: steps.append(n))
        assert steps == [0, 2, 4]

    @pytest.mark.parametrize("kind", ["hr_lri", "lri", "sem", "stm"])
    def test_constant_forcing_on_zero_mode(self, kind):
        # every scheme's zero mode is the shear [[1, tau], [0, 1]] applied
        # after the kick tau*c, so v = c n tau and u = c tau^2 n (n+1) / 2
        c, tau, n = 2.0, 2**-4, 4
        grid = sw.make_grid(1, 4, 1.0)
        problem = explicit_problem(zero_state(grid.dim, grid.n_high), f=sw.constant_fn(c))
        lattice = sw.sample_path(0, 0, n * tau, tau)
        res = sw.run(sw.method_spec(kind, tau, n * tau), grid, problem, lattice)
        assert res.v_hat[0] == pytest.approx(c * n * tau, rel=1e-14)
        assert res.u_hat[0] == pytest.approx(
            c * tau**2 * n * (n + 1) / 2, rel=1e-14)

    def test_lri_cut_below_band(self):
        # tau = 1/8 on band 16: the driver filters at floor(1/tau) = 8
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid, seed=15)
        f, sigma = sw.scaled_cosine(3.0), sw.scaled_sine(16.0)
        problem = explicit_problem(state, f=f, sigma=sigma)
        tau = 2**-3
        lattice = sw.sample_path(3, 0, 0.25, tau)
        res = sw.run(sw.method_spec("lri", tau, 0.25), grid, problem, lattice)
        stepped = state
        for dw in sw.coarsen(lattice, tau):
            stepped = step("lri", stepped, tau, float(dw), f, sigma, cut=8)
        np.testing.assert_array_equal(res.u_hat, stepped.u_hat)
        np.testing.assert_array_equal(res.v_hat, stepped.v_hat)
        hr = sw.run(sw.method_spec("hr_lri", tau, 0.25), grid, problem, lattice)
        assert np.abs(hr.u_hat - stepped.u_hat).max() > 1e-6

    def test_misaligned_tau_rejected(self):
        grid = sw.make_grid(1, 4, 1.0)
        problem = explicit_problem(random_state(grid))
        lattice = sw.sample_path(0, 0, 0.25, 2**-4)
        spec = sw.method_spec("stm", 3 * 2**-6, 0.1875)
        with pytest.raises(ValueError):
            sw.run(spec, grid, problem, lattice)

    def test_path_shorter_than_the_run_rejected(self):
        # 8 steps of 2^-5 on a path of 4 such increments
        grid = sw.make_grid(1, 4, 1.0)
        problem = explicit_problem(random_state(grid))
        lattice = sw.sample_path(0, 0, 0.125, 2**-5)
        with pytest.raises(ValueError, match="8 steps exceed the path's 4"):
            sw.run(sw.method_spec("stm", 2**-5, 0.25), grid, problem, lattice)

    def test_method_spec_validation(self):
        with pytest.raises(ValueError):
            sw.method_spec("verlet", 0.1, 1.0)
        with pytest.raises(ValueError):
            sw.method_spec("stm", 0.3, 1.0)  # does not tile
        spec = sw.method_spec("hr_lri", 0.25, 1.0)
        assert spec.recovery and spec.n_steps == 4
        assert sw.method_spec("stm", 0.25, 0.0).n_steps == 0
        assert not sw.method_spec("sem", 0.25, 1.0).recovery


class PoisonRow:
    """A nonlinearity with the samples of one block row replaced by NaN from
    its ``first``-th call on: as the only term, from that step on."""
    is_zero = False

    def __init__(self, inner, row, first=0):
        self.inner, self.row, self.first, self.calls = inner, row, first, 0

    def __call__(self, u):
        out = self.inner(u)
        if self.calls >= self.first:
            out[self.row] = np.nan
        self.calls += 1
        return out


class TestRunBlock:
    @pytest.mark.parametrize("poison", ["increment", "image"])
    def test_nan_row_excluded_alone(self, poison):
        # row 3 alone gets a NaN first increment or a NaN nonlinearity
        # image: that row alone is flagged at step 0, and every other row
        # equals its own single-path run bit for bit
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid, seed=16)
        problem = explicit_problem(state, sigma=sw.scaled_sine(16.0))
        spec = sw.method_spec("stm", 2**-5, 0.25)
        paths = [sw.sample_path(8, s, 0.25, 2**-5) for s in range(7)]
        if poison == "increment":
            poisoned = paths[3].increments.copy()
            poisoned[0] = np.nan
            paths[3] = dataclasses.replace(paths[3], increments=poisoned)
            sigma, alone = problem.sigma, problem
        else:
            sigma = PoisonRow(problem.sigma, 3)
            alone = explicit_problem(state, sigma=PoisonRow(problem.sigma, 0))
        dws = np.stack([sw.coarsen(p, spec.tau) for p in paths])
        block, = sw.run_block([spec], state, problem.f, sigma, dws)
        assert block.failed == {3: 0}
        for row in (0, 1, 2, 4, 5, 6):
            single = sw.run(spec, grid, problem, paths[row])
            np.testing.assert_array_equal(block.u_hat[row], single.u_hat)
            np.testing.assert_array_equal(block.v_hat[row], single.v_hat)
        with pytest.raises(sw.NumericalError, match="non-finite state at step 0"):
            sw.run(spec, grid, alone, paths[3])


    def test_non_hermitian_initial_state_refused(self):
        # a state is no real field's spectrum unless its k_last = 0 plane is
        # Hermitian: an imaginary k = 0 coefficient in 1D, u(1, 0) other than
        # conj u(-1, 0) in 2D, is refused before any step
        calls = []

        class Recording:
            is_zero = False

            def __call__(self, field):
                calls.append(field.shape)
                return np.sin(field)

        spec = sw.method_spec("stm", 2**-5, 0.25)
        paths = [sw.sample_path(8, s, 0.25, 2**-5) for s in range(2)]
        dws = np.stack([sw.coarsen(p, spec.tau) for p in paths])
        for dim, slot in ((1, (0,)), (2, (1, 0))):
            grid = sw.make_grid(dim, 8, 1.0)
            state = random_state(grid, seed=17)
            u = state.u_hat.copy()
            u[slot] += 0.5j
            bad = sw.SpectralState(u, state.v_hat)
            zero = sw.zero_fn()
            with pytest.raises(ValueError, match="not Hermitian"):
                sw.run_block([spec], bad, zero, Recording(), dws)
            with pytest.raises(ValueError, match="not Hermitian"):
                sw.run(spec, grid, explicit_problem(bad, sigma=Recording()), paths[0])
            assert not calls
            sw.run_block([spec], state, zero, Recording(), dws)
            assert calls
            calls.clear()


TERMS = {
    "f_and_sigma": (sw.scaled_cosine(3.0), sw.scaled_sine(16.0)),
    "sigma": (sw.zero_fn(), sw.scaled_sine(16.0)),
    "linear": (sw.zero_fn(), sw.zero_fn()),
}


class TestRunBlockOracle:
    # (dim, band, tau): lri's filter min(floor(1/tau), band) cuts at 8 in 1D
    # and at 4 in 2D, half the band
    GRIDS = [(1, 16, 2**-3), (2, 8, 2**-2)]

    @pytest.mark.parametrize("terms", sorted(TERMS))
    @pytest.mark.parametrize("kind", ["stm", "sem", "lri"])
    @pytest.mark.parametrize("dim,band,tau", GRIDS, ids=["1d", "2d"])
    def test_equals_reference_steps(self, dim, band, tau, kind, terms):
        # run_block writes every step into its work arrays; n steps of it
        # give the bits of n steps that allocate afresh, failed rows included
        f, sigma = TERMS[terms]
        grid = sw.make_grid(dim, band, 1.0)
        state = random_state(grid, seed=31)
        steps, rows = 5, 4
        spec = sw.method_spec(kind, tau, steps * tau)
        dws = np.random.default_rng(32).standard_normal((rows, steps)) * np.sqrt(tau)
        dws[1, 2] = np.nan
        tables_of, _, cut, _ = stepping_key(spec, band)
        assert cut < band if kind == "lri" else cut == band
        tables = tables_of(dim, band, tau)
        u = np.broadcast_to(state.u_hat, (rows,) + state.u_hat.shape)
        v = np.broadcast_to(state.v_hat, u.shape)
        failed = {}
        for n in range(steps):
            u, v, bad = reference_step(u, v, tables, cut, tau, dws[:, n], f, sigma)
            for row in bad:
                failed.setdefault(row, n)
        block, = sw.run_block([spec], state, f, sigma, dws)
        # the NaN increment reaches the state through sigma alone
        assert block.failed == failed == ({} if sigma.is_zero else {1: 2})
        np.testing.assert_array_equal(bits(block.u_hat), bits(u))
        np.testing.assert_array_equal(bits(block.v_hat), bits(v))


class TestRunBlockKinds:
    # stm and sem share every (band, cut, tau); hr_lri steps stm's tables
    METHODS = ("stm", "sem", "hr_lri")

    @classmethod
    def block(cls, dim, terms, rows=3, steps=4):
        f, sigma = TERMS[terms]
        state = random_state(sw.make_grid(dim, 8, 1.0), seed=35)
        tau = 2**-5
        specs = [sw.method_spec(kind, tau, steps * tau) for kind in cls.METHODS]
        dws = np.random.default_rng(36).standard_normal((rows, steps)) * np.sqrt(tau)
        return specs, state, f, sigma, dws

    @pytest.mark.parametrize("terms", ["sigma", "f_and_sigma"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_merged_block_is_one_kind_blocks(self, dim, terms):
        # a block of two table kinds gives each method the bits of a block
        # of its kind alone
        specs, state, f, sigma, dws = self.block(dim, terms)
        merged = sw.run_block(specs, state, f, sigma, dws)
        assert len(merged) == len(specs)
        for spec, res in zip(specs, merged):
            alone, = sw.run_block([spec], state, f, sigma, dws)
            assert res.u_hat.shape == alone.u_hat.shape == (len(dws),) + state.u_hat.shape
            np.testing.assert_array_equal(bits(res.u_hat), bits(alone.u_hat))
            np.testing.assert_array_equal(bits(res.v_hat), bits(alone.v_hat))
            assert res.failed == alone.failed == {}
        # the kinds differ, and hr_lri is stm's trajectory
        assert np.abs(merged[0].u_hat - merged[1].u_hat).max() > 1e-6
        np.testing.assert_array_equal(bits(merged[0].u_hat), bits(merged[2].u_hat))

    def test_poisoned_kind_row_excluded_alone(self):
        # the nonlinearities see the K x S rows kind by kind: row S + 1 is
        # sem's row 1.  NaN from step 2 fails that (kind, row) alone at step
        # 2; every other row of both kinds keeps its clean bits
        specs, state, f, sigma, dws = self.block(1, "sigma", rows=3, steps=5)
        clean = sw.run_block(specs, state, f, sigma, dws)
        poisoned = sw.run_block(specs, state, f, PoisonRow(sigma, len(dws) + 1, 2), dws)
        assert [res.failed for res in poisoned] == [{}, {1: 2}, {}]
        for res, ref in zip(poisoned, clean):
            for row in range(len(dws)):
                if row in res.failed:
                    assert not res.u_hat[row].any() and not res.v_hat[row].any()
                    continue
                np.testing.assert_array_equal(bits(res.u_hat[row]), bits(ref.u_hat[row]))
                np.testing.assert_array_equal(bits(res.v_hat[row]), bits(ref.v_hat[row]))

    def test_overflowing_sum_fails_no_row(self):
        # u_0 = 1e308 stays finite through the linear steps (the zero mode
        # is the shear and v = 0), but the sum over the 2 x 2 rows
        # overflows: the scan that follows finds no failed row
        u = np.zeros(5, dtype=np.complex128)
        u[0] = 1e308
        state = sw.SpectralState(u, np.zeros_like(u))
        zero = sw.zero_fn()
        specs = [sw.method_spec(kind, 2**-5, 3 * 2**-5) for kind in ("stm", "sem")]
        dws = np.zeros((2, 3))
        results = sw.run_block(specs, state, zero, zero, dws)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum([res.u_hat for res in results]))
        for res in results:
            assert res.failed == {}
            assert (res.u_hat[:, 0] == 1e308).all() and not res.v_hat.any()

    def test_methods_of_other_steppings_refused(self):
        # no methods; two step sizes; an lri whose filter cuts below stm's
        specs, state, f, sigma, dws = self.block(1, "sigma")
        cutting = sw.method_spec("lri", 2**-2, 2**-2)
        assert stepping_key(cutting, 8)[2] == 4
        for methods in ([], [specs[0], sw.method_spec("stm", 2**-4, 2**-2)],
                        [sw.method_spec("stm", 2**-2, 2**-2), cutting]):
            with pytest.raises(ValueError, match=r"one \(band, cut, tau\)"):
                sw.run_block(methods, state, f, sigma, dws)


def peak_blocks(dim, band, rows, terms, kinds):
    """tracemalloc peak of a warm run_block, in (K x S) + half_shape complex
    blocks, K the table kinds."""
    f, sigma = TERMS[terms]
    state = random_state(sw.make_grid(dim, band, 1.0), seed=33)
    tau = 2**-12
    specs = [sw.method_spec(kind, tau, 4 * tau) for kind in kinds]
    dws = np.random.default_rng(34).standard_normal((rows, 4)) * np.sqrt(tau)
    sw.run_block(specs, state, f, sigma, dws)  # the tables and masks are cached
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sw.run_block(specs, state, f, sigma, dws)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (len(kinds) * rows * np.prod(half_shape(dim, band)) * 16)


class TestRunBlockWorkingSet:
    # tracemalloc peak of run_block in (S,) + half_shape complex blocks, as
    # the step that allocated every array afresh held it: 8.0 and 9.0 in
    # 1D, 7.25 and 8.25 in 2D, with sigma alone and with f too
    @pytest.mark.parametrize("dim,band,rows,terms,limit", [
        (1, 512, 16, "sigma", 8.0), (1, 512, 16, "f_and_sigma", 9.0),
        (2, 64, 4, "sigma", 7.25), (2, 64, 4, "f_and_sigma", 8.25)])
    def test_peak_within_fresh_steps(self, dim, band, rows, terms, limit):
        assert peak_blocks(dim, band, rows, terms, ("stm",)) <= limit

    # two kinds, in (2 x S) + half_shape blocks: the one-kind bounds plus
    # their four stacked tables, eight half arrays, a quarter block at
    # 2 x 16 rows in 1D and one block at 2 x 4 rows in 2D (measured 7.27,
    # 8.27, 7.99 and 8.99)
    @pytest.mark.parametrize("dim,band,rows,terms,limit", [
        (1, 512, 16, "sigma", 7.5), (1, 512, 16, "f_and_sigma", 8.5),
        (2, 64, 4, "sigma", 8.25), (2, 64, 4, "f_and_sigma", 9.25)])
    def test_two_kinds_peak_within_fresh_steps(self, dim, band, rows, terms, limit):
        assert peak_blocks(dim, band, rows, terms, ("stm", "sem")) <= limit

    # a linear block holds its two state pairs, four blocks, and in 1D the
    # iterator buffer of a broadcast table product, about one more
    # (measured 4.97 and 4.01); a12 w in a fresh array added one block
    @pytest.mark.parametrize("dim,band,rows,limit", [(1, 512, 16, 5.25), (2, 64, 4, 4.5)])
    def test_linear_peak_is_its_work_arrays(self, dim, band, rows, limit):
        assert peak_blocks(dim, band, rows, "linear", ("stm",)) <= limit


class TestZeroModeOracle:
    def test_pure_drift(self):
        lattice = sw.sample_path(0, 0, 1.0, 2**-8)
        u, v = exact_linear_zero_mode(1.5, -0.5, 0.0, lattice, 1.0)
        assert v == -0.5
        assert u == pytest.approx(1.5 - 0.5 * 1.0, rel=1e-12)

    def test_velocity_is_partial_sum(self):
        lattice = sw.sample_path(5, 1, 0.5, 2**-9)
        c = 4.0
        _, v = exact_linear_zero_mode(0.0, 0.25, c, lattice, 0.5)
        acc = 0.25
        for w in lattice.increments:
            acc += c * w
        assert v == acc

    def test_stm_zero_mode_order_one(self):
        # strong error of the trigonometric step against the oracle decays
        # about linearly in tau
        c, t_final = 4.0, 0.25
        base_dt = 2**-12
        taus = [2**-4, 2**-5, 2**-6, 2**-7]
        grid = sw.make_grid(1, 1, 1.0)
        u = np.zeros(2, dtype=np.complex128)
        v = np.zeros(2, dtype=np.complex128)
        u[0], v[0] = 0.5, 0.25
        problem = explicit_problem(sw.SpectralState(u, v),
                                   sigma=sw.constant_fn(c))
        errs = []
        for tau in taus:
            sq = 0.0
            for s in range(48):
                lattice = sw.sample_path(99, s, t_final, base_dt)
                res = sw.run(sw.method_spec("stm", tau, t_final), grid, problem, lattice)
                u_ref, v_ref = exact_linear_zero_mode(0.5, 0.25, c, lattice, t_final)
                du = res.u_hat[0].real - u_ref
                dv = res.v_hat[0].real - v_ref
                sq += du * du + dv * dv
            errs.append(np.sqrt(sq / 48))
        slope = sw.estimate_order([(t, e) for t, e in zip(taus, errs)])
        assert 0.6 < slope < 1.4

    def test_horizon_check(self):
        lattice = sw.sample_path(0, 0, 0.25, 2**-4)
        with pytest.raises(ValueError):
            exact_linear_zero_mode(0, 0, 1.0, lattice, 0.5)
