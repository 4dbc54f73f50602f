"""Per-mode wave group and resolvent."""

import numpy as np
import pytest

import stochwave as sw
from stochwave.semigroup import apply, group_tables, propagator_tables, resolvent_tables

from helpers import band_mask, flow, masked, random_state


def matrix(lam, t):
    """The group matrix of one wave number, through the table builder."""
    a11, a12, a21, a22 = propagator_tables(np.array([lam]), t)
    return np.array([[a11[0], a12[0]], [a21[0], a22[0]]])


def resolve(state, tau):
    return apply(state, resolvent_tables(state.dim, state.band, tau))


class TestPropagator:
    def test_cached_tables_are_real_tables_stored_complex(self):
        # read-only complex128 copies of the real tables, a11 and a22 one array
        lam = np.sqrt(sw.spectral.lambda_sq(2, 8))
        tau = 0.1
        real = {"group": propagator_tables(lam, tau),
                "resolvent": (1 / (1 + tau**2 * lam**2), tau / (1 + tau**2 * lam**2),
                              -tau * lam**2 / (1 + tau**2 * lam**2), 1 / (1 + tau**2 * lam**2))}
        for kind, build in (("group", group_tables), ("resolvent", resolvent_tables)):
            tables = build(2, 8, tau)
            assert tables[0] is tables[3]
            for a, b in zip(tables, real[kind]):
                assert a.dtype == np.complex128 and not a.flags.writeable
                np.testing.assert_allclose(a, b, rtol=1e-15, atol=0)
                assert not a.imag.any()

    def test_zero_mode_is_shear(self):
        for t in (-1.5, 0.0, 0.25, 3.0):
            np.testing.assert_array_equal(matrix(0.0, t), [[1.0, t], [0.0, 1.0]])

    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(matrix(17.3, 0.0), np.eye(2))

    def test_determinant_one(self):
        rng = np.random.default_rng(1)
        for lam, t in zip(rng.uniform(0, 100, 50), rng.uniform(-2, 2, 50)):
            assert abs(np.linalg.det(matrix(lam, t)) - 1.0) < 1e-12

    def test_group_law_product(self):
        # compared in the energy scaling (lam*u, v) where all four entries
        # are O(1) rotations; the raw a21 entry grows like lam and cannot
        # meet an absolute tolerance in doubles
        rng = np.random.default_rng(2)
        for _ in range(500):
            lam = rng.uniform(0, 1000)
            s, t = rng.uniform(0, 1.0, 2)
            scale = np.array([[1.0, max(lam, 1.0)], [1.0 / max(lam, 1.0), 1.0]])
            prod = matrix(lam, s) @ matrix(lam, t)
            direct = matrix(lam, s + t)
            assert (np.abs(prod - direct) * scale).max() < 1e-12

    def test_sin_over_lambda_is_accurate(self):
        # sin(lam t) / lam within 4e-16 relative of an extended-precision
        # evaluation for |lam t| from 1e-12 to 1, and exactly t at lam = 0
        for t in (1.0, -0.7, 2.0**-11):
            lam = np.geomspace(1e-12, 1.0, 2001) / abs(t)
            got = propagator_tables(lam, t)[1]
            wide = lam.astype(np.longdouble)
            want = np.sin(wide * np.longdouble(t)) / wide
            assert np.max(np.abs((got - want) / want)) <= 4e-16
            assert propagator_tables(np.zeros(3), t)[1].tolist() == [t] * 3


class TestApplyGroup:
    def test_zero_time_identity(self):
        grid = sw.make_grid(2, 6, 1.0)
        state = random_state(grid)
        out = flow(state, 0.0)
        np.testing.assert_allclose(out.u_hat, state.u_hat, atol=1e-15)
        np.testing.assert_allclose(out.v_hat, state.v_hat, atol=1e-15)

    def test_group_inverse(self):
        grid = sw.make_grid(1, 32, 1.0)
        state = random_state(grid)
        out = flow(flow(state, 0.7), -0.7)
        scale = np.abs(state.u_hat).max()
        assert np.abs(out.u_hat - state.u_hat).max() < 1e-12 * scale
        assert np.abs(out.v_hat - state.v_hat).max() < 1e-12 * scale * 2 * np.pi * 32

    def test_single_mode_quarter_period(self):
        # mode k=1 with u=1, v=0 after t=1/4: u -> cos(pi/2) = 0,
        # v -> -2 pi sin(pi/2) = -2 pi
        u = np.zeros(8, dtype=np.complex128)
        u[1] = 1.0
        state = sw.SpectralState(u, np.zeros_like(u))
        out = flow(state, 0.25)
        assert abs(out.u_hat[1]) < 1e-15
        assert out.v_hat[1] == pytest.approx(-2 * np.pi, rel=1e-14)

    def test_modewise_energy_conserved(self):
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid, seed=4)
        out = flow(state, 1.37)
        lam2 = (2 * np.pi * np.arange(17)) ** 2
        before = np.abs(state.v_hat) ** 2 + lam2 * np.abs(state.u_hat) ** 2
        after = np.abs(out.v_hat) ** 2 + lam2 * np.abs(out.u_hat) ** 2
        np.testing.assert_allclose(after[1:], before[1:], rtol=1e-12)
        # zero mode: v constant, u affine in t
        assert out.v_hat[0] == state.v_hat[0]
        assert out.u_hat[0] == pytest.approx(state.u_hat[0] + 1.37 * state.v_hat[0], rel=1e-14)

    def test_commutes_with_projection(self):
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid, seed=5)
        mask = band_mask(1, state.band, 6)
        a = masked(flow(state, 0.3), mask)
        b = flow(masked(state, mask), 0.3)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)
        np.testing.assert_array_equal(a.v_hat, b.v_hat)

    def test_composition_matches_single_flow(self):
        grid = sw.make_grid(1, 8, 2.0)
        state = random_state(grid, seed=6)
        stepped = state
        for _ in range(16):
            stepped = flow(stepped, 1.0 / 16)
        direct = flow(state, 1.0)
        assert np.abs(stepped.u_hat - direct.u_hat).max() < 1e-11

    @pytest.mark.parametrize("n_inc", [1, 2])
    @pytest.mark.parametrize("kind", ["group", "resolvent"])
    def test_noisy_variant_is_shifted_group(self, kind, n_inc):
        # the increments are added to v first, left to right, so the fused
        # call is bit-identical to applying the table to the shifted state
        grid = sw.make_grid(1, 8, 1.0)
        state = random_state(grid, seed=7)
        build = group_tables if kind == "group" else resolvent_tables
        tables = build(1, state.band, 0.2)
        dv = [0.35 * random_state(grid, seed=8 + i).v_hat for i in range(n_inc)]
        fused = apply(state, tables, *dv)
        v = state.v_hat + dv[0]
        if n_inc == 2:
            v = v + dv[1]
        plain = apply(sw.SpectralState(state.u_hat, v), tables)
        np.testing.assert_array_equal(fused.u_hat, plain.u_hat)
        np.testing.assert_array_equal(fused.v_hat, plain.v_hat)


class TestResolvent:
    def test_zero_mode_inverse(self):
        u = np.zeros(8, dtype=np.complex128)
        v = np.zeros(8, dtype=np.complex128)
        u[0], v[0] = 2.0, 3.0
        out = resolve(sw.SpectralState(u, v), 0.5)
        assert out.u_hat[0] == pytest.approx(2.0 + 0.5 * 3.0)
        assert out.v_hat[0] == pytest.approx(3.0)

    def test_inverse_pair(self):
        grid = sw.make_grid(1, 16, 1.0)
        state = random_state(grid, seed=9)
        tau = 0.3
        lam2 = (2 * np.pi * np.arange(17)) ** 2
        # apply (I - tau L) directly, then undo it
        u_mid = state.u_hat - tau * state.v_hat
        v_mid = state.v_hat + tau * lam2 * state.u_hat
        mid = sw.SpectralState(u_mid, v_mid)
        out = resolve(mid, tau)
        np.testing.assert_allclose(out.u_hat, state.u_hat, atol=1e-12)
        np.testing.assert_allclose(out.v_hat, state.v_hat, atol=1e-10)

    def test_against_dense_solve(self):
        lam = 2 * np.pi
        tau = 0.5
        rhs = np.array([1.3 - 0.2j, -0.7 + 1.1j])
        a = np.array([[1.0, -tau], [tau * lam**2, 1.0]])
        expect = np.linalg.solve(a, rhs)
        u = np.zeros(8, dtype=np.complex128)
        v = np.zeros(8, dtype=np.complex128)
        u[1], v[1] = rhs
        out = resolve(sw.SpectralState(u, v), tau)
        assert out.u_hat[1] == pytest.approx(expect[0], rel=1e-13)
        assert out.v_hat[1] == pytest.approx(expect[1], rel=1e-13)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            resolvent_tables(1, 4, 0.0)
