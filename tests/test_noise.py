"""Brownian lattice generation and exact coarsening."""

import math

import numpy as np
import pytest

import stochwave as sw
from stochwave.noise import (
    _ndtri,
    standard_normals,
    standard_uniforms,
    step_count,
    uniforms_from_words,
)

EXPM2 = 0.13533528323661269189  # exp(-2), where Cephes ndtri leaves its middle


def grouped_sums_oracle(values, r):
    """Independent reimplementation: scalar running sum per group."""
    out = []
    acc = 0.0
    for i, w in enumerate(values):
        acc += float(w)
        if (i + 1) % r == 0:
            out.append(acc)
            acc = 0.0
    return np.array(out)


class TestGeneration:
    def test_same_key_reproduces_bits(self):
        a = sw.sample_path(123, 7, 1.0, 2**-8)
        b = sw.sample_path(123, 7, 1.0, 2**-8)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_different_sample_index_decorrelated(self):
        n = 10**5
        a = standard_normals(5, 0, n)
        b = standard_normals(5, 1, n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_clt_moments(self):
        base_dt = 2**-10
        n = 2**20
        inc = sw.sample_path(2024, 0, n * base_dt, base_dt).increments
        assert abs(inc.mean()) < 4 * np.sqrt(base_dt / n)
        assert abs(inc.var() / base_dt - 1.0) < 0.01

    def test_uniforms_in_open_interval(self):
        u = standard_uniforms(0, 0, 10**5)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_top_words_stay_below_one(self):
        # (2^53 - 1) + 0.5 rounds up to 2^53, so the 2^11 words with the
        # top 53 bits set would give u = 1.0 and a normal of +inf
        words = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1, 0], dtype=np.uint64)
        u = uniforms_from_words(words)
        below_one = np.nextafter(1.0, 0.0)
        assert u[0] == below_one and u[1] == below_one
        assert u[2] == 1.0 - 2.0**-52  # the next word down keeps its value
        assert u[3] == 2.0**-54
        assert np.isfinite(_ndtri(u)).all()

    def test_rejects_non_integer_step_count(self):
        with pytest.raises(ValueError):
            sw.sample_path(0, 0, 1.0, 0.3)
        with pytest.raises(ValueError):
            sw.sample_path(0, 0, 1.0, -0.125)

    def test_rejects_non_dyadic_cell_count(self):
        with pytest.raises(ValueError):
            sw.sample_path(0, 0, 0.75, 2**-4)  # 12 cells

    def test_depth_refinement_is_nested(self):
        # the same (seed, sample) at twice the depth refines the same path:
        # child pairs sum back to their parent cell up to rounding
        coarse = sw.sample_path(5, 2, 1.0, 2**-6)
        fine = sw.sample_path(5, 2, 1.0, 2**-7)
        pairs = fine.increments[0::2] + fine.increments[1::2]
        np.testing.assert_allclose(pairs, coarse.increments, rtol=0, atol=1e-15)

    def test_lattice_shape(self):
        lat = sw.sample_path(9, 3, 0.25, 2**-10)
        assert lat.n_base == 256
        assert lat.t_final == 0.25
        assert lat.seed == 9 and lat.sample_index == 3


def ulp_grid(x, k=4):
    """The floats within k ulps of positive x."""
    return (np.array([x]).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


class TestInverseCDF:
    # standard_normals(0, 0, 7)[i] and ndtri at the stream's extremes and
    # at 1e-300, recorded from scipy.special.ndtri (scipy 1.17.1)
    PINNED_STREAM = {
        0: "-0x1.22cd198aad6edp+1",  # lower tail
        1: "-0x1.67147405be6f2p-1",  # middle, below 1/2
        3: "0x1.4c209a0cbd7d0p-3",  # middle, above 1/2
        6: "0x1.9cbb4059f9468p+0",  # upper tail, mirrored
    }
    PINNED_INPUTS = {  # all three past x = 8, on the far-tail approximation
        2.0**-54: "-0x1.095b059d67c4dp+3",
        1e-300: "-0x1.286074064c26ep+5",
        1.0 - 2.0**-53: "0x1.06b48528cea52p+3",
    }

    def test_pinned_stream_values(self):
        z = standard_normals(0, 0, 7)
        for i, want in self.PINNED_STREAM.items():
            assert z[i].hex() == want, i

    def test_pinned_branch_values(self):
        u = np.array(list(self.PINNED_INPUTS))
        got = [v.hex() for v in _ndtri(u.copy())]
        assert got == list(self.PINNED_INPUTS.values())

    def test_bit_equal_to_scipy_on_the_stream(self):
        special = pytest.importorskip("scipy.special")
        for seed in range(4):
            for index in range(20):
                u = standard_uniforms(seed, index, 2**16)
                want = special.ndtri(u)
                np.testing.assert_array_equal(_ndtri(u).view(np.int64),
                                              want.view(np.int64), err_msg=f"{seed}/{index}")

    def test_bit_equal_to_scipy_at_the_branch_edges(self):
        special = pytest.importorskip("scipy.special")
        edges = [EXPM2, 0.5, 1.0 - EXPM2, math.exp(-32), 1.0 - math.exp(-32)]
        u = np.concatenate([ulp_grid(e) for e in edges]
                           + [[1e-300, 2.0**-54, 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-53]])
        want = special.ndtri(u)
        np.testing.assert_array_equal(_ndtri(u.copy()).view(np.int64), want.view(np.int64))


class TestStepCount:
    def test_whole_ratios_within_tolerance(self):
        assert step_count(0.25, 2**-5) == 8
        assert step_count(0.0, 0.125) == 0
        # 0.25 / 0.06250000000625 lies 4e-10 below 4
        assert step_count(0.25, 0.06250000000625) == 4

    @pytest.mark.parametrize("span,step", [
        (0.25, 0.3), (0.25, 0.0625 * (1 + 1e-8)), (-0.25, 0.125), (1e308, 2**-11),
        (float("nan"), 0.125), (0.25, 0.0), (0.25, -0.125), (0.25, float("inf")),
        (0.25, float("nan")),
    ])
    def test_refused(self, span, step):
        with pytest.raises(ValueError):
            step_count(span, step)

    def test_lattice_and_coarsening_need_a_cell(self):
        with pytest.raises(ValueError):
            sw.sample_path(0, 0, 0.0, 0.125)
        lat = sw.sample_path(0, 0, 1.0, 2**-4)
        with pytest.raises(ValueError):
            sw.coarsen(lat, 0.0)


class TestCoarsening:
    def test_unit_ratio_is_verbatim(self):
        lat = sw.sample_path(1, 0, 1.0, 2**-6)
        np.testing.assert_array_equal(sw.coarsen(lat, 2**-6), lat.increments)

    def test_grouped_sum_bit_exact_vs_oracle(self):
        lat = sw.sample_path(17, 2, 1.0, 2**-8)
        for r in (2, 4, 8, 16):
            step = r * lat.base_dt
            coarse = sw.coarsen(lat, step)
            oracle = grouped_sums_oracle(lat.increments, r)
            np.testing.assert_array_equal(coarse, oracle)

    def test_total_sum_consistency(self):
        # summing group totals reassociates the additions, so agreement is
        # to rounding, not bit-exact
        lat = sw.sample_path(3, 1, 1.0, 2**-10)
        total = grouped_sums_oracle(lat.increments, lat.n_base)[0]
        for r in (4, 16):
            parts = sw.coarsen(lat, r * lat.base_dt)
            regrouped = grouped_sums_oracle(parts, len(parts))[0]
            assert regrouped == pytest.approx(total, rel=1e-13, abs=1e-15)

    def test_variance_matches_step(self):
        base_dt = 2**-12
        lat = sw.sample_path(11, 0, 2.0, base_dt)
        for r in (2, 8):
            step = r * base_dt
            coarse = sw.coarsen(lat, step)
            n = coarse.shape[0]
            stderr = step * np.sqrt(2.0 / n)
            assert abs(coarse.var() - step) < 3 * stderr

    def test_misaligned_step_rejected(self):
        lat = sw.sample_path(0, 0, 1.0, 2**-4)
        with pytest.raises(ValueError):
            sw.coarsen(lat, 1.5 * lat.base_dt)
        with pytest.raises(ValueError):
            sw.coarsen(lat, 3 * lat.base_dt)  # 16 cells do not tile by 3

    def test_nested_coarsenings_close(self):
        # grouped sums of coarser increments versus the direct base sums
        lat = sw.sample_path(13, 5, 1.0, 2**-8)
        fine = sw.coarsen(lat, 2 * lat.base_dt)
        direct = sw.coarsen(lat, 8 * lat.base_dt)
        regrouped = grouped_sums_oracle(fine, 4)
        np.testing.assert_allclose(regrouped, direct, rtol=1e-13, atol=1e-16)

