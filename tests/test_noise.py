"""Brownian lattice generation and exact coarsening."""

import numpy as np
import pytest

import stochwave as sw
from stochwave.noise import standard_normals, standard_uniforms, step_count


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

