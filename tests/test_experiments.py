"""Study driver, order fitting, report emission, config handling."""

import functools
import itertools
import math
import statistics
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import stochwave as sw
import stochwave.experiments as exp
from stochwave import cli
from stochwave.experiments import (
    config_from_mapping,
    default_n_cut,
    emit_study,
    parse_config_file,
    resolve_config,
)
from stochwave.integrators import stepping_key
from stochwave.problems import _DATA_STREAMS, PRESETS, AxisFactors
from stochwave.semigroup import propagator_tables
from stochwave.spectral import mode_indices, shell_index

from helpers import bits, brownian_error_variance, read_csv, zero_state


def lowband_state(seed=0):
    """1D initial data confined to modes {0, +-1}: every level retains it."""
    u = np.zeros(3, dtype=np.complex128)
    v = np.zeros(3, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    u[0], v[0] = rng.standard_normal(2)
    u[1], v[1] = rng.standard_normal(2)
    return sw.SpectralState(u, v)


def track_chunks(monkeypatch):
    """The sample ranges of the chunks ``_chunk_errors`` has started, in
    order; with one worker the last is the chunk being stepped."""
    real = exp._chunk_errors
    chunks = []

    def spy(study, samples):
        chunks.append(samples)
        return real(study, samples)

    monkeypatch.setattr(exp, "_chunk_errors", spy)
    return chunks


class PoisonRow:
    """sigma with the samples of one block row replaced by NaN."""
    is_zero = False

    def __init__(self, inner, row):
        self.inner, self.row = inner, row

    def __call__(self, u):
        out = self.inner(u)
        out[self.row] = np.nan
        return out


def linear_config(**kw):
    problem = sw.ProblemSpec(sw.zero_fn(), sw.zero_fn(),
                             sw.InitialDataSpec("explicit", state=lowband_state()))
    base = dict(dim=1, problem=problem, methods=("hr_lri", "stm", "lri"),
                levels=(2**-3, 2**-4, 2**-5), n_samples=4, seed=5)
    base.update(kw)
    return sw.ExperimentConfig(**base)


class TestEstimateOrder:
    def test_exact_first_order(self):
        taus = [2.0**-k for k in range(3, 9)]
        rows = [(t, 3.7 * t) for t in taus]
        assert sw.estimate_order(rows) == pytest.approx(1.0, abs=1e-12)

    def test_exact_half_order(self):
        taus = [2.0**-k for k in range(3, 9)]
        rows = [(t, 0.2 * t**0.5) for t in taus]
        assert sw.estimate_order(rows) == pytest.approx(0.5, abs=1e-12)

    def test_jittered_slope_within_band(self):
        rng = np.random.default_rng(0)
        taus = [2.0**-k for k in range(3, 9)]
        rows = [(t, t * (1 + rng.uniform(-0.05, 0.05))) for t in taus]
        assert 0.93 <= sw.estimate_order(rows) <= 1.07

    def test_too_few_rows(self):
        # fewer than three usable rows is no fit, like all-zero errors
        assert sw.estimate_order([(0.1, 1.0), (0.05, 0.5)]) is None
        assert sw.estimate_order([(0.1, 1.0), (0.05, 0.5), (0.025, 0.0)]) is None

    def test_all_zero_is_not_applicable(self):
        assert sw.estimate_order([(0.1, 0.0), (0.05, 0.0), (0.025, 0.0)]) is None


def test_aggregate_counts_and_delta_method_stderr():
    # per level: the finite errors counted, the NaN ones as excluded, the
    # rms of the counted ones and its delta-method standard error
    # sqrt(var_ddof1(e^2) / n) / (2 rms)
    err_sq = np.array([[1.0, 0.25], [4.0, np.nan], [np.nan, np.nan], [9.0, 0.5],
                       [16.0, 2.0]])
    rows = exp._aggregate("stm", (0.25, 0.125), (1, 2), err_sq).rows
    for row, good in zip(rows, ([1.0, 4.0, 9.0, 16.0], [0.25, 0.5, 2.0])):
        rms = math.sqrt(statistics.fmean(good))
        assert (row.n_samples, row.excluded) == (len(good), 5 - len(good))
        assert row.rms_error == pytest.approx(rms, rel=1e-15)
        assert row.stderr == pytest.approx(
            math.sqrt(statistics.variance(good) / len(good)) / (2 * rms), rel=1e-12)


def test_level_with_every_sample_excluded_fails():
    err_sq = np.array([[0.5, np.nan], [0.25, np.nan]])
    with pytest.raises(sw.NumericalFailure, match="every sample excluded"):
        exp._aggregate("stm", (0.25, 0.125), (1, 2), err_sq)


class TestCsv:
    def test_empty_report_header_only(self, tmp_path):
        rep = sw.ConvergenceReport(method="stm", rows=(), fitted_order=None)
        path = tmp_path / "empty.csv"
        sw.emit_csv([rep], path)
        text = path.read_text(encoding="utf-8")
        assert text == "method,tau,n_cut,n_samples,rms_error,stderr,excluded,wall_seconds\n"

    def test_round_trip_bits(self, tmp_path):
        rows = (sw.LevelRow(tau=2**-5, n_cut=8, n_samples=7,
                            rms_error=0.123456789012345678, stderr=1.5e-3,
                            excluded=1, wall_seconds=0.25),
                sw.LevelRow(tau=2**-6, n_cut=16, n_samples=8,
                            rms_error=np.pi * 1e-4, stderr=7e-5,
                            excluded=0, wall_seconds=0.5))
        rep = sw.ConvergenceReport(method="hr_lri", rows=rows, fitted_order=1.0)
        path = tmp_path / "rt.csv"
        sw.emit_csv([rep], path)
        back = read_csv(path)
        assert len(back) == 2
        for rec, row in zip(back, rows):
            assert rec["method"] == "hr_lri"
            assert float(rec["tau"]) == row.tau
            assert float(rec["rms_error"]) == row.rms_error
            assert float(rec["stderr"]) == row.stderr
            assert float(rec["wall_seconds"]) == row.wall_seconds

    def test_column_count(self, tmp_path):
        rep = sw.ConvergenceReport(
            method="sem",
            rows=(sw.LevelRow(0.1, 4, 3, 1e-2, 1e-4, 0, 0.0),),
            fitted_order=None)
        path = tmp_path / "cols.csv"
        sw.emit_csv([rep], path)
        lines = path.read_text().splitlines()
        assert all(len(line.split(",")) == 8 for line in lines)


class TestPlotData:
    def test_bytes_match_per_line_format(self, tmp_path):
        # the one-pass writer against a line-by-line f-string transcription
        xs = [-0.0, 1e-310, 1 / 3, 1e300, 2.0, np.inf, np.nan]
        ys = [1e300, -0.0, 1e-310, 1 / 3, -7.25, np.nan, -np.inf]
        for k, (x, y) in enumerate([(xs, ys), ([], [])]):
            path = tmp_path / f"plot{k}.txt"
            exp.write_plot_data(path, exp.plot_lines(x), np.array(y), "u(x) at t=0.25")
            expect = "# u(x) at t=0.25\n" + "".join(f"{a:.17g} {b:.17g}\n" for a, b in zip(x, y))
            assert path.read_bytes() == expect.encode("utf-8")
        lines = (tmp_path / "plot0.txt").read_bytes().splitlines()
        assert lines[1] == b"-0 1.0000000000000001e+300"
        assert lines[6:] == [b"inf nan", b"nan -inf"]
        assert (tmp_path / "plot1.txt").read_bytes() == b"# u(x) at t=0.25\n"

    def test_one_column_fills_many_files(self, tmp_path):
        lines = exp.plot_lines([0.0, 0.5])
        for k, ys in enumerate(([1.0, 2.0], [3.0, -4.0])):
            exp.write_plot_data(tmp_path / f"{k}.txt", lines, ys, "c")
        assert (tmp_path / "1.txt").read_text() == "# c\n0 3\n0.5 -4\n"
        with pytest.raises(TypeError):
            exp.write_plot_data(tmp_path / "short.txt", lines, [1.0], "c")

    def test_matches_python_on_a_corpus(self, tmp_path):
        # every branch of the array kernel against '%.17g', through the file
        # bytes: the exact range and what is left to Python (zeros,
        # subnormals, values below 1e-280 or from 1e16, inf, nan, ties), the
        # exponent estimate one off and the carry to 10^17 (powers of ten
        # and their neighbours), the 1e-5/1e-4 and 1e16/1e17 switches of
        # notation, and dyadic ties k / 2^m, whose 18 digits end in 5
        rng = np.random.default_rng(2026)
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        near = [powers]
        below, above = powers, powers
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near += [below, above]
        switches = [rng.uniform(0.999, 1.001, 2000) * b for b in (1e-5, 1e-4, 1e16, 1e17)]
        ties = [np.ldexp(rng.integers(-(-10**17 // 5**m), min(10**18 // 5**m, 2**53), 400) | 1, -m)
                for m in range(2, 26)]
        corpus = np.concatenate([
            rng.standard_normal(110000),
            rng.standard_normal(110000) * 10.0 ** rng.integers(-30, 1, 110000),
            np.exp(rng.uniform(-690.0, 40.0, 70000)),
            np.exp(rng.uniform(36.0, 690.0, 3000)),
            *near, *switches, *ties,
            np.ldexp(rng.uniform(0.0, 1.0, 1000), -1022),       # subnormals
            [0.0, 5e-324, 1e-280, np.inf, np.nan, 1.7976931348623157e308],
        ])
        corpus *= rng.choice([-1.0, 1.0], len(corpus))
        corpus = rng.permutation(corpus)
        assert len(corpus) >= 300000
        half = len(corpus) // 2
        xs, ys = corpus[:half], corpus[half:2 * half]
        path = tmp_path / "corpus.txt"
        exp.write_plot_data(path, exp.plot_lines(xs), ys, "corpus")
        expect = "# corpus\n" + ("%.17g %.17g\n" * half) % tuple(np.stack([xs, ys], 1).ravel().tolist())
        assert path.read_bytes() == expect.encode("utf-8")

    @staticmethod
    def expected(xs, ys, comment="c"):
        return (f"# {comment}\n" + ("%.17g %.17g\n" * len(xs))
                % tuple(np.stack([xs, ys], 1).ravel().tolist())).encode("utf-8")

    def test_blocks_with_and_without_zeros_or_fallbacks(self, tmp_path):
        # 8 blocks of 1024 lines: a block's zero rows and Python's rows are
        # filled in only where it has any, so blocks with none sit between
        # blocks with zeros alone, with inexact values alone, and with both,
        # in either column
        rng = np.random.default_rng(7)
        xs, ys = rng.standard_normal((2, 8192))
        xs[1024 + rng.integers(0, 1024, 5)] = 0.0                   # block 1: zeros
        ys[3 * 1024 + rng.integers(0, 1024, 5)] = [5e-324, 1e300, np.inf, -np.nan, 1e16]
        xs[5 * 1024 + 3], xs[5 * 1024 + 700] = -0.0, 1e-300           # block 5: both
        ys[7 * 1024 - 1] = 0.0                                          # block 6's last line
        lines = exp.plot_lines(xs)
        assert [len(x) for x in lines] == [1024] * 8
        exp.write_plot_data(tmp_path / "p.txt", lines, ys, "c")
        assert (tmp_path / "p.txt").read_bytes() == self.expected(xs, ys)

    def test_blocks_of_changing_width(self, tmp_path):
        # the x width of the blocks goes up and down, a later block is
        # narrower than the first, and the last is shorter: every block's
        # separators sit after its own x text
        rng = np.random.default_rng(8)
        widths = [rng.standard_normal(1024), np.arange(1024.0), rng.standard_normal(1024) * 1e-7,
                  np.full(1024, 0.5), rng.integers(0, 9, 500) * 1.0]
        xs = np.concatenate(widths)
        ys = rng.standard_normal(len(xs))
        lines = exp.plot_lines(xs)
        assert [len(x) for x in lines] == [1024] * 4 + [500]
        assert [x.shape[1] for x in lines] == [23, 5, 23, 3, 2]
        exp.write_plot_data(tmp_path / "p.txt", lines, ys, "c")
        assert (tmp_path / "p.txt").read_bytes() == self.expected(xs, ys)
        # blocks of one width whose later block has more lines than an
        # earlier one: two columns' blocks written as one
        xs = [1.0, 2.0, 3.0, 4.0]
        lines = exp.plot_lines(xs[:1]) + exp.plot_lines(xs[1:])
        exp.write_plot_data(tmp_path / "q.txt", lines, [5.0, 6.0, 7.0, 8.0], "c")
        assert (tmp_path / "q.txt").read_bytes() == b"# c\n1 5\n2 6\n3 7\n4 8\n"

    def test_text_holds_a_fraction_of_the_band(self, tmp_path):
        # run_single at tau = 2^-8 plots 8192 points of band 4096: its x
        # column holds 1.95 full-band half arrays (tracemalloc) and one
        # write peaks 4.6 above what it was given, in blocks of 1024 lines
        points, array = 8192, 16 * (4096 + 1)
        rng = np.random.default_rng(5)
        ys = rng.standard_normal(points) * 10.0 ** rng.integers(-30, 1, points)
        exp.write_plot_data(tmp_path / "warm.txt", exp.plot_lines(ys), ys, "c")
        xs = np.arange(points) / points
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lines = exp.plot_lines(xs)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            exp.write_plot_data(tmp_path / "u.txt", lines, ys, "u")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held <= 2.5 * array
        assert peak <= 6.5 * array


class TestRunConvergence:
    def test_linear_exact_methods_have_zero_error(self):
        reports = sw.run_convergence(linear_config())
        for m in ("hr_lri", "stm", "lri"):
            for row in reports[m].rows:
                assert row.rms_error < 1e-10

    def test_sem_is_not_exact(self):
        reports = sw.run_convergence(linear_config(methods=("sem",)))
        assert all(row.rms_error > 1e-6 for row in reports["sem"].rows)

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = linear_config(methods=("stm", "sem"), n_samples=3)
        blobs = []
        for tag in ("a", "b"):
            reports = sw.run_convergence(cfg)
            path = tmp_path / f"{tag}.csv"
            sw.emit_csv(list(reports.values()), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_worker_count_invariance(self, tmp_path):
        base = dict(preset=2, gamma=0.5, methods=("hr_lri", "sem"),
                    levels=(2**-3, 2**-4, 2**-5), n_samples=6, seed=3)
        blobs = []
        for workers in (1, 4):
            cfg = sw.ExperimentConfig(dim=1, n_workers=workers, **base)
            reports = sw.run_convergence(cfg)
            path = tmp_path / f"w{workers}.csv"
            sw.emit_csv(list(reports.values()), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_rows_sorted_by_decreasing_tau(self):
        cfg = linear_config(levels=(2**-5, 2**-3, 2**-4), methods=("sem",))
        reports = sw.run_convergence(cfg)
        taus = [row.tau for row in reports["sem"].rows]
        assert taus == sorted(taus, reverse=True)

    def test_smooth_problem_first_order(self):
        # desk-scale sanity: smooth data, trigonometric baseline, slope ~1
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=4.0,
                                  methods=("stm",),
                                  levels=(2**-3, 2**-4, 2**-5, 2**-6),
                                  n_samples=16, seed=11)
        reports = sw.run_convergence(cfg)
        assert 0.7 < reports["stm"].fitted_order < 1.3

    def test_error_monotone_on_average(self):
        # smooth data: each halving of tau may lose to noise at most once
        for seed in (1, 2):
            cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=4.0,
                                      methods=("hr_lri",),
                                      levels=(2**-3, 2**-4, 2**-5, 2**-6),
                                      n_samples=12, seed=seed)
            rows = sw.run_convergence(cfg)["hr_lri"].rows
            errs = [row.rms_error for row in rows]
            violations = sum(errs[i] < errs[i + 1] for i in range(len(errs) - 1))
            assert violations <= 1

    def test_partial_exclusion_counted(self, monkeypatch):
        # one failing run out of 303 is excluded and counted, never averaged
        real_block = exp.run_block
        chunks = track_chunks(monkeypatch)

        def flaky(methods, start, f, sigma, dws):
            results = real_block(methods, start, f, sigma, dws)
            for spec, res in zip(methods, results):
                if spec.kind == "stm" and spec.tau == 2**-3 and 5 in chunks[-1]:
                    res.failed[chunks[-1].index(5)] = 0
            return results

        monkeypatch.setattr(exp, "run_block", flaky)
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=4.0, methods=("stm",),
                                  levels=(2**-3, 2**-4, 2**-5), n_samples=101,
                                  seed=13)
        rows = sw.run_convergence(cfg)["stm"].rows
        assert rows[0].excluded == 1 and rows[0].n_samples == 100
        assert rows[1].excluded == 0 and rows[1].n_samples == 101

    def test_nonfinite_image_excluded(self, monkeypatch):
        # a real non-finite nonlinearity image in one row of a block leaves
        # that row's new state non-finite: NaN for that run, counted in the
        # excluded column, and the study still reports.  sem and stm step
        # as one block of two kinds, sem's rows first, so stm's row of
        # sample 2 is the block's row S + 2, and sem's rows stay finite
        real_block = exp.run_block
        chunks = track_chunks(monkeypatch)

        def poison(methods, start, f, sigma, dws):
            kinds = [spec.kind for spec in methods]
            if 2 in chunks[-1] and "stm" in kinds and methods[0].tau == 2**-4:
                assert kinds == ["sem", "stm"]
                sigma = PoisonRow(sigma, len(dws) + chunks[-1].index(2))
            return real_block(methods, start, f, sigma, dws)

        monkeypatch.setattr(exp, "run_block", poison)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, preset=2, gamma=4.0, methods=("sem", "stm"),
            levels=(2**-3, 2**-4, 2**-5), n_samples=40, seed=13))
        err_sq, _ = exp._chunk_errors(exp._prepare(cfg), range(2, 3))
        assert np.isnan(err_sq[0, 1, 1])
        assert np.isfinite(np.delete(err_sq.ravel(), 4)).all()
        reports = sw.run_convergence(cfg)
        assert [row.excluded for row in reports["stm"].rows] == [0, 1, 0]
        assert [row.excluded for row in reports["sem"].rows] == [0, 0, 0]

    def test_failed_reference_row_excludes_its_sample(self, monkeypatch):
        # only the reference block's row of sample 2 goes non-finite: with
        # no reference that sample has no error, so every method excludes
        # it at every level, and no other sample.  100 samples put the 12
        # exclusions at the 1% the study still reports
        real_block = exp.run_block
        chunks = track_chunks(monkeypatch)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, preset=2, gamma=4.0, methods=("hr_lri", "lri", "sem", "stm"),
            levels=(2**-3, 2**-4, 2**-5), n_samples=100, seed=13))

        def poison(methods, start, f, sigma, dws):
            if 2 in chunks[-1] and methods[0].tau == cfg.tau_ref:
                sigma = PoisonRow(sigma, chunks[-1].index(2))
            return real_block(methods, start, f, sigma, dws)

        monkeypatch.setattr(exp, "run_block", poison)
        err_sq, _ = exp._chunk_errors(exp._prepare(cfg), range(0, 4))
        assert np.isnan(err_sq[2]).all()
        assert np.isfinite(np.delete(err_sq, 2, axis=0)).all()
        for report in sw.run_convergence(cfg).values():
            assert [(row.excluded, row.n_samples) for row in report.rows] == [(1, 99)] * 3

    @pytest.mark.parametrize("excluded", [3, 4])
    def test_one_percent_of_runs_excluded_at_most(self, monkeypatch, excluded):
        # 300 runs (100 samples, one method, three levels) with hand-made
        # errors: 3 excluded runs are 1% and the study reports them, one
        # more aborts it
        err_sq = np.ones((100, 1, 3))
        for s, li in [(5, 0), (50, 1), (99, 2), (7, 1)][:excluded]:
            err_sq[s, 0, li] = np.nan
        monkeypatch.setattr(exp, "_chunk_errors", lambda study, samples: (
            err_sq[samples.start:samples.stop], np.zeros((1, 3))))
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=4.0, methods=("stm",),
                                  levels=(2**-3, 2**-4, 2**-5), n_samples=100, seed=13)
        if excluded == 3:
            rows = sw.run_convergence(cfg)["stm"].rows
            assert [row.excluded for row in rows] == [1, 1, 1]
        else:
            with pytest.raises(sw.NumericalFailure, match="4 of 300 runs excluded"):
                sw.run_convergence(cfg)

    def test_exclusions_over_threshold_fail_loudly(self, monkeypatch):
        real_block = exp.run_block

        def flaky(methods, start, f, sigma, dws):
            results = real_block(methods, start, f, sigma, dws)
            for spec, res in zip(methods, results):
                if spec.kind == "stm" and spec.tau == 2**-3:
                    res.failed.update(dict.fromkeys(range(len(dws)), 0))
            return results

        monkeypatch.setattr(exp, "run_block", flaky)
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=4.0, methods=("stm",),
                                  levels=(2**-3, 2**-4, 2**-5), n_samples=8,
                                  seed=13)
        with pytest.raises(sw.NumericalFailure):
            sw.run_convergence(cfg)
        assert issubclass(sw.NumericalFailure, sw.NumericalError)

    def test_reference_consistency(self):
        # halving tau_ref moves each rms by less than its standard error;
        # the dyadic lattice construction keeps the paths of the two studies
        # nested, so the difference is the systematic reference effect alone
        base = dict(dim=1, preset=2, gamma=4.0, methods=("hr_lri",),
                    levels=(2**-3, 2**-4), n_samples=12, seed=7)
        coarse = sw.run_convergence(sw.ExperimentConfig(tau_ref=2**-8, **base))
        fine = sw.run_convergence(sw.ExperimentConfig(tau_ref=2**-9, **base))
        for a, b in zip(coarse["hr_lri"].rows, fine["hr_lri"].rows):
            assert abs(a.rms_error - b.rms_error) < max(a.stderr, 1e-12)


def full_state_errors(config, sample):
    """The error norms of one sample computed on full-band final states:
    every run recovers its whole band, and both states are padded to the
    wider one.  The study's split evaluation must reproduce these."""
    config = resolve_config(config)
    dim, problem = config.dim, config.problem
    ref_grid = sw.make_grid(dim, default_n_cut(config.tau_ref), config.alpha)
    shared = sw.ProblemSpec(problem.f, problem.sigma, sw.InitialDataSpec(
        "explicit", state=sw.build_initial(problem.initial, ref_grid)))
    lattice = sw.sample_path(config.seed, sample, config.t_final, config.tau_ref)
    ref = sw.run(sw.method_spec("hr_lri", config.tau_ref, config.t_final),
                 ref_grid, shared, lattice)
    out = np.empty((len(config.methods), len(config.levels)))
    for mi, m in enumerate(config.methods):
        for li, (tau, n_cut) in enumerate(zip(config.levels, config.n_cuts)):
            res = sw.run(sw.method_spec(m, tau, config.t_final),
                         sw.make_grid(dim, n_cut, config.alpha), shared, lattice)
            band = max(res.band, ref.band)
            a, b = sw.with_band(res, band), sw.with_band(ref, band)
            out[mi, li] = sw.sobolev_norm(sw.SpectralState(a.u_hat - b.u_hat,
                                                           a.v_hat - b.v_hat), 0.0)
    return out


def rough_state(band, seed=0, dim=1):
    """White-noise fields stored at ``band``: every stored mode is set."""
    rng = np.random.default_rng(seed)
    shape = (2 * band,) * dim
    return sw.state_from_fields(rng.standard_normal(shape), rng.standard_normal(shape))


def explicit(state):
    return sw.ProblemSpec(sw.zero_fn(), sw.scaled_sine(16.0),
                          sw.InitialDataSpec("explicit", state=state))


ALL_METHODS = ("hr_lri", "lri", "sem", "stm")
# 1D levels 2^-3..2^-5 with tau_ref 2^-7: stepped bands 2, 4, 8 and N_ref = 32
SPLIT_CASES = {
    "preset1": dict(dim=1, preset=1),
    "preset1-wide-n_cuts": dict(dim=1, preset=1, n_cuts=(4, 16, 64)),
    "preset2": dict(dim=1, preset=2),
    "preset2-alpha1": dict(dim=1, preset=2, alpha=1.0),
    "explicit-band2": dict(dim=1, problem=explicit(lowband_state())),
    "explicit-band64": dict(dim=1, problem=explicit(rough_state(64))),
    # data on every mode of the reference's full box N_ref^alpha (1024 in
    # 1D, 64 in 2D), so every tail above 2 N_ref is checked nonzero
    "explicit-full-box-1d": dict(dim=1, problem=explicit(rough_state(1024))),
    "explicit-full-box-2d": dict(dim=2, problem=explicit(rough_state(64, dim=2)),
                                 levels=(2**-3, 2**-4), tau_ref=2**-6),
    "preset3": dict(dim=2, preset=3, levels=(2**-3, 2**-4), tau_ref=2**-6),
    "preset3-wide-n_cuts": dict(dim=2, preset=3, levels=(2**-3, 2**-4),
                                tau_ref=2**-6, n_cuts=(4, 32)),
    "preset4": dict(dim=2, preset=4, levels=(2**-3, 2**-4), tau_ref=2**-6),
    "preset4-alpha1": dict(dim=2, preset=4, alpha=1.0, levels=(2**-3, 2**-4),
                           tau_ref=2**-6),
}


class TestErrorSplit:
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_split_matches_full_state_norm(self, case):
        base = dict(methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5),
                    gamma=0.5, seed=4)
        cfg = resolve_config(sw.ExperimentConfig(**{**base, **SPLIT_CASES[case]}))
        study = exp._prepare(cfg)
        err_sq, _ = exp._chunk_errors(study, range(2))
        for sample in (0, 1):
            oracle = full_state_errors(cfg, sample)
            assert (oracle > 0).all()
            np.testing.assert_allclose(np.sqrt(err_sq[sample]), oracle, rtol=1e-13, atol=0)

    def test_no_sample_state_wider_than_stepped_band(self, monkeypatch):
        real = exp._weighted_norm_sq
        shapes = []

        def spy(u, v, wu, wv):
            shapes.append((u.shape, v.shape, wu.shape, wv.shape))
            return real(u, v, wu, wv)

        monkeypatch.setattr(exp, "_weighted_norm_sq", spy)
        cfg = sw.ExperimentConfig(dim=1, preset=1, methods=ALL_METHODS,
                                  levels=(2**-3, 2**-4, 2**-5), n_cuts=(4, 16, 64),
                                  n_samples=3, seed=1)
        sw.run_convergence(cfg)
        # M = 64 here, while the reference's full band is 32^2 = 1024; one
        # chunk of three samples, one reduction per method and level
        assert len(shapes) == 4 * 3
        for shape in shapes:
            assert shape == ((3, 65), (3, 65), (65,), (65,))


def box_energy(u, v, t):
    """Per-mode gamma = 0 pair-norm energy of the flow e^(tL) of the full
    spectra u and v on a (2n,)^d box in the FFT layout, and the box's shell
    index max_j |k_j|."""
    n = u.shape[0]
    k = np.meshgrid(*[np.fft.fftfreq(n, 1 / n)] * u.ndim, indexing="ij")
    lam2 = (2 * np.pi) ** 2 * sum(kj * kj for kj in k)
    a11, a12, a21, a22 = propagator_tables(np.sqrt(lam2), t)
    fu, fv = a11 * u + a12 * v, a21 * u + a22 * v
    energy = np.abs(fu) ** 2 + np.abs(fv) ** 2 / (1 + lam2)
    return energy, np.maximum.reduce([np.abs(kj) for kj in k])


def full_box_energy(state, t):
    """``box_energy`` of a state's full spectrum, the complex FFT of its
    fields."""
    return box_energy(*(np.fft.fftn(f, norm="forward") for f in sw.state_to_fields(state)), t)


# random data, whose study builds it from its per-axis factors: 1D at alpha
# 1 and 2, 2D at alpha 1, 1.5 and 2
FACTORED_CASES = ("preset2", "preset2-alpha1", "preset4-alpha1", "preset4", "preset4-alpha2")
TAIL_CASES = {**SPLIT_CASES,
              "preset4-alpha2": dict(dim=2, preset=4, alpha=2.0, levels=(2**-3, 2**-4),
                                     tau_ref=2**-6)}


def factor_box_energy(factors, t):
    """``box_energy`` of separable data on the (2n,)^d box of the factors'
    band n, each mode the product of the profiles at its |k_j|: mode -n,
    the box's one unpaired mode per axis, is there once."""
    n = factors.band
    absk = np.abs(np.fft.fftfreq(2 * n, 1 / (2 * n))).astype(np.int64)

    def field(profiles):
        padded = [np.concatenate([p, np.zeros(n + 1 - p.size)]) for p in profiles]
        return functools.reduce(np.multiply.outer, [p[absk] for p in padded])

    return box_energy(field(factors.u), field(factors.v), t)


def tail_oracle_check(tail, energy, outside):
    """A tail against the full-box oracle at rtol 1e-14; where the data has
    no mode outside the box the tail must be exactly 0, the oracle's sum
    there being the rounding of its transforms."""
    oracle = np.sum(energy[outside])
    if oracle < 1e-30 * np.sum(energy):
        assert tail == 0.0
    else:
        np.testing.assert_allclose(tail, oracle, rtol=1e-14, atol=0)


def assert_same_study(study, other):
    """Two prepared studies hold the same starts, shifts and tails, bit for
    bit; returns the tails."""
    assert study.band == other.band and study.starts.keys() == other.starts.keys()
    for n, start in study.starts.items():
        np.testing.assert_array_equal(bits(start.u_hat), bits(other.starts[n].u_hat))
        np.testing.assert_array_equal(bits(start.v_hat), bits(other.starts[n].v_hat))
    tails = set()
    for row, other_row in zip(study.runs, other.runs):
        for (_, n, shift, tail), (_, other_n, other_shift, other_tail) in zip(row, other_row):
            assert n == other_n and tail == other_tail
            tails.add(tail)
            assert (shift is None) == (other_shift is None)
            for a, b in zip(shift or (), other_shift or ()):
                np.testing.assert_array_equal(bits(a), bits(b))
    return tails


class TestTails:
    @pytest.mark.parametrize("dim,band,rows", [(1, 1024, 100), (2, 64, 10)])
    def test_outside_energy_matches_full_box_flow(self, monkeypatch, dim, band, rows):
        # slabs of `rows` last-axis |k| do not tile the |k| < band that
        # the data fills, so the last slab is partial
        assert band % rows
        monkeypatch.setattr(exp, "_SLAB_BYTES", rows * 8 * band ** (dim - 1))
        rng = np.random.default_rng(dim)
        shape = (2 * band,) * dim
        # white noise on every paired mode
        state = sw.state_from_fields(rng.standard_normal(shape), rng.standard_normal(shape))
        # box 0 holds every mode, the origin lambda = 0 included
        boxes = {0, 1, 7, band // 2, band - 1, band, band + 1}
        got = exp._outside_energy(*exp._state_rows(state, band), 0.25, boxes)
        energy, shell = full_box_energy(state, 0.25)
        assert set(got) == boxes
        for b in boxes - {band, band + 1}:
            np.testing.assert_allclose(got[b], np.sum(energy[shell >= b]), rtol=1e-14, atol=0)
        # the state's unpaired slots hold nothing, the oracle's rounding there
        assert got[band + 1] == got[band] == 0.0 and got[band - 1] > 0.0
        assert np.sum(energy[shell >= band]) < 1e-30 * np.sum(energy)

    @pytest.mark.parametrize("case", ["preset1-wide-n_cuts", "preset3-wide-n_cuts",
                                      "explicit-full-box-1d", "explicit-full-box-2d",
                                      *FACTORED_CASES])
    def test_study_tails_and_shifts_match_full_box_flow(self, case):
        base = dict(methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5), gamma=0.5, seed=4)
        cfg = resolve_config(sw.ExperimentConfig(**{**base, **TAIL_CASES[case]}))
        study = exp._prepare(cfg)
        dim, problem = cfg.dim, cfg.problem
        n_ref, band = default_n_cut(cfg.tau_ref), study.band
        full = sw.make_grid(dim, n_ref, cfg.alpha)
        u0 = sw.with_band(sw.build_initial(problem.initial, full), full.n_high)
        energy, shell = full_box_energy(u0, cfg.t_final)
        flow_m = sw.with_band(sw.recover_high(u0, cfg.t_final), band)
        shell_m = shell_index(dim, band)
        ref_sign = (n_ref <= shell_m) & (shell_m < min(full.n_high, band))
        live = 0
        for mi, m in enumerate(cfg.methods):
            for li, (tau, n) in enumerate(zip(cfg.levels, cfg.n_cuts)):
                spec = sw.method_spec(m, tau, cfg.t_final)
                h = sw.make_grid(dim, n, cfg.alpha).n_high if spec.recovery else n
                _, _, shift, tail = study.runs[mi][li]
                tail_oracle_check(tail, energy, shell >= max(band, h))
                sign = 1.0 * ((n <= shell_m) & (shell_m < min(h, band))) - ref_sign
                if not sign.any():
                    assert shift is None
                    continue
                live += 1
                np.testing.assert_array_equal(shift[0], flow_m.u_hat * sign)
                np.testing.assert_array_equal(shift[1], flow_m.v_hat * sign)
        # with alpha = 1 no run recovers a mode, the reference included
        assert live > 0 or cfg.alpha == 1.0
        if case.startswith("explicit-full-box"):
            assert all(tail > 0 for row in study.runs for *_, tail in row)

    @pytest.mark.parametrize("case", FACTORED_CASES + ("preset1", "preset3"))
    def test_factored_study_is_the_full_state_study_bit_for_bit(self, case):
        # a preset's study, from its factors, against the study of the same
        # data given as an explicit state, build_initial's at the
        # reference's full band: the same starts, shifts and tails, bit for
        # bit
        base = dict(methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5), gamma=0.5, seed=4)
        cfg = resolve_config(sw.ExperimentConfig(**{**base, **TAIL_CASES[case]}))
        full = sw.make_grid(cfg.dim, default_n_cut(cfg.tau_ref), cfg.alpha)
        state = sw.build_initial(cfg.problem.initial, full)
        study = exp._prepare(cfg)
        given = exp._prepare(replace(cfg, preset=None, problem=replace(
            cfg.problem, initial=sw.InitialDataSpec("explicit", state=state))))
        tails = assert_same_study(study, given)
        if cfg.alpha > 1.0:
            assert max(tails) > 0.0

    @pytest.mark.parametrize("dim,band,tau_ref", [(1, 2048, 2**-7), (2, 128, 2**-6)])
    def test_wider_state_is_its_truncation_bit_for_bit(self, dim, band, tau_ref):
        # an explicit state wider than the reference's full band n_high is
        # read at its own band, truncated to n_high: the study of its
        # truncation, bit for bit
        state = rough_state(band, seed=5, dim=dim)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=dim, problem=explicit(state), methods=ALL_METHODS,
            levels=(2**-3, 2**-4, 2**-5)[:5 - dim], tau_ref=tau_ref, seed=4))
        n_high = sw.make_grid(dim, default_n_cut(tau_ref), cfg.alpha).n_high
        assert n_high < band
        truncated = replace(cfg, problem=explicit(sw.with_band(state, n_high)))
        tails = assert_same_study(exp._prepare(cfg), exp._prepare(truncated))
        assert min(tails) > 0.0

    @pytest.mark.parametrize("dim,band,rows", [(1, 40, 7), (2, 12, 5)])
    def test_factor_tails_match_full_box_flow(self, monkeypatch, dim, band, rows):
        # profiles filling every slot |k| = 0..band, the unpaired one
        # included, so each axis's sign multiplicity counts: 1 at 0 and at
        # band, 2 between; `rows` last-axis |k| a slab, the last one partial
        assert (band + 1) % rows
        monkeypatch.setattr(exp, "_SLAB_BYTES", rows * 8 * (band + 1) ** (dim - 1))
        rng = np.random.default_rng(dim)
        factors = AxisFactors(band, *(tuple(rng.uniform(-1, 1, band + 1) for _ in range(dim))
                                      for _ in "uv"))
        boxes = {0, 1, 5, band - 1, band, band + 1}
        got = exp._outside_energy(*exp._factor_rows(factors), 0.25, boxes)
        energy, shell = factor_box_energy(factors, 0.25)
        assert set(got) == boxes and got[band + 1] == 0.0
        for b in boxes - {band + 1}:
            assert got[b] > 0.0
            np.testing.assert_allclose(got[b], np.sum(energy[shell >= b]), rtol=1e-14, atol=0)

    def test_even_factors_tail_is_their_states_bit_for_bit(self):
        # profiles that end below the band, as random data's do: the pass
        # stops where they end, and the tails are the full state's
        rng = np.random.default_rng(3)
        for dim, band, size in ((1, 3000, 700), (2, 200, 61)):
            factors = AxisFactors(band, *(tuple(rng.uniform(0, 1, size) for _ in range(dim))
                                          for _ in "uv"))
            boxes = {1, 17, size - 1, size, band // 2, band}
            got = exp._outside_energy(*exp._factor_rows(factors), 0.25, boxes)
            assert got == exp._outside_energy(*exp._state_rows(factors.state(band), band),
                                              0.25, boxes)
            assert got[size - 1] > 0.0 and got[size] == got[band] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tail_pass_stops_where_the_data_ends(self, dim):
        # profiles whose last nonzero slot is |k| = 299, far below the band:
        # both producers end the orthant there
        rng = np.random.default_rng(dim)
        band = 4096 if dim == 1 else 512
        factors = AxisFactors(band, *(tuple(np.r_[rng.uniform(0, 1, 300), np.zeros(40)]
                                            for _ in range(dim)) for _ in "uv"))
        assert exp._factor_rows(factors)[1] == 300
        assert exp._state_rows(factors.state(band), band)[1] == 300

    def test_tail_pass_builds_no_full_box_array(self):
        # a 2D box of 1024^2 modes: 8 MiB per complex half-spectrum array
        shape = (1024, 513)
        state = sw.SpectralState(np.full(shape, 1.0 + 2.0j), np.full(shape, 3.0 - 1.0j))
        tracemalloc.start()
        try:
            exp._outside_energy(*exp._state_rows(state, 512), 0.25, {256, 400, 512})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestBrownianLaw:
    # f = 0 and sigma = c force the k = 0 mode alone, where a row's expected
    # squared error is c^2 V_l (``brownian_error_variance``) above the same
    # study's with sigma = 0, D_l; the data has no k = 0 mode, so the two
    # parts add.  rms^2 is a mean of squared errors whose standard error is
    # 2 rms stderr, so each z is about a standard normal: max |z| is 0.81
    # over the 1D rows of 256 samples, the wide n_cuts ones included, and
    # 1.84 over the 2D rows of 128 samples, and 6.4 or more when W(T) is
    # drawn with half its variance
    C = 2.0
    # presets 2 and 4's random data in 1D and 2D, seed 3
    PROBLEM = sw.ProblemSpec(sw.zero_fn(), sw.constant_fn(C),
                             sw.InitialDataSpec("random_hgamma", gamma=0.5, seed=3))

    def z_values(self, cfg, quiet=None):
        """{(method, tau): z} of each row of the study ``cfg``, against D_l
        from ``quiet``, the reports of the same study without noise."""
        noisy = sw.run_convergence(cfg)
        # without noise every sample has the same error, so two give D_l
        quiet = quiet or sw.run_convergence(replace(
            cfg, problem=replace(cfg.problem, sigma=sw.zero_fn()), n_samples=2))
        return {(method, row.tau): (row.rms_error**2 - base.rms_error**2 - self.C**2
                                    * brownian_error_variance(cfg.t_final, row.tau, cfg.tau_ref))
                / (2.0 * row.rms_error * row.stderr)
                for method in cfg.methods
                for row, base in zip(noisy[method].rows, quiet[method].rows)}

    def assert_rows_match(self, cfg):
        for row, z in self.z_values(cfg).items():
            assert abs(z) <= 4.0, (row, z)

    def test_stderr_calibrated_over_seeds(self):
        # z is about a standard normal only if the stderr is right: over 20
        # path seeds at 128 samples its standard deviation is 0.86-1.17 per
        # row and 1.02 over all rows, and about 0.51 with a stderr of twice
        # its value (1D, alpha 2; about 0.5 s)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, problem=self.PROBLEM, methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5),
            alpha=2.0, n_samples=128))
        quiet = sw.run_convergence(replace(
            cfg, problem=replace(cfg.problem, sigma=sw.zero_fn()), n_samples=2))
        z = np.array([list(self.z_values(replace(cfg, seed=seed), quiet).values())
                      for seed in range(20)])
        per_row = z.std(axis=0, ddof=1)
        assert 0.8 <= per_row.min() and per_row.max() <= 1.25, per_row
        assert 0.93 <= z.std(ddof=1) <= 1.15

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_rows_match_the_closed_form(self, alpha):
        self.assert_rows_match(resolve_config(sw.ExperimentConfig(
            dim=1, problem=self.PROBLEM, methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5),
            alpha=alpha, n_samples=256, seed=11)))

    # M = 64 above N_ref = 32: the reference's recovered modes shift every row
    def test_wide_n_cuts_rows_match_the_closed_form(self):
        self.assert_rows_match(resolve_config(sw.ExperimentConfig(
            dim=1, problem=self.PROBLEM, methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5),
            n_cuts=(8, 16, 64), alpha=2.0, n_samples=256, seed=11)))

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_2d_rows_match_the_closed_form(self, alpha):
        self.assert_rows_match(resolve_config(sw.ExperimentConfig(
            dim=2, problem=self.PROBLEM, methods=ALL_METHODS, levels=(2**-3, 2**-4),
            tau_ref=2**-6, alpha=alpha, n_samples=128, seed=11)))


def per_sample_errors(study, sample):
    """The squared errors of one sample from one ``run`` per method and
    level, each scored alone: pad to M, subtract, add the shift, reduce,
    add the tail.  Every run gets the initial state at band M and restricts
    it to its own grid without a recovery band."""
    config = study.config
    dim = config.dim
    problem = sw.ProblemSpec(config.problem.f, config.problem.sigma,
                             sw.InitialDataSpec("explicit", state=study.starts[study.band]))
    lattice = sw.sample_path(config.seed, sample, config.t_final, config.tau_ref)
    ref_grid = sw.make_grid(dim, default_n_cut(config.tau_ref), 1.0)
    ref = sw.run(study.ref[0], ref_grid, problem, lattice)
    ref = sw.with_band(ref, study.band)
    out = np.empty((len(config.methods), len(config.levels)))
    for mi, m in enumerate(config.methods):
        for li, (tau, n) in enumerate(zip(config.levels, config.n_cuts)):
            res = sw.run(sw.method_spec(m, tau, config.t_final), sw.make_grid(dim, n, 1.0),
                         problem, lattice)
            res = sw.with_band(res, study.band)
            du, dv = res.u_hat - ref.u_hat, res.v_hat - ref.v_hat
            _, _, shift, tail = study.runs[mi][li]
            if shift is not None:
                du, dv = du + shift[0], dv + shift[1]
            out[mi, li] = exp._weighted_norm_sq(du, dv, *study.weights) + tail
    return out


DETERMINISM_CASES = {
    "1d": dict(dim=1, preset=2, alpha=2.0, levels=(2**-3, 2**-4, 2**-5)),
    # M = 64 above N_ref = 32: the reference's recovered modes shift every row
    "1d-wide-n_cuts": dict(dim=1, preset=2, alpha=2.0, levels=(2**-3, 2**-4, 2**-5),
                           n_cuts=(8, 16, 64)),
    "2d": dict(dim=2, preset=4, levels=(2**-3, 2**-4), tau_ref=2**-6),
}


def count_steppings(monkeypatch, **kw):
    """Per level of one study, its run_block calls and the stepping keys
    they step; and its reports."""
    real = exp.run_block
    calls = []

    def spy(methods, start, f, sigma, dws):
        calls.append((methods[0].tau, {stepping_key(spec, start.band) for spec in methods}))
        return real(methods, start, f, sigma, dws)

    monkeypatch.setattr(exp, "run_block", spy)
    cfg = resolve_config(sw.ExperimentConfig(
        dim=1, preset=2, gamma=0.5, levels=(2**-3, 2**-4, 2**-5), n_samples=3,
        seed=2, **kw))
    reports = sw.run_convergence(cfg)
    per_level = [[keys for tau, keys in calls if tau == level] for level in cfg.levels]
    return ([len(level) for level in per_level],
            [sum(map(len, level)) for level in per_level]), reports


class TestBlockStudy:
    @pytest.mark.parametrize("case", sorted(DETERMINISM_CASES))
    def test_csv_bytes_independent_of_chunks_and_workers(self, case, tmp_path):
        cfg = resolve_config(sw.ExperimentConfig(
            methods=("hr_lri", "sem", "stm"), gamma=0.5, n_samples=9, seed=17,
            **DETERMINISM_CASES[case]))
        blobs = set()
        for workers in (1, 2):
            study = exp._prepare(replace(cfg, n_workers=workers))
            for rows in (1, 7, cfg.n_samples):
                reports = exp._study_reports(study, rows)
                path = emit_study(reports, str(tmp_path / f"w{workers}-r{rows}"))
                blobs.add(open(path, "rb").read())
        assert len(blobs) == 1
        # every row of a block equals the run of its sample alone, bit for bit
        err_sq, _ = exp._chunk_errors(study, range(cfg.n_samples))
        expect = np.stack([per_sample_errors(study, s) for s in range(cfg.n_samples)])
        np.testing.assert_array_equal(err_sq, expect)

    def test_each_distinct_trajectory_stepped_once(self, monkeypatch):
        # hr_lri and stm share a stepping, and so does lri at N = 1/(4 tau);
        # that key and sem's share (band, cut, tau), so each level steps
        # both in one call
        counts, _ = count_steppings(monkeypatch, methods=("hr_lri", "sem", "stm"))
        assert counts == ([1, 1, 1], [2, 2, 2])
        counts, reports = count_steppings(monkeypatch, methods=ALL_METHODS)
        assert counts == ([1, 1, 1], [2, 2, 2])
        assert reports["lri"].rows == reports["stm"].rows

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_finest_level_reuses_the_reference_block(self, monkeypatch, alpha):
        # tau_ref = 2^-5 is the finest level, on the reference's band 8, so
        # hr_lri and stm there have the reference's stepping key and score
        # its block against itself; sem steps its own, alone.  The coarser
        # levels step their two keys in one block
        real = exp.run_block
        blocks = []

        def spy(methods, start, f, sigma, dws):
            blocks.append((tuple(spec.kind for spec in methods), methods[0].tau))
            return real(methods, start, f, sigma, dws)

        monkeypatch.setattr(exp, "run_block", spy)
        # a clock on which each run_block call lasts exactly 1.0 s
        monkeypatch.setattr(exp, "_clock", itertools.count(0.0).__next__)
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5, alpha=alpha,
                                  methods=("hr_lri", "sem", "stm"),
                                  levels=(2**-3, 2**-4, 2**-5), tau_ref=2**-5,
                                  n_samples=3, seed=2)
        reports = sw.run_convergence(cfg, collect_timing=True)
        assert blocks == [
            (("hr_lri",), 2**-5), (("hr_lri", "sem"), 2**-3),
            (("hr_lri", "sem"), 2**-4), (("sem",), 2**-5)]
        # stm keeps box 8 and misses the reference's recovered band at alpha 2
        assert reports["hr_lri"].rows[-1].rms_error == 0.0
        assert (reports["stm"].rows[-1].rms_error == 0.0) == (alpha == 1.0)
        assert reports["sem"].rows[-1].rms_error > 0.0
        # one chunk: every row reads its one block's second, and hr_lri and
        # stm at the finest level read the reference block's
        for rep in reports.values():
            assert [row.wall_seconds for row in rep.rows] == [1.0, 1.0, 1.0]
        # two chunks: each row sums its block's second in both
        study = exp._prepare(resolve_config(cfg))
        for rep in exp._study_reports(study, 2, collect_timing=True).values():
            assert [row.wall_seconds for row in rep.rows] == [2.0, 2.0, 2.0]

    def test_group_holding_the_reference_key_steps_the_rest(self, monkeypatch):
        # every method at the finest level tau_ref = 2^-5 on N_ref = 8: the
        # group of (8, 8, 2^-5) holds the reference's key (hr_lri, stm and
        # lri) beside sem's, and steps sem's alone; no key is stepped twice
        real = exp.run_block
        calls = []

        def spy(methods, start, f, sigma, dws):
            calls.append([stepping_key(spec, start.band) for spec in methods])
            return real(methods, start, f, sigma, dws)

        monkeypatch.setattr(exp, "run_block", spy)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, preset=2, gamma=0.5, methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5),
            tau_ref=2**-5, n_samples=3, seed=2))
        study = exp._prepare(cfg)
        exp._chunk_errors(study, range(cfg.n_samples))
        ref_key = stepping_key(*study.ref)
        sem_key = stepping_key(sw.method_spec("sem", 2**-5, cfg.t_final), 8)
        assert calls[0] == [ref_key] and calls[-1] == [sem_key]
        assert [len(keys) for keys in calls] == [1, 2, 2, 1]
        stepped = [key for keys in calls for key in keys]
        assert len(stepped) == len(set(stepped))

    def test_cutting_lri_filter_steps_its_own_trajectory(self, monkeypatch):
        # n_cuts above 1/tau = 8, 16, 32: the lri filter cuts below N, so
        # lri forms a block of its own beside the one of hr_lri/stm and sem
        counts, reports = count_steppings(monkeypatch, methods=ALL_METHODS,
                                          n_cuts=(16, 32, 64))
        assert counts == ([2, 2, 2], [3, 3, 3])
        for lri, stm in zip(reports["lri"].rows, reports["stm"].rows):
            assert lri.rms_error != stm.rms_error

    def test_every_block_starts_from_its_bands_one_state(self, monkeypatch):
        # n_cuts 16, 32 and 64 around N_ref = 32: three distinct stepped
        # bands, each restricted once, and every block on a band, the
        # reference's too, gets that very state and the study's f and sigma
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, preset=2, gamma=0.5, methods=ALL_METHODS,
            levels=(2**-3, 2**-4, 2**-5), n_cuts=(16, 32, 64), n_samples=4, seed=3))
        study = exp._prepare(cfg)
        assert default_n_cut(cfg.tau_ref) == 32 and study.band == 64
        assert sorted(study.starts) == [16, 32, 64]
        assert all(start.band == n for n, start in study.starts.items())
        real = exp.run_block
        calls = []

        def spy(methods, start, f, sigma, dws):
            calls.append((start, f, sigma))
            return real(methods, start, f, sigma, dws)

        monkeypatch.setattr(exp, "run_block", spy)
        exp._study_reports(study, 2)
        ref_key = stepping_key(*study.ref)
        # one block per (band, cut, tau) of each level's keys, the
        # reference's key stepped once
        per_chunk = 1 + sum(len({key[1:] for key in {stepping_key(spec, n)
                                                     for spec, n, *_ in level} - {ref_key}})
                            for level in zip(*study.runs))
        assert len(calls) == 2 * per_chunk
        assert {start.band for start, _, _ in calls} == set(study.starts)
        for start, f, sigma in calls:
            assert start is study.starts[start.band]
            assert f is study.config.problem.f and sigma is study.config.problem.sigma

    def test_each_chunk_coarsens_each_step_size_once(self, monkeypatch):
        # three trajectories per level (the lri filter cuts) and chunks of
        # 2, 2 and 1 samples: each chunk coarsens each of its paths once at
        # tau_ref and once at each level
        real = exp.coarsen
        calls = []

        def spy(lattice, step_dt):
            calls.append((lattice.sample_index, step_dt))
            return real(lattice, step_dt)

        monkeypatch.setattr(exp, "coarsen", spy)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, preset=2, gamma=0.5, methods=ALL_METHODS,
            levels=(2**-3, 2**-4, 2**-5), n_cuts=(16, 32, 64), n_samples=5, seed=3))
        study = exp._prepare(cfg)
        exp._study_reports(study, 2)
        taus = {cfg.tau_ref, *cfg.levels}
        assert sorted(calls) == sorted((s, tau) for s in range(5) for tau in taus)

    def test_chunk_holds_one_lattice_at_a_time(self, monkeypatch):
        # when a chunk draws sample s + 1, nothing references sample s's
        # lattice any more: its increments are already in the chunk's rows
        real = exp.sample_path
        drawn = []

        def spy(seed, sample_index, t_final, base_dt):
            assert all(ref() is None for ref in drawn), "an earlier lattice is still held"
            lattice = real(seed, sample_index, t_final, base_dt)
            drawn.append(weakref.ref(lattice))
            return lattice

        monkeypatch.setattr(exp, "sample_path", spy)
        cfg = resolve_config(sw.ExperimentConfig(
            dim=1, preset=2, gamma=0.5, methods=("hr_lri", "sem"),
            levels=(2**-3, 2**-4, 2**-5), n_samples=4, seed=3))
        err_sq, _ = exp._chunk_errors(exp._prepare(cfg), range(4))
        assert len(drawn) == 4 and np.isfinite(err_sq).all()

    @staticmethod
    def wide_blocks(monkeypatch, methods):
        """The bytes of every block a 2D study at band 512 steps, K kinds
        of S rows each, and those of the blocks at band 512."""
        real = exp.run_block
        blocks = []

        def spy(methods, start, f, sigma, dws):
            results = real(methods, start, f, sigma, dws)
            kinds = {stepping_key(spec, start.band)[0] for spec in methods}
            blocks.append((start.band, len(kinds) * results[0].u_hat.nbytes))
            return results

        monkeypatch.setattr(exp, "run_block", spy)
        cfg = sw.ExperimentConfig(dim=2, preset=4, gamma=0.5, alpha=1.0,
                                  methods=methods, levels=(2**-3,), n_cuts=(512,),
                                  n_samples=4, seed=1)
        sw.run_convergence(cfg)
        return [nbytes for _, nbytes in blocks], [nbytes for band, nbytes in blocks if band == 512]

    def test_blocks_within_byte_budget(self, monkeypatch):
        # one 2D row at band 512 is 8 MiB, so the four samples need chunks
        blocks, wide = self.wide_blocks(monkeypatch, ("stm",))
        assert len(wide) == 2
        assert max(blocks) <= exp._BLOCK_BYTES

    def test_two_kind_blocks_within_byte_budget(self, monkeypatch):
        # stm and sem step as one block of two kinds, two rows per sample,
        # so the chunks hold one sample each, not three
        blocks, wide = self.wide_blocks(monkeypatch, ("stm", "sem"))
        assert len(wide) == 4
        assert max(blocks) <= exp._BLOCK_BYTES


# the perfbench rough_1d and study_2d configs, at two workers
WORKER_CASES = {
    "rough_1d": dict(dim=1, preset=2, gamma=0.5, methods=("hr_lri", "sem", "stm"),
                     levels=(2**-5, 2**-6, 2**-7, 2**-8, 2**-9), tau_ref=2**-11,
                     alpha=2.0, n_samples=6),
    "study_2d": dict(dim=2, preset=4, gamma=1.0, methods=("hr_lri", "sem", "stm"),
                     levels=(2**-4, 2**-5, 2**-6), tau_ref=2**-8, alpha=1.5,
                     n_samples=4),
}


def usable_cpus(monkeypatch, count):
    """Let the process see ``count`` CPUs, by either of the two counts
    ``experiments._workers`` may read."""
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(exp.os, "cpu_count", lambda: count)


class TestChunkRows:
    @pytest.mark.parametrize("case,chunks", [("rough_1d", 1), ("study_2d", 2)])
    def test_workers_split_only_above_byte_floor(self, monkeypatch, case, chunks):
        # 1D at M = 512: three rows per worker would be 24 KiB blocks, below
        # the floor, so the six samples stay one chunk; 2D at M = 64: one
        # row is 130 KiB, so the four samples split over the two workers
        # (on two CPUs, as on any host with two or more)
        usable_cpus(monkeypatch, 2)
        cfg = resolve_config(sw.ExperimentConfig(n_workers=2, **WORKER_CASES[case]))
        rows = exp._chunk_rows(exp._prepare(cfg))
        assert -(-cfg.n_samples // rows) == chunks

    def test_workers_capped_at_usable_cpus(self, monkeypatch, tmp_path):
        # eight workers on two CPUs split the 2D case like two workers do
        # (two chunks of two rows, not four of one) on a pool of two
        # threads, and the report bytes do not depend on either count
        usable_cpus(monkeypatch, 2)
        cfg = resolve_config(sw.ExperimentConfig(n_workers=8, **WORKER_CASES["study_2d"]))
        study = exp._prepare(cfg)
        assert exp._chunk_rows(study) == exp._chunk_rows(replace(study, config=replace(cfg, n_workers=2))) == 2
        pools = []
        real_pool = exp.ThreadPoolExecutor
        monkeypatch.setattr(exp, "ThreadPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or real_pool(max_workers))
        blobs = set()
        for workers in (1, 2, 8):
            reports = sw.run_convergence(replace(cfg, n_workers=workers, n_samples=2))
            path = tmp_path / f"w{workers}.csv"
            sw.emit_csv(list(reports.values()), path)
            blobs.add(path.read_bytes())
        assert pools == [1, 2, 2] and len(blobs) == 1


class TestMemoryGuard:
    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        sizes = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(exp.os, "sysconf", lambda name: sizes[name])

    def test_guard_sizes_the_half_array(self, monkeypatch):
        # 2D band 64: one complex half array is 16 * 128 * 65 bytes, about
        # half the full 128^2 box, and a single run holds _RUN_PEAK_ARRAYS
        # of them
        need = exp._RUN_PEAK_ARRAYS * 16 * 128 * 65
        self.physical_memory(monkeypatch, need)
        assert exp._full_grid(2, 64, 1.0).n_high == 64
        self.physical_memory(monkeypatch, need - 1)
        with pytest.raises(sw.ConfigError, match="physical memory"):
            exp._full_grid(2, 64, 1.0)

    def test_refused_before_any_step(self, monkeypatch, tmp_path, capsys):
        from stochwave.cli import main

        def never(*args, **kwargs):
            raise AssertionError("stepped before the memory guard")

        monkeypatch.setattr(exp, "run_block", never)
        monkeypatch.setattr(exp, "run", never)
        # 512 bytes: less than sampling the study's Brownian lattice of 32
        # cells of tau_ref = 2^-7, or one half array at the single run's full
        # band 64 (65 complex coefficients)
        self.physical_memory(monkeypatch, 512)
        study = sw.ExperimentConfig(dim=1, preset=2, levels=(2**-3, 2**-4, 2**-5),
                                    n_samples=2, out_dir=str(tmp_path / "study"))
        with pytest.raises(sw.ConfigError, match="physical memory"):
            sw.run_convergence(study)
        single = sw.ExperimentConfig(dim=1, preset=1, tau=2**-5,
                                     out_dir=str(tmp_path / "single"))
        with pytest.raises(sw.ConfigError, match="physical memory"):
            sw.run_single(single)
        rc = main(["converge", "--preset", "2", "--tau", "0.125", "--levels", "3",
                   "--samples", "2", "--out", str(tmp_path / "cli")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "configuration error" in err and "physical memory" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())


    # a single run, which builds the initial state at the full band, and a
    # study of the 1D plateaus, whose profile spans the full band
    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "1", "--tau", "0.03125"],
        ["converge", "--preset", "1", "--tau", "0.125", "--levels", "3", "--samples", "2"],
    ])
    def test_build_that_exceeds_memory_refused(self, monkeypatch, tmp_path, capsys, argv):
        # twice one array at the full band (1D band 64 for the run, 1024 for
        # the study's reference): that array, the lattice and band M fit,
        # building the initial state or its profile does not
        from stochwave.cli import main

        def never(*args, **kwargs):
            raise AssertionError("built the initial state before the memory guard")

        monkeypatch.setattr(exp, "initial_factors", never)
        monkeypatch.setattr(sw.integrators, "build_initial", never)
        n_high = 64 if argv[0] == "run" else 1024
        self.physical_memory(monkeypatch, 2 * 16 * (n_high + 1))
        rc = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "building the initial state" in err and "physical memory" in err

    def test_factored_study_never_builds_the_full_band(self, monkeypatch, tmp_path, capsys):
        # the memory that refuses the plateaus' study above: random data's
        # profiles end at N_ref, and its start is built at band M = 32
        # alone, so the same study of preset 2 runs to its CSV
        from stochwave.cli import main

        def never(*args, **kwargs):
            raise AssertionError("built the initial state at the full band")

        monkeypatch.setattr(sw.problems, "build_initial", never)
        monkeypatch.setattr(exp, "_full_grid", never)
        self.physical_memory(monkeypatch, 2 * 16 * (1024 + 1))
        out = tmp_path / "out"
        rc = main(["converge", "--preset", "2", "--tau", "0.125", "--levels", "3",
                   "--samples", "2", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert len(read_csv(out / "convergence.csv")) == 3

    def test_tail_guard_bounds_the_factored_tail_pass(self, monkeypatch):
        # 2D random data at alpha 2 and tau_ref 2^-9: band 16384, from which
        # a slab of the tail pass is one last-axis column of the |k| orthant
        # when the data fills it.  Its peak stays within what the guard asks
        # for, which a study at this band passes; the full-band build it
        # replaces needed 64 GiB
        needs = []
        monkeypatch.setattr(exp, "_check_memory", lambda need, what: needs.append((need, what)))
        cfg = resolve_config(sw.ExperimentConfig(dim=2, preset=4, alpha=2.0, tau_ref=2**-9,
                                                 levels=(2**-3, 2**-4, 2**-5)))
        exp._prepare(cfg)
        (need,) = [n for n, what in needs if "tail pass" in what]
        factors = exp.initial_factors(cfg.problem.initial, sw.make_grid(2, 128, 2.0))
        assert factors.band == 16384
        tracemalloc.start()
        try:
            exp._outside_energy(*exp._factor_rows(factors), cfg.t_final, {128, 256})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= need
        monkeypatch.undo()
        exp._prepare(cfg)

    def test_tail_guard_bounds_one_column_slabs(self, monkeypatch):
        # 2D data filling every |k| < 1024, factored and as its state, in
        # slabs of one column, as a slab is from band 16384; the pass is
        # stopped after 16 slabs.  tracemalloc measures 13.8 and 17.6
        # columns of band + 1 float64 slots
        class Stop(Exception):
            pass

        def first_slabs(dim, end, rows):
            count = itertools.count()

            def first(lo, hi):
                if next(count) == 16:
                    raise Stop
                yield from rows(lo, hi)

            return dim, end, first

        monkeypatch.setattr(exp, "_SLAB_BYTES", 8)
        rng = np.random.default_rng(0)
        band = 1024
        factors = AxisFactors(band, *(tuple(rng.uniform(0, 1, band) for _ in range(2))
                                      for _ in "uv"))
        for source in (exp._factor_rows(factors), exp._state_rows(factors.state(band), band)):
            tracemalloc.start()
            try:
                with pytest.raises(Stop):
                    exp._outside_energy(*first_slabs(*source), 0.25, {64, 128})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 8 * (band + 1) < peak <= exp._TAIL_PEAK_SLABS * 8 * (band + 1)

    @pytest.mark.parametrize("case", ["preset1", "preset2", "preset3", "preset4",
                                      "explicit-full-box-2d"])
    def test_prepare_builds_no_full_band_state(self, monkeypatch, case):
        # whatever the initial data, a study calls neither build_initial
        # nor _full_grid, the single run's guard
        def never(*args, **kwargs):
            raise AssertionError("built a state at the full band")

        for module in (exp, sw.problems, sw.integrators):
            monkeypatch.setattr(module, "build_initial", never, raising=False)
        monkeypatch.setattr(exp, "_full_grid", never)
        base = dict(methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5))
        exp._prepare(resolve_config(sw.ExperimentConfig(**{**base, **TAIL_CASES[case]})))

    def test_plateau_prepare_holds_less_than_one_full_band_array(self):
        # preset 3 at alpha 2 and tau_ref 2^-7: full band 1024, whose
        # complex half array takes 16 * 2048 * 1025 bytes; building the
        # plateau there peaked at about 101 MB, its profiles are of one axis
        cfg = resolve_config(sw.ExperimentConfig(preset=3, alpha=2.0, tau_ref=2**-7))
        tracemalloc.start()
        try:
            exp._prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2048 * 1025

    def test_factored_prepare_holds_less_than_one_full_band_array(self):
        # 2D random data at alpha 2 and tau_ref 2^-6: band M = 16, full band
        # 256, whose complex half array takes 16 * 512 * 257 bytes
        cfg = resolve_config(sw.ExperimentConfig(dim=2, preset=4, alpha=2.0, tau_ref=2**-6))
        tracemalloc.start()
        try:
            exp._prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 512 * 257

    def test_1d_prepare_builds_nothing_of_the_full_band(self):
        # 1D random data at alpha 2.25 and tau_ref 2^-11: band M = 512, full
        # band 512^2.25, about 1.25e6 slots; arrays of that band took a 60 MB
        # peak.  No cached mode index outlives the study above band M
        cfg = resolve_config(sw.ExperimentConfig(dim=1, preset=2, alpha=2.25, tau_ref=2**-11,
                                                 levels=(2**-3, 2**-4, 2**-5)))
        band = default_n_cut(cfg.tau_ref)
        assert sw.make_grid(1, band, cfg.alpha).n_high > 2**20
        mode_indices.cache_clear()
        tracemalloc.start()
        try:
            exp._prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        try:
            assert peak < 4 * 2**20
            # every cached band is one of 1..M exactly when asking for all
            # of them leaves M entries
            for b in range(1, band + 1):
                mode_indices(b)
            assert mode_indices.cache_info().currsize == band
        finally:
            mode_indices.cache_clear()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_guard_covers_each_presets_build(self, monkeypatch, preset):
        # building the preset's initial state holds at most 8 full-band
        # half arrays, at full bands of 2^15 (1D) and 128 (2D), half arrays
        # of about 512 KiB, and the single run's guard asks for more
        needs = []
        monkeypatch.setattr(exp, "_check_memory", lambda need, what: needs.append(need))
        dim, _, problem = sw.preset_problem(preset, 0.5, 0)
        grid = exp._full_grid(dim, 2**15 if dim == 1 else 128, 1.0)
        tracemalloc.start()
        try:
            sw.build_initial(problem.initial, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= 8 * exp._array_bytes(dim, grid.n_high) <= needs[0]

    def test_lattice_guard_bounds_the_sampler_peak(self, monkeypatch):
        # the guard refuses a 2^18-cell lattice on any memory below what
        # sampling one path of it takes, and accepts it at a small multiple
        n = 2**18
        tracemalloc.start()
        try:
            sw.sample_path(3, 1, 1.0, 1.0 / n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.physical_memory(monkeypatch, peak - 1)
        with pytest.raises(sw.ConfigError, match="physical memory"):
            exp._check_lattice("tau", 1.0 / n, 1.0)
        self.physical_memory(monkeypatch, 4 * 8 * n)
        exp._check_lattice("tau", 1.0 / n, 1.0)

    def test_lattice_above_its_cells_refused_before_any_path(self, monkeypatch, tmp_path, capsys):
        from stochwave.cli import main

        def never(*args, **kwargs):
            raise AssertionError("drew a path before the lattice guard")

        monkeypatch.setattr(exp, "sample_path", never)
        # t_final / tau_ref = 2^10 / 2^-7 = 2^17 cells: twice the finished
        # lattice's bytes fits it and the full band, not sampling it
        self.physical_memory(monkeypatch, 2 * 8 * 2**17)
        argv = ["converge", "--preset", "2", "--tfinal", "1024", "--tau", "0.125",
                "--levels", "3", "--samples", "2", "--out", str(tmp_path / "cli")]
        study = sw.ExperimentConfig(dim=1, preset=2, t_final=1024.0, n_samples=2,
                                    levels=(2**-3, 2**-4, 2**-5))
        with pytest.raises(sw.ConfigError, match="t_final/tau_ref = 2\\^17 cells"):
            sw.run_convergence(study)
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "configuration error" in err and "2^17 cells" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_run_checks_its_own_lattice(self, monkeypatch, tmp_path):
        # 16 KiB holds the run at its full band (_RUN_PEAK_ARRAYS arrays of
        # 65 coefficients, 13 KiB) and sampling its 16-cell lattice of
        # tau = 2^-5, not sampling the 1024 cells of tau_ref = 2^-11 (24
        # KiB), which the run never draws
        self.physical_memory(monkeypatch, 16384)
        cfg = sw.ExperimentConfig(dim=1, preset=1, tau=2**-5, t_final=0.5, out_dir=str(tmp_path))
        assert resolve_config(cfg).tau_ref == 2**-11
        assert sw.run_single(cfg)["steps"] == 16
        with pytest.raises(sw.ConfigError, match="t_final/tau_ref"):
            sw.run_convergence(replace(cfg, n_samples=2))


class TestCompare:
    def test_needs_two_methods(self, monkeypatch, tmp_path):
        # the command line's compare refuses one method before any stepping
        def never(*args, **kwargs):
            raise AssertionError("stepped before the method count was checked")

        monkeypatch.setattr(exp, "run_block", never)
        with pytest.raises(sw.ConfigError, match="compare needs at least two methods"):
            cli._cmd_study(linear_config(methods=("stm",), out_dir=str(tmp_path)), timed=True)
        assert not any(tmp_path.iterdir())

    def test_timing_positive_and_monotone(self, tmp_path):
        # levels a factor 4 apart in step count so the per-level work is
        # separated well above scheduler jitter
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5,
                                  methods=("stm", "sem"),
                                  levels=(2**-4, 2**-6, 2**-8),
                                  n_samples=8, seed=9,
                                  out_dir=str(tmp_path))
        reports = sw.run_convergence(cfg, collect_timing=True)
        for m in ("stm", "sem"):
            ts = [row.wall_seconds for row in reports[m].rows]
            assert all(t > 0 for t in ts)
            assert ts == sorted(ts)  # more steps, more time (coarsest first)
        csv_path = emit_study(reports, str(tmp_path))
        recs = read_csv(csv_path)
        assert all(float(rec["wall_seconds"]) > 0 for rec in recs)
        # the x column of the error-vs-time data is the rows' wall_seconds
        for m, rep in reports.items():
            lines = (tmp_path / f"error_vs_time_{m}.txt").read_text().splitlines()[1:]
            assert [float(line.split()[0]) for line in lines] == [
                row.wall_seconds for row in rep.rows]

    def test_shared_trajectory_shares_timing(self):
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5,
                                  methods=("hr_lri", "stm"),
                                  levels=(2**-3, 2**-4, 2**-5), n_samples=4, seed=9)
        reports = sw.run_convergence(cfg, collect_timing=True)
        times = {m: [row.wall_seconds for row in rep.rows] for m, rep in reports.items()}
        assert times["hr_lri"] == times["stm"]
        assert all(t > 0 for t in times["stm"])


    def test_one_block_shares_timing(self):
        # stm and sem at a level step as one block of two kinds, so both
        # report its seconds, to the bit
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5, methods=("stm", "sem"),
                                  levels=(2**-3, 2**-4, 2**-5), n_samples=4, seed=9)
        reports = sw.run_convergence(cfg, collect_timing=True)
        times = {m: [row.wall_seconds for row in rep.rows] for m, rep in reports.items()}
        assert times["stm"] == times["sem"]
        assert all(t > 0 for t in times["sem"])

class TestRunSingle:
    def test_plateaus_at_time_zero(self, tmp_path):
        cfg = sw.ExperimentConfig(dim=1, preset=1, methods=("hr_lri",),
                                  tau=2**-5, seed=0, out_dir=str(tmp_path),
                                  snapshot_stride=4)
        summary = sw.run_single(cfg)
        assert summary["steps"] == 8
        dim, points, t, u, v = sw.load_snapshot(tmp_path / "snap_000000.swv")
        assert t == 0.0
        nodes = np.arange(points) / points
        assert u[np.argmin(np.abs(nodes - 0.35))] == pytest.approx(5.0, abs=1e-9)
        assert u[np.argmin(np.abs(nodes - 0.6))] == pytest.approx(2.5, abs=1e-9)
        assert not v.any()
        assert np.isfinite(summary["final_norm_pair"])
        # plot data alongside every snapshot
        assert (tmp_path / "snap_000000.txt").exists()

    def test_2d_snapshot_slice(self, tmp_path):
        cfg = sw.ExperimentConfig(dim=2, preset=3, methods=("hr_lri",),
                                  tau=2**-4, seed=1, out_dir=str(tmp_path),
                                  snapshot_stride=4)
        summary = sw.run_single(cfg)
        assert summary["steps"] == 4
        dim, points, t, u, _ = sw.load_snapshot(tmp_path / "snap_000000.swv")
        assert (dim, t) == (2, 0.0)
        lines = (tmp_path / "snap_000000.txt").read_text().splitlines()
        assert lines[0].startswith("#") and "0.5" in lines[0]
        assert len(lines) == 1 + points
        # the plot slice is the middle row of the field
        mid = u[points // 2]
        for line, expect in zip(lines[1:4], mid[:3]):
            assert float(line.split()[1]) == expect

    @pytest.mark.parametrize("dim,preset,tau", [(1, 1, 2**-5), (2, 3, 2**-4)])
    def test_plot_text_is_the_middle_line_of_each_snapshot(self, tmp_path, dim, preset, tau):
        # every snap_*.txt against its SWV1 snapshot, formatted line by line
        cfg = sw.ExperimentConfig(dim=dim, preset=preset, methods=("hr_lri",), tau=tau,
                                  seed=3, out_dir=str(tmp_path), snapshot_stride=2)
        summary = sw.run_single(cfg)
        assert len(summary["snapshots"]) == summary["steps"] // 2 + 1
        for snap in summary["snapshots"]:
            got_dim, points, t, u, _ = sw.load_snapshot(snap)
            assert got_dim == dim
            line = u[(points // 2,) * (dim - 1)]
            where = "x" + ", 0.5" * (dim - 1)
            expect = f"# u({where}) at t={t:.17g}\n" + "".join(
                f"{i / points:.17g} {y:.17g}\n" for i, y in enumerate(line))
            with open(snap[:-len(".swv")] + ".txt", "rb") as fh:
                assert fh.read() == expect.encode("utf-8")

    def test_run_holds_only_what_it_needs(self, tmp_path):
        # the run drops the full-band initial pair once it has taken the
        # stepped start and the recovered modes, assembles each snapshot's
        # full-band state in one reused pair and holds no SWV1 field past
        # its file: a second run_single of preset 1 at tau = 2^-8 (band
        # 4096), whose x column the first left formatted, peaks at 9.52
        # full-band half arrays (tracemalloc), where it took 12.8 when each
        # snapshot's state, SWV1 bytes and x column were built afresh; the
        # bound keeps about 5% above the peak
        cfg = sw.ExperimentConfig(dim=1, preset=1, tau=2**-8, out_dir=str(tmp_path / "a"))
        sw.run_single(cfg)
        tracemalloc.start()
        try:
            sw.run_single(replace(cfg, out_dir=str(tmp_path / "b")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.0 * 16 * (4096 + 1)

    # preset 1 in 1D (band 4096) and preset 3 in 2D (band 512), three
    # snapshots each: a whole run, its x column formatted afresh, holds at
    # most the arrays its guard asks physical memory for (tracemalloc: 11.5
    # and 8.1 of _RUN_PEAK_ARRAYS = 13)
    @pytest.mark.parametrize("dim,preset", [(1, 1), (2, 3)])
    def test_whole_run_within_its_guard(self, monkeypatch, tmp_path, dim, preset):
        cfg = sw.ExperimentConfig(dim=dim, preset=preset, tau=2**-8, snapshot_stride=32,
                                  out_dir=str(tmp_path / "a"))
        sw.run_single(cfg)
        exp._grid_lines.cache_clear()
        needs = {}
        monkeypatch.setattr(exp, "_check_memory",
                            lambda need, what: needs.setdefault(what.split(" at ")[0], need))
        tracemalloc.start()
        try:
            summary = sw.run_single(replace(cfg, out_dir=str(tmp_path / "b")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(summary["snapshots"]) == 3
        guard = needs["building the initial state"]
        assert guard == exp._RUN_PEAK_ARRAYS * exp._array_bytes(dim, 4096 if dim == 1 else 512)
        assert peak <= guard

    def test_grid_column_formatted_once_per_grid(self, tmp_path):
        # the runs of one grid share one read-only x column; a run of another
        # tau formats its own, and a file of each run is its line-by-line
        # text
        exp._grid_lines.cache_clear()
        taus = [2**-5, 2**-5, 2**-6, 2**-5]
        for k, tau in enumerate(taus):
            cfg = sw.ExperimentConfig(dim=1, preset=1, tau=tau, seed=4, out_dir=str(tmp_path / f"{k}"))
            final = sw.run_single(cfg)["snapshots"][-1]
            _, points, t, u, _ = sw.load_snapshot(final)
            lines = exp._grid_lines(points)
            assert not any(block.flags.writeable for block in lines)
            expect = f"# u(x) at t={t:.17g}\n" + "".join(
                f"{i / points:.17g} {y:.17g}\n" for i, y in enumerate(u))
            with open(final[:-len(".swv")] + ".txt", "rb") as fh:
                assert fh.read() == expect.encode("utf-8")
        info = exp._grid_lines.cache_info()
        assert (info.misses, info.currsize) == (3, 1)

    def test_threads_write_what_serial_runs_write(self, tmp_path):
        # run_single on four threads at once, more than this host's cores,
        # with the interpreter switching threads often, every thread meeting
        # an empty x column cache: each file is byte for byte the serial
        # run's
        cfg = sw.ExperimentConfig(dim=1, preset=1, tau=2**-6, seed=9)

        def files(out_dir):
            return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.iterdir())}

        serial = []
        for k in range(4):
            sw.run_single(replace(cfg, sample_index=k, out_dir=str(tmp_path / f"s{k}")))
            serial.append(files(tmp_path / f"s{k}"))
        exp._grid_lines.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(sw.run_single, replace(cfg, sample_index=k,
                                                              out_dir=str(tmp_path / f"t{k}")))
                           for k in range(4)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for k in range(4):
            assert files(tmp_path / f"t{k}") == serial[k]

    def test_zero_data_stays_zero(self, tmp_path):
        grid = sw.make_grid(1, 8, 1.0)
        problem = sw.ProblemSpec(sw.zero_fn(), sw.scaled_sine(16.0),
                                 sw.InitialDataSpec("explicit", state=zero_state(grid.dim, grid.n_high)))
        cfg = sw.ExperimentConfig(dim=1, problem=problem, methods=("stm",),
                                  tau=2**-5, out_dir=str(tmp_path), snapshot_stride=2)
        summary = sw.run_single(cfg)
        assert summary["final_norm_pair"] == 0.0
        for snap in summary["snapshots"]:
            _, _, _, u, v = sw.load_snapshot(snap)
            assert not u.any() and not v.any()


class TestConfigHandling:
    def test_parse_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "study.cfg"
        cfg_file.write_text(
            "# study setup\n"
            "dim = 1\n"
            "preset = 2\n"
            "gamma = 0.5   # rough data\n"
            "methods = hrlri,sem\n"
            "levels = 0.125,0.0625\n"
            "n_samples = 4\n",
            encoding="utf-8")
        mapping = parse_config_file(cfg_file)
        cfg = config_from_mapping(mapping)
        assert cfg.methods == ("hr_lri", "sem")
        assert cfg.levels == (0.125, 0.0625)
        assert cfg.n_samples == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(sw.ConfigError):
            config_from_mapping({"granularity": "3"})

    def test_bad_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dim: 1\n", encoding="utf-8")
        with pytest.raises(sw.ConfigError):
            parse_config_file(bad)

    def test_resolver_defaults(self):
        cfg = resolve_config(sw.ExperimentConfig(dim=2, preset=3,
                                                 levels=(2**-4, 2**-5)))
        assert cfg.alpha == 1.5
        assert cfg.tau_ref == 2**-5 / 4
        assert cfg.n_cuts == (default_n_cut(2**-4), default_n_cut(2**-5))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_resolved_preset_config_holds_every_derived_value(self, preset):
        dim = PRESETS[preset][0]
        cfg = resolve_config(sw.ExperimentConfig(dim=dim, preset=preset, gamma=0.25, seed=3,
                                                 levels=(2**-3, 2**-5, 2**-4)))
        assert cfg.problem == sw.preset_problem(preset, 0.25, 3)[2]
        assert cfg.tau == 2**-5
        # 8 steps of tau: a snapshot after each
        assert cfg.snapshot_stride == 1
        assert (cfg.tau_ref, cfg.alpha) == (2**-7, exp.default_alpha(dim))
        assert cfg.n_cuts == (2, 4, 8)
        assert resolve_config(cfg) == cfg

    def test_resolved_explicit_config_holds_every_derived_value(self):
        problem = sw.ProblemSpec(sw.zero_fn(), sw.scaled_sine(1.0),
                                 sw.InitialDataSpec("explicit", state=lowband_state()))
        cfg = resolve_config(sw.ExperimentConfig(problem=problem, tau=2**-7,
                                                 levels=(2**-3, 2**-4), n_cuts=(3, 5)))
        assert cfg.problem is problem
        assert (cfg.tau, cfg.snapshot_stride) == (2**-7, 4)
        assert (cfg.tau_ref, cfg.alpha, cfg.n_cuts) == (2**-6, 2.0, (3, 5))
        # a given stride is kept, and a resolved config passes through
        assert resolve_config(replace(cfg, snapshot_stride=3)).snapshot_stride == 3
        again = resolve_config(cfg)
        assert again.problem is problem and again.snapshot_stride == cfg.snapshot_stride

    def test_each_level_keeps_its_own_n_cut(self, tmp_path):
        # levels listed finest first are sorted coarsest first together with
        # their n_cuts: both orders give the same study, byte for byte
        blobs = []
        for levels, n_cuts in (((2**-7, 2**-6, 2**-5), (32, 16, 8)),
                               ((2**-5, 2**-6, 2**-7), (8, 16, 32))):
            cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5, methods=("hr_lri", "sem"),
                                      levels=levels, n_cuts=n_cuts, n_samples=3, seed=4)
            resolved = resolve_config(cfg)
            assert resolved.levels == (2**-5, 2**-6, 2**-7)
            assert resolved.n_cuts == (8, 16, 32)
            path = tmp_path / f"{levels[0]}.csv"
            sw.emit_csv(list(sw.run_convergence(cfg).values()), path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_sample_index_stays_below_the_initial_data_streams(self):
        # preset data draws its uniforms from the Philox streams 2^64 - 1
        # down, and a path keyed by one of them would draw the same numbers
        below = _DATA_STREAMS[-1] - 1
        cfg = sw.ExperimentConfig(preset=2, tau=2**-3, sample_index=below)
        assert resolve_config(cfg).sample_index == below
        for index in _DATA_STREAMS:
            with pytest.raises(sw.ConfigError, match="reserved for initial data"):
                resolve_config(replace(cfg, sample_index=index))

    def test_resolver_rejects_bad_levels(self):
        with pytest.raises(sw.ConfigError):
            resolve_config(sw.ExperimentConfig(levels=(0.3,)))
        with pytest.raises(sw.ConfigError):
            resolve_config(sw.ExperimentConfig(levels=(2**-4,), tau_ref=3e-2))

    def test_accepted_steps_are_counted_by_the_runtime(self):
        # every step that resolve_config accepts within its 1e-9 tolerance
        # of a power-of-two split of t_final (here t_final / tau = 2^m + d)
        # is a valid method step and tiles the lattice its entry point draws:
        # a single run's of tau, a study's of tau_ref
        accepted = 0
        for m in range(2, 7):
            for d in (0.0, 1e-12, -1e-10, 4e-10, -9e-10, 2e-9, 1e-8):
                tau = 0.25 / (2**m + d)
                for kw in ({"tau": tau}, {"levels": (tau,), "tau_ref": tau}):
                    try:
                        cfg = resolve_config(sw.ExperimentConfig(dim=1, preset=1, **kw))
                    except sw.ConfigError:
                        continue
                    accepted += d != 0.0
                    for base, steps in ((cfg.tau, [cfg.tau]),
                                        (cfg.tau_ref, [cfg.tau_ref, *cfg.levels])):
                        lattice = sw.sample_path(0, 0, cfg.t_final, base)
                        for step in steps:
                            spec = sw.method_spec("stm", step, cfg.t_final)
                            assert len(sw.coarsen(lattice, step)) == spec.n_steps
        assert accepted == 40

    def test_explicit_state_of_another_rank_refused_first(self, monkeypatch, tmp_path):
        # initial data that does not fit dim: ConfigError from either entry
        # point, before the initial state is built or out_dir is created
        def never(*args, **kwargs):
            raise AssertionError("built the initial state before the rank check")

        def held(dim, band, field, *slots):
            """A pair at ``band``, 1 on each of ``slots`` of ``field`` and
            zero elsewhere."""
            pair = {f: np.zeros((2 * band,) * (dim - 1) + (band + 1,), complex) for f in "uv"}
            for slot in slots:
                pair[field][slot] = 1.0
            return sw.InitialDataSpec("explicit", state=sw.SpectralState(pair["u"], pair["v"]))

        monkeypatch.setattr(exp, "initial_factors", never)
        monkeypatch.setattr(sw.integrators, "build_initial", never)
        cases = [
            (1, sw.InitialDataSpec("explicit", state=zero_state(2, 8)),
             "explicit initial data is 2-dimensional, not 1"),
            (2, sw.InitialDataSpec("indicator_1d"), "indicator_1d initial data is 1-dimensional"),
            (1, sw.InitialDataSpec("indicator_2d"), "indicator_2d initial data is 2-dimensional"),
            (1, sw.InitialDataSpec("explicit"), "explicit initial data needs a state"),
            (2, sw.InitialDataSpec("mystery"), "unknown initial data kind 'mystery'"),
            # explicit states that are not a Hermitian pair of complex half
            # spectra of one shape
            (2, sw.InitialDataSpec("explicit", state=sw.SpectralState(
                np.zeros((6, 5), complex), np.zeros((6, 5), complex))),
             r"not a half-spectrum pair: shapes \(6, 5\) and \(6, 5\)"),
            (1, sw.InitialDataSpec("explicit", state=sw.SpectralState(
                np.zeros(9, complex), np.zeros(7, complex))),
             r"not a half-spectrum pair: shapes \(9,\) and \(7,\)"),
            (1, sw.InitialDataSpec("explicit", state=sw.SpectralState(np.zeros(9), np.zeros(9))),
             "must be complex, got float64 and float64"),
            (1, sw.InitialDataSpec("explicit", state=sw.SpectralState(
                np.full(9, 1j), np.zeros(9, complex))), "not Hermitian"),
            # a nonzero unpaired slot (|k_j| = band on any axis), which
            # every state keeps zero
            (1, held(1, 16, "u", 3, 16), r"nonzero on the unpaired slot \[16\] \(\|k_j\| = 16\)"),
            (2, held(2, 4, "u", (1, 1), (4, 1)), r"unpaired slot \[4, 1\] \(\|k_j\| = 4\)"),
            (2, held(2, 4, "v", (6, 2), (2, 4)), r"unpaired slot \[2, 4\] \(\|k_j\| = 4\)"),
            # random data whose gamma is not finite and positive
            *((1, sw.InitialDataSpec("random_hgamma", gamma=g),
               "gamma must be finite and positive") for g in (-1.0, np.nan, np.inf)),
        ]
        out = tmp_path / "out"
        for dim, initial, message in cases:
            problem = sw.ProblemSpec(sw.zero_fn(), sw.zero_fn(), initial)
            cfg = sw.ExperimentConfig(dim=dim, problem=problem, methods=("stm",), tau=2**-3,
                                      levels=(2**-3, 2**-4, 2**-5), n_samples=2,
                                      out_dir=str(out))
            for entry in (sw.run_convergence, sw.run_single):
                with pytest.raises(sw.ConfigError, match=message):
                    entry(cfg)
            assert not out.exists()

    def test_preset_and_problem_must_agree(self):
        # a resolved preset config edited with replace keeps its problem:
        # with a new gamma and seed its data would stay gamma 0.5, seed 0,
        # so it is refused, while a new sigma is the config's to choose
        cfg = resolve_config(sw.ExperimentConfig(preset=2))
        with pytest.raises(sw.ConfigError, match="not preset 2's at gamma 0.25 and seed 9"):
            resolve_config(replace(cfg, gamma=0.25, seed=9))
        quiet = resolve_config(replace(cfg, problem=replace(cfg.problem, sigma=sw.zero_fn())))
        assert quiet.problem.sigma.is_zero and quiet.problem.initial == cfg.problem.initial
        assert resolve_config(replace(cfg, problem=None, gamma=0.25, seed=9)).problem.initial == (
            sw.InitialDataSpec("random_hgamma", gamma=0.25, seed=9))

    def test_preset_dimension_mismatch(self):
        with pytest.raises(sw.ConfigError):
            sw.run_convergence(sw.ExperimentConfig(dim=2, preset=1,
                                                   levels=(2**-3,)))

    def test_dim_comes_from_the_preset_else_the_data(self):
        # an unset dim is the preset's, else the lowest that the initial
        # data fits: a plateau's own, an explicit state's rank, 1 for random
        def problem(kind, state=None):
            return sw.ProblemSpec(sw.zero_fn(), sw.zero_fn(), sw.InitialDataSpec(kind, state=state))

        cases = [*((dict(preset=p), d) for p, (d, _) in PRESETS.items()),
                 (dict(problem=problem("indicator_2d")), 2),
                 (dict(problem=problem("indicator_1d")), 1),
                 (dict(problem=problem("explicit", zero_state(2, 4))), 2),
                 (dict(problem=problem("random_hgamma")), 1)]
        for kwargs, dim in cases:
            cfg = resolve_config(sw.ExperimentConfig(levels=(2**-3, 2**-4), **kwargs))
            assert cfg.dim == dim, kwargs
            assert cfg.alpha == exp.default_alpha(dim)
        assert sw.ExperimentConfig().dim is None
        # a given dim is checked, not replaced
        with pytest.raises(sw.ConfigError, match="preset 4 is 2-dimensional, config says 1"):
            resolve_config(sw.ExperimentConfig(dim=1, preset=4))
        with pytest.raises(sw.ConfigError, match="indicator_2d initial data is 2-dimensional"):
            resolve_config(sw.ExperimentConfig(dim=1, problem=problem("indicator_2d")))
        with pytest.raises(sw.ConfigError, match="explicit initial data needs a state"):
            resolve_config(sw.ExperimentConfig(problem=problem("explicit")))
