"""Study driver, order fitting, report emission, config handling."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import stochwave as sw
import stochwave.experiments as exp
from stochwave.experiments import (
    config_from_mapping,
    default_n_cut,
    emit_study,
    parse_config_file,
    resolve_config,
)
from stochwave.semigroup import propagator_tables
from stochwave.spectral import shell_index


def lowband_state(seed=0):
    """1D initial data confined to modes {0, +-1}: every level retains it."""
    u = np.zeros(3, dtype=np.complex128)
    v = np.zeros(3, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    u[0], v[0] = rng.standard_normal(2)
    u[1], v[1] = rng.standard_normal(2)
    return sw.SpectralState(u, v)


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
        with pytest.raises(ValueError):
            sw.estimate_order([(0.1, 1.0), (0.05, 0.5)])

    def test_all_zero_is_not_applicable(self):
        assert sw.estimate_order([(0.1, 0.0), (0.05, 0.0), (0.025, 0.0)]) is None


class TestCsv:
    def test_empty_report_header_only(self, tmp_path):
        rep = sw.ConvergenceReport(method="stm", rows=(), fitted_order=None)
        path = tmp_path / "empty.csv"
        sw.emit_csv(rep, path)
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
        sw.emit_csv(rep, path)
        back = sw.parse_csv(path)
        assert len(back) == 2
        for rec, row in zip(back, rows):
            assert rec["method"] == "hr_lri"
            assert rec["tau"] == row.tau
            assert rec["rms_error"] == row.rms_error
            assert rec["stderr"] == row.stderr
            assert rec["wall_seconds"] == row.wall_seconds

    def test_column_count(self, tmp_path):
        rep = sw.ConvergenceReport(
            method="sem",
            rows=(sw.LevelRow(0.1, 4, 3, 1e-2, 1e-4, 0, 0.0),),
            fitted_order=None)
        path = tmp_path / "cols.csv"
        sw.emit_csv(rep, path)
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

        def flaky(spec, start, f, sigma, paths, **kw):
            res = real_block(spec, start, f, sigma, paths, **kw)
            if spec.kind == "stm" and spec.tau == 2**-3:
                for row, lattice in enumerate(paths):
                    if lattice.sample_index == 5:
                        res.failed[row] = 0
            return res

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
        # excluded column, and the study still reports
        real_block = exp.run_block

        class PoisonRow:
            """sigma with the samples of one block row replaced by NaN."""
            is_zero = False

            def __init__(self, inner, row):
                self.inner, self.row = inner, row

            def __call__(self, u):
                out = self.inner(u)
                out[self.row] = np.nan
                return out

        def poison(spec, start, f, sigma, paths, **kw):
            rows = [r for r, lattice in enumerate(paths) if lattice.sample_index == 2]
            if rows and spec.kind == "stm" and spec.tau == 2**-4:
                sigma = PoisonRow(sigma, rows[0])
            return real_block(spec, start, f, sigma, paths, **kw)

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

    def test_exclusions_over_threshold_fail_loudly(self, monkeypatch):
        real_block = exp.run_block

        def flaky(spec, start, f, sigma, paths, **kw):
            res = real_block(spec, start, f, sigma, paths, **kw)
            if spec.kind == "stm" and spec.tau == 2**-3:
                res.failed.update(dict.fromkeys(range(len(paths)), 0))
            return res

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
    every run recovers its whole band, and diff_norm pads both states to the
    wider one.  The study's split evaluation must reproduce these."""
    config = resolve_config(config)
    dim, problem = exp.study_problem(config)
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
            out[mi, li] = sw.diff_norm(res.final_state, ref.final_state, 0.0)
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


def full_box_energy(state, t):
    """Per-mode gamma = 0 pair-norm energy of the flow e^(tL) state, built
    on the whole (2n,)^d box of the state's full spectrum (the complex FFT
    of its fields), and the box's shell index max_j |k_j|."""
    n = 2 * state.band
    k = np.meshgrid(*[np.fft.fftfreq(n, 1 / n)] * state.dim, indexing="ij")
    lam2 = (2 * np.pi) ** 2 * sum(kj * kj for kj in k)
    a11, a12, a21, a22 = propagator_tables(np.sqrt(lam2), t)
    u, v = (np.fft.fftn(f, norm="forward") for f in sw.state_to_fields(state))
    fu, fv = a11 * u + a12 * v, a21 * u + a22 * v
    energy = np.abs(fu) ** 2 + np.abs(fv) ** 2 / (1 + lam2)
    return energy, np.maximum.reduce([np.abs(kj) for kj in k])


class TestTails:
    @pytest.mark.parametrize("dim,band,rows", [(1, 1024, 100), (2, 64, 10)])
    def test_outside_energy_matches_full_box_flow(self, monkeypatch, dim, band, rows):
        # slabs of `rows` slots do not tile the band + 1 slots of the last
        # axis, so the last slab is partial
        assert (band + 1) % rows
        monkeypatch.setattr(exp, "_SLAB_BYTES", rows * 16 * (2 * band) ** (dim - 1))
        rng = np.random.default_rng(dim)
        shape = (2 * band,) * dim
        # white noise on every paired mode
        state = sw.state_from_fields(rng.standard_normal(shape), rng.standard_normal(shape))
        boxes = {1, 7, band // 2, band - 1, band, band + 1}
        got = exp._outside_energy(state, 0.25, boxes)
        energy, shell = full_box_energy(state, 0.25)
        assert set(got) == boxes
        for b in boxes - {band, band + 1}:
            np.testing.assert_allclose(got[b], np.sum(energy[shell >= b]), rtol=1e-14, atol=0)
        # the state's unpaired slots hold nothing, the oracle's rounding there
        assert got[band + 1] == got[band] == 0.0 and got[band - 1] > 0.0
        assert np.sum(energy[shell >= band]) < 1e-30 * np.sum(energy)

    @pytest.mark.parametrize("case", ["preset1-wide-n_cuts", "preset3-wide-n_cuts",
                                      "explicit-full-box-1d", "explicit-full-box-2d"])
    def test_study_tails_and_shifts_match_full_box_flow(self, case):
        base = dict(methods=ALL_METHODS, levels=(2**-3, 2**-4, 2**-5), gamma=0.5, seed=4)
        cfg = resolve_config(sw.ExperimentConfig(**{**base, **SPLIT_CASES[case]}))
        study = exp._prepare(cfg)
        dim, problem = exp.study_problem(cfg)
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
                np.testing.assert_allclose(study.tails[mi, li],
                                           np.sum(energy[shell >= max(band, h)]),
                                           rtol=1e-14, atol=0)
                sign = 1.0 * ((n <= shell_m) & (shell_m < min(h, band))) - ref_sign
                shift = study.shifts[mi][li]
                if not sign.any():
                    assert shift is None
                    continue
                live += 1
                np.testing.assert_array_equal(shift[0], flow_m.u_hat * sign)
                np.testing.assert_array_equal(shift[1], flow_m.v_hat * sign)
        assert live > 0
        if case.startswith("explicit-full-box"):
            assert (study.tails > 0).all()

    def test_tail_pass_builds_no_full_box_array(self):
        # a 2D box of 1024^2 modes: 8 MiB per complex half-spectrum array
        shape = (1024, 513)
        state = sw.SpectralState(np.full(shape, 1.0 + 2.0j), np.full(shape, 3.0 - 1.0j))
        tracemalloc.start()
        try:
            exp._outside_energy(state, 0.25, {256, 400, 512})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def per_sample_errors(study, sample):
    """The squared errors of one sample from one ``run`` per method and
    level, each scored alone: pad to M, subtract, add the shift, reduce,
    add the tail.  Every run gets the initial state at band M and restricts
    it to its own grid without a recovery band."""
    config = study.config
    dim = config.dim
    problem = sw.ProblemSpec(study.f, study.sigma,
                             sw.InitialDataSpec("explicit", state=study.starts[study.band]))
    lattice = sw.sample_path(config.seed, sample, config.t_final, config.tau_ref)
    ref_grid = sw.make_grid(dim, default_n_cut(config.tau_ref), 1.0)
    ref = sw.run(study.ref_method, ref_grid, problem, lattice)
    ref = sw.with_band(ref.final_state, study.band)
    out = np.empty((len(config.methods), len(config.levels)))
    for mi, m in enumerate(config.methods):
        for li, (tau, n) in enumerate(zip(config.levels, config.n_cuts)):
            res = sw.run(sw.method_spec(m, tau, config.t_final), sw.make_grid(dim, n, 1.0),
                         problem, lattice)
            res = sw.with_band(res.final_state, study.band)
            du, dv = res.u_hat - ref.u_hat, res.v_hat - ref.v_hat
            shift = study.shifts[mi][li]
            if shift is not None:
                du, dv = du + shift[0], dv + shift[1]
            out[mi, li] = exp._weighted_norm_sq(du, dv, *study.weights) + study.tails[mi, li]
    return out


DETERMINISM_CASES = {
    "1d": dict(dim=1, preset=2, alpha=2.0, levels=(2**-3, 2**-4, 2**-5)),
    # M = 64 above N_ref = 32: the reference's recovered modes shift every row
    "1d-wide-n_cuts": dict(dim=1, preset=2, alpha=2.0, levels=(2**-3, 2**-4, 2**-5),
                           n_cuts=(8, 16, 64)),
    "2d": dict(dim=2, preset=4, levels=(2**-3, 2**-4), tau_ref=2**-6),
}


def count_steppings(monkeypatch, **kw):
    """Blocks stepped per level by one study, and its reports."""
    real = exp.run_block
    taus = []

    def spy(spec, start, f, sigma, paths, **k):
        taus.append(spec.tau)
        return real(spec, start, f, sigma, paths, **k)

    monkeypatch.setattr(exp, "run_block", spy)
    cfg = resolve_config(sw.ExperimentConfig(
        dim=1, preset=2, gamma=0.5, levels=(2**-3, 2**-4, 2**-5), n_samples=3,
        seed=2, **kw))
    reports = sw.run_convergence(cfg)
    return [taus.count(tau) for tau in cfg.levels], reports


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
        # hr_lri and stm share a stepping, and so does lri at N = 1/(4 tau)
        counts, _ = count_steppings(monkeypatch, methods=("hr_lri", "sem", "stm"))
        assert counts == [2, 2, 2]
        counts, reports = count_steppings(monkeypatch, methods=ALL_METHODS)
        assert counts == [2, 2, 2]
        assert reports["lri"].rows == reports["stm"].rows

    def test_cutting_lri_filter_steps_its_own_trajectory(self, monkeypatch):
        # n_cuts above 1/tau = 8, 16, 32: the lri filter cuts below N
        counts, reports = count_steppings(monkeypatch, methods=ALL_METHODS,
                                          n_cuts=(16, 32, 64))
        assert counts == [3, 3, 3]
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

        def spy(spec, start, f, sigma, paths, **k):
            calls.append((start, f, sigma))
            return real(spec, start, f, sigma, paths, **k)

        monkeypatch.setattr(exp, "run_block", spy)
        exp._study_reports(study, 2)
        per_chunk = 1 + sum(not is_ref for level in study.trajectories for *_, is_ref in level)
        assert len(calls) == 2 * per_chunk
        assert {start.band for start, _, _ in calls} == set(study.starts)
        for start, f, sigma in calls:
            assert start is study.starts[start.band]
            assert f is study.f and sigma is study.sigma

    def test_blocks_within_byte_budget(self, monkeypatch):
        real = exp.run_block
        blocks = []

        def spy(spec, start, f, sigma, paths, **k):
            res = real(spec, start, f, sigma, paths, **k)
            blocks.append((start.band, res.u_hat.nbytes))
            return res

        monkeypatch.setattr(exp, "run_block", spy)
        # one 2D row at band 512 is 8 MiB, so the four samples need chunks
        cfg = sw.ExperimentConfig(dim=2, preset=4, gamma=0.5, alpha=1.0,
                                  methods=("stm",), levels=(2**-3,), n_cuts=(512,),
                                  n_samples=4, seed=1)
        sw.run_convergence(cfg)
        wide = [nbytes for band, nbytes in blocks if band == 512]
        assert len(wide) == 2
        assert max(nbytes for _, nbytes in blocks) <= exp._BLOCK_BYTES


# the perfbench rough_1d and study_2d configs, at two workers
WORKER_CASES = {
    "rough_1d": dict(dim=1, preset=2, gamma=0.5, methods=("hr_lri", "sem", "stm"),
                     levels=(2**-5, 2**-6, 2**-7, 2**-8, 2**-9), tau_ref=2**-11,
                     alpha=2.0, n_samples=6),
    "study_2d": dict(dim=2, preset=4, gamma=1.0, methods=("hr_lri", "sem", "stm"),
                     levels=(2**-4, 2**-5, 2**-6), tau_ref=2**-8, alpha=1.5,
                     n_samples=4),
}


class TestChunkRows:
    @pytest.mark.parametrize("case,chunks", [("rough_1d", 1), ("study_2d", 2)])
    def test_workers_split_only_above_byte_floor(self, case, chunks):
        # 1D at M = 512: three rows per worker would be 24 KiB blocks, below
        # the floor, so the six samples stay one chunk; 2D at M = 64: one
        # row is 130 KiB, so the four samples split over the two workers
        cfg = resolve_config(sw.ExperimentConfig(n_workers=2, **WORKER_CASES[case]))
        rows = exp._chunk_rows(exp._prepare(cfg))
        assert -(-cfg.n_samples // rows) == chunks


class TestMemoryGuard:
    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        sizes = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(exp.os, "sysconf", lambda name: sizes[name])

    def test_guard_sizes_the_half_array(self, monkeypatch):
        # 2D band 64: one complex half array is 16 * 128 * 65 bytes, about
        # half the full 128^2 box
        need = 16 * 128 * 65
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
        # 2 KiB holds the run's full band (65 coefficients) and sampling its
        # 8-cell lattice of tau = 2^-5, not even the finished 512 cells of
        # tau_ref = 2^-11, which the run never draws
        self.physical_memory(monkeypatch, 2048)
        cfg = sw.ExperimentConfig(dim=1, preset=1, tau=2**-5, out_dir=str(tmp_path))
        assert resolve_config(cfg).tau_ref == 2**-11
        assert sw.run_single(cfg)["steps"] == 8
        with pytest.raises(sw.ConfigError, match="t_final/tau_ref"):
            sw.run_convergence(replace(cfg, n_samples=2))


class TestCompare:
    def test_needs_two_methods(self):
        with pytest.raises(sw.ConfigError):
            sw.compare_methods(linear_config(methods=("stm",)))

    def test_timing_positive_and_monotone(self, tmp_path):
        # levels a factor 4 apart in step count so the per-level work is
        # separated well above scheduler jitter
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5,
                                  methods=("stm", "sem"),
                                  levels=(2**-4, 2**-6, 2**-8),
                                  n_samples=8, seed=9,
                                  out_dir=str(tmp_path))
        reports, timing = sw.compare_methods(cfg)
        for m in ("stm", "sem"):
            ts = timing[m]
            assert all(t > 0 for t in ts)
            assert ts == sorted(ts)  # more steps, more time (coarsest first)
        csv_path = emit_study(reports, str(tmp_path), timing=timing)
        assert (tmp_path / "error_vs_time_stm.txt").exists()
        recs = sw.parse_csv(csv_path)
        assert all(rec["wall_seconds"] > 0 for rec in recs)


    def test_shared_trajectory_shares_timing(self):
        cfg = sw.ExperimentConfig(dim=1, preset=2, gamma=0.5,
                                  methods=("hr_lri", "stm"),
                                  levels=(2**-3, 2**-4, 2**-5), n_samples=4, seed=9)
        _, timing = sw.compare_methods(cfg)
        assert timing["hr_lri"] == timing["stm"]
        assert all(t > 0 for t in timing["stm"])


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

    def test_zero_data_stays_zero(self, tmp_path):
        grid = sw.make_grid(1, 8, 1.0)
        problem = sw.ProblemSpec(sw.zero_fn(), sw.scaled_sine(16.0),
                                 sw.InitialDataSpec("explicit", state=sw.zero_state(grid.dim, grid.n_high)))
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

    def test_resolver_rejects_bad_levels(self):
        with pytest.raises(sw.ConfigError):
            resolve_config(sw.ExperimentConfig(levels=(0.3,)))
        with pytest.raises(sw.ConfigError):
            resolve_config(sw.ExperimentConfig(levels=(2**-4,), tau_ref=3e-2))

    def test_preset_dimension_mismatch(self):
        with pytest.raises(sw.ConfigError):
            sw.run_convergence(sw.ExperimentConfig(dim=2, preset=1,
                                                   levels=(2**-3,)))
