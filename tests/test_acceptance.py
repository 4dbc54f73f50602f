"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and prints
one [PASS]/[FAIL] line (run with ``pytest -s`` to see them live).  The two
Monte Carlo studies are computed once per worker count through session
fixtures and shared between the criteria that read them.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import stochwave as sw
from stochwave.semigroup import propagator_tables

from helpers import band_mask, exact_linear_zero_mode, linear_exact_discrepancy, masked


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    print(f"\n[PASS] criterion {num}: {label} ({time.perf_counter() - start:.1f}s)")


def _study(config, tmp_path_factory, tag):
    out = {}
    for workers in (1, 8):
        cfg = sw.ExperimentConfig(**{**config, "n_workers": workers})
        reports = sw.run_convergence(cfg)
        path = tmp_path_factory.mktemp(tag) / f"w{workers}.csv"
        sw.emit_csv(list(reports.values()), path)
        out[workers] = (reports, path.read_bytes())
    return out


@pytest.fixture(scope="session")
def study_rough(tmp_path_factory):
    """Rough-data study: gamma = 1/2, tau = N^-1/4, 128 coupled samples."""
    config = dict(dim=1, preset=2, gamma=0.5,
                  methods=("hr_lri", "sem", "stm"),
                  levels=(2**-5, 2**-6, 2**-7, 2**-8, 2**-9),
                  tau_ref=2**-11, n_samples=128, seed=2026)
    return _study(config, tmp_path_factory, "rough")


@pytest.fixture(scope="session")
def study_smooth(tmp_path_factory):
    """Smooth-data study: gamma = 4, all four methods, 64 samples."""
    config = dict(dim=1, preset=2, gamma=4.0,
                  methods=("hr_lri", "lri", "sem", "stm"),
                  levels=(2**-5, 2**-6, 2**-7, 2**-8, 2**-9),
                  tau_ref=2**-11, n_samples=64, seed=2027)
    return _study(config, tmp_path_factory, "smooth")


def test_criterion_1_spectral_round_trip():
    with criterion(1, "spectral round trip < 1e-12, 1D to 2^10 / 2D to 2^7"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        cases = [(1, 2**7), (1, 2**10), (2, 2**5), (2, 2**7)]
        for dim, band in cases:
            samples = rng.standard_normal((2 * band,) * dim)
            back = sw.inverse(sw.forward(samples))
            rel = np.abs(back - samples).max() / np.abs(samples).max()
            assert rel < 1e-12, f"dim {dim} band {band}: {rel:.2e}"
        assert time.perf_counter() - start < 5.0


def test_criterion_2_semigroup_group_law():
    with criterion(2, "group law entrywise < 1e-12 over 1e4 triples"):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        lam = rng.uniform(0.0, 1000.0, 10**4)
        s = rng.uniform(0.0, 1.0, 10**4)
        t = rng.uniform(0.0, 1.0, 10**4)

        a = propagator_tables(lam, s)
        b = propagator_tables(lam, t)
        direct = propagator_tables(lam, s + t)
        prod = (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])
        # entrywise in the energy scaling (lam*u, v), where the matrix is a
        # rotation with O(1) entries
        scale = np.maximum(lam, 1.0)
        worst = max(np.abs(prod[0] - direct[0]).max(),
                    (np.abs(prod[1] - direct[1]) * scale).max(),
                    (np.abs(prod[2] - direct[2]) / scale).max(),
                    np.abs(prod[3] - direct[3]).max())
        assert worst < 1e-12, f"worst entry error {worst:.2e}"
        # zero mode composes to an exact shear
        for u, w in [(0.125, 0.5), (0.3, 0.7)]:
            left = np.array([[1.0, u], [0.0, 1.0]]) @ np.array([[1.0, w], [0.0, 1.0]])
            a11, a12, a21, _ = propagator_tables(np.array([0.0]), u + w)
            assert left[0, 1] == a12[0] and a11[0] == 1.0 and a21[0] == 0.0
        assert time.perf_counter() - start < 1.0


def test_criterion_3_linear_degeneration():
    with criterion(3, "256-step linear run equals exact propagation < 1e-10"):
        start = time.perf_counter()
        grid = sw.make_grid(1, 16, 2.0)
        rng = np.random.default_rng(3)
        u0 = sw.state_from_fields(rng.standard_normal(512),
                                  rng.standard_normal(512))
        problem = sw.ProblemSpec(sw.zero_fn(), sw.zero_fn(),
                                 sw.InitialDataSpec("explicit", state=u0))
        spec = sw.method_spec("hr_lri", 2**-10, 0.25)
        assert spec.n_steps == 256
        lattice = sw.sample_path(3, 0, 0.25, 2**-10)
        gap = linear_exact_discrepancy(spec, grid, problem, lattice)
        assert gap < 1e-10, f"pair-norm discrepancy {gap:.2e}"
        assert time.perf_counter() - start < 10.0


def test_criterion_4_noise_coupling():
    with criterion(4, "coarsening bit-exact at r in {2,4,8,16}; CLT moments"):
        start = time.perf_counter()
        lattice = sw.sample_path(4, 0, 2**17 * 2**-10, 2**-10)
        assert lattice.n_base >= 10**5
        for r in (2, 4, 8, 16):
            coarse = sw.coarsen(lattice, r * lattice.base_dt)
            acc = 0.0
            group = []
            for i, w in enumerate(lattice.increments):
                acc += float(w)
                if (i + 1) % r == 0:
                    group.append(acc)
                    acc = 0.0
            assert np.array_equal(coarse, np.array(group)), f"ratio {r} not bit-exact"
        n = 2**20
        base_dt = 2**-10
        big = sw.sample_path(4, 1, n * base_dt, base_dt).increments
        assert abs(big.mean()) < 4 * np.sqrt(base_dt / n)
        assert abs(big.var() / base_dt - 1.0) < 0.01
        assert time.perf_counter() - start < 5.0


def test_criterion_5_rough_rate(study_rough):
    with criterion(5, "rough-data HR-LRI fitted order in [0.8, 1.2]"):
        reports, _ = study_rough[1]
        order = reports["hr_lri"].fitted_order
        assert 0.8 <= order <= 1.2, f"fitted order {order:.3f}"
        print(f"  hr_lri order {order:.3f}", end="")


def test_criterion_6_baseline_gap(study_rough):
    with criterion(6, "SEM and STM fitted orders >= 0.2 below HR-LRI"):
        reports, _ = study_rough[1]
        hr = reports["hr_lri"].fitted_order
        for m in ("sem", "stm"):
            other = reports[m].fitted_order
            assert other <= hr - 0.2, f"{m} order {other:.3f} vs hr_lri {hr:.3f}"
            print(f"  {m} order {other:.3f}", end="")


def test_criterion_7_smooth_regime(study_smooth):
    with criterion(7, "smooth-data fitted orders all within 1 +- 0.15"):
        reports, _ = study_smooth[1]
        for m, rep in reports.items():
            assert 0.85 <= rep.fitted_order <= 1.15, \
                f"{m} order {rep.fitted_order:.3f}"
            print(f"  {m} order {rep.fitted_order:.3f}", end="")


def test_criterion_8_constant_sigma_oracle():
    with criterion(8, "constant-sigma zero-mode error slope 1 +- 0.2"):
        start = time.perf_counter()
        c, t_final, base_dt = 4.0, 0.25, 2**-14
        u0, v0 = 0.5, 0.25
        grid = sw.make_grid(1, 1, 1.0)
        u = np.zeros(2, dtype=np.complex128)
        v = np.zeros(2, dtype=np.complex128)
        u[0], v[0] = u0, v0
        state0 = sw.SpectralState(u, v)
        problem = sw.ProblemSpec(sw.zero_fn(), sw.constant_fn(c),
                                 sw.InitialDataSpec("explicit", state=state0))
        taus = [2**-5, 2**-6, 2**-7, 2**-8, 2**-9]
        specs = {m: [sw.method_spec(m, tau, t_final) for tau in taus]
                 for m in ("stm", "hr_lri")}
        sq = {m: np.zeros(len(taus)) for m in specs}
        n_samples = 256
        lattices = [sw.sample_path(77, s, t_final, base_dt) for s in range(n_samples)]
        u_ref, v_ref = np.array([exact_linear_zero_mode(u0, v0, c, lattice, t_final)
                                 for lattice in lattices]).T
        # on band 1 a run steps the whole state and recovers nothing, so
        # each (method, level) steps its paths as one block, every row
        # bit-identical to a single run
        for m, level_specs in specs.items():
            for li, spec in enumerate(level_specs):
                dws = np.stack([sw.coarsen(lattice, spec.tau) for lattice in lattices])
                block, = sw.run_block([spec], state0, problem.f, problem.sigma, dws)
                assert not block.failed
                du = block.u_hat[:, 0].real - u_ref
                dv = block.v_hat[:, 0].real - v_ref
                sq[m][li] = np.sum(du * du + dv * dv)
        for m in specs:
            errs = np.sqrt(sq[m] / n_samples)
            slope = sw.estimate_order(list(zip(taus, errs)))
            assert 0.8 <= slope <= 1.2, f"{m} slope {slope:.3f}"
            print(f"  {m} slope {slope:.3f}", end="")
        assert time.perf_counter() - start < 120.0


def test_criterion_9_2d_smoke():
    with criterion(9, "2D indicator run: finite norm, path-free high band"):
        start = time.perf_counter()
        grid = sw.make_grid(2, 64, 1.5)
        assert grid.n_high == 512
        _, _, problem = sw.preset_problem(3)
        spec = sw.method_spec("hr_lri", 2**-8, 0.25)
        finals = []
        for seed in (0, 1):
            lattice = sw.sample_path(seed, 0, 0.25, 2**-8)
            res = sw.run(spec, grid, problem, lattice)
            norm = sw.sobolev_norm(res, 0.0)
            assert np.isfinite(norm) and norm > 0
            finals.append(res)
        band = band_mask(2, 512, 512) & ~band_mask(2, 512, 64)
        high = [masked(f, band) for f in finals]
        assert np.array_equal(high[0].u_hat, high[1].u_hat)
        assert np.array_equal(high[0].v_hat, high[1].v_hat)
        # and the noisy stepped band must genuinely differ
        assert np.abs(finals[0].u_hat - finals[1].u_hat).max() > 1e-8
        assert time.perf_counter() - start < 120.0


def test_criterion_10_worker_determinism(study_rough, study_smooth):
    with criterion(10, "1 vs 8 workers produce byte-identical CSVs"):
        for name, study in (("rough", study_rough), ("smooth", study_smooth)):
            assert study[1][1] == study[8][1], f"{name} study CSVs differ"
