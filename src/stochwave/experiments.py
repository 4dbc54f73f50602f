"""Monte Carlo convergence studies, method comparisons and report emission.

Strong-error protocol: every Monte Carlo sample owns one Brownian lattice at
the reference resolution tau_ref; the reference solution (high-frequency
recovered integrator at tau_ref) and every coarse run consume grouped
increments of that same lattice, so the measured quantity is the coupled
mean-square distance

    rms(tau) = sqrt( mean_s || U_tau,s(T) - U_ref,s(T) ||_0^2 )

in the L2 x H^-1 pair norm.  The initial state is built once, on the
reference grid, and restricted once per stepped band.

The pair norm is diagonal in the Fourier modes, so each squared error splits
exactly at the box |k|_inf <= M - 1, where M is the widest stepped band of
the study (the reference's or a coarse level's).  A run keeps the modes up
to box h: its recovery cutoff if it recovers (hr_lri, and the reference at
N_ref^alpha), its stepped band if not; every recovered mode is the exact
linear flow e^(TL) U_0 of the shared initial state.  So:

* inside the box, per sample: every run steps its band only, and its final
  state is compared at band M with the reference's.  The recovered modes
  there never see the noise: each (method, level) adds one per-study shift,
  the flow on its recovered modes inside box M minus the reference's.
* outside the box, per study: no run steps there, so the error is the flow
  outside box max(M, h), the modes with max_j |k_j| >= max(M, h).  Its
  per-mode energy depends on |u_0|^2, |v_0|^2, Re(u_0 conj v_0) and
  (|k_1|, ..., |k_d|) alone, so every tail comes from one streamed pass over
  the initial state's half spectrum: in slabs along its last axis, folded
  over the signs of the other axes, with the 2x2 tables on the |k| orthant
  only (``_outside_energy``).  The flow is built at band M only, for the
  shifts.

So no sample ever builds a state wider than band M, and the initial pair is
the study's only array of the full box; with alpha = 1 every shift is empty
and every tail zero.

The samples are stepped in contiguous chunks, each as array blocks: the
reference and every distinct trajectory of a level is one
``integrators.run_block`` call over all paths of the chunk.  Methods whose
stepping is the same (equal ``integrators.stepping_key``: ``hr_lri`` and
``stm`` always, ``lri`` too unless its filter cuts) share one trajectory and
its final states.  Each block is re-stored at band M once and the reference
block subtracted; each method then takes one weighted reduction of that
difference plus its shift over the mode axes.  Worker threads take whole
chunks.  A chunk's rows are capped so that a block at band M stays within
a fixed byte budget, and the samples are split over the workers only while
each chunk keeps a fixed byte floor of such a block, below which a second
worker costs more than it saves.

Orders are read off as the least-squares slope of log(rms) against
log(tau).  Runs that leave the floating-point domain are excluded and
counted, never averaged, row by row: a failed row of a block excludes that
sample's run alone, and a failed reference row all of that sample's runs.  A
study with more than 1% exclusions aborts with ``NumericalFailure``, an
``integrators.NumericalError`` like a single run's non-finite step.

Reports are deterministic: samples are keyed by (seed, sample_index), every
row of a block is bit-identical to a block of one, the reduction runs in
ascending sample order whatever the worker count or chunk size, and the
convergence CSV carries no timing (its wall_seconds column is 0).  Measured
timings belong to the compare workflow, which writes them into its own CSV
and error-versus-time plot data.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .integrators import (
    SCHEMES,
    MethodSpec,
    NumericalError,
    method_spec,
    recover_high,
    run,
    run_block,
    stepping_key,
)
from .noise import PEAK_BYTES_PER_CELL, sample_path
from .problems import (
    PRESETS,
    NonlinearitySpec,
    ProblemSpec,
    build_initial,
    preset_problem,
)
from .semigroup import propagator_tables
from .spectral import (
    DIMS,
    SpectralGrid,
    SpectralState,
    _norm_weights,
    _weighted_norm_sq,
    default_alpha,
    make_grid,
    save_snapshot,
    shell_index,
    sobolev_norm,
    with_band,
)

DESK_SAMPLES = 128
MAX_EXCLUDED_FRACTION = 0.01


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class NumericalFailure(NumericalError):
    """Too many excluded runs, or a level with every sample excluded."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 1
    preset: int | None = None
    problem: ProblemSpec | None = None
    gamma: float = 0.5
    methods: tuple[str, ...] = ("hr_lri",)
    levels: tuple[float, ...] = (2**-5, 2**-6, 2**-7, 2**-8, 2**-9)
    n_cuts: tuple[int, ...] | None = None
    alpha: float | None = None
    t_final: float = 0.25
    n_samples: int = DESK_SAMPLES
    seed: int = 0
    tau_ref: float | None = None
    out_dir: str = "out"
    n_workers: int = 1
    tau: float | None = None
    sample_index: int = 0
    snapshot_stride: int = 0


def default_n_cut(tau: float) -> int:
    """The step-size coupling N = 1/(4 tau)."""
    n = int(round(1.0 / (4.0 * tau)))
    return max(n, 1)


def _check_memory(need: int, what: str) -> None:
    """Refuse ``what`` if its ``need`` bytes exceed physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(f"{what} needs {need / 2**30:.3g} GiB, more than the "
                          f"{have / 2**30:.3g} GiB of physical memory")


def _check_dyadic(name: str, step: float, t_final: float) -> None:
    """The Brownian lattice needs t_final / step cells, a power of two."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"{name} must be finite and positive, got {step}")
    r = t_final / step
    if not math.isfinite(r):
        raise ConfigError(f"t_final/{name} = {t_final}/{step} overflows")
    n = round(r)
    if n < 1 or abs(r - n) > 1e-9 or n & (n - 1):
        raise ConfigError(f"t_final/{name} = {t_final}/{step} is not a power of two")


def _check_lattice(name: str, step: float, t_final: float) -> None:
    """Refuse to draw a Brownian lattice of t_final / step cells (a power of
    two, as resolve_config checked) if sampling one path would exceed
    physical memory.  Called by the entry point that draws it, before any
    path."""
    n = round(t_final / step)
    _check_memory(PEAK_BYTES_PER_CELL * n, f"sampling the Brownian lattice of "
                  f"t_final/{name} = 2^{n.bit_length() - 1} cells")


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fill derived defaults and validate cross-field consistency.

    Everything the runtime would reject fails here, with ConfigError.
    """
    if config.dim not in DIMS:
        raise ConfigError(f"dim must be one of {DIMS}, got {config.dim}")
    if config.preset is not None and config.preset not in PRESETS:
        raise ConfigError(f"unknown preset {config.preset}")
    if not config.gamma > 0:
        raise ConfigError(f"gamma must be positive, got {config.gamma}")
    if not (math.isfinite(config.t_final) and config.t_final > 0):
        raise ConfigError(f"t_final must be positive, got {config.t_final}")
    if not (0 <= config.seed < 2**64 and 0 <= config.sample_index < 2**64):
        raise ConfigError("seed and sample_index must lie in [0, 2^64)")
    levels = tuple(sorted((float(t) for t in config.levels), reverse=True))
    if not levels:
        raise ConfigError("at least one level is required")
    alpha = default_alpha(config.dim) if config.alpha is None else config.alpha
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ConfigError(f"alpha must be >= 1, got {alpha}")
    tau_ref = config.tau_ref
    if tau_ref is None:
        tau_ref = levels[-1] / 4.0
    _check_dyadic("tau_ref", tau_ref, config.t_final)
    if config.tau is not None:
        _check_dyadic("tau", config.tau, config.t_final)
    for tau in levels:
        _check_dyadic("level", tau, config.t_final)
        r = tau / tau_ref
        if abs(r - round(r)) > 1e-9 or round(r) < 1:
            raise ConfigError(f"tau_ref {tau_ref} does not divide level {tau}")
    n_cuts = config.n_cuts
    if n_cuts is None:
        n_cuts = tuple(default_n_cut(t) for t in levels)
    elif len(n_cuts) != len(levels):
        raise ConfigError("n_cuts must match levels one to one")
    if min(n_cuts) < 1:
        raise ConfigError(f"n_cuts must be >= 1, got {n_cuts}")
    methods = tuple(config.methods)
    if not methods:
        raise ConfigError("at least one method is required")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"repeated method in {methods}")
    for m in methods:
        if m not in SCHEMES:
            raise ConfigError(f"unknown method {m!r}")
    if config.n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if config.n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {config.n_workers}")
    # the output directory's nearest existing ancestor must be a directory
    existing = os.path.abspath(config.out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out_dir {config.out_dir}: {existing} is not a directory")
    tau = config.tau if config.tau is not None else levels[-1]
    for n in (default_n_cut(tau_ref), *n_cuts, default_n_cut(tau)):
        try:
            make_grid(config.dim, n, alpha)
        except OverflowError as exc:
            raise ConfigError(f"recovery cutoff {n}^{alpha} overflows") from exc
    return replace(config, levels=levels, alpha=alpha, tau_ref=tau_ref,
                   n_cuts=n_cuts, methods=methods)


def _full_grid(dim: int, n_cut: int, alpha: float) -> SpectralGrid:
    """make_grid, refusing a grid whose one complex array at the full band,
    (2 n_high)^(dim-1) (n_high + 1) coefficients, is larger than physical
    memory."""
    grid = make_grid(dim, n_cut, alpha)
    _check_memory(16 * (2 * grid.n_high) ** (dim - 1) * (grid.n_high + 1),
                  f"one full-band array of band {n_cut} with alpha {alpha}")
    return grid


def study_problem(config: ExperimentConfig) -> tuple[int, ProblemSpec]:
    """The (dim, problem) pair the config describes."""
    if config.problem is not None:
        return config.dim, config.problem
    if config.preset is None:
        raise ConfigError("config needs either a preset or an explicit problem")
    dim, _, problem = preset_problem(config.preset, config.gamma, config.seed)
    if dim != config.dim:
        raise ConfigError(f"preset {config.preset} is {dim}-dimensional, config says {config.dim}")
    return dim, problem


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class LevelRow:
    tau: float
    n_cut: int
    n_samples: int
    rms_error: float
    stderr: float
    excluded: int
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class ConvergenceReport:
    method: str
    rows: tuple[LevelRow, ...]
    fitted_order: float | None


def estimate_order(rows) -> float | None:
    """Ordinary least-squares slope of log(rms) against log(tau).

    ``rows`` holds (tau, rms) pairs or LevelRow objects.  Returns None when
    every error vanishes (nothing to fit); raises on fewer than three usable
    rows.
    """
    pts = []
    for row in rows:
        tau, err = (row.tau, row.rms_error) if isinstance(row, LevelRow) else row
        if err > 0.0:
            pts.append((math.log(tau), math.log(err)))
    if not pts:
        return None
    if len(pts) < 3:
        raise ValueError(f"need at least 3 usable rows, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xs_c = xs - xs.mean()
    return float(np.dot(xs_c, ys - ys.mean()) / np.dot(xs_c, xs_c))


def _aggregate(method: str, levels, n_cuts, err_sq: np.ndarray,
               wall: np.ndarray | None = None) -> ConvergenceReport:
    """Reduce the (sample, level) error-square matrix into a report."""
    rows = []
    for i, (tau, n_cut) in enumerate(zip(levels, n_cuts)):
        col = err_sq[:, i]
        good = col[np.isfinite(col)]
        excluded = col.shape[0] - good.shape[0]
        if good.shape[0] == 0:
            raise NumericalFailure(f"{method} at tau={tau}: every sample excluded")
        mean_sq = float(np.mean(good))
        rms = math.sqrt(mean_sq)
        if good.shape[0] > 1 and rms > 0.0:
            var_sq = float(np.var(good, ddof=1))
            stderr = math.sqrt(var_sq / good.shape[0]) / (2.0 * rms)
        else:
            stderr = 0.0
        rows.append(LevelRow(tau=tau, n_cut=n_cut, n_samples=good.shape[0],
                             rms_error=rms, stderr=stderr, excluded=excluded,
                             wall_seconds=float(wall[i]) if wall is not None else 0.0))
    try:
        order = estimate_order(rows)
    except ValueError:
        order = None
    return ConvergenceReport(method=method, rows=tuple(rows), fitted_order=order)


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class _Study:
    """What every sample of a study shares, read-only.

    ``starts[n]`` is the initial state restricted to the stepped band n,
    one per distinct band of the reference and the levels; ``band`` is the
    widest of them (M).  ``trajectories[l]`` lists the distinct
    steppings of level l as (spec, method indices, same as the reference):
    methods with equal ``stepping_key`` share one.  ``weights`` are the
    pair-norm weights at band M; ``shifts[m][l]``, the (u, v) pair that the
    recovered modes inside box M add to a block's difference, or None; and
    ``tails[m, l]``, the squared error outside box M.
    """

    config: ExperimentConfig
    f: NonlinearitySpec
    sigma: NonlinearitySpec
    starts: dict
    band: int
    ref_method: MethodSpec
    trajectories: list
    weights: tuple
    shifts: list
    tails: np.ndarray


# bytes of the (2n, ..., 2n, slots) complex slab of a state's last axis that
# the tail pass reads at a time; its temporaries are a few arrays that size
_SLAB_BYTES = 2**18


def _fold_signs(x: np.ndarray, axes) -> np.ndarray:
    """x summed over the sign pairs of each of ``axes``: slot j of the
    result (|k| = j) holds slots j and 2n - j of x, slots 0 and n alone."""
    for ax in axes:
        n = x.shape[ax] // 2
        pre = (slice(None),) * ax
        out = x[pre + (slice(0, n + 1),)].copy()
        out[pre + (slice(1, n),)] += x[pre + (slice(2 * n - 1, n, -1),)]
        x = out
    return x


def _outside_energy(state: SpectralState, t: float, boxes) -> dict[int, float]:
    """{b: squared pair norm (gamma = 0) of the flow e^(tL) state outside
    box b} for every b in ``boxes``: its per-mode energy summed over the
    modes with max_j |k_j| >= b.

    The flow itself is never built.  With A = |u|^2, B = |v|^2,
    C = Re(u conj v), the tables (c, s, a21) of e^(tL) and the weight
    w = 1 / (1 + lambda^2), mode k holds

        E = c^2 A + s^2 B + 2csC + w (a21^2 A + c^2 B + 2 a21 c C),

    and the tables, w and max_j |k_j| depend on (|k_1|, ..., |k_d|) alone.
    The last axis of the half spectrum already holds |k_d|, and a slot
    above 0 stands for k_d and -k_d, so it weighs 2.  So A, B and C are
    summed over the sign variants of the other axes and weighted first, and
    the rest is evaluated on the (n + 1)^d orthant of |k|.  The last axis
    is read in slabs of at most _SLAB_BYTES of the state at a time, so no
    array of the full box is made.
    """
    u, v = state.u_hat, state.v_hat
    dim, n = state.dim, state.band
    axes = range(dim - 1)
    orthant = [np.arange(n + 1) for _ in axes]
    cols = max(1, _SLAB_BYTES // (16 * (2 * n) ** (dim - 1)))
    out = dict.fromkeys(boxes, 0.0)
    for lo in range(0, n + 1, cols):
        hi = min(lo + cols, n + 1)
        us, vs = u[..., lo:hi], v[..., lo:hi]
        mult = np.where(np.arange(lo, hi) == 0, 1.0, 2.0)
        a = _fold_signs(us.real * us.real + us.imag * us.imag, axes) * mult
        b = _fold_signs(vs.real * vs.real + vs.imag * vs.imag, axes) * mult
        c = _fold_signs(us.real * vs.real + us.imag * vs.imag, axes) * mult
        ks = orthant + [np.arange(lo, hi)]
        lam2 = (2.0 * np.pi) ** 2 * functools.reduce(np.add.outer,
                                                      [k.astype(np.float64) ** 2 for k in ks])
        cos, sin_over, a21, _ = propagator_tables(np.sqrt(lam2), t)
        w = 1.0 / (1.0 + lam2)
        energy = ((cos * cos + w * a21 * a21) * a + (sin_over * sin_over + w * cos * cos) * b
                  + 2.0 * (cos * sin_over + w * a21 * cos) * c)
        shell = functools.reduce(np.maximum.outer, ks)
        for box in out:
            out[box] += float(np.sum(energy[shell >= box]))
    return out


def _prepare(config: ExperimentConfig) -> _Study:
    """Grids, specs, the shared initial state and the noise-free parts of
    every error, computed once per study."""
    dim, problem = study_problem(config)
    _check_lattice("tau_ref", config.tau_ref, config.t_final)
    n_ref = default_n_cut(config.tau_ref)
    band = max(n_ref, *config.n_cuts)
    _check_memory(16 * (2 * band) ** (dim - 1) * (band + 1),
                  f"one array at the widest stepped band {band}")
    full = _full_grid(dim, n_ref, config.alpha)
    u0 = build_initial(problem.initial, full)
    if u0.dim != dim:
        raise ConfigError(f"initial state is {u0.dim}-dimensional, config says {dim}")
    u0 = with_band(u0, full.n_high)
    specs = [[method_spec(m, tau, config.t_final) for tau in config.levels]
             for m in config.methods]
    # (stepped band, box kept) per method and level
    runs = [[(n, make_grid(dim, n, config.alpha).n_high if spec.recovery else n)
             for spec, n in zip(row, config.n_cuts)] for row in specs]

    outside = _outside_energy(u0, config.t_final, {max(band, h) for row in runs for _, h in row})
    tails = np.array([[outside[max(band, h)] for _, h in row] for row in runs])

    # no run reads the initial state above band M
    u0 = with_band(u0, band)
    flow_m, shell_m = recover_high(u0, config.t_final), shell_index(dim, band)

    @functools.cache
    def shift(n: int, h: int) -> tuple | None:
        """The flow at band M on a run's recovered modes inside box M (outside
        box n, inside box h) minus the reference's; None if both are empty."""
        sign = 1.0 * ((n <= shell_m) & (shell_m < min(h, band)))
        sign -= (n_ref <= shell_m) & (shell_m < min(full.n_high, band))
        return (flow_m.u_hat * sign, flow_m.v_hat * sign) if sign.any() else None

    shifts = [[shift(n, h) for n, h in row] for row in runs]

    ref_method = method_spec("hr_lri", config.tau_ref, config.t_final)
    ref_key = stepping_key(ref_method, n_ref)
    trajectories = []
    for li, n in enumerate(config.n_cuts):
        sharing: dict[tuple, list[int]] = {}
        for mi, row in enumerate(specs):
            sharing.setdefault(stepping_key(row[li], n), []).append(mi)
        trajectories.append([(specs[mis[0]][li], mis, key == ref_key)
                             for key, mis in sharing.items()])

    starts = {n: with_band(u0, n) for n in {n_ref, *config.n_cuts}}
    return _Study(
        config=config, f=problem.f, sigma=problem.sigma, starts=starts, band=band,
        ref_method=ref_method, trajectories=trajectories,
        weights=_norm_weights(dim, band, 0.0), shifts=shifts, tails=tails)


def _chunk_errors(study: _Study, samples: range):
    """Errors (squared) and stepping times for a contiguous chunk of samples.

    Every distinct trajectory of a level is stepped once, as one block of
    the chunk's paths, and scored at band M against the reference block with
    one weighted reduction per method that maps to it.  Returns err_sq of
    shape (samples, methods, levels), NaN marking a run whose row or
    reference row failed, and the (methods, levels) stepping seconds of each
    method's trajectory.
    """
    config = study.config
    n_m = len(config.methods)
    err_sq = np.full((len(samples), n_m, len(config.levels)), np.nan)
    wall = np.zeros((n_m, len(config.levels)))
    paths = [sample_path(config.seed, s, config.t_final, config.tau_ref) for s in samples]
    ref_start = study.starts[default_n_cut(config.tau_ref)]
    ref = run_block(study.ref_method, ref_start, study.f, study.sigma, paths)
    ref_m = with_band(SpectralState(ref.u_hat, ref.v_hat), study.band, config.dim)
    for li, n in enumerate(config.n_cuts):
        for spec, mis, is_ref in study.trajectories[li]:
            res = ref if is_ref else run_block(spec, study.starts[n], study.f, study.sigma, paths)
            res_m = with_band(SpectralState(res.u_hat, res.v_hat), study.band, config.dim)
            du, dv = res_m.u_hat - ref_m.u_hat, res_m.v_hat - ref_m.v_hat
            failed = list(ref.failed.keys() | res.failed.keys())
            for mi in mis:
                shift = study.shifts[mi][li]
                u, v = (du, dv) if shift is None else (du + shift[0], dv + shift[1])
                err = _weighted_norm_sq(u, v, *study.weights) + study.tails[mi, li]
                err[failed] = np.nan
                err_sq[:, mi, li] = err
            wall[mis, li] = res.wall_time
    return err_sq, wall


# bytes one (rows, 2M, ..., 2M, M + 1) complex coefficient block of a chunk
# may take, the size of the blocks a chunk scores; a step's working set is
# about eight (rows, 2N, ..., 2N, N + 1) blocks
_BLOCK_BYTES = 2**25

# bytes of such a block below which a chunk is not split further over the
# workers.  Small 1D blocks hold the interpreter lock, and a 1D study at
# M = 512 steps 4 rows at about 56% and 8 rows at about 84% of its rate at
# 16 rows (one worker, 2-vCPU host), so a second worker on them costs more
# than it gains.  The floor is 16 such rows; in 2D one row at M = 64 passes.
_WORKER_FLOOR_BYTES = 2**17


def _chunk_rows(study: _Study) -> int:
    """Samples per chunk: an even split over the workers, but no fewer than
    keep a block at the widest stepped band M at _WORKER_FLOOR_BYTES, and
    capped so that such a block stays within _BLOCK_BYTES."""
    config = study.config
    row_bytes = 16 * (2 * study.band) ** (config.dim - 1) * (study.band + 1)
    split = max(-(-config.n_samples // config.n_workers), -(-_WORKER_FLOOR_BYTES // row_bytes))
    return min(max(1, _BLOCK_BYTES // row_bytes), split)


def _study_reports(study: _Study, rows: int,
                   collect_timing: bool = False) -> dict[str, ConvergenceReport]:
    """Step the samples in contiguous chunks of ``rows``, on the config's
    workers, and reduce them in ascending sample order into reports."""
    config = study.config
    chunks = [range(a, min(a + rows, config.n_samples))
              for a in range(0, config.n_samples, rows)]
    with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
        results = list(pool.map(functools.partial(_chunk_errors, study), chunks))

    err_sq = np.concatenate([r[0] for r in results])   # (sample, method, level)
    wall = np.stack([r[1] for r in results]).sum(axis=0)
    excluded = int(np.count_nonzero(~np.isfinite(err_sq)))
    if excluded > MAX_EXCLUDED_FRACTION * err_sq.size:
        raise NumericalFailure(
            f"{excluded} of {err_sq.size} runs excluded (> {MAX_EXCLUDED_FRACTION:.0%})")
    return {m: _aggregate(m, config.levels, config.n_cuts, err_sq[:, mi, :],
                          wall[mi] if collect_timing else None)
            for mi, m in enumerate(config.methods)}


def run_convergence(config: ExperimentConfig,
                    collect_timing: bool = False) -> dict[str, ConvergenceReport]:
    """One coupled-path convergence study; a report per method."""
    config = resolve_config(config)
    study = _prepare(config)
    return _study_reports(study, _chunk_rows(study), collect_timing)


def compare_methods(config: ExperimentConfig):
    """Convergence reports with measured per-level timings.

    Returns (reports, timing) where timing[method] lists, per level and
    coarsest first, the stepping seconds of the blocks of the method's
    trajectory, summed over chunks.  Methods that share a trajectory (see
    ``integrators.stepping_key``) report the same times.
    """
    if len(config.methods) < 2:
        raise ConfigError("compare needs at least two methods")
    reports = run_convergence(config, collect_timing=True)
    timing = {m: [row.wall_seconds for row in rep.rows]
              for m, rep in reports.items()}
    return reports, timing


# ---------------------------------------------------------------------------
# single-path runs with snapshots


def run_single(config: ExperimentConfig) -> dict:
    """Integrate one sample path with one method, emitting snapshots.

    Writes SWV1 snapshots plus per-snapshot plot data into out_dir and
    returns a summary dict with the final pair norms.  The plot data of a
    snapshot is u on its middle line along the last axis (the whole field
    in 1D, the row through the middle of the box in 2D) against x = i /
    points, both at 17 significant digits.  The x column is the same for
    every snapshot, so it is formatted once per run.
    """
    config = resolve_config(config)
    if len(config.methods) != 1:
        raise ConfigError(f"a single run takes one method, got {config.methods}")
    dim, problem = study_problem(config)
    tau = config.tau if config.tau is not None else config.levels[-1]
    n_cut = default_n_cut(tau)
    _check_lattice("tau", tau, config.t_final)
    grid = _full_grid(dim, n_cut, config.alpha)
    spec = method_spec(config.methods[0], tau, config.t_final)
    lattice = sample_path(config.seed, config.sample_index, config.t_final, tau)
    os.makedirs(config.out_dir, exist_ok=True)
    stride = config.snapshot_stride
    if stride <= 0:
        stride = max(spec.n_steps // 8, 1)

    written = []
    points = 2 * grid.n_high
    x_lines = plot_lines(np.arange(points) / points)

    def on_snapshot(step, t, state):
        base = os.path.join(config.out_dir, f"snap_{step:06d}")
        u, _ = save_snapshot(base + ".swv", state, t)
        # the middle line along the last axis, noted in the header
        u = u[(points // 2,) * (dim - 1)]
        comment = f"u(x{', 0.5' * (dim - 1)}) at t={t:.17g}"
        write_plot_data(base + ".txt", x_lines, u, comment)
        written.append(base + ".swv")

    result = run(spec, grid, problem, lattice,
                 snapshot_stride=stride, on_snapshot=on_snapshot)
    final_u = SpectralState(result.final_state.u_hat,
                            np.zeros_like(result.final_state.v_hat))
    summary = {
        "method": spec.kind,
        "tau": tau,
        "n_cut": n_cut,
        "steps": result.steps,
        "wall_seconds": result.wall_time,
        "final_norm_pair": sobolev_norm(result.final_state, 0.0),
        "final_norm_u": sobolev_norm(final_u, 0.0),
        "snapshots": written,
    }
    return summary


# ---------------------------------------------------------------------------
# emission


def emit_csv(reports, path) -> None:
    """Write reports (one or many) as UTF-8 CSV with 17-digit floats."""
    if isinstance(reports, ConvergenceReport):
        reports = [reports]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("method,tau,n_cut,n_samples,rms_error,stderr,excluded,wall_seconds\n")
            for rep in reports:
                for row in rep.rows:
                    fh.write(
                        f"{rep.method},{row.tau:.17g},{row.n_cut},{row.n_samples},"
                        f"{row.rms_error:.17g},{row.stderr:.17g},{row.excluded},"
                        f"{row.wall_seconds:.17g}\n")
    except OSError as exc:
        raise OSError(f"writing report to {path}: {exc}") from exc


def parse_csv(path) -> list[dict]:
    """Read back an emitted CSV into typed row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            vals = line.strip().split(",")
            rec = dict(zip(header, vals))
            rec["tau"] = float(rec["tau"])
            rec["n_cut"] = int(rec["n_cut"])
            rec["n_samples"] = int(rec["n_samples"])
            rec["rms_error"] = float(rec["rms_error"])
            rec["stderr"] = float(rec["stderr"])
            rec["excluded"] = int(rec["excluded"])
            rec["wall_seconds"] = float(rec["wall_seconds"])
            rows.append(rec)
    return rows


def plot_lines(xs) -> str:
    """The lines of a plot-data x column: each x at 17 significant digits,
    with its y slot left open as ``%.17g`` for ``write_plot_data``."""
    return ("%.17g %%.17g\n" * len(xs)) % tuple(np.asarray(xs).tolist())


def write_plot_data(path, x_lines: str, ys, comment: str) -> None:
    """Two-column whitespace-separated plot data with one comment line.

    ``x_lines`` is the x column from ``plot_lines``, which a caller formats
    once for every file that shares it; ``ys`` fills its y slots, 17
    significant digits per value, in one formatting pass, and the text is
    written in one piece.
    """
    text = f"# {comment}\n" + x_lines % tuple(np.asarray(ys).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_study(reports, out_dir: str, timing=None) -> str:
    """Write the study CSV plus per-method plot data; returns the CSV path."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "convergence.csv")
    emit_csv(list(reports.values()), csv_path)
    for m, rep in reports.items():
        taus = [row.tau for row in rep.rows]
        errs = [row.rms_error for row in rep.rows]
        write_plot_data(os.path.join(out_dir, f"error_vs_tau_{m}.txt"),
                        plot_lines(taus), errs, f"{m}: rms pair-norm error vs tau")
        if timing is not None:
            write_plot_data(os.path.join(out_dir, f"error_vs_time_{m}.txt"),
                            plot_lines(timing[m]), errs,
                            f"{m}: rms pair-norm error vs wall seconds")
    return csv_path


# ---------------------------------------------------------------------------
# flat key=value config files


METHOD_ALIASES = {"hrlri": "hr_lri", "hr_lri": "hr_lri", "lri": "lri",
                  "sem": "sem", "stm": "stm"}


def canonical_method(name: str) -> str:
    key = name.strip().lower()
    if key not in METHOD_ALIASES:
        raise ConfigError(f"unknown method {name!r}")
    return METHOD_ALIASES[key]


def parse_config_file(path) -> dict[str, str]:
    """key=value lines, '#' comments, later keys win."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _listed(convert):
    return lambda val: tuple(convert(v) for v in val.split(",") if v.strip())


# config key -> converter of its string value
_CONVERTERS = {
    **dict.fromkeys(("dim", "preset", "n_samples", "seed", "n_workers",
                     "sample_index", "snapshot_stride"), int),
    **dict.fromkeys(("gamma", "alpha", "t_final", "tau_ref", "tau"), float),
    "methods": _listed(canonical_method),
    "levels": _listed(float),
    "n_cuts": _listed(int),
    "out_dir": str,
}


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from string key=value pairs."""
    kwargs: dict = {}
    for key, val in mapping.items():
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _CONVERTERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{key} = {val}: {exc}") from exc
    return ExperimentConfig(**kwargs)
