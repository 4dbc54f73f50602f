"""Monte Carlo convergence studies, method comparisons and report emission.

Strong-error protocol: every Monte Carlo sample owns one Brownian lattice at
the reference resolution tau_ref; the reference solution (high-frequency
recovered integrator at tau_ref) and every coarse run consume grouped
increments of that same lattice, so the measured quantity is the coupled
mean-square distance

    rms(tau) = sqrt( mean_s || U_tau,s(T) - U_ref,s(T) ||_0^2 )

in the L2 x H^-1 pair norm.  The initial state is built once per study
and restricted once per stepped band.

A study is one table of runs: the reference (hr_lri at tau_ref on band
N_ref) and one run per method and level, each a spec and a stepped band n.
A run keeps box h, floor(n^alpha) if it recovers and n if not
(``integrators.kept_box``), and its recovered modes n <= max_j |k_j| < h
(``integrators.recovered_modes``) are the exact linear flow e^(TL) U_0 of
the shared initial state.  The pair norm is diagonal in the Fourier modes,
so each squared error splits exactly at box M, the widest stepped band:

* inside box M, per sample: every run steps its band only, and its final
  state is compared at band M with the reference's.  The recovered modes
  there never see the noise: each run adds one per-study shift, the flow
  on its recovered modes inside box M minus the reference's.
* outside box M, per study: no run steps there, so the error is the flow
  outside box max(M, h).  Its per-mode energy depends on |u_0|^2, |v_0|^2,
  Re(u_0 conj v_0) and (|k_1|, ..., |k_d|) alone, so every tail comes from
  one streamed pass over the |k| orthant up to the last |k| the data fills
  (``_outside_energy``); the flow is built at band M only, for the shifts.

So no sample ever builds a state wider than band M, and no study builds a
state at the full band: a preset's per-axis factors, or an explicit state
read at its own band, give band M and the tail pass.  With alpha = 1 every
shift is empty and every tail zero.

The samples are stepped in contiguous chunks.  A chunk draws its paths one
at a time, coarsens each to every step size into preallocated increment
rows as soon as it is drawn and then drops it, so it holds one lattice at a
time.  It steps each ``integrators.stepping_key`` once: runs with equal
keys (``hr_lri`` and ``stm`` always, ``lri`` unless its filter cuts, and an
``hr_lri`` level at tau_ref on N_ref with the reference) share one
trajectory.  So a study steps each (band, cut, tau) once, every table kind
in one block: the reference alone, then per level one ``run_block`` call
for each (band, cut, tau) of the keys not yet stepped, the e^(tau L) and
the resolvent tables side by side (a ``lri`` whose filter cuts has its own
cut, so its own call).  Each trajectory is re-stored at band M, and each
run takes one weighted reduction of its difference from the reference's
plus its shift.  Worker threads take whole chunks.  A chunk's rows are
capped so that its widest block, a key's rows at band M or a level's table
kinds stepped together, stays within a fixed byte budget, and the samples
are split over the workers only while each chunk keeps a fixed byte floor
of one key's rows at band M, below which a second worker costs more than
it saves.

Orders are read off as the least-squares slope of log(rms) against
log(tau).  Runs that leave the floating-point domain are excluded and
counted, never averaged, row by row: a failed row of a block excludes that
sample's run alone, and a failed reference row all of that sample's runs.  A
study with more than 1% exclusions aborts with ``NumericalFailure``, an
``integrators.NumericalError`` like a single run's non-finite step.

Reports are deterministic: samples are keyed by (seed, sample_index), every
row of a block is bit-identical to a block of one, the reduction runs in
ascending sample order whatever the worker count or chunk size, and the
convergence CSV carries no timing (its wall_seconds column is 0).  Only a
timed study (``collect_timing``) measures times, on the one clock that
``_chunk_errors`` reads around each ``run_block`` call (the loop, the
Hermitian check of the start and the first table builds), which every
method it steps shares, and each lives in one place, its row's
wall_seconds: ``emit_study`` writes it to the CSV and, for a report whose
rows carry times, to error-versus-time data.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter as _clock

import numpy as np

from .integrators import (
    SCHEMES,
    NumericalError,
    kept_box,
    method_spec,
    recover_high,
    recovered_modes,
    run,
    run_block,
    stepping_key,
)
from .noise import PEAK_BYTES_PER_CELL, coarsen, sample_path, step_count
from .problems import (
    _DATA_STREAMS,
    _PLATEAUS,
    PRESETS,
    AxisFactors,
    ProblemSpec,
    _slots,
    check_initial,
    initial_dims,
    initial_factors,
    preset_problem,
)
from .spectral import (
    DIMS,
    SpectralGrid,
    SpectralState,
    _axis_modes,
    _norm_weights,
    _slot_multiplicity,
    _weighted_norm_sq,
    default_alpha,
    half_shape,
    make_grid,
    save_snapshot,
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


# a study's levels where a config lists none, by dimension; the 2D ones
# keep the initial state's full band at 512 with alpha = 1.5
DEFAULT_LEVELS = {1: (2**-5, 2**-6, 2**-7, 2**-8, 2**-9), 2: (2**-4, 2**-5, 2**-6)}


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int | None = None
    preset: int | None = None
    problem: ProblemSpec | None = None
    gamma: float = 0.5
    methods: tuple[str, ...] = ("hr_lri",)
    levels: tuple[float, ...] | None = None
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


def _check_dyadic(name: str, step: float, t_final: float) -> int:
    """The t_final / step cells (``noise.step_count``) of a Brownian lattice
    of that step, which must be a power of two."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"{name} must be finite and positive, got {step}")
    try:
        n = step_count(t_final, step)
    except ValueError as exc:
        raise ConfigError(f"t_final/{name}: {exc}") from exc
    if n < 1 or n & (n - 1):
        raise ConfigError(f"t_final/{name} = {t_final}/{step} is not a power of two")
    return n


def _check_lattice(name: str, step: float, t_final: float) -> None:
    """Refuse to draw a Brownian lattice of t_final / step cells (a power of
    two, as resolve_config checked) if sampling one path would exceed
    physical memory.  Called by the entry point that draws it, before any
    path."""
    n = step_count(t_final, step)
    _check_memory(PEAK_BYTES_PER_CELL * n, f"sampling the Brownian lattice of "
                  f"t_final/{name} = 2^{n.bit_length() - 1} cells")


def config_dim(config: ExperimentConfig) -> int:
    """The dimension ``resolve_config`` gives ``config``: its ``dim``, else
    its preset's, else the lowest that its problem's initial data fits
    (``problems.initial_dims``).  ConfigError for a ``dim`` or a preset that
    does not exist, and for a config with neither a preset nor a problem."""
    if config.dim is not None and config.dim not in DIMS:
        raise ConfigError(f"dim must be one of {DIMS}, got {config.dim}")
    if config.preset is not None and config.preset not in PRESETS:
        raise ConfigError(f"unknown preset {config.preset}")
    if config.dim is not None:
        return config.dim
    if config.preset is not None:
        return PRESETS[config.preset][0]
    if config.problem is None:
        raise ConfigError("config needs either a preset or an explicit problem")
    try:
        return initial_dims(config.problem.initial)[0]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_config(config: ExperimentConfig) -> ExperimentConfig:
    """Fill derived defaults and validate cross-field consistency.

    Everything the runtime would reject fails here, with ConfigError.  The
    levels (the given ones, else ``DEFAULT_LEVELS[dim]``) come out coarsest
    first, each with its n_cut, and every derived value is set: ``dim``
    (``config_dim``: the given one, else the preset's, else the lowest that
    the problem's initial data fits: a plateau's own, an explicit state's
    rank, 1 for random data), alpha, tau_ref, n_cuts,
    ``problem`` (the explicit one, whose data must be the preset's at
    gamma and seed if both are set, else the preset's;
    ``problems.check_initial`` must accept its data at dim), ``tau`` (a
    single run's step: the given one, else the finest level) and
    ``snapshot_stride`` (0 means max(n_steps // 8, 1) at tau).  A
    sample_index below the streams that preset initial data draws from
    (``problems._DATA_STREAMS``) keeps every path apart from that data.
    Resolving a resolved config returns it unchanged.
    """
    dim = config_dim(config)
    if not (math.isfinite(config.gamma) and config.gamma > 0):
        raise ConfigError(f"gamma must be finite and positive, got {config.gamma}")
    if not (math.isfinite(config.t_final) and config.t_final > 0):
        raise ConfigError(f"t_final must be positive, got {config.t_final}")
    if not (0 <= config.seed < 2**64 and 0 <= config.sample_index < 2**64):
        raise ConfigError("seed and sample_index must lie in [0, 2^64)")
    if config.sample_index >= _DATA_STREAMS[-1]:
        raise ConfigError(f"sample_index {config.sample_index} is one of the streams "
                          f"{_DATA_STREAMS[-1]}..{_DATA_STREAMS[0]} reserved for initial data")
    problem = config.problem
    if config.preset is not None:
        preset_dim, _, preset = preset_problem(config.preset, config.gamma, config.seed)
        if config.dim not in (None, preset_dim):
            raise ConfigError(f"preset {config.preset} is {preset_dim}-dimensional, "
                              f"config says {config.dim}")
        if problem is not None and problem.initial != preset.initial:
            raise ConfigError(f"the problem's initial data is not preset {config.preset}'s "
                              f"at gamma {config.gamma} and seed {config.seed}")
        problem = problem or preset
    try:
        check_initial(problem.initial, dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    levels = DEFAULT_LEVELS[dim] if config.levels is None else config.levels
    if config.n_cuts is not None and len(config.n_cuts) != len(levels):
        raise ConfigError("n_cuts must match levels one to one")
    # coarsest first, each level keeping its own n_cut
    order = sorted(range(len(levels)), key=lambda i: float(levels[i]), reverse=True)
    levels = tuple(float(levels[i]) for i in order)
    if not levels:
        raise ConfigError("at least one level is required")
    for a, b in zip(levels, levels[1:]):
        if a == b:
            raise ConfigError(f"repeated level {a} in {levels}")
    alpha = default_alpha(dim) if config.alpha is None else config.alpha
    if not (math.isfinite(alpha) and alpha >= 1):
        raise ConfigError(f"alpha must be >= 1, got {alpha}")
    # a derived tau_ref is refused only through the level it comes from
    cells = [_check_dyadic("level", level, config.t_final) for level in levels]
    tau_ref = levels[-1] / 4.0 if config.tau_ref is None else config.tau_ref
    ref_cells = _check_dyadic("tau_ref", tau_ref, config.t_final)
    for level, n in zip(levels, cells):
        # powers of two: a level's cells divide the reference's if no more
        if n > ref_cells:
            raise ConfigError(f"tau_ref {tau_ref} does not divide level {level}")
    tau = config.tau if config.tau is not None else levels[-1]
    run_steps = _check_dyadic("tau", tau, config.t_final)
    if config.n_cuts is None:
        n_cuts = tuple(default_n_cut(t) for t in levels)
    else:
        n_cuts = tuple(config.n_cuts[i] for i in order)
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
    if config.snapshot_stride < 0:
        raise ConfigError(f"snapshot_stride must be >= 0, got {config.snapshot_stride}")
    # the output directory's nearest existing ancestor must be a directory
    existing = os.path.abspath(config.out_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out_dir {config.out_dir}: {existing} is not a directory")
    for n in (default_n_cut(tau_ref), *n_cuts, default_n_cut(tau)):
        try:
            make_grid(dim, n, alpha)
        except OverflowError as exc:
            raise ConfigError(f"recovery cutoff {n}^{alpha} overflows") from exc
    stride = config.snapshot_stride or max(run_steps // 8, 1)
    return replace(config, dim=dim, problem=problem, levels=levels, alpha=alpha, tau_ref=tau_ref,
                   n_cuts=n_cuts, methods=methods, tau=tau, snapshot_stride=stride)


def _array_bytes(dim: int, band: int) -> int:
    """Bytes of one complex128 half spectrum at ``band``."""
    return 16 * math.prod(half_shape(dim, band))


# full-band half spectra that a whole run_single holds, building its
# initial state, x column and plot text included: 11.5 (1D, band 4096) to
# 12.3 (band 2^18 and up), and 8.1 in 2D (band 512)
_RUN_PEAK_ARRAYS = 13

# 1D half spectra at the full band that building a plateau's profiles holds:
# tracemalloc measures 3.0 (1D) and 4.0 (2D) from band 4096, 4.3 below 512
_PROFILE_PEAK_ARRAYS = 5


def _full_grid(dim: int, n_cut: int, alpha: float) -> SpectralGrid:
    """make_grid, refusing a grid whose single run, the one builder of a
    full-band state, needs more than _RUN_PEAK_ARRAYS full-band arrays."""
    grid = make_grid(dim, n_cut, alpha)
    _check_memory(_RUN_PEAK_ARRAYS * _array_bytes(dim, grid.n_high),
                  f"building the initial state at band {n_cut} with alpha {alpha}")
    return grid


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
    """Ordinary least-squares slope of log(rms) against log(tau) over
    (tau, rms) pairs.

    Returns None (no fit) for fewer than three usable rows, those with a
    positive error.
    """
    pts = [(math.log(tau), math.log(err)) for tau, err in rows if err > 0.0]
    if len(pts) < 3:
        return None
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
    order = estimate_order([(row.tau, row.rms_error) for row in rows])
    return ConvergenceReport(method=method, rows=tuple(rows), fitted_order=order)


# ---------------------------------------------------------------------------
# convergence study


@dataclass(frozen=True)
class _Study:
    """What every sample of a study shares, read-only: one table of runs.

    ``starts[n]`` is the initial state restricted to the stepped band n,
    one per distinct band of the reference and the levels; ``band`` is the
    widest of them (M), and ``weights`` are the pair-norm weights at band M.
    ``ref`` is the reference run (spec, n_ref), and ``runs[m][l]`` the run
    of method m at level l, (spec, n, shift, tail): its spec and stepped
    band, the (u, v) pair that its and the reference's recovered modes
    inside box M add to its difference (None if that is empty), and its
    squared error outside box M.
    """

    config: ExperimentConfig
    starts: dict
    band: int
    weights: tuple
    ref: tuple
    runs: list


# bytes of one float64 slab of the |k| orthant that the tail pass evaluates
# at a time; its temporaries are a few arrays that size
_SLAB_BYTES = 2**17

# float64 arrays of one slab of the |k| orthant that the tail pass holds at
# its peak: tracemalloc measures 12.1 to 16.2 for factored 2D data at bands
# 181 to 16384 and 18.3 for a 2D state.  From band 16384 in 2D a slab can be
# one column, so a study is refused if 21 columns of N + 1 slots do not fit
_TAIL_PEAK_SLABS = 21


def _re_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re(x conj y) of real or complex arrays."""
    out = x.real * y.real
    if np.iscomplexobj(x) and np.iscomplexobj(y):
        out += x.imag * y.imag
    return out


def _factor_rows(factors: AxisFactors):
    """(dim, end, rows) for ``_outside_energy`` from separable data: the
    profiles fill |k| < end, and rows(lo, hi) yields the one term (u, v,
    weight) of lo <= |k_last| < hi, the profiles' products and sign counts."""
    n, dim = factors.band, len(factors.u)
    end = min(n + 1, 1 + max(np.flatnonzero(p).max(initial=-1) for p in factors.u + factors.v))
    first = [[_slots(p, 0, end) for p in profiles[:-1]] for profiles in (factors.u, factors.v)]
    mult = [_slot_multiplicity(n, 0, end)] * (dim - 1)

    def rows(lo: int, hi: int):
        u, v = (functools.reduce(np.multiply.outer, f + [_slots(profiles[-1], lo, hi)])
                for f, profiles in zip(first, (factors.u, factors.v)))
        yield u, v, functools.reduce(np.multiply.outer, mult + [_slot_multiplicity(n, lo, hi)])

    return dim, end, rows


def _state_rows(state: SpectralState, n_high: int):
    """``_factor_rows`` of a state at its own band m truncated to |k_j| <
    n_high, with its bits for the same data: a term per sign of the first
    axes' k_j (the negative one weighs 0 at k_j = 0), times the last's."""
    m, dim = state.band, state.dim
    held = (state.u_hat != 0) | (state.v_hat != 0)
    end = min(n_high, 1 + max(k[held.any(axis=tuple(i for i in range(dim) if i != j))].max(
        initial=-1) for j, k in enumerate(_axis_modes(dim, m))))
    k = np.arange(end)

    def rows(lo: int, hi: int):
        for signs in itertools.product((1, -1), repeat=dim - 1):
            at = np.ix_(*[sign * k for sign in signs], np.arange(lo, hi))
            yield state.u_hat[at], state.v_hat[at], functools.reduce(np.multiply.outer, [
                (k > 0) | (sign > 0) for sign in signs] + [_slot_multiplicity(m, lo, hi)])

    return dim, end, rows


def _outside_energy(dim: int, end: int, rows, t: float, boxes) -> dict[int, float]:
    """{b: squared pair norm (gamma = 0) of the flow e^(tL) of the initial
    pair outside box b} for every b in ``boxes``, never building the flow.

    A mode's energy depends on (|k_1|, ..., |k_d|) alone, so the pass sums
    it over the |k| orthant, every |k_j| < ``end``, in slabs of last-axis |k|
    as wide as _SLAB_BYTES allow, so its bits depend on the data alone.
    With A = |u|^2, B = |v|^2 and C = Re(u conj v) summed over the weighted
    terms that ``rows`` yields, w = 1 / (1 + lambda^2) and S = sin(lambda t),

        E = A + wB + w (S^2 (B / lambda^2 - A) + C sin(2 lambda t) / lambda),

    and A + B + t^2 B + 2tC at lambda = 0.
    """
    cols = max(1, _SLAB_BYTES // 8 // max(end, 1) ** (dim - 1))
    out = dict.fromkeys(boxes, 0.0)
    for lo in range(0, end, cols):
        ks = [np.arange(end)] * (dim - 1) + [np.arange(lo, min(lo + cols, end))]
        a = b = c = 0.0
        for u, v, weight in rows(lo, lo + ks[-1].size):
            a = a + _re_dot(u, u) * weight
            b = b + _re_dot(v, v) * weight
            c = c + _re_dot(u, v) * weight
            del u, v, weight  # before the next term is built
        lam2 = (2.0 * np.pi) ** 2 * functools.reduce(np.add.outer,
                                                      [k.astype(np.float64) ** 2 for k in ks])
        lam = np.sqrt(lam2)
        w = 1.0 / (1.0 + lam2)
        with np.errstate(divide="ignore", invalid="ignore"):
            energy = a + w * (b + np.sin(lam * t) ** 2 * (b / lam2 - a)
                              + c * np.sin(2.0 * t * lam) / lam)
        if lo == 0:
            # the origin, lambda = 0
            energy.flat[0] = a.flat[0] + b.flat[0] + t * t * b.flat[0] + 2.0 * t * c.flat[0]
        shell = functools.reduce(np.maximum.outer, ks)
        for box in out:
            out[box] += float(np.sum(energy[shell >= box]))
    return out


def _prepare(config: ExperimentConfig) -> _Study:
    """Grids, specs, the shared initial state and the noise-free parts of
    every error, computed once per study: a preset kind's factors
    (``problems.initial_factors``) or an explicit state feed the tail pass
    and give the start at band M, bit for bit ``problems.build_initial``'s
    full-band state re-stored there, so nothing is built at the full band
    but the plateaus' profiles of one axis.
    """
    dim = config.dim
    _check_lattice("tau_ref", config.tau_ref, config.t_final)
    n_ref = default_n_cut(config.tau_ref)
    band = max(n_ref, *config.n_cuts)
    _check_memory(_array_bytes(dim, band), f"one array at the widest stepped band {band}")
    grid = make_grid(dim, n_ref, config.alpha)
    _check_memory(_TAIL_PEAK_SLABS * 8 * (grid.n_high + 1) ** (dim - 1),
                  f"the tail pass over the |k| orthant of band {grid.n_high}")
    spec = config.problem.initial
    if spec.kind == "explicit":
        source = _state_rows(spec.state, grid.n_high)
        u0 = with_band(with_band(spec.state, min(spec.state.band, grid.n_high, band)), band)
    else:
        if spec.kind in _PLATEAUS:
            _check_memory(_PROFILE_PEAK_ARRAYS * _array_bytes(1, grid.n_high),
                          f"building the initial state at band {n_ref} with alpha {config.alpha}")
        factors = initial_factors(spec, grid)
        source, u0 = _factor_rows(factors), factors.state(band)

    def planned(kind: str, tau: float, n: int) -> tuple:
        """(spec, stepped band, box kept) of one run."""
        spec = method_spec(kind, tau, config.t_final)
        return spec, n, kept_box(spec, make_grid(dim, n, config.alpha))

    ref_spec, _, ref_box = planned("hr_lri", config.tau_ref, n_ref)
    plan = [[planned(m, tau, n) for tau, n in zip(config.levels, config.n_cuts)]
            for m in config.methods]
    outside = _outside_energy(*source, config.t_final,
                              {max(band, h) for row in plan for *_, h in row})
    flow_m = recover_high(u0, config.t_final)
    ref_modes = recovered_modes(dim, band, n_ref, ref_box)

    @functools.cache
    def shift(n: int, h: int) -> tuple | None:
        """The flow at band M on a run's recovered modes inside box M minus
        the reference's; None if both are empty."""
        sign = 1.0 * recovered_modes(dim, band, n, h)
        sign -= ref_modes
        return (flow_m.u_hat * sign, flow_m.v_hat * sign) if sign.any() else None

    starts = {n: with_band(u0, n) for n in {n_ref, *config.n_cuts}}
    return _Study(
        config=config, starts=starts, band=band,
        weights=_norm_weights(dim, band, 0.0), ref=(ref_spec, n_ref),
        runs=[[(spec, n, shift(n, h), outside[max(band, h)]) for spec, n, h in row]
              for row in plan])


def _level_groups(level, stepped=frozenset()) -> list[dict]:
    """The stepping keys of a level's runs that are not in ``stepped``,
    grouped by (band, cut, tau): one {key: spec} per block, each key with
    the spec of its first run."""
    groups = {}
    for spec, n, *_ in level:
        key = stepping_key(spec, n)
        if key not in stepped:
            groups.setdefault(key[1:], {}).setdefault(key, spec)
    return list(groups.values())


def _chunk_errors(study: _Study, samples: range):
    """Squared errors (samples, methods, levels) of a contiguous chunk of
    samples, NaN where a run's row or its reference row failed, and the
    (methods, levels) seconds of each run's ``run_block`` call.  Each
    stepping key is stepped once, on the chunk's paths coarsened to its
    step size: the reference's alone, then per level one block for each
    (band, cut, tau) of the keys not yet stepped, every table kind in it.
    Each run is one weighted reduction of its difference at band M."""
    config = study.config
    problem = config.problem
    err_sq = np.full((len(samples), len(config.methods), len(config.levels)), np.nan)
    wall = np.zeros(err_sq.shape[1:])
    # each path is coarsened to every step size as soon as it is drawn, so
    # the chunk holds one lattice at a time
    dws = {tau: np.empty((len(samples), step_count(config.t_final, tau)))
           for tau in {config.tau_ref, *config.levels}}
    for row, s in enumerate(samples):
        path = sample_path(config.seed, s, config.t_final, config.tau_ref)
        for tau, dw in dws.items():
            dw[row] = coarsen(path, tau)
        del path
    # stepping key -> (block at band M, failed rows, seconds of its call)
    blocks = {}

    def step(group: dict) -> None:
        """Step ``group``, {stepping key: spec} on one (band, cut, tau), as
        one block."""
        _, n, _, tau = next(iter(group))
        start = _clock()
        results = run_block(list(group.values()), study.starts[n], problem.f, problem.sigma,
                            dws[tau])
        seconds = _clock() - start
        for key, res in zip(group, results):
            res_m = with_band(SpectralState(res.u_hat, res.v_hat), study.band, config.dim)
            blocks[key] = res_m, res.failed, seconds

    ref_key = stepping_key(*study.ref)
    step({ref_key: study.ref[0]})
    ref, ref_failed, _ = blocks[ref_key]
    for li, level in enumerate(zip(*study.runs)):
        for group in _level_groups(level, blocks):
            step(group)
        for mi, (spec, n, shift, tail) in enumerate(level):
            res, failed, wall[mi, li] = blocks[stepping_key(spec, n)]
            du, dv = res.u_hat - ref.u_hat, res.v_hat - ref.v_hat
            if shift is not None:
                du, dv = du + shift[0], dv + shift[1]
            err = _weighted_norm_sq(du, dv, *study.weights) + tail
            err[list(ref_failed.keys() | failed.keys())] = np.nan
            err_sq[:, mi, li] = err
        # only the reference's block outlives its level
        for key in blocks.keys() - {ref_key}:
            del blocks[key]
    return err_sq, wall


# bytes the widest block of a chunk may take: one (rows, 2M, ..., 2M, M + 1)
# complex coefficient block, the size of the blocks a chunk scores, or the
# K x rows of K table kinds stepped as one block at their band N;
# run_block's peak is about seven (K x rows, 2N, ..., 2N, N + 1) blocks with
# sigma alone and eight with f too (tracemalloc, 1D at N = 512 and 16 rows)
_BLOCK_BYTES = 2**25

# bytes of one (rows, 2M, ..., 2M, M + 1) block below which a chunk is not
# split further over the workers.  Small 1D blocks hold the interpreter
# lock: at M = 512, run_block steps 4 rows at about 70% and 8 rows at about
# 90% of its rate at 16 rows, and two workers on 8 rows each finish 16 rows
# in about 1.09 times one worker's time, while on 16 rows each they take
# about 0.65 of it (2-vCPU host).  The floor is 16 such rows; in 2D one row
# at M = 64 passes.
_WORKER_FLOOR_BYTES = 2**17


def _workers(config: ExperimentConfig) -> int:
    """The config's workers, but no more than the CPUs this process may run
    on: more threads than CPUs only split a study into smaller blocks."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(config.n_workers, cpus)


def _chunk_rows(study: _Study) -> int:
    """Samples per chunk: an even split over the workers (``_workers``), but
    no fewer than keep a block at the widest stepped band M at
    _WORKER_FLOOR_BYTES, and capped so that the widest block a chunk holds
    stays within _BLOCK_BYTES: a key's rows re-stored at band M, or the
    rows of every table kind that a level steps as one block on its band."""
    config = study.config
    row_bytes = _array_bytes(config.dim, study.band)
    widest = max([row_bytes] + [len(group) * _array_bytes(config.dim, next(iter(group))[1])
                                for level in zip(*study.runs) for group in _level_groups(level)])
    split = max(-(-config.n_samples // _workers(config)), -(-_WORKER_FLOOR_BYTES // row_bytes))
    return min(max(1, _BLOCK_BYTES // widest), split)


def _study_reports(study: _Study, rows: int,
                   collect_timing: bool = False) -> dict[str, ConvergenceReport]:
    """Step the samples in contiguous chunks of ``rows``, on the config's
    workers, and reduce them in ascending sample order into reports."""
    config = study.config
    chunks = [range(a, min(a + rows, config.n_samples))
              for a in range(0, config.n_samples, rows)]
    with ThreadPoolExecutor(max_workers=_workers(config)) as pool:
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
    """One coupled-path convergence study; a report per method.  With
    ``collect_timing`` each row holds its ``run_block`` seconds, summed over
    chunks, which the methods stepped in one block share."""
    config = resolve_config(config)
    study = _prepare(config)
    return _study_reports(study, _chunk_rows(study), collect_timing)


# ---------------------------------------------------------------------------
# single-path runs with snapshots


def run_single(config: ExperimentConfig) -> dict:
    """Integrate one sample path with one method, emitting snapshots.

    Writes SWV1 snapshots plus per-snapshot plot data into out_dir and
    returns a summary dict with the final pair norms.  The plot data of a
    snapshot is u on its middle line along the last axis (the whole field
    in 1D, the row through the middle of the box in 2D) against x = i /
    points, both at 17 significant digits.  The x column is the same for
    every run of the grid, so a process formats it once (``_grid_lines``).
    A given tau is the run's only step, so the study's levels and tau_ref
    do not apply to it.
    """
    if config.tau is not None:
        _check_dyadic("tau", config.tau, config.t_final)  # a bad tau is named tau, not tau_ref
        config = replace(config, levels=(config.tau,), n_cuts=None, tau_ref=config.tau)
    config = resolve_config(config)
    if len(config.methods) != 1:
        raise ConfigError(f"a single run takes one method, got {config.methods}")
    dim, tau = config.dim, config.tau
    n_cut = default_n_cut(tau)
    _check_lattice("tau", tau, config.t_final)
    grid = _full_grid(dim, n_cut, config.alpha)
    spec = method_spec(config.methods[0], tau, config.t_final)
    lattice = sample_path(config.seed, config.sample_index, config.t_final, tau)
    os.makedirs(config.out_dir, exist_ok=True)

    written = []
    points = 2 * grid.n_high
    x_lines = _grid_lines(points)

    def on_snapshot(step, t, state):
        base = os.path.join(config.out_dir, f"snap_{step:06d}")
        u = save_snapshot(base + ".swv", state, t)[0]
        # the middle line along the last axis, noted in the header
        u = u[(points // 2,) * (dim - 1)]
        comment = f"u(x{', 0.5' * (dim - 1)}) at t={t:.17g}"
        write_plot_data(base + ".txt", x_lines, u, comment)
        written.append(base + ".swv")

    final = run(spec, grid, config.problem, lattice, snapshot_stride=config.snapshot_stride,
                on_snapshot=on_snapshot)
    final_u = SpectralState(final.u_hat, np.zeros_like(final.v_hat))
    summary = {
        "method": spec.kind,
        "tau": tau,
        "n_cut": n_cut,
        "steps": spec.n_steps,
        "final_norm_pair": sobolev_norm(final, 0.0),
        "final_norm_u": sobolev_norm(final_u, 0.0),
        "snapshots": written,
    }
    return summary


# ---------------------------------------------------------------------------
# emission


def emit_csv(reports, path) -> None:
    """Write a sequence of reports as UTF-8 CSV with 17-digit floats."""
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


# Plot text is Python's '%.17g' of every value, made for a whole array at
# once by _g17_rows.  A finite |x| in [1e-280, 1e16) with decimal exponent
# e10 has the 17 digits D = round(|x| 10^p), p = 16 - e10, in [1e16, 1e17).
# 10^p is held as the pair of doubles hi + lo (lo its rest, rounded);
# |x| hi is its rounded product ph plus that product's exact error
# (Dekker's two-product over Veltkamp halves), and s, that error plus
# |x| lo, is off the exact remainder |x| 10^p - ph by under 1e-14.  ph is a
# whole number, so D = ph + rint(s) unless s is within 1e-12 of a half:
# such a possible tie, zero, and any value out of the range are left to
# Python one at a time.  An estimate of e10 that is one off is redone, and
# D = 10^17 is 10^16 at e10 + 1.
#
# A value's text sits in a 32-byte row of four little-endian words, NUL
# where there is no character, so that a writer keeps the nonzero bytes:
# byte 2 holds the sign, bytes 3-6 the zeros of a fixed 0.000ddd, byte 7
# the first digit and bytes 8-23 the other sixteen, cleared past the last
# significant digit and the integer part, and bytes 25-29 the exponent
# e-dd or e-ddd of '%g''s exponent notation, which this range takes only
# below 1e-4.  The point follows digit e10 in fixed notation (e10 in
# [-4, 16], digit -1 being the last of those zeros) and the first digit
# otherwise: every byte after it moves on by one, one shift of the block's
# words, and it fills the gap unless no digit follows.  Each step is one
# pass over a block's (n, 4) words.

_LE_WORD = np.dtype("<u8")


def _halves(a):
    """Veltkamp's split a = high + low into two halves of 26 bits."""
    c = 134217729.0 * a     # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10_pairs():
    """Rows (hi, lo, hi's Veltkamp halves) for p = 0..300, one gather per
    value, covering p = 16 - e10 over the range, e10 one off included."""
    hi = [float(10**p) for p in range(301)]
    lo = [float(10**p - int(h)) for p, h in enumerate(hi)]
    return np.stack((np.array(hi), np.array(lo)) + _halves(np.array(hi)), axis=1)


_P10 = _pow10_pairs()


def _byte_rows(where, fill=255):
    """(k, 32) byte conditions as (k, 4) words: fill where true, NUL elsewhere."""
    return np.where(where, fill, 0).astype(np.uint8).view(_LE_WORD)


_QUAD = np.arange(10000)
# _DIGITS4[q]: the four ASCII digits of q as one word.  _SIGNIFICANT4[k, q]:
# D's digits after the first up to the last nonzero one of q when q is its
# k-th group of four (4 k plus the digits of q left once its trailing zeros
# go), or 0 when q = 0; at most 16, so uint8, a 40 KB gather table
_DIGITS4 = (np.stack([_QUAD // 1000, _QUAD // 100 % 10, _QUAD // 10 % 10, _QUAD % 10], axis=1)
            .astype(np.uint8) + 48).view("<u4").ravel().astype(np.uint64)
_SIGNIFICANT4 = ((4 * np.arange(1, 5)[:, None] - sum(_QUAD % 10**k == 0 for k in (1, 2, 3)))
                 * (_QUAD != 0)).astype(np.uint8)
_QUADS = 10000 * np.arange(4)[:, None]
_BYTE = np.arange(32)
# _UPTO[c]: the row whose bytes 0..c + 3 are set; _LEADING_ZEROS[e10 + 4]:
# the first word of a row with the zeros of a fixed 0.000ddd at e10
_UPTO = _byte_rows(_BYTE <= np.arange(22)[:, None] + 3)
_LEADING_ZEROS = _byte_rows((_BYTE >= np.arange(21)[:, None] + 3) & (_BYTE <= 6), 48)[:, 0]
_POINTS = np.uint64(int.from_bytes(b"." * 8, "little"))


def _exponents():
    """The last word of a row in exponent notation with e10 = -k, k < 300,
    and of a row in fixed notation at k = 0."""
    words = np.frombuffer(b"".join((b"\0e-%02d" % k).ljust(8, b"\0") for k in range(300)), _LE_WORD)
    return np.where(np.arange(300) > 0, words, 0).astype(_LE_WORD)


_EXPONENTS = _exponents()


def _scaled(a, e10):
    """|x| 10^(16 - e10) as ph + s, ph the rounded product with 10^p's
    leading double (see above)."""
    hi, lo, bh, bl = _P10.take(16 - e10, axis=0).T
    ph = a * hi
    ah, al = _halves(a)
    err = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    return ph, err + a * lo


def _seventeen_digits(x):
    """D, e10 and whether D is exact, for every value of x (see above)."""
    a = np.abs(x)
    exact = (a >= 1e-280) & (a < 1e16)
    a[~exact] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    ph, s = _scaled(a, e10)
    low = (ph - 1e16) + s < 0
    off = low | ((ph - 1e17) + s >= 0)
    if off.any():
        e10[off] += np.where(low[off], -1, 1)
        ph[off], s[off] = _scaled(a[off], e10[off])
    r = np.rint(s)
    exact &= np.abs(np.abs(s - r) - 0.5) > 1e-12
    d = ph.astype(np.int64) + r.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e10 += carry
    return d, e10, exact


def _digit_words(d):
    """D's first digit and its four groups of four in the row's words,
    and the count of its significant digits."""
    top = d // 10**8
    first = top // 10**8
    quads = np.empty((4, len(d)), np.int64)
    quads[1] = top - first * 10**8
    quads[0] = quads[1] // 10**4
    quads[1] -= quads[0] * 10**4
    quads[3] = d - top * 10**8
    quads[2] = quads[3] // 10**4
    quads[3] -= quads[2] * 10**4
    digits = _DIGITS4.take(quads)
    words = np.empty((len(d), 4), np.uint64)
    words[:, 0] = (first.astype(np.uint64) + 48) << 56
    words[:, 1] = digits[0] | digits[1] << 32
    words[:, 2] = digits[2] | digits[3] << 32
    words[:, 3] = 0
    quads += _QUADS
    return words, 1 + _SIGNIFICANT4.take(quads).max(axis=0)


def _g17_rows(values) -> np.ndarray:
    """Each float64's '%.17g' text as a NUL-padded row of an (n, 28) uint8
    matrix (see above); zeros and Python's values only in a block with any."""
    x = np.asarray(values, dtype=np.float64)
    d, e10, exact = _seventeen_digits(x)
    words, n_sig = _digit_words(d)
    fixed = (e10 >= -4) & (e10 < 17)
    point = np.where(fixed, e10, 0)
    words[:, 0] |= _LEADING_ZEROS.take(point + 4)
    words &= _UPTO.take(np.maximum(n_sig, point + 1) + 3, axis=0)
    # every byte one on; byte 31 of a row is NUL, so no byte leaves its row
    flat = words.ravel()
    shifted = flat << 8
    shifted[1:] |= flat[:-1] >> 56
    shifted = shifted.reshape(words.shape)
    before = _UPTO.take(point + 4, axis=0)      # the bytes before the point's
    gap = _UPTO.take(point + 5, axis=0)         # and through it
    shifted &= ~gap
    words &= before
    words |= shifted
    del shifted
    gap ^= before                               # the point's byte alone
    gap[n_sig <= point + 1] = 0                 # no digit follows the point
    gap &= _POINTS
    words |= gap
    words[:, 0] |= np.signbit(x) * np.uint64(ord("-") << 16)
    words[:, 3] |= _EXPONENTS.take(np.where(fixed, 0, -e10))
    rows = np.asarray(words, dtype=_LE_WORD).view(np.uint8)

    rows = rows[:, 2:30]
    if exact.all():
        return rows
    zero = x == 0
    if zero.any():
        rows[zero, 1:] = 0
        rows[zero, 1] = ord("0")
    for j in np.flatnonzero(~exact & ~zero):
        rows[j] = np.frombuffer((b"%.17g" % x[j]).ljust(28, b"\0"), np.uint8)
    return rows


def plot_lines(xs) -> tuple[np.ndarray, ...]:
    """The x column of plot data, for ``write_plot_data``: each x's '%.17g'
    text as a NUL-padded row of a uint8 matrix, one matrix per block of
    ceil(n / 8) lines (one block up to 1024), each only as wide as its
    rows need.  ``run_single`` keeps its grid's column in ``_grid_lines``."""
    xs = np.asarray(xs, dtype=np.float64)
    step = max(-(-len(xs) // 8), 1024)
    blocks = []
    for a in range(0, len(xs), step):
        rows = _g17_rows(xs[a:a + step])
        blocks.append(rows[:, rows.any(axis=0)])
    return tuple(blocks)


@functools.lru_cache(maxsize=1)
def _grid_lines(points: int) -> tuple[np.ndarray, ...]:
    """``plot_lines`` of x = i / points, read-only, kept for the last grid."""
    blocks = plot_lines(np.arange(points) / points)
    for block in blocks:
        block.setflags(write=False)
    return blocks


def write_plot_data(path, x_lines: tuple[np.ndarray, ...], ys, comment: str) -> None:
    """Two-column whitespace-separated plot data with one comment line.

    ``x_lines`` is the x column from ``plot_lines``, which a caller formats
    once for every file that shares it; ``ys`` must hold one value per x
    (TypeError otherwise).  Each line is x, a space, y at 17 significant
    digits and a newline, byte for byte Python's ``f"{x:.17g} {y:.17g}\\n"``.
    The file is written block by block, in the x column's blocks: a block's
    lines are laid out in one scratch uint8 matrix per call, its space and
    newline columns set again only for another x width or more lines, and
    written without its NUL bytes.
    """
    ys = np.asarray(ys, dtype=np.float64)
    n = sum(len(x) for x in x_lines)
    if len(ys) != n:
        raise TypeError(f"{len(ys)} y values for {n} x values")
    scratch = np.empty(max((x.shape[0] * (x.shape[1] + 30) for x in x_lines), default=0), np.uint8)
    set_for = (0, 0)        # the x width and the lines whose separators are set
    with open(path, "wb") as fh:
        fh.write(f"# {comment}\n".encode("utf-8"))
        start = 0
        for x in x_lines:
            rows, width = x.shape
            lines = scratch[:rows * (width + 30)].reshape(rows, width + 30)
            if width != set_for[0] or rows > set_for[1]:
                lines[:, width] = ord(" ")
                lines[:, -1] = ord("\n")
                set_for = (width, rows)
            lines[:, :width] = x
            lines[:, width + 1:-1] = _g17_rows(ys[start:start + rows])
            start += rows
            text = lines.ravel()
            fh.write(text[text != 0])


def study_files(out_dir: str, timed: dict[str, bool]) -> dict:
    """The paths of the files a study writes into out_dir, keyed by what
    each holds: "csv" for convergence.csv, (m, "tau") for the error-vs-tau
    plot data of every method m, and (m, "time") for its error-vs-time plot
    data where timed[m]."""
    files = {"csv": "convergence.csv"}
    for m, has_times in timed.items():
        files[m, "tau"] = f"error_vs_tau_{m}.txt"
        if has_times:
            files[m, "time"] = f"error_vs_time_{m}.txt"
    return {key: os.path.join(out_dir, name) for key, name in files.items()}


def emit_study(reports, out_dir: str) -> str:
    """Write the study CSV plus per-method plot data (``study_files``) of
    the rms error against tau and, for a report whose rows carry times,
    against wall seconds; returns the CSV path."""
    files = study_files(out_dir, {m: any(row.wall_seconds for row in rep.rows)
                                  for m, rep in reports.items()})
    os.makedirs(out_dir, exist_ok=True)
    emit_csv(list(reports.values()), files["csv"])
    for m, rep in reports.items():
        errs = [row.rms_error for row in rep.rows]
        write_plot_data(files[m, "tau"], plot_lines([row.tau for row in rep.rows]), errs,
                        f"{m}: rms pair-norm error vs tau")
        if (m, "time") in files:
            write_plot_data(files[m, "time"], plot_lines([row.wall_seconds for row in rep.rows]),
                            errs, f"{m}: rms pair-norm error vs wall seconds")
    return files["csv"]


# ---------------------------------------------------------------------------
# flat key=value config files


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
    # a method in any case, hrlri for hr_lri; resolve_config refuses the rest
    "methods": _listed(lambda v: v.strip().lower().replace("hrlri", "hr_lri")),
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
