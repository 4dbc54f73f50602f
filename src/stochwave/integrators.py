"""Time-stepping schemes for the first-order stochastic wave system.

Every scheme takes the same step.  With the forcing F(U) = (0, f(u)) and
the diffusion Sigma(U) = (0, sigma(u)) living in the velocity slot only,

    U_(n+1) = T (U_n + tau * Pi F(Pi U_n) + Pi Sigma(Pi U_n) * dW_n),

where Pi is the box truncation to |k_j| <= cut and the nonlinear images
are evaluated pseudospectrally: one pseudospectral round per nonzero term,
then one per-mode 2x2 pass (``semigroup.apply``).  The schemes differ only
in the three fields of their ``SCHEMES`` entry:

    kind      T                    filter Pi              recovery
    hr_lri    e^(tau L)            none (cut = N)          yes
    lri       e^(tau L)            min(floor(1/tau), N)    no
    stm       e^(tau L)            none                    no
    sem       (I - tau L)^(-1)     none                    no

``hr_lri`` recovers the band above N at the end with one exact linear
propagation; the filter of ``lri`` equals the stepped band N under the
usual tau = 1/(4N) coupling and cuts below it only when tau is coarser.

A run decomposes the initial state into the stepped band (|k_j| <= N-1 on
every axis), the recovery band (box N^alpha minus box N) and a discarded
remainder; the recovery band never sees the noise and is propagated to the
final time in one shot when recovery is enabled.

Stepping works on blocks: ``run_block`` advances S paths at once from a
given state, whose shape fixes the band N and the dimension d, as arrays of
shape (S,) + (2N,)^(d-1) + (N+1,), one half spectrum per row.  Each step is
one ``step_block`` call: one batched real inverse FFT, one pointwise map,
one batched real forward FFT, one mask and one 2x2 pass over the modes,
driven by the (S,) vector of the rows' grouped increments.  Rows never mix,
so every row is bit-identical to a block of one.  Each step scans its new
state once for non-finite values, and a row that fails is dropped alone
with its first bad step.  ``run`` builds the initial state on its grid and
steps it as a block of one path plus the recovery band; a failed step
raises NumericalError, the one error type for non-finite values (a study's
``NumericalFailure`` is one too).  The stepping depends only on
``stepping_key``: ``hr_lri`` and ``stm`` always share one trajectory, and
``lri`` does too whenever its filter does not cut (the default coupling),
so a study steps each distinct key once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import semigroup
from .noise import WienerLattice, coarsen
from .problems import NonlinearitySpec, ProblemSpec, build_initial
from .spectral import (
    SpectralGrid,
    SpectralState,
    band_mask,
    check_hermitian,
    diff_norm,
    lambda_sq,
    project_band,
    project_low,
    pseudospectral_apply,
    with_band,
)


class NumericalError(RuntimeError):
    """A run or a study left the floating-point domain (NaN/inf state)."""


class Scheme(NamedTuple):
    tables: Callable      # (dim, band, tau) -> the 2x2 table T
    filtered: bool        # cut at min(floor(1/tau), N) rather than N
    recovered: bool       # recover the band above N at the end


SCHEMES = {
    "hr_lri": Scheme(semigroup.group_tables, False, True),
    "lri": Scheme(semigroup.group_tables, True, False),
    "stm": Scheme(semigroup.group_tables, False, False),
    "sem": Scheme(semigroup.resolvent_tables, False, False),
}


@dataclass(frozen=True)
class MethodSpec:
    kind: str
    tau: float
    n_steps: int

    @property
    def recovery(self) -> bool:
        return SCHEMES[self.kind].recovered


@dataclass(frozen=True)
class RunResult:
    final_state: SpectralState
    wall_time: float
    steps: int


def method_spec(kind: str, tau: float, t_final: float) -> MethodSpec:
    """Validated spec; n_steps * tau must tile t_final exactly."""
    if kind not in SCHEMES:
        raise ValueError(f"unknown method kind {kind!r}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n_steps = int(round(t_final / tau))
    if abs(n_steps * tau - t_final) > 1e-12 * max(1.0, t_final):
        raise ValueError(f"tau {tau} does not tile t_final {t_final}")
    return MethodSpec(kind=kind, tau=tau, n_steps=n_steps)


def stepping_key(method: MethodSpec, band: int) -> tuple:
    """What a run's stepping depends on besides its problem and its path:
    (table function, stepped band, filter cut, tau).

    Runs with equal keys on one problem and one path step bit-identical
    trajectories; recovery only changes what is added after the last step.
    """
    scheme = SCHEMES[method.kind]
    cut = band
    if scheme.filtered:
        cut = min(int(np.floor(1.0 / method.tau)), cut)
    return scheme.tables, band, cut, method.tau


def step_block(u_hat: np.ndarray, v_hat: np.ndarray, tables, cut: int, tau: float,
               dw: np.ndarray, f_spec: NonlinearitySpec, sigma_spec: NonlinearitySpec):
    """One step T (U + tau * Pi F(Pi U) + Pi Sigma(Pi U) dW) of every row of
    a block, at the stored band, with Pi the box truncation to ``cut``.

    ``u_hat`` and ``v_hat`` hold one state per row, shape (S,) +
    (2 band,)^(d-1) + (band + 1,) with d the rank of the tables, and ``dw``
    is the (S,) vector of the rows' increments.  Rows never mix, so each is
    bit-identical to a block of one.  Returns (u_hat, v_hat, bad): ``bad``
    lists the rows whose new state is non-finite, and those rows come back
    zeroed so that they cannot spoil later steps.  One scan of the new
    state finds them all: a non-finite increment or nonlinearity image
    enters v + tau z or v + dw z, and every 2x2 table entry times NaN or
    inf is non-finite, so it leaves the new state non-finite in its row.
    """
    dim = tables[0].ndim
    band = u_hat.shape[-1] - 1
    if cut > band:
        raise ValueError(f"filter cut {cut} exceeds stored band {band}")
    u_cut = u_hat * band_mask(dim, band, cut) if cut < band else u_hat
    dv = []
    if not f_spec.is_zero:
        z = pseudospectral_apply(f_spec, u_cut, cut, dim)
        dv.append(np.multiply(tau, z, out=z))
    if not sigma_spec.is_zero:
        z = pseudospectral_apply(sigma_spec, u_cut, cut, dim)
        dv.append(np.multiply(dw.reshape((-1,) + (1,) * dim), z, out=z))
    new = semigroup.apply(SpectralState(u_hat, v_hat), tables, *dv)
    axes = tuple(range(1, dim + 1))
    finite = np.isfinite(new.u_hat).all(axis=axes) & np.isfinite(new.v_hat).all(axis=axes)
    bad = np.flatnonzero(~finite).tolist()
    if bad:
        new.u_hat[bad] = 0.0
        new.v_hat[bad] = 0.0
    return new.u_hat, new.v_hat, bad


def recover_high(initial_band: SpectralState, t: float) -> SpectralState:
    """Exact linear flow of the recovery band, applied once at time t.

    Its table is built afresh rather than cached, since each time t is used
    once, and spans the state's band: the full band N^alpha in ``run``, the
    widest stepped band M in a study, whose tail outside box M is summed
    without building the flow (``experiments._outside_energy``).
    """
    lam = np.sqrt(lambda_sq(initial_band.dim, initial_band.band))
    return semigroup.apply(initial_band, semigroup.propagator_tables(lam, t))


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class BlockResult:
    """Final stepped-band states of a block of paths, one row per path.

    ``failed`` maps each row that left the floating-point domain to its
    first bad step, the first whose new state is non-finite; such a row
    holds no state.  ``wall_time`` is the stepping time alone.
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    failed: dict
    wall_time: float


def run_block(method: MethodSpec, start: SpectralState, f: NonlinearitySpec,
              sigma: NonlinearitySpec, paths, snapshot_stride: int = 0,
              on_snapshot=None) -> BlockResult:
    """Integrate a block of paths from the state ``start`` on its own band,
    with the nonlinearities ``f`` and ``sigma``.

    Every row starts from ``start``, which must be Hermitian (ValueError
    otherwise) and is broadcast once, and row s consumes the exact grouped
    sums of the base increments of ``paths[s]``, so runs at different step
    sizes on one lattice are coupled.  Each step is one call of
    :func:`step_block` for the whole block.  A row that goes non-finite is
    recorded in ``failed`` with its first bad step and leaves the other rows
    untouched; stepping stops early once every row has failed.  With
    ``snapshot_stride`` > 0 the callback receives (step_index, u_hat, v_hat)
    every stride steps strictly inside the run; its time is not counted in
    ``wall_time``.
    """
    t_total = method.n_steps * method.tau
    for path in paths:
        if t_total > path.t_final + 1e-12:
            raise ValueError(f"run time {t_total} exceeds path horizon {path.t_final}")
    if method.n_steps:
        dws = np.stack([coarsen(p, method.tau)[:method.n_steps] for p in paths])
    else:
        dws = np.zeros((len(paths), 0))

    check_hermitian(start)
    u = np.broadcast_to(start.u_hat, (len(paths),) + start.u_hat.shape)
    v = np.broadcast_to(start.v_hat, u.shape)
    tables_of, _, cut, _ = stepping_key(method, start.band)
    tables = tables_of(start.dim, start.band, method.tau)

    failed: dict[int, int] = {}
    t0 = time.perf_counter()
    snapshot_s = 0.0
    for n in range(method.n_steps):
        u, v, bad = step_block(u, v, tables, cut, method.tau, dws[:, n], f, sigma)
        for row in bad:
            failed.setdefault(row, n)
        if len(failed) == len(paths):
            break
        if (on_snapshot is not None and snapshot_stride > 0
                and (n + 1) % snapshot_stride == 0 and n + 1 < method.n_steps):
            t_snap = time.perf_counter()
            on_snapshot(n + 1, u, v)
            snapshot_s += time.perf_counter() - t_snap
    wall = time.perf_counter() - t0 - snapshot_s
    return BlockResult(u_hat=u, v_hat=v, failed=failed, wall_time=wall)


def run(method: MethodSpec, grid: SpectralGrid, problem: ProblemSpec,
        path: WienerLattice, snapshot_stride: int = 0,
        on_snapshot=None) -> RunResult:
    """Integrate one path; returns the final state at the full band.

    The stepping is :func:`run_block` with a block of one path, on the
    stepped band; the recovery band is added to every state handed out.
    With ``snapshot_stride`` > 0 the callback receives
    (step_index, time, full-band state) every stride steps and at both ends.
    ``RunResult.wall_time`` is the stepping time alone: snapshot assembly and
    the callback are not counted.  A non-finite state raises NumericalError
    naming its first bad step.
    """
    u0 = build_initial(problem.initial, grid)
    if u0.dim != grid.dim:
        raise ValueError("initial state dimension does not match grid")
    u0 = with_band(u0, grid.n_high)
    low = with_band(u0, grid.n_cut)
    rec0 = None
    if method.recovery and grid.n_high > grid.n_cut:
        # the stepped storage holds |k_j| <= n_cut - 1 (its unpaired slot is
        # kept empty), so the recovery band starts one mode lower to tile the
        # retained spectrum completely
        rec0 = project_band(u0, grid.n_cut - 1, grid.n_high)

    def full_state(state_low: SpectralState, t: float) -> SpectralState:
        out = with_band(state_low, grid.n_high)
        if rec0 is not None:
            rec = recover_high(rec0, t)
            out = SpectralState(out.u_hat + rec.u_hat, out.v_hat + rec.v_hat)
        return out

    snapshots = on_snapshot is not None and snapshot_stride > 0
    if snapshots:
        on_snapshot(0, 0.0, full_state(low, 0.0))

    def snapshot(n: int, u: np.ndarray, v: np.ndarray) -> None:
        t = n * method.tau
        on_snapshot(n, t, full_state(SpectralState(u[0], v[0]), t))

    block = run_block(method, low, problem.f, problem.sigma, [path],
                      snapshot_stride, snapshot if snapshots else None)
    if block.failed:
        raise NumericalError(f"non-finite state at step {block.failed[0]}")

    t_total = method.n_steps * method.tau
    final = full_state(SpectralState(block.u_hat[0], block.v_hat[0]), t_total)
    if snapshots and method.n_steps > 0:
        on_snapshot(method.n_steps, t_total, final)
    return RunResult(final_state=final, wall_time=block.wall_time, steps=method.n_steps)


# ---------------------------------------------------------------------------
# oracles and diagnostics


def exact_linear_zero_mode(u0: float, v0: float, c: float,
                           path: WienerLattice, t_final: float) -> tuple[float, float]:
    """Reference for f = 0, sigma = c: only the mean mode is forced, with
    du = v dt, dv = c dW.

    v is exact (partial sums of the increments).  u uses the midpoint area
    proxy u += v*h + c*dW*h/2 per base cell, leaving an O(base_dt) pathwise
    residual; run the lattice much finer than the steps under test.
    """
    n = int(round(t_final / path.base_dt))
    if abs(n * path.base_dt - t_final) > 1e-9 or n > path.n_base:
        raise ValueError(f"t_final {t_final} not on the base lattice")
    h = path.base_dt
    u, v = float(u0), float(v0)
    inc = path.increments
    for i in range(n):
        dw = inc[i]
        u += v * h + c * dw * (h / 2.0)
        v += c * dw
    return float(u), float(v)


def linear_exact_discrepancy(method: MethodSpec, grid: SpectralGrid,
                             problem: ProblemSpec, path: WienerLattice) -> float:
    """Error norm of a run against the exact linear flow of its own initial
    band; meaningful when both nonlinearities vanish."""
    result = run(method, grid, problem, path)
    u0 = with_band(build_initial(problem.initial, grid), grid.n_high)
    ref = recover_high(project_low(u0, grid.n_high), method.n_steps * method.tau)
    return diff_norm(result.final_state, ref, 0.0)
