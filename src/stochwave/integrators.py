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

The driver decomposes the initial state into the stepped band ([-N, N-1]
per axis), the recovery band (box N^alpha minus box N) and a discarded
remainder; the recovery band never sees the noise and is propagated to the
final time in one shot when recovery is enabled.
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
    diff_norm,
    lambda_sq,
    project_band,
    project_low,
    pseudospectral_apply,
    with_band,
)


class NumericalError(RuntimeError):
    """A run left the floating-point domain (NaN/inf state)."""


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


def step_scheme(state: SpectralState, tables, cut: int, tau: float, dw: float,
                f_spec: NonlinearitySpec,
                sigma_spec: NonlinearitySpec) -> SpectralState:
    """One step T (U + tau * Pi F(Pi U) + Pi Sigma(Pi U) dW) at the stored
    band, with Pi the box truncation to ``cut``."""
    if cut > state.band:
        raise ValueError(f"filter cut {cut} exceeds stored band {state.band}")
    u_hat = project_low(state, cut).u_hat if cut < state.band else state.u_hat
    dv = []
    if not f_spec.is_zero:
        dv.append(tau * pseudospectral_apply(f_spec, u_hat, cut))
    if not sigma_spec.is_zero:
        dv.append(dw * pseudospectral_apply(sigma_spec, u_hat, cut))
    return semigroup.apply(state, tables, *dv)


def recover_high(initial_band: SpectralState, t: float) -> SpectralState:
    """Exact linear flow of the recovery band, applied once at time t.

    Its table is built afresh rather than cached: each time t is used once,
    and the table spans the full band.
    """
    lam = np.sqrt(lambda_sq(initial_band.dim, initial_band.band))
    return semigroup.apply(initial_band, semigroup.propagator_tables(lam, t))


# ---------------------------------------------------------------------------
# driver


def _conform(state: SpectralState, grid: SpectralGrid) -> SpectralState:
    """Bring an initial state onto the run grid's full band."""
    if state.dim != grid.dim:
        raise ValueError("initial state dimension does not match grid")
    return with_band(state, grid.n_high)


def _check_finite(state: SpectralState, step: int) -> None:
    if not (np.isfinite(state.u_hat).all() and np.isfinite(state.v_hat).all()):
        raise NumericalError(f"non-finite state at step {step}")


def run(method: MethodSpec, grid: SpectralGrid, problem: ProblemSpec,
        path: WienerLattice, snapshot_stride: int = 0,
        on_snapshot=None) -> RunResult:
    """Integrate one path; returns the final state at the full band.

    The Brownian increments are the exact grouped sums of the lattice's base
    increments, so runs at different step sizes on one lattice are coupled.
    With ``snapshot_stride`` > 0 the callback receives
    (step_index, time, full-band state) every stride steps and at both ends.
    ``RunResult.wall_time`` is the stepping time alone: snapshot assembly and
    the callback are not counted.  A non-finite state or nonlinearity image
    raises NumericalError.
    """
    t_total = method.n_steps * method.tau
    if t_total > path.t_final + 1e-12:
        raise ValueError(f"run time {t_total} exceeds path horizon {path.t_final}")
    dws = coarsen(path, method.tau)[:method.n_steps] if method.n_steps else np.zeros(0)

    u0 = _conform(build_initial(problem.initial, grid), grid)
    low = with_band(u0, grid.n_cut)
    rec0 = None
    if grid.n_high > grid.n_cut:
        # the stepped storage holds |k_j| <= n_cut - 1 (its unpaired slot is
        # kept empty), so the recovery band starts one mode lower to tile the
        # retained spectrum completely
        rec0 = project_band(u0, grid.n_cut - 1, grid.n_high)

    scheme = SCHEMES[method.kind]
    tables = scheme.tables(grid.dim, grid.n_cut, method.tau)
    cut = grid.n_cut
    if scheme.filtered:
        cut = min(int(np.floor(1.0 / method.tau)), cut)

    def full_state(state_low: SpectralState, t: float) -> SpectralState:
        out = with_band(state_low, grid.n_high)
        if method.recovery and rec0 is not None:
            rec = recover_high(rec0, t)
            out = SpectralState(out.u_hat + rec.u_hat, out.v_hat + rec.v_hat)
        return out

    if on_snapshot is not None and snapshot_stride > 0:
        on_snapshot(0, 0.0, full_state(low, 0.0))

    start = time.perf_counter()
    snapshot_s = 0.0
    state = low
    for n in range(method.n_steps):
        dw = float(dws[n])
        try:
            state = step_scheme(state, tables, cut, method.tau, dw,
                                problem.f, problem.sigma)
        except FloatingPointError as exc:
            raise NumericalError(f"non-finite nonlinearity image at step {n}") from exc
        _check_finite(state, n)
        if (on_snapshot is not None and snapshot_stride > 0
                and (n + 1) % snapshot_stride == 0 and n + 1 < method.n_steps):
            t_snap = time.perf_counter()
            on_snapshot(n + 1, (n + 1) * method.tau, full_state(state, (n + 1) * method.tau))
            snapshot_s += time.perf_counter() - t_snap
    wall = time.perf_counter() - start - snapshot_s

    final = full_state(state, t_total)
    if on_snapshot is not None and snapshot_stride > 0 and method.n_steps > 0:
        on_snapshot(method.n_steps, t_total, final)
    return RunResult(final_state=final, wall_time=wall, steps=method.n_steps)


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
    u0 = _conform(build_initial(problem.initial, grid), grid)
    ref = recover_high(project_low(u0, grid.n_high), method.n_steps * method.tau)
    return diff_norm(result.final_state, ref, 0.0)
