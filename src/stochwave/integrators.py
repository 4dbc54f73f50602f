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
every axis), the recovered modes (``recovered_modes``: box h minus box N,
with h = N^alpha if the scheme recovers, ``kept_box``) and a discarded
remainder; the recovered modes never see the noise and are propagated to
the final time in one shot.

Stepping works on blocks: the step loop ``run_block`` advances S rows from
a given state, whose shape fixes the band N and the dimension d, as arrays
of shape (S,) + (2N,)^(d-1) + (N+1,), through the columns of an (S, n)
array of coarsened increments.  Each step is one ``step_block`` call: per
nonzero term one batched real inverse FFT, one pointwise map, one batched
real forward FFT and one mask, then one 2x2 pass over the modes.  Each step
writes into work arrays that ``run_block`` allocates once per call: two
state pairs that the steps alternate between, one spectrum per nonzero
term, one real sample array and, only when the filter cuts, a cut copy of
u.  Every layer keeps its operands and the order of its sums, so a step
gives the bits it would give with fresh arrays.  Rows never mix, so every
row is bit-identical to a block of one.  Each step scans its new state for
non-finite values, once unless some row failed, and a row that fails is
dropped alone with its first bad step.  ``run`` coarsens its one path, steps one row per snapshot segment
plus the recovery band and returns its final full-band state; a failed step
raises NumericalError, the one error type for non-finite values (a study's
``NumericalFailure`` is one too).  Nothing here keeps time: a study times
its blocks where it reports them (``experiments``).
The stepping depends only on ``stepping_key``: ``hr_lri`` and ``stm``
always share one trajectory, and ``lri`` does too whenever its filter does
not cut (the default coupling), so a study steps each distinct key once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import semigroup
from .noise import WienerLattice, coarsen, step_count
from .problems import NonlinearitySpec, ProblemSpec, build_initial
from .spectral import (
    SpectralGrid,
    SpectralState,
    band_mask,
    check_hermitian,
    lambda_sq,
    pseudospectral_apply,
    shell_index,
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


def method_spec(kind: str, tau: float, t_final: float) -> MethodSpec:
    """Validated spec of t_final / tau steps (``noise.step_count``)."""
    if kind not in SCHEMES:
        raise ValueError(f"unknown method kind {kind!r}")
    return MethodSpec(kind=kind, tau=tau, n_steps=step_count(t_final, tau))


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


class _StepWork(NamedTuple):
    """The arrays a step writes into: ``new`` the new (u, v) pair, shape
    (2, S) + half shape; ``images`` one spectrum per nonzero nonlinearity
    term; ``samples`` the real collocation values (None if both terms are
    zero); ``u_cut`` u truncated to the cut (None unless the cut is below
    the band)."""

    new: np.ndarray
    images: tuple
    samples: np.ndarray | None
    u_cut: np.ndarray | None


def _step_work(shape: tuple, cut: int, f_spec: NonlinearitySpec,
               sigma_spec: NonlinearitySpec) -> _StepWork:
    """Fresh work arrays for steps of a block of states of ``shape``."""
    band = shape[-1] - 1
    terms = sum(not spec.is_zero for spec in (f_spec, sigma_spec))
    return _StepWork(
        new=np.empty((2,) + shape, dtype=np.complex128),
        images=tuple(np.empty(shape, dtype=np.complex128) for _ in range(terms)),
        samples=np.empty(shape[:1] + (2 * band,) * (len(shape) - 1)) if terms else None,
        u_cut=np.empty(shape, dtype=np.complex128) if cut < band else None)


def step_block(u_hat: np.ndarray, v_hat: np.ndarray, tables, cut: int, tau: float,
               dw: np.ndarray, f_spec: NonlinearitySpec, sigma_spec: NonlinearitySpec,
               work: _StepWork | None = None):
    """One step T (U + tau * Pi F(Pi U) + Pi Sigma(Pi U) dW) of every row of
    a block, at the stored band, with Pi the box truncation to ``cut``.

    ``u_hat`` and ``v_hat`` hold one state per row, shape (S,) +
    (2 band,)^(d-1) + (band + 1,) with d the rank of the tables, and ``dw``
    is the (S,) vector of the rows' increments.  Rows never mix, so each is
    bit-identical to a block of one.  Every array the step computes is
    written into ``work`` (``_step_work``, fresh ones when None), none of
    which may hold ``u_hat`` or ``v_hat``; the new state is ``work.new``.
    Returns (u_hat, v_hat, bad): ``bad`` lists the rows whose new state is
    non-finite, and those rows come back zeroed so that they cannot spoil
    later steps.  One scan of the new state tells whether any row failed,
    and only then a second one which: a non-finite increment or
    nonlinearity image enters v + tau z or v + dw z, and every 2x2 table
    entry times NaN or inf is non-finite, so it leaves the new state
    non-finite in its row.
    """
    dim = tables[0].ndim
    band = u_hat.shape[-1] - 1
    if cut > band:
        raise ValueError(f"filter cut {cut} exceeds stored band {band}")
    if work is None:
        work = _step_work(u_hat.shape, cut, f_spec, sigma_spec)
    u_cut = u_hat
    if cut < band:
        u_cut = np.multiply(u_hat, band_mask(dim, band, cut), out=work.u_cut)
    images = iter(work.images)
    dv = []
    if not f_spec.is_zero:
        z = pseudospectral_apply(f_spec, u_cut, cut, dim, out=next(images),
                                 samples=work.samples)
        dv.append(np.multiply(tau, z, out=z))
    if not sigma_spec.is_zero:
        z = pseudospectral_apply(sigma_spec, u_cut, cut, dim, out=next(images),
                                 samples=work.samples)
        dv.append(np.multiply(dw.reshape((-1,) + (1,) * dim), z, out=z))
    new = semigroup.apply(SpectralState(u_hat, v_hat), tables, *dv,
                          out=SpectralState(*work.new))
    bad = []
    if not np.isfinite(work.new).all():
        rows = np.isfinite(work.new).all(axis=(0,) + tuple(range(2, dim + 2)))
        bad = np.flatnonzero(~rows).tolist()
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


def kept_box(method: MethodSpec, grid: SpectralGrid) -> int:
    """The box h a run keeps: floor(n_cut^alpha) if it recovers, else n_cut."""
    return grid.n_high if method.recovery else grid.n_cut


def recovered_modes(dim: int, band: int, n: int, h: int) -> np.ndarray:
    """Mask at ``band`` of the modes a run stepped on band n (|k_j| <= n - 1)
    and keeping box h recovers: n <= max_j |k_j| < min(h, band)."""
    shell = shell_index(dim, band)
    return (n <= shell) & (shell < min(h, band))


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class BlockResult:
    """Final stepped-band states of a block of paths, one row per path.

    ``failed`` maps each row that left the floating-point domain to its
    first bad step, the first whose new state is non-finite; such a row
    holds no state.
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    failed: dict


def run_block(method: MethodSpec, start: SpectralState, f: NonlinearitySpec,
              sigma: NonlinearitySpec, dws: np.ndarray) -> BlockResult:
    """Step every row of a block from the state ``start`` on its own band,
    with the nonlinearities ``f`` and ``sigma``, through the columns of the
    (S, n) increments ``dws``: row s takes the n steps ``dws[s]``.

    ``start`` must be Hermitian (ValueError otherwise) and is copied once
    to the S rows.  Each step is one call of :func:`step_block` for the
    whole block, into the work arrays allocated here once.  A row that goes
    non-finite is recorded in ``failed`` with its first bad step and leaves
    the other rows untouched; stepping stops early once every row has
    failed.
    """
    check_hermitian(start)
    tables_of, _, cut, _ = stepping_key(method, start.band)
    tables = tables_of(start.dim, start.band, method.tau)
    # step n writes the pair n % 2 and reads the other, which holds the
    # start's copies before step 0; the two share the scratch
    work = _step_work((len(dws),) + start.u_hat.shape, cut, f, sigma)
    works = (work, work._replace(new=np.empty_like(work.new)))
    u, v = works[1].new
    u[...] = start.u_hat
    v[...] = start.v_hat

    failed: dict[int, int] = {}
    for n in range(dws.shape[1]):
        u, v, bad = step_block(u, v, tables, cut, method.tau, dws[:, n], f, sigma,
                               works[n % 2])
        for row in bad:
            failed.setdefault(row, n)
        if len(failed) == len(dws):
            break
    return BlockResult(u_hat=u, v_hat=v, failed=failed)


def run(method: MethodSpec, grid: SpectralGrid, problem: ProblemSpec,
        path: WienerLattice, snapshot_stride: int = 0,
        on_snapshot=None) -> SpectralState:
    """Integrate one path; returns the final state at the full band.

    The stepping is one :func:`run_block` of one row on the stepped band
    per snapshot segment, each from the last one's final state; the recovery
    band is added to every state handed out.  With ``snapshot_stride`` > 0
    the callback receives (step_index, time, full-band state) every stride
    steps and at both ends.  A path too short for the run is a ValueError,
    and a non-finite state raises NumericalError naming its first bad step.
    """
    dws = coarsen(path, method.tau)[:method.n_steps]
    if len(dws) < method.n_steps:
        raise ValueError(f"{method.n_steps} steps exceed the path's {len(dws)}")
    u0 = build_initial(problem.initial, grid)
    state = with_band(u0, grid.n_cut)
    rec0, h = None, kept_box(method, grid)
    if h > grid.n_cut:
        mask = recovered_modes(grid.dim, grid.n_high, grid.n_cut, h)
        rec0 = SpectralState(u0.u_hat * mask, u0.v_hat * mask)
    # the full-band pair is not held past what the run takes from it
    del u0

    def full_state(state_low: SpectralState, t: float) -> SpectralState:
        out = with_band(state_low, grid.n_high)
        if rec0 is not None:
            rec = recover_high(rec0, t)
            out = SpectralState(out.u_hat + rec.u_hat, out.v_hat + rec.v_hat)
        return out

    snapshots = on_snapshot is not None and snapshot_stride > 0
    if snapshots:
        on_snapshot(0, 0.0, full_state(state, 0.0))
    # one segment per stride, and one of no steps when n_steps = 0
    stride = snapshot_stride if snapshots else max(method.n_steps, 1)
    for a in range(0, max(method.n_steps, 1), stride):
        block = run_block(method, state, problem.f, problem.sigma, dws[None, a:a + stride])
        if block.failed:
            raise NumericalError(f"non-finite state at step {a + block.failed[0]}")
        state = SpectralState(block.u_hat[0], block.v_hat[0])
        n = min(a + stride, method.n_steps)
        if snapshots and 0 < n < method.n_steps:
            on_snapshot(n, n * method.tau, full_state(state, n * method.tau))
    # a snapshot's state lives through its callback; the final one is built once
    final = full_state(state, method.n_steps * method.tau)
    if snapshots and method.n_steps > 0:
        on_snapshot(method.n_steps, method.n_steps * method.tau, final)
    return final
