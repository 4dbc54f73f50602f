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
a given state, whose shape fixes the band N and the dimension d, through
the columns of an (S, n) array of coarsened increments, once for each of
the methods it is given that share ``stepping_key``'s (band, cut, tau).
Each distinct table kind (e^(tau L) or the resolvent) steps its S rows, and
all of them step as one block of K x S rows, as arrays of shape (K, S) +
(2N,)^(d-1) + (N+1,): the tables stacked to (K, 1, ...) broadcast over the
rows and the increments over the kinds.  It is the one function that takes
a step: per nonzero term one batched real inverse FFT, one pointwise map,
one batched real forward FFT and one mask, then one 2x2 pass over the modes.
Each step writes into work arrays that ``run_block`` allocates once per
call: two state pairs that the steps alternate between, one spectrum per
nonzero term, one real sample array and, only when the filter cuts, a cut
copy of u; the filter mask is stored complex and the increments are
transposed once per call.  Every layer keeps its operands and the order of
its sums, so a step gives the bits it would give with fresh arrays.  Rows
never mix, so every row is bit-identical to a block of one kind and one
row.  Each step sums its new state, and scans it for non-finite values
only when that sum is not finite; a row that fails is dropped alone with
its first bad step.  ``run`` coarsens its one path, steps one row per
snapshot segment plus the recovery band and returns its final full-band
state; a failed step raises NumericalError, the one error type for
non-finite values (a study's ``NumericalFailure`` is one too).  Nothing
here keeps time: a study times its blocks where it reports them
(``experiments``).  The stepping depends only on ``stepping_key``:
``hr_lri`` and ``stm`` always share one trajectory, and ``lri`` does too
whenever its filter does not cut (the default coupling); ``sem`` differs
from them in its tables alone.  So a study steps each (band, cut, tau)
once, every table kind in one block.
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
    _complex_mask,
    _copy_band,
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


def recover_high(initial_band: SpectralState, t: float) -> SpectralState:
    """Exact linear flow of the recovery band, applied once at time t.

    Its table is built afresh rather than cached, since each time t is used
    once, and spans the state's band: the widest stepped band M in a study,
    whose tail outside box M is summed without building the flow
    (``experiments._outside_energy``); ``run`` applies it in place.
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


def run_block(methods, start: SpectralState, f: NonlinearitySpec,
              sigma: NonlinearitySpec, dws: np.ndarray) -> list[BlockResult]:
    """Step every row of a block from the state ``start`` on its own band,
    with the nonlinearities ``f`` and ``sigma``, through the columns of the
    (S, n) increments ``dws``, once for each of ``methods``: row s takes the
    n steps ``dws[s]``.  Returns one BlockResult per method.

    The methods must share ``stepping_key``'s (band, cut, tau), else
    ValueError; methods with equal keys share one trajectory.  Each distinct
    table kind steps S rows, and all of them step as one block of K x S
    rows: the states carry a leading kind axis, the tables are stacked to
    (K, 1, ...) and the increments broadcast over the kinds.  ``start`` must
    be Hermitian (ValueError otherwise) and is copied once to every row.
    Each step is T (U + tau * Pi F(Pi U) + Pi Sigma(Pi U) dW) of the whole
    block, with Pi the box truncation to the cut, written into work arrays
    allocated here once.  A non-finite increment or image enters v + tau z
    or v + dw z, and every 2x2 table entry times NaN or inf is non-finite,
    so a row that fails leaves its new state non-finite, and so the sum of
    the new pair: one sum tells whether any row may have failed, and only
    then a scan which (finite entries whose sum overflows fail no row).
    Such a row is zeroed, so that it cannot spoil later steps, and recorded
    in its kind's ``failed`` with its first bad step; the other rows go on
    untouched, and stepping stops early once every row has failed.
    """
    keys = [stepping_key(m, start.band) for m in methods]
    if len({key[1:] for key in keys}) != 1:
        raise ValueError(f"run_block steps methods of one (band, cut, tau), got "
                         f"{[(m.kind, m.tau) for m in methods]} on band {start.band}")
    check_hermitian(start)
    _, band, cut, tau = keys[0]
    dim = start.dim
    # the distinct table functions in order of first use, one per kind row
    kinds = list(dict.fromkeys(key[0] for key in keys))
    # one kind's cached tables broadcast as they are; several kinds' are
    # stacked to (K, 1, ...)
    per_kind = [kind(dim, band, tau) for kind in kinds]
    tables = per_kind[0] if len(kinds) == 1 else tuple(
        np.stack(entries)[:, None] for entries in zip(*per_kind))
    rows = len(dws)
    shape = (len(kinds), rows) + start.u_hat.shape
    # the K x S rows as one axis: the block the nonlinearities see
    flat = (-1,) + start.u_hat.shape
    # step n writes the pair n % 2 and reads the other, which holds the
    # start's copies before step 0
    pairs = tuple(np.empty((2,) + shape, dtype=np.complex128) for _ in range(2))
    states = [SpectralState(*pair) for pair in pairs]
    pairs[1][0] = start.u_hat
    pairs[1][1] = start.v_hat
    # the nonzero terms, f first, each with its image and the index of its
    # factor in (tau, dw)
    terms = [(spec, np.empty(shape, dtype=np.complex128), k)
             for k, spec in enumerate((f, sigma)) if not spec.is_zero]
    samples = np.empty((len(kinds) * rows,) + (2 * band,) * dim) if terms else None
    mask = _complex_mask(dim, band, cut) if cut < band else None
    u_cut = np.empty(shape, dtype=np.complex128) if cut < band else None
    # step n's increments as one contiguous row, shaped to broadcast over
    # the kinds and the modes
    dw_steps = np.ascontiguousarray(dws.T).reshape((dws.shape[1], rows) + (1,) * dim)
    scan_axes = (0,) + tuple(range(3, dim + 3))

    failed: list[dict[int, int]] = [{} for _ in kinds]
    state = states[1]
    for n in range(dws.shape[1]):
        u_in = state.u_hat if mask is None else np.multiply(state.u_hat, mask, out=u_cut)
        factors = (tau, dw_steps[n])
        dv = []
        for spec, image, k in terms:
            pseudospectral_apply(spec, u_in.reshape(flat), cut, dim, out=image.reshape(flat),
                                 samples=samples)
            dv.append(np.multiply(factors[k], image, out=image))
        # with no terms the pass writes a12 w over the pair it reads
        state = semigroup.apply(state, tables, *dv, out=states[n % 2])
        new = pairs[n % 2]
        # the sum of the pair is non-finite if any entry is
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(new, axis=None))
        if not finite:
            bad_kinds, bad_rows = np.nonzero(~np.isfinite(new).all(axis=scan_axes))
            new[:, bad_kinds, bad_rows] = 0.0
            for k, row in zip(bad_kinds.tolist(), bad_rows.tolist()):
                failed[k].setdefault(row, n)
            if sum(map(len, failed)) == len(kinds) * rows:
                break
    return [BlockResult(u_hat=state.u_hat[k], v_hat=state.v_hat[k], failed=failed[k])
            for k in map(kinds.index, (key[0] for key in keys))]


def run(method: MethodSpec, grid: SpectralGrid, problem: ProblemSpec,
        path: WienerLattice, snapshot_stride: int = 0,
        on_snapshot=None) -> SpectralState:
    """Integrate one path; returns the final state at the full band.

    The stepping is one :func:`run_block` of one row on the stepped band
    per snapshot segment, each from the last one's final state; the recovery
    band is added to every state handed out.  With ``snapshot_stride`` > 0
    the callback receives (step_index, time, full-band state) every stride
    steps and at both ends, valid during the callback alone (a recovering
    run reuses one pair).  A path too short for the run is a ValueError,
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
        full = SpectralState(*np.empty((2,) + rec0.u_hat.shape, complex))
        lam = np.sqrt(lambda_sq(grid.dim, grid.n_high))
    # the full-band pair is not held past what the run takes from it
    del u0

    def full_state(state_low: SpectralState, t: float) -> SpectralState:
        if rec0 is None:
            return with_band(state_low, grid.n_high)
        # with_band + recover_high bit for bit; the pass overwrites its w, a copy
        np.copyto(full.v_hat, rec0.v_hat)
        rec = semigroup.apply(SpectralState(rec0.u_hat, full.v_hat),
                              semigroup.propagator_tables(lam, t),
                              out=SpectralState(*np.empty((2,) + rec0.u_hat.shape, complex)))
        full.u_hat.fill(0)
        full.v_hat.fill(0)
        _copy_band(state_low, full, grid.dim)
        np.add(full.u_hat, rec.u_hat, out=full.u_hat)
        np.add(full.v_hat, rec.v_hat, out=full.v_hat)
        return full

    snapshots = on_snapshot is not None and snapshot_stride > 0
    if snapshots:
        on_snapshot(0, 0.0, full_state(state, 0.0))
    # one segment per stride, and one of no steps when n_steps = 0
    stride = snapshot_stride if snapshots else max(method.n_steps, 1)
    for a in range(0, max(method.n_steps, 1), stride):
        block, = run_block([method], state, problem.f, problem.sigma, dws[None, a:a + stride])
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
