"""Oracles and state builders shared by the test modules."""

import csv

import numpy as np

import stochwave as sw
from stochwave.semigroup import apply, group_tables
from stochwave.spectral import band_mask, half_shape


def zero_state(dim, band):
    """The state u = v = 0 at ``band``."""
    return sw.SpectralState(*np.zeros((2, *half_shape(dim, band)), dtype=np.complex128))


def bits(arr):
    """The bytes of a float or complex array, so that equality also tells
    -0 from +0."""
    return np.ascontiguousarray(arr).view(np.uint64)


def masked(state, mask):
    """``state`` with every mode outside ``mask`` zeroed."""
    return sw.SpectralState(state.u_hat * mask, state.v_hat * mask)


def read_csv(path):
    """The rows of a CSV file, as dicts of strings keyed by its header."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def random_state(grid, seed=0, band=None):
    """State of random real fields at ``band``, the grid's full band by
    default."""
    rng = np.random.default_rng(seed)
    band = grid.n_high if band is None else band
    shape = (2 * band,) * grid.dim
    return sw.state_from_fields(rng.standard_normal(shape),
                                rng.standard_normal(shape))


def full_layout(half):
    """Oracle: the full (2m,)^d spectrum of a half spectrum's real field, by
    the complex FFT of its samples."""
    return np.fft.fftn(sw.inverse(half), norm="forward")


def flow(state, t):
    """The exact linear wave flow e^(tL) of a state."""
    return apply(state, group_tables(state.dim, state.band, t))


def exact_linear_zero_mode(u0: float, v0: float, c: float,
                           path: sw.WienerLattice, t_final: float) -> tuple[float, float]:
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


def brownian_error_variance(t_final: float, tau: float, tau_ref: float) -> float:
    """V_l: the expected squared error, per unit c^2, that sigma = c puts on
    the k = 0 mode of u of a run at step tau against one at tau_ref.  A run
    adds c dW at the start of each step, so over one step the reference's
    sub-step j of r = tau / tau_ref moves u by c dW_j tau_ref (r - j) and the
    run by c dW_j tau; the difference c tau_ref sum_j j dW_j has variance
    c^2 tau_ref^3 (r - 1) r (2r - 1) / 6, and the T / tau steps add up."""
    r = round(tau / tau_ref)
    return (t_final / tau) * tau_ref**3 * (r - 1) * r * (2 * r - 1) / 6


def linear_exact_discrepancy(method, grid, problem, path) -> float:
    """Error norm of a run against the exact linear flow of its own initial
    band; meaningful when both nonlinearities vanish."""
    result = sw.run(method, grid, problem, path)
    # both at the grid's full band
    ref = sw.recover_high(sw.build_initial(problem.initial, grid), method.n_steps * method.tau)
    return sw.sobolev_norm(sw.SpectralState(result.u_hat - ref.u_hat,
                                            result.v_hat - ref.v_hat), 0.0)


def reference_step(u, v, tables, cut, tau, dw, f, sigma):
    """Oracle: one step of ``run_block`` written with fresh arrays and
    numpy's n-dimensional real transforms.  The mask product, each nonzero
    term's image rfftn(term(irfftn(u_cut))) * mask, w = (v + tau z_f) +
    dw z_s, the pass (a11 u + a12 w, a21 u + a22 w), and rows with a
    non-finite new state zeroed.  Returns (u, v, bad)."""
    a11, a12, a21, a22 = tables
    dim = a11.ndim
    band = u.shape[-1] - 1
    axes = tuple(range(1, dim + 1))
    mask = band_mask(dim, band, cut)
    u_cut = u * mask if cut < band else u

    def image(term):
        samples = np.fft.irfftn(u_cut, s=(2 * band,) * dim, axes=axes, norm="forward")
        return np.fft.rfftn(term(samples), axes=axes, norm="forward") * mask

    w = v
    if not f.is_zero:
        w = w + tau * image(f)
    if not sigma.is_zero:
        w = w + dw.reshape((-1,) + (1,) * dim) * image(sigma)
    new_u = a11 * u + a12 * w
    new_v = a21 * u + a22 * w
    bad = np.flatnonzero(~(np.isfinite(new_u).all(axis=axes)
                           & np.isfinite(new_v).all(axis=axes))).tolist()
    new_u[bad] = 0.0
    new_v[bad] = 0.0
    return new_u, new_v, bad
