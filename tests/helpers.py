"""Oracles and state builders shared by the test modules."""

import csv

import numpy as np

import stochwave as sw
from stochwave.semigroup import apply, group_tables
from stochwave.spectral import half_shape, mode_indices


def zero_state(dim, band):
    """The state u = v = 0 at ``band``."""
    return sw.SpectralState(*np.zeros((2, *half_shape(dim, band)), dtype=np.complex128))


def bits(arr):
    """The bytes of a float or complex array, so that equality also tells
    -0 from +0."""
    return np.ascontiguousarray(arr).view(np.uint64)


def shell_index(dim, band):
    """Oracle: max_j |k_j| of every slot of a band-m half spectrum, read off
    the full layout's frequencies on the first axes and 0..m on the last;
    the unpaired slots read m."""
    axes = [np.abs(mode_indices(band))] * (dim - 1) + [np.arange(band + 1)]
    return np.max(np.stack(np.meshgrid(*axes, indexing="ij")), axis=0)


def band_mask(dim, band, cut):
    """Oracle: the slots of a band-m half spectrum with every |k_j| <= cut,
    the unpaired slots (|k_j| = m) never."""
    return shell_index(dim, band) <= min(cut, band - 1)


def recovered_modes(dim, band, n, h):
    """Oracle: the slots at ``band`` that a run stepped on band n and keeping
    box h recovers, n <= max_j |k_j| < min(h, band)."""
    shell = shell_index(dim, band)
    return (n <= shell) & (shell < min(h, band))


def masked(state, mask):
    """``state`` with every mode outside ``mask`` zeroed to +0 and every
    other slot untouched, as a cut of the package leaves them."""
    return sw.SpectralState(np.where(mask, state.u_hat, 0), np.where(mask, state.v_hat, 0))


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
    numpy's n-dimensional real transforms.  The cut of u, each nonzero
    term's image rfftn(term(irfftn(u_cut))) cut to the mask, every slot
    outside it +0 and every other untouched, w = (v + tau z_f) +
    dw z_s, the pass (a11 u + a12 w, a21 u + a22 w), and rows with a
    non-finite new state zeroed.  Returns (u, v, bad)."""
    a11, a12, a21, a22 = tables
    dim = a11.ndim
    band = u.shape[-1] - 1
    axes = tuple(range(1, dim + 1))
    mask = band_mask(dim, band, cut)
    u_cut = np.where(mask, u, 0) if cut < band else u

    def image(term):
        samples = np.fft.irfftn(u_cut, s=(2 * band,) * dim, axes=axes, norm="forward")
        return np.where(mask, np.fft.rfftn(term(samples), axes=axes, norm="forward"), 0)

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
