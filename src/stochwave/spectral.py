"""Periodic Fourier representation of real field pairs on the unit torus.

A solution is carried as the pair of coefficient arrays (u_hat, v_hat) of a
displacement field u and a velocity field v on [0,1]^dim, with dim one of
the supported dimensions ``DIMS``.

The fields are real, so every spectrum is Hermitian, c(-k) = conj c(k), and
the modes with k_last < 0 carry no information.  A state "at band m" is
therefore stored as its half spectrum: arrays of shape (2m,)^(dim-1) +
(m+1,) (``half_shape``) for 2m collocation points per dimension.  The
first dim-1 axes are in the standard even FFT layout (slots for the modes
[0, m-1] then [-m, -1]); the last axis holds |k_last| = 0, ..., m.
``forward`` is the real-to-half transform and ``inverse`` the half-to-real
one.  The only constraint left on the stored numbers is that the
k_last = 0 plane is itself Hermitian over the other axes
(``check_hermitian``).

A state is nothing but its two arrays: their shape fixes its band m and its
dimension.  No arithmetic branches on the dimension: mode weights are outer
sums over the axes.  Two cutoffs describe a grid: the low cutoff ``n_cut``
(the band advanced by the time steppers) and the recovery cutoff
``n_high = floor(n_cut**alpha)`` (the widest band any state of the grid
retains).  Every cut of a spectrum, a box |k_j| < N or the shells
N <= max_j |k_j| < N^alpha, is ``_keep_shells``, and the distance of two
states is the ``sobolev_norm`` of their difference once ``with_band`` has
stored both at the wider band.

Nyquist convention: each axis carries a single unpaired slot (index m: the
frequency -m on the first axes, +m on the last).  States keep those slots
identically zero, so every retained mode has a proper conjugate partner at
-k.  This makes zero-padding an exact isometry for the Sobolev norms and
band restriction an exact left inverse of it; the cost is dropping one
measure-zero mode per axis, the same mode the even layout already halves.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft, irfft, rfft

# the dimensions a grid or a state may have
DIMS = (1, 2)


# ---------------------------------------------------------------------------
# grid and state


@dataclass(frozen=True)
class SpectralGrid:
    """Resolution parameters of a periodic solver grid."""

    dim: int
    n_cut: int
    n_high: int


def make_grid(dim: int, n_cut: int, alpha: float) -> SpectralGrid:
    """Build a grid with recovery cutoff floor(n_cut**alpha).

    alpha = 1 keeps a single band; larger alpha widens the linearly
    recovered band without touching the stepped one.
    """
    if dim not in DIMS:
        raise ValueError(f"dim must be one of {DIMS}, got {dim}")
    if n_cut < 1:
        raise ValueError(f"n_cut must be >= 1, got {n_cut}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    v = float(n_cut) ** float(alpha)
    # guard against 999.9999999 artifacts when the power is an exact integer
    n_high = int(round(v)) if abs(v - round(v)) < 1e-9 else int(v)
    return SpectralGrid(dim=dim, n_cut=n_cut, n_high=n_high)


def default_alpha(dim: int) -> float:
    """The recovery exponent 1 + 1/dim used when a config names none."""
    return 1.0 + 1.0 / dim


@dataclass(frozen=True)
class SpectralState:
    """Fourier coefficients of a (u, v) pair.

    Both arrays are half spectra of shape ``half_shape(dim, band)`` and
    are treated as immutable; operations return fresh states.
    """

    u_hat: np.ndarray
    v_hat: np.ndarray

    @property
    def dim(self) -> int:
        return self.u_hat.ndim

    @property
    def band(self) -> int:
        return self.u_hat.shape[-1] - 1


def half_shape(dim: int, band: int) -> tuple[int, ...]:
    """The shape (2m,)^(dim-1) + (m+1,) of a half spectrum at band m."""
    return (2 * band,) * (dim - 1) + (band + 1,)


# ---------------------------------------------------------------------------
# mode bookkeeping


@functools.cache
def mode_indices(band: int) -> np.ndarray:
    """Integer frequencies [0, 1, ..., band-1, -band, ..., -1]."""
    k = np.rint(fftfreq(2 * band) * 2 * band).astype(np.int64)
    k.setflags(write=False)
    return k


def _first_axes_modes(dim: int, band: int) -> list[np.ndarray]:
    """|k_j| per slot of each of the first dim-1 axes of a band-m half
    spectrum, in their full layout; none, and nothing built, in 1D."""
    return [np.abs(mode_indices(band))] * (dim - 1) if dim > 1 else []


def _axis_modes(dim: int, band: int) -> list[np.ndarray]:
    """|k_j| per slot of each axis of a band-m half spectrum: the full
    indices on the first dim-1 axes, 0..m on the last."""
    return _first_axes_modes(dim, band) + [np.arange(band + 1)]


def lambda_sq(dim: int, band: int) -> np.ndarray:
    """(2*pi)^2 * sum_j k_j^2 on the half spectrum of a band-m array."""
    k2 = [k.astype(np.float64) ** 2 for k in _axis_modes(dim, band)]
    return (2.0 * np.pi) ** 2 * functools.reduce(np.add.outer, k2)


@functools.cache
def _outside_shells(dim: int, band: int, lo: int, hi: int) -> tuple[tuple, ...]:
    """Basic indices, each after an Ellipsis for a block's axes, that cover
    the slots of a band-m half spectrum outside lo <= max_j |k_j| < hi, for
    0 <= lo <= hi <= m + 1: on each axis |k_j| >= hi (the modes hi..m-1 and
    -m..-hi of a first axis), then the 2^(dim-1) corners of the box |k_j| < lo."""
    whole = (slice(None),) * dim
    out = [whole[:j] + (slice(hi, 2 * band - hi + 1),) + whole[j + 1:] for j in range(dim - 1)]
    out.append(whole[:-1] + (slice(hi, None),))
    first = (slice(0, lo), slice(2 * band - lo + 1, 2 * band))
    out += [(*corner, slice(0, lo)) for corner in itertools.product(first, repeat=dim - 1)]
    return tuple((Ellipsis, *index) for index in out)


def _keep_shells(arr: np.ndarray, dim: int, lo: int, hi: int) -> np.ndarray:
    """Zero, in place, every slot of the trailing ``dim`` axes of ``arr``
    outside the shells lo <= max_j |k_j| < hi, and return it: a kept slot is
    never written, a zeroed one reads +0.  hi = m drops the unpaired slots."""
    for index in _outside_shells(dim, arr.shape[-1] - 1, lo, hi):
        arr[index] = 0
    return arr


# ---------------------------------------------------------------------------
# transforms


def _trailing_axes(arr: np.ndarray, dim: int | None) -> tuple[int, ...]:
    """The last ``dim`` axes of ``arr`` (all of them when dim is None)."""
    dim = arr.ndim if dim is None else dim
    return tuple(range(arr.ndim - dim, arr.ndim))


def forward(samples: np.ndarray, dim: int | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of real samples, normalised so coefficient k = mean of
    samples * exp(-2i pi k x).

    Transforms the trailing ``dim`` axes, all of them by default; a leading
    axis indexes the fields of a block, and each is transformed alone.  The
    last axis goes through ``rfft``, then the others, last to first, through
    ``fft`` in place: ``rfftn``'s order, so its bits.  With ``out``, a
    complex array of the half spectrum's shape, the result is written there
    and returned.
    """
    samples = np.asarray(samples)
    axes = _trailing_axes(samples, dim)
    shape = [samples.shape[a] for a in axes]
    n = shape[0]
    if any(s != n for s in shape) or n % 2:
        raise ValueError(f"samples must be a square even-sized array, got {samples.shape}")
    out = rfft(samples, axis=axes[-1], norm="forward", out=out)
    for axis in reversed(axes[:-1]):
        fft(out, axis=axis, norm="forward", out=out)
    return out


def inverse(half: np.ndarray, dim: int | None = None,
            out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """Real samples of a half spectrum: the adjoint of :func:`forward` over
    the same axes, on 2m points per axis for a last axis of m + 1 slots.

    The axes before the last go first to last through ``ifft`` (into
    ``work``, a complex array of ``half``'s shape, else into one fresh
    array, then in place), the last through ``irfft``: ``irfftn``'s order,
    so its bits.  With ``out``, a real array of the samples' shape, the
    samples are written there and returned; ``half`` is never written.
    """
    half = np.asarray(half)
    axes = _trailing_axes(half, dim)
    n = 2 * (half.shape[-1] - 1)
    if n < 2 or any(half.shape[a] != n for a in axes[:-1]):
        raise ValueError(f"not a half spectrum of an even square grid: {half.shape}")
    spec = half
    for axis in axes[:-1]:
        spec = ifft(spec, axis=axis, norm="forward", out=work if spec is half else spec)
    return irfft(spec, n, axis=axes[-1], norm="forward", out=out)


def check_hermitian(state: SpectralState) -> None:
    """Raise ValueError unless the k_last = 0 plane of both arrays is
    conjugate-symmetric over the other axes (in 1D: c(0) is real), to
    1e-10 of the array's largest |c(k)|.

    That plane is its own conjugate partner, so it is the one constraint a
    half spectrum must meet to be the spectrum of a real field.  It is the
    precondition of every step and of the real inverse transform.  A
    non-finite state passes; the stepping reports it.
    """
    for arr in (state.u_hat, state.v_hat):
        plane = arr[..., 0]
        mirror = plane
        for ax in range(plane.ndim):
            # slot i to slot (-i) mod 2m, i.e. frequency k to -k
            mirror = np.roll(np.flip(mirror, ax), 1, ax)
        with np.errstate(invalid="ignore"):
            resid = np.abs(plane - np.conj(mirror)).max() / max(np.abs(arr).max(), 1e-300)
        if resid > 1e-10:
            raise ValueError(f"state is not Hermitian: anti-Hermitian residue {resid:.3e}")


def state_from_fields(u: np.ndarray, v: np.ndarray) -> SpectralState:
    """Transform sampled real fields into a state, zeroing Nyquist slots."""
    u_hat = forward(u)
    if u_hat.ndim not in DIMS or np.shape(v) != np.shape(u):
        raise ValueError(f"fields must be matching arrays of a rank in {DIMS}, got "
                         f"{np.shape(u)} and {np.shape(v)}")
    band = u_hat.shape[-1] - 1
    return SpectralState(*(_keep_shells(a, a.ndim, 0, band) for a in (u_hat, forward(v))))


def state_to_fields(state: SpectralState) -> tuple[np.ndarray, np.ndarray]:
    """Real-space samples of (u, v); raises if the state is not Hermitian."""
    check_hermitian(state)
    return inverse(state.u_hat), inverse(state.v_hat)


def collocation_nodes(band: int) -> np.ndarray:
    """Nodes j / (2*band) along one axis."""
    return np.arange(2 * band) / (2.0 * band)


# ---------------------------------------------------------------------------
# norms


def _slot_multiplicity(band: int, lo: int, hi: int) -> np.ndarray:
    """The modes that the last-axis slots k_last = lo..hi-1 of a band-m half
    spectrum stand for: 1 at k_last = 0 and at the unpaired k_last = m, 2
    between (the slot holds k and its partner -k)."""
    k = np.arange(lo, hi)
    return np.where((k == 0) | (k == band), 1.0, 2.0)


def _norm_weights(dim: int, band: int, gamma: float):
    """The u and v slot weights on the half spectrum, each carrying the
    multiplicity of its slot (``_slot_multiplicity``)."""
    base = 1.0 + lambda_sq(dim, band)
    mult = _slot_multiplicity(band, 0, band + 1)
    return base ** gamma * mult, base ** (gamma - 1.0) * mult


def _weighted_norm_sq(u, v, wu, wv):
    """sum(wu*|u|^2 + wv*|v|^2) over the trailing axes of the weights: a
    scalar for one state, one entry per row for a block of states."""
    axes = tuple(range(-wu.ndim, 0))
    acc = np.sum(wu * (u.real * u.real + u.imag * u.imag), axis=axes)
    acc += np.sum(wv * (v.real * v.real + v.imag * v.imag), axis=axes)
    return acc


def sobolev_norm(state: SpectralState, gamma: float) -> float:
    """Bessel-potential pair norm: the u slot weighted by (1+lambda^2)^gamma,
    the v slot by (1+lambda^2)^(gamma-1).  gamma = 0 is the L2 x H^-1 error
    norm used throughout the convergence studies.
    """
    wu, wv = _norm_weights(state.dim, state.band, gamma)
    return float(np.sqrt(_weighted_norm_sq(state.u_hat, state.v_hat, wu, wv)))


# ---------------------------------------------------------------------------
# nonlinearity application


def pseudospectral_apply(scalar_fn, half: np.ndarray, cut: int, dim: int | None = None,
                         out: np.ndarray | None = None,
                         samples: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a scalar function on the collocation grid, truncated to ``cut``.

    Realises trigonometric interpolation of scalar_fn(u) on half spectra:
    real inverse transform, pointwise map, real forward transform, sharp
    truncation, over the trailing ``dim`` axes (all of them by default); a
    leading axis indexes the fields of a block, each transformed alone.
    ``scalar_fn`` takes the samples and returns its image as an array.
    With ``out`` (complex, of ``half``'s shape) the truncated image is
    written there and returned, and the inverse transform's first axes pass
    through it; with ``samples`` (real, of the samples' shape) the inverse
    transform is written there.  Neither is read.
    Finiteness is not checked: non-finite samples give a non-finite image
    of their own field.
    """
    half = np.asarray(half)
    dim = half.ndim if dim is None else dim
    band = half.shape[-1] - 1
    if not 0 <= cut <= band:
        raise ValueError(f"cut {cut} outside [0, {band}], the stored band's range")
    samples = inverse(half, dim, out=samples, work=out)
    # the image lives only through the forward transform
    out = forward(np.asarray(scalar_fn(samples), dtype=np.float64), dim, out=out)
    # |k_j| <= cut, and never the unpaired slots
    return _keep_shells(out, dim, 0, min(cut + 1, band))


# ---------------------------------------------------------------------------
# band changes


def with_band(state: SpectralState, band: int, dim: int | None = None) -> SpectralState:
    """Re-store a state at another band (pad or truncate).

    Re-stores the trailing ``dim`` axes, all of them by default; a leading
    axis indexes the states of a block, and each is re-stored alone.  With
    m = min(old, new), the last axis keeps its slots [0, m]; along each
    other axis the modes [0, m-1] keep their slots and the modes [-m, -1]
    move to the end.  Every other slot is zero.
    """
    old = state.band
    if band == old:
        return state
    dim = state.dim if dim is None else dim
    shape = state.u_hat.shape[:state.u_hat.ndim - dim] + half_shape(dim, band)
    out = _copy_band(state, SpectralState(np.zeros(shape, state.u_hat.dtype),
                                          np.zeros(shape, state.v_hat.dtype)), dim)
    if band < old:
        # content at |k_j| = band landed on the unpaired slot; drop it
        for a in (out.u_hat, out.v_hat):
            _keep_shells(a, dim, 0, band)
    return out


def _copy_band(state: SpectralState, out: SpectralState, dim: int) -> SpectralState:
    """Copy into the pair ``out``, and return it, the slots of ``state`` that ``with_band`` keeps."""
    old, band = state.band, out.band
    m = min(old, band)
    axis = ((slice(0, m), slice(0, m)),
            (slice(2 * old - m, 2 * old), slice(2 * band - m, 2 * band)))
    for b in itertools.product(axis, repeat=dim - 1):
        src, dst = zip(*b, (slice(0, m + 1),) * 2)
        out.u_hat[(..., *dst)] = state.u_hat[(..., *src)]
        out.v_hat[(..., *dst)] = state.v_hat[(..., *src)]
    return out


# ---------------------------------------------------------------------------
# SWV1 snapshot format

_MAGIC = b"SWV1"


def save_snapshot(path, state: SpectralState, time: float) -> tuple[np.ndarray, np.ndarray]:
    """Write the real-space fields: magic 'SWV1', little-endian u32 dim,
    u32 points per dimension, f64 time, then points^dim f64 samples of u
    followed by the samples of v (C order).  Returns the (u, v) samples.
    Each field is written from its own buffer, copied only if need be.
    """
    u, v = state_to_fields(state)
    points = u.shape[0]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IId", state.dim, points, float(time)))
        fh.write(np.ascontiguousarray(u, "<f8"))
        fh.write(np.ascontiguousarray(v, "<f8"))
    return u, v


def load_snapshot(path) -> tuple[int, int, float, np.ndarray, np.ndarray]:
    """Read a snapshot; returns (dim, points per dimension, time, u, v)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        dim, points, time = struct.unpack("<IId", fh.read(16))
        count = points ** dim
        u = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape((points,) * dim)
        v = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape((points,) * dim)
    return dim, points, time, u.copy(), v.copy()
