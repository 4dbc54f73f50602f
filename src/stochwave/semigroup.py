"""Exact per-mode action of the linear wave group and its implicit resolvent.

The first-order system pairs u with its velocity v; on Fourier mode k with
wave number lambda = 2*pi*|k| the generator acts as [[0, 1], [-lambda^2, 0]],
so the group e^(tL) is the rotation-shear

    [[cos(lambda t),           sin(lambda t)/lambda],
     [-lambda sin(lambda t),   cos(lambda t)       ]]

with the lambda = 0 mode degenerating to the shear [[1, t], [0, 1]].  The
resolvent (I - tau L)^(-1) used by the semi-implicit Euler-Maruyama baseline
is the explicit 2x2 inverse with determinant 1 + tau^2 lambda^2.

Every step of every integrator ends in ``apply``: add the step's velocity
increments, then multiply each mode by one of these 2x2 tables.  Tables for
a fixed (dim, band, t) are built once and cached, stored complex; every
integrator reapplies the same e^(tau L) each step.  ``propagator_tables``
itself stays real, for the callers that use it in real arithmetic.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import SpectralState, lambda_sq

def propagator_tables(lam, t):
    """Entry arrays (a11, a12, a21, a22) of the group matrix at the wave
    numbers ``lam`` and the scalar time ``t``; negative t gives the inverse.
    a12 = sin(lam t) / lam is one division, and exactly t at lam = 0."""
    lam = np.asarray(lam, dtype=np.float64)
    c = np.cos(lam * t)
    s_over = np.divide(np.sin(lam * t), lam, out=np.full_like(lam, t), where=lam != 0)
    return c, s_over, -(lam * lam) * s_over, c


def _stored_complex(tables):
    """The tables as read-only complex128 arrays (x + 0j each), one per
    distinct table.  numpy casts a float table to exactly that, in an
    iterator buffer, on every product with a complex block; stored complex,
    the product takes no cast and gives the same bits."""
    stored = {id(a): a.astype(np.complex128) for a in tables}
    for a in stored.values():
        a.setflags(write=False)
    return tuple(stored[id(a)] for a in tables)


@functools.cache
def group_tables(dim: int, band: int, t: float):
    """Cached e^(tL) tables for every mode stored at ``band``, stored
    complex (``_stored_complex``)."""
    return _stored_complex(propagator_tables(np.sqrt(lambda_sq(dim, band)), t))


@functools.cache
def resolvent_tables(dim: int, band: int, tau: float):
    """Cached (I - tau L)^(-1) tables for every mode stored at ``band``,
    stored complex (``_stored_complex``)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    lam2 = lambda_sq(dim, band)
    inv_det = 1.0 / (1.0 + tau * tau * lam2)
    r12 = tau * inv_det
    r21 = -tau * lam2 * inv_det
    return _stored_complex((inv_det, r12, r21, inv_det))


def apply(state: SpectralState, tables, *dv: np.ndarray,
          out: SpectralState | None = None) -> SpectralState:
    """Multiply every mode of (u, v + dv[0] + dv[1] + ...) by its 2x2 table.

    The increments are added to v one at a time, left to right, into w;
    the new pair is (a11 u) + (a12 w) and (a21 u) + (a22 w).  The arrays
    may carry a leading block axis, over which the tables broadcast, and
    may be half spectra (see ``spectral``) when the tables are too.

    With ``out``, a state whose two arrays have the new pair's shape, the
    pair is written there and returned, and w is formed in dv[0], which is
    overwritten, or with no increments is the state's own v, which then
    must have that shape and is overwritten by a12 w; the pass then takes
    no other scratch.  Either way the operands and the order of every sum
    are the same, so are the bits.
    """
    a11, a12, a21, a22 = tables
    u = state.u_hat
    w = state.v_hat
    # a12 w may be written over w: its own sum, or under ``out`` dv[0] or v
    spare = bool(dv) or out is not None
    if dv:
        w = np.add(w, dv[0], out=None if out is None else dv[0])
        for d in dv[1:]:
            w += d
    if out is None:
        shape = np.broadcast_shapes(np.shape(a11), u.shape, w.shape)
        dtype = np.result_type(a11, u, w)
        out = SpectralState(np.empty(shape, dtype), np.empty(shape, dtype))
    new_u, new_v = out.u_hat, out.v_hat
    np.multiply(a22, w, out=new_u)
    np.multiply(a21, u, out=new_v)
    new_v += new_u
    np.multiply(a11, u, out=new_u)
    new_u += np.multiply(a12, w, out=w if spare else None)
    return out
