"""Scalar Brownian increments on a shared base lattice with exact coarsening.

Every method and every step size in a study consumes the same underlying
path: the lattice stores i.i.d. N(0, base_dt) increments at the finest
resolution, and a coarse increment over r base cells is defined as the
ascending-order (left-to-right) float sum of those cells.  That definition
is the coupling contract; it is bit-reproducible and independent of how
many workers consume the path.

Generation is counter-based so samples parallelise with zero coordination:
the Philox4x64 stream keyed by (seed, sample_index) yields 64-bit words
w_0, w_1, ...; word i becomes the uniform ((w_i >> 11) + 0.5) * 2^-53 in
(0, 1), and the uniform becomes a standard normal through the inverse
normal CDF (scipy.special.ndtri).  No rejection sampling, so normal i is a
pure function of (seed, sample_index, i).

The lattice itself is the dyadic (Levy) refinement of one Brownian path,
which is why t_final / base_dt must be a power of two: the stream's first
normal fixes the total increment W(t_final) ~ N(0, t_final); level l then
splits each of its 2^l cells p into the pair p/2 + xi, p/2 - xi with fresh
refinement normals xi ~ N(0, width/4).  The split is the exact conditional
law, so the cells of every depth are i.i.d. N(0, base_dt) marginally while
lattices of different depths (e.g. a study rerun with a finer reference
step) sample nested refinements of the same path.

Every count of the steps of a span or the cells of a lattice, here, in the
integrators and in the config checks, is ``step_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_U53 = 2.0 ** -53

# bytes per base cell that bound what sample_path holds at its peak: the
# normal stream (8) and the last level's parents (4) and children (8), every
# step in place, plus a few array headers
PEAK_BYTES_PER_CELL = 24


@dataclass(frozen=True)
class WienerLattice:
    """One sampled path at the base resolution; immutable after creation."""

    t_final: float
    base_dt: float
    increments: np.ndarray
    seed: int
    sample_index: int

    @property
    def n_base(self) -> int:
        return self.increments.shape[0]


def step_count(span: float, step: float) -> int:
    """The steps ``step`` in ``span``: the whole n >= 0 within 1e-9 of span /
    step, for a finite positive step (ValueError otherwise)."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step {step} is not finite and positive")
    r = span / step
    n = round(r) if math.isfinite(r) else -1
    if n < 0 or abs(r - n) > 1e-9:
        raise ValueError(f"{span} is not a whole number of steps {step}")
    return n


def standard_uniforms(seed: int, sample_index: int, count: int) -> np.ndarray:
    """Counter-based uniforms in the open interval (0, 1)."""
    bitgen = np.random.Philox(key=np.array([seed, sample_index], dtype=np.uint64))
    words = bitgen.random_raw(count)
    words >>= np.uint64(11)
    out = words.astype(np.float64)
    out += 0.5
    out *= _U53
    return out


def standard_normals(seed: int, sample_index: int, count: int) -> np.ndarray:
    """The deterministic normal stream underlying the lattice."""
    uniforms = standard_uniforms(seed, sample_index, count)
    return ndtri(uniforms, out=uniforms)


def sample_path(seed: int, sample_index: int, t_final: float,
                base_dt: float) -> WienerLattice:
    """Draw the full base-resolution path for one Monte Carlo sample."""
    n = step_count(t_final, base_dt)
    if n < 1 or n & (n - 1):
        raise ValueError(f"t_final/base_dt must be a power of two, got {n}")
    depth = n.bit_length() - 1
    normals = standard_normals(seed, sample_index, n)
    cells = np.array([normals[0] * math.sqrt(t_final)])
    pos = 1
    for level in range(depth):
        m = 1 << level
        xi = normals[pos:pos + m]
        xi *= math.sqrt(t_final / (1 << (level + 2)))
        pos += m
        cells *= 0.5
        children = np.empty(2 * m)
        np.add(cells, xi, out=children[0::2])
        np.subtract(cells, xi, out=children[1::2])
        cells = children
    cells.setflags(write=False)
    return WienerLattice(t_final=float(t_final), base_dt=float(base_dt),
                         increments=cells, seed=int(seed),
                         sample_index=int(sample_index))


def coarsen(lattice: WienerLattice, step_dt: float) -> np.ndarray:
    """All increments at resolution step_dt, each an ascending base sum.

    The accumulation loops over the offset within a group, so every group
    total is built strictly left to right; the result is bit-identical to a
    scalar running sum over each group.
    """
    n_coarse = step_count(lattice.t_final, step_dt)
    if n_coarse < 1 or lattice.n_base % n_coarse:
        raise ValueError(f"step {step_dt} does not tile {lattice.n_base} base cells")
    r = lattice.n_base // n_coarse
    if r == 1:
        return lattice.increments.copy()
    acc = np.zeros(n_coarse, dtype=np.float64)
    for j in range(r):
        acc += lattice.increments[j::r]
    return acc

