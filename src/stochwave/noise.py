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
(0, 1) (held at 1 - 2^-53 for the 2^11 top words, which round to 1), and
the uniform becomes a standard normal through the inverse normal CDF.  No
rejection sampling, so normal i is a pure function of (seed, sample_index,
i).

The inverse CDF is a numpy port of Cephes ``ndtri``: the same branches,
coefficients and Horner order, each step one rounded float64 operation, so
the normals are bit-equal to ``scipy.special.ndtri`` (checked over 5.2M
stream values and every branch edge on an AVX-512 host).  Its two logs go
through ``math.log``, the platform libm call that compiled Cephes makes:
numpy picks its float64 log by CPU, and on that host ``np.log`` differs
from libm by one ulp on 287 of the 5.2M values.

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
from numpy.random import Philox

_U53 = 2.0 ** -53

# Cephes ndtri: exp(-2), sqrt(2 pi) and the rational approximations of the
# middle (P0/Q0), the tail with x < 8 (P1/Q1) and the far tail (P2/Q2); each
# Q carries its implicit leading 1 (Cephes' p1evl) in front
_EXPM2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242E0
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# the inverse CDF runs over slices of this many uniforms, so its temporaries
# stay a fixed size whatever the lattice
_NDTRI_CHUNK = 4096

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


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """The uniforms ((w >> 11) + 0.5) * 2^-53 of 64-bit words (shifted in
    place), held below 1: the 2^11 words whose top 53 bits are all ones
    would round to 1.0, and no other word comes within 2^-53 of it."""
    words >>= np.uint64(11)
    out = words.astype(np.float64)
    out += 0.5
    out *= _U53
    np.minimum(out, 1.0 - _U53, out=out)
    return out


def standard_uniforms(seed: int, sample_index: int, count: int) -> np.ndarray:
    """Counter-based uniforms in the open interval (0, 1)."""
    bitgen = Philox(key=np.array([seed, sample_index], dtype=np.uint64))
    return uniforms_from_words(bitgen.random_raw(count))


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Cephes polevl: Horner's rule from coefs[0], one rounding a step."""
    acc = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        acc *= x
        acc += c
    return acc


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise libm log (``math.log``), not numpy's CPU-dispatched one."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.shape[0])


def _ndtri_slice(y: np.ndarray) -> None:
    """Cephes ndtri in place on a 1D slice of values in (0, 1)."""
    upper = y > 1.0 - _EXPM2
    np.subtract(1.0, y, out=y, where=upper)
    middle = y > _EXPM2
    t = y[middle] - 0.5
    t2 = t * t
    y[middle] = (t + t * (t2 * _polevl(t2, _P0) / _polevl(t2, _Q0))) * _S2PI
    tail = ~middle
    x = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / x
    far = x >= 8.0
    x1 = np.empty_like(x)
    for part, p, q in ((~far, _P1, _Q1), (far, _P2, _Q2)):
        x1[part] = z[part] * _polevl(z[part], p) / _polevl(z[part], q)
    x = x - _log(x) / x - x1
    # the lower tail is negated, the mirrored upper tail keeps its sign
    y[tail] = np.where(upper[tail], x, -x)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of a 1D array of values in (0, 1), in place
    and a fixed-size slice at a time; returns ``u``."""
    for start in range(0, u.shape[0], _NDTRI_CHUNK):
        _ndtri_slice(u[start:start + _NDTRI_CHUNK])
    return u


def standard_normals(seed: int, sample_index: int, count: int) -> np.ndarray:
    """The deterministic normal stream underlying the lattice."""
    return _ndtri(standard_uniforms(seed, sample_index, count))


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
    scalar running sum over each group, and at step_dt = base_dt a copy.
    """
    n_coarse = step_count(lattice.t_final, step_dt)
    if n_coarse < 1 or lattice.n_base % n_coarse:
        raise ValueError(f"step {step_dt} does not tile {lattice.n_base} base cells")
    r = lattice.n_base // n_coarse
    acc = np.zeros(n_coarse, dtype=np.float64)
    for j in range(r):
        acc += lattice.increments[j::r]
    return acc

