"""Nonlinearity catalogue and initial-data constructors.

The built-in nonlinearities all have uniformly bounded first, second and
third derivatives, the standing assumption behind the solvers' stability.
Initial data comes in four flavours: two discontinuous plateau profiles
(one per dimension, rows of the table ``_PLATEAUS``: u is a height on a
closed box [lo, hi]^dim, sampled at the collocation nodes, and v is 0),
randomised Sobolev-class data of prescribed smoothness gamma, and explicit
spectra (e.g. an SWV1 snapshot read by ``spectral.load_snapshot`` and
turned into a state by ``spectral.state_from_fields``).

Random data is a tensor product over the axes.  Axis j carries, on each
slot with 1 <= |k_j| <= kmax = min(n_cut, n_high - 1), a real coefficient
that depends on |k_j| alone:

    u profile:  0.5 * ru_j[|k_j| - 1] * |k_j|^(-gamma - 0.51)
    v profile:  0.5 * rv_j[|k_j| - 1] * |k_j|^(-gamma + 0.49)

where ru_j and rv_j are the (seed-keyed) uniforms of the streams
_DATA_STREAMS[2j] and _DATA_STREAMS[2j + 1].  The u (v) coefficient of mode
k = (k_1, ..., k_dim) is the product over j of the u (v) profiles at k_j,
so it is zero unless every k_j is nonzero.  The profiles are the data's
factor form (``initial_factors``, an ``AxisFactors``), each on the slots
|k| = 0..kmax of one axis; its state at a band (a half spectrum, see
``spectral``) takes the last axis's profile as it is and mirrors every
other axis's into its full layout.  The plateaus have one too: in 1D the
interpolant's half spectrum is the one profile, and in 2D every axis has
the even indicator's, the last carrying the height.
In 1D the exponents put u exactly in H^gamma and v exactly in H^(gamma-1),
and no better.  In 2D that holds for u, but v lies only in H^(2(gamma-1)):
for s = gamma - 1 < 0 a product of 1D H^s profiles is in H^(2s) of the
torus and not in H^s (ROADMAP item 1).  The k = 0 coefficient is left at
zero: the power law is undefined there and any bounded choice lands in the
same class, so zero keeps comparisons across gamma clean.

The stepped storage holds |k| <= n_cut - 1, so with alpha = 1 the data lies
inside it, while with alpha > 1 each axis also gets the one mode at
|k| = n_cut, just outside it.  The same preset therefore gives different
initial data for alpha = 1 and alpha > 1.

``check_initial`` is the one rule of which initial data fits a dimension
(``initial_dims``: a kind's ``INITIAL_DIMS``, or an explicit state's own
rank; an explicit state must be a Hermitian pair of complex half spectra
of one shape, zero on its unpaired slots) and of which gamma random data
takes (finite and positive).
``build_initial``, the one entry point of every kind, applies it once to
the grid, and ``experiments.resolve_config`` to the config's problem
before anything is built; it hands out every kind at the grid's full band
n_high, a preset kind as its factors' state, an explicit state re-stored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .noise import standard_uniforms
from .spectral import (
    DIMS,
    SpectralGrid,
    SpectralState,
    _first_axes_modes,
    _keep_shells,
    check_hermitian,
    collocation_nodes,
    default_alpha,
    forward,
    half_shape,
    with_band,
)

# stream ids for initial-data draws, outside the Monte Carlo sample range;
# one stream per coefficient profile so widening the band extends a profile
# without shifting the others
_DATA_STREAMS = tuple(2**64 - 1 - i for i in range(2 * max(DIMS)))


# ---------------------------------------------------------------------------
# nonlinearities


@dataclass(frozen=True)
class NonlinearitySpec:
    """A bounded-derivative scalar map applied pointwise to the u field."""

    kind: str
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "scaled_sine", "scaled_cosine"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """a * sin(b * u) (or cos) in one fresh array, ``u`` never written; b = 1
        takes no product, as u * 1.0 is u bit for bit, NaN and -0 included."""
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "constant":
            return np.full_like(u, self.a)
        t = np.empty(np.shape(u))
        trig = np.sin if self.kind == "scaled_sine" else np.cos
        trig(u if self.b == 1.0 else np.multiply(u, self.b, out=t), out=t)
        t *= self.a
        return t

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


def zero_fn() -> NonlinearitySpec:
    return NonlinearitySpec(kind="zero")


def constant_fn(c: float) -> NonlinearitySpec:
    return NonlinearitySpec(kind="constant", a=float(c))


def scaled_sine(a: float, b: float = 1.0) -> NonlinearitySpec:
    return NonlinearitySpec(kind="scaled_sine", a=float(a), b=float(b))


def scaled_cosine(a: float, b: float = 1.0) -> NonlinearitySpec:
    return NonlinearitySpec(kind="scaled_cosine", a=float(a), b=float(b))


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str
    gamma: float = 0.5
    seed: int = 0
    state: SpectralState | None = None


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the integrators need besides the grid and the path."""

    f: NonlinearitySpec
    sigma: NonlinearitySpec
    initial: InitialDataSpec


# initial data kind -> the dimensions it fits; an explicit state fits its
# own rank
INITIAL_DIMS = {"indicator_1d": (1,), "indicator_2d": (2,), "random_hgamma": DIMS}


def initial_dims(spec: InitialDataSpec) -> tuple[int, ...]:
    """The dimensions that ``spec``'s data fits, lowest first: its kind's
    (``INITIAL_DIMS``), or an explicit state's rank.  ValueError for an
    explicit kind without a state and for an unknown kind."""
    if spec.kind == "explicit":
        if spec.state is None:
            raise ValueError("explicit initial data needs a state")
        return (spec.state.dim,)
    if spec.kind not in INITIAL_DIMS:
        raise ValueError(f"unknown initial data kind {spec.kind!r}")
    return INITIAL_DIMS[spec.kind]


def check_initial(spec: InitialDataSpec, dim: int) -> None:
    """Refuse, with ValueError, initial data that does not fit dimension
    ``dim``: a kind of other dimensions, an explicit state of another rank
    or none, an explicit state that is not a Hermitian pair of complex half
    spectra of one shape ``half_shape(dim, m)``, zero on the unpaired slots
    (|k_j| = m on any axis) as every state is, random data whose gamma is
    not finite and positive, or an unknown kind."""
    fits = initial_dims(spec)
    if dim not in fits:
        raise ValueError(f"{spec.kind} initial data is {'/'.join(map(str, fits))}-dimensional, "
                         f"not {dim}")
    if spec.kind == "random_hgamma" and not (np.isfinite(spec.gamma) and spec.gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {spec.gamma}")
    if spec.kind == "explicit":
        u, v = spec.state.u_hat, spec.state.v_hat
        m = u.shape[-1] - 1
        if m < 0 or not u.shape == v.shape == half_shape(dim, m):
            raise ValueError(f"explicit initial data is not a half-spectrum pair: shapes "
                             f"{u.shape} and {v.shape}")
        if not (np.iscomplexobj(u) and np.iscomplexobj(v)):
            raise ValueError(f"explicit initial data must be complex, got {u.dtype} and {v.dtype}")
        check_hermitian(spec.state)
        # the unpaired slots are the shell max_j |k_j| = m
        held = np.argwhere(_keep_shells((u != 0) | (v != 0), dim, m, m + 1))
        if held.size:
            raise ValueError(f"explicit initial data is nonzero on the unpaired slot "
                             f"{held[0].tolist()} (|k_j| = {m})")


# plateau kind -> ((height, lo, hi), ...): u is height on [lo, hi]^dim; a
# 2D kind has one row, a product of one indicator per axis
_PLATEAUS = {"indicator_1d": ((5.0, 0.3, 0.425), (2.5, 0.575, 0.7)),
             "indicator_2d": ((0.5, 0.375, 0.625),)}


def _slots(p: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Slots lo..hi-1 of the profile ``p``, zero past its end."""
    p = p[lo:hi]
    return np.pad(p, (0, hi - lo - p.size))


@dataclass(frozen=True)
class AxisFactors:
    """Initial data that is a product over the axes, kept as its factors:
    the u coefficient of each mode k of the box of ``band`` is the product
    over the axes j of ``u[j][|k_j|]``, and v's likewise.  A profile is zero
    past its end, its slot ``band`` stands for the axis's unpaired slot, and
    on a first axis it is real, standing for +k_j and -k_j alike."""

    band: int
    u: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    def state(self, band: int) -> SpectralState:
        """The pair stored at ``band``, as ``spectral.with_band`` would
        re-store it from the factors' own band: the modes with every
        |k_j| < min(band, self.band), each first axis read at the |k| of
        its full layout's slots (``spectral._first_axes_modes``)."""
        keep = min(band, self.band)

        def field(profiles) -> np.ndarray:
            slots = [_slots(p[:keep], 0, band + 1) for p in profiles]
            first = [s[k] for s, k in zip(slots, _first_axes_modes(len(profiles), band))]
            # + 0j stores complex, every zero as +0, as with_band zeroes
            return functools.reduce(np.multiply.outer, first + slots[-1:]) + 0j

        return SpectralState(field(self.u), field(self.v))


def _plateau_factors(kind: str, grid: SpectralGrid) -> AxisFactors:
    """The plateaus of ``kind`` sampled at the collocation nodes (closed
    intervals), v = 0, as factors at the grid's full band: each profile is
    the interpolant's half spectrum of one axis without its unpaired slot,
    the last carrying the heights, a first one the indicator, even, so real."""
    x = collocation_nodes(grid.n_high)
    rows = _PLATEAUS[kind]

    def profile(heights) -> np.ndarray:
        samples = np.zeros(x.size)
        for height, (_, lo, hi) in zip(heights, rows):
            samples[(x >= lo) & (x <= hi)] = height
        return forward(samples)[:grid.n_high]

    first = [profile([1.0] * len(rows)).real.copy() for _ in range(grid.dim - 1)]
    return AxisFactors(grid.n_high, (*first, profile([h for h, *_ in rows])),
                       (np.zeros(0),) * grid.dim)


def build_random_hgamma(grid: SpectralGrid, gamma: float, seed: int) -> SpectralState:
    """Random real pair of smoothness gamma (see the module docstring for
    the class it lies in) at the grid's full band: one uniform per |k_j|,
    shared by +k_j and -k_j, so the spectra are even and real."""
    spec = InitialDataSpec("random_hgamma", gamma=gamma, seed=seed)
    return initial_factors(spec, grid).state(grid.n_high)


def initial_factors(spec: InitialDataSpec, grid: SpectralGrid) -> AxisFactors:
    """The per-axis factors of a preset kind's data on the grid's full band,
    once ``check_initial`` finds that it fits the grid: the plateaus'
    (``_plateau_factors``), or random data's, axis j's u (v) profile on
    |k| = 0..kmax from stream 2j (2j + 1), one draw per |k| >= 1, so a wider
    grid extends the same function.  ValueError for an explicit state."""
    check_initial(spec, grid.dim)
    if spec.kind in _PLATEAUS:
        return _plateau_factors(spec.kind, grid)
    if spec.kind != "random_hgamma":
        raise ValueError(f"{spec.kind} initial data has no factor form")
    kmax = min(grid.n_cut, grid.n_high - 1)
    k = np.arange(1, kmax + 1, dtype=np.float64)

    def profiles(slot: int, exponent: float) -> tuple[np.ndarray, ...]:
        return tuple(np.r_[0.0, 0.5 * standard_uniforms(spec.seed, _DATA_STREAMS[2 * j + slot],
                                                         kmax) * k ** exponent]
                     for j in range(grid.dim))

    return AxisFactors(grid.n_high, profiles(0, -spec.gamma - 0.51),
                       profiles(1, -spec.gamma + 0.49))


def build_initial(spec: InitialDataSpec, grid: SpectralGrid) -> SpectralState:
    """The initial state of ``spec`` at the grid's full band n_high, once
    ``check_initial`` finds that it fits the grid: a preset kind's factors
    stored there, or an explicit state re-stored there."""
    if spec.kind != "explicit":
        return initial_factors(spec, grid).state(grid.n_high)
    check_initial(spec, grid.dim)
    return with_band(spec.state, grid.n_high)


# ---------------------------------------------------------------------------
# presets matching the four benchmark problems

# preset -> (dim, initial data kind)
PRESETS = {1: (1, "indicator_1d"), 2: (1, "random_hgamma"),
           3: (2, "indicator_2d"), 4: (2, "random_hgamma")}


def preset_problem(preset: int, gamma: float = 0.5, seed: int = 0) -> tuple[int, float, ProblemSpec]:
    """(dim, default_alpha, ProblemSpec) for the benchmark presets."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset}")
    dim, kind = PRESETS[preset]
    initial = InitialDataSpec(kind, gamma=gamma, seed=seed)
    return dim, default_alpha(dim), ProblemSpec(zero_fn(), scaled_sine(16.0), initial)
