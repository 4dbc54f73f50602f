"""Nonlinearity catalogue and initial-data constructors.

The built-in nonlinearities all have uniformly bounded first, second and
third derivatives, the standing assumption behind the solvers' stability.
Initial data comes in four flavours: two discontinuous plateau profiles
(one per dimension), randomised Sobolev-class data of prescribed smoothness
gamma, and explicit spectra (e.g. loaded from an SWV1 snapshot).

Random data places, on each mode with 1 <= |k| <= min(n_cut, n_high - 1),
a real coefficient shared between +k and -k:

    u slot:  0.5 * rand(0,1) * |k|^(-gamma - 0.51)
    v slot:  0.5 * rand(0,1) * |k|^(-gamma + 0.49)

(in 2D the analogous tensor product over the two axis indices, both
nonzero).  The exponents put the pair exactly in the gamma / gamma-1
smoothness class and no better.  The k = 0 coefficient is left at zero:
the power law is undefined there and any bounded choice lands in the same
class, so zero keeps comparisons across gamma clean.

The stepped storage holds |k| <= n_cut - 1, so with alpha = 1 the data lies
inside it, while with alpha > 1 each axis also gets the one mode at
|k| = n_cut, just outside it.  The same preset therefore gives different
initial data for alpha = 1 and alpha > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import standard_uniforms
from .spectral import (
    SpectralGrid,
    SpectralState,
    collocation_nodes,
    mode_indices,
    state_from_fields,
)

# stream ids for initial-data draws, outside the Monte Carlo sample range;
# one stream per coefficient profile so widening the band extends a profile
# without shifting the others
_DATA_STREAMS = (2**64 - 1, 2**64 - 2, 2**64 - 3, 2**64 - 4)


# ---------------------------------------------------------------------------
# nonlinearities


@dataclass(frozen=True)
class NonlinearitySpec:
    """A bounded-derivative scalar map applied pointwise to the u field."""

    kind: str
    a: float = 0.0
    b: float = 1.0
    table_x: np.ndarray | None = None
    table_y: np.ndarray | None = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "constant":
            return np.full_like(u, self.a)
        if self.kind == "scaled_sine":
            return self.a * np.sin(self.b * u)
        if self.kind == "scaled_cosine":
            return self.a * np.cos(self.b * u)
        if self.kind == "bounded_tabulated":
            return np.interp(u, self.table_x, self.table_y)
        raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def derivative_bound(self) -> float:
        """A constant dominating |g'| everywhere."""
        if self.kind in ("zero", "constant"):
            return 0.0
        if self.kind in ("scaled_sine", "scaled_cosine"):
            return abs(self.a * self.b)
        if self.kind == "bounded_tabulated":
            dx = np.diff(self.table_x)
            dy = np.diff(self.table_y)
            return float(np.max(np.abs(dy / dx)))
        raise ValueError(f"unknown nonlinearity kind {self.kind!r}")


def zero_fn() -> NonlinearitySpec:
    return NonlinearitySpec(kind="zero")


def constant_fn(c: float) -> NonlinearitySpec:
    return NonlinearitySpec(kind="constant", a=float(c))


def scaled_sine(a: float, b: float = 1.0) -> NonlinearitySpec:
    return NonlinearitySpec(kind="scaled_sine", a=float(a), b=float(b))


def scaled_cosine(a: float, b: float = 1.0) -> NonlinearitySpec:
    return NonlinearitySpec(kind="scaled_cosine", a=float(a), b=float(b))


def bounded_tabulated(xs, ys) -> NonlinearitySpec:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("tabulated nonlinearity needs matching 1-d sample arrays")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("tabulated abscissae must be strictly increasing")
    xs.setflags(write=False)
    ys.setflags(write=False)
    return NonlinearitySpec(kind="bounded_tabulated", table_x=xs, table_y=ys)


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


def build_indicator_1d(grid: SpectralGrid) -> SpectralState:
    """Two plateaus, 5 on [0.3, 0.425] and 2.5 on [0.575, 0.7], v = 0.

    The plateaus are sampled pointwise at the collocation nodes (closed
    intervals) and forward-transformed, i.e. the state is the trigonometric
    interpolant of the discontinuous profile.
    """
    if grid.dim != 1:
        raise ValueError("indicator_1d requires a 1-d grid")
    x = collocation_nodes(grid.n_high)
    u = np.zeros_like(x)
    u[(x >= 0.3) & (x <= 0.425)] = 5.0
    u[(x >= 0.575) & (x <= 0.7)] = 2.5
    return state_from_fields(u, np.zeros_like(u))


def build_indicator_2d(grid: SpectralGrid) -> SpectralState:
    """Single plateau, 0.5 on the square [0.375, 0.625]^2, v = 0."""
    if grid.dim != 2:
        raise ValueError("indicator_2d requires a 2-d grid")
    x = collocation_nodes(grid.n_high)
    inside = (x >= 0.375) & (x <= 0.625)
    u = 0.5 * np.outer(inside, inside).astype(np.float64)
    return state_from_fields(u, np.zeros_like(u))


def _axis_profile(kmax: int, gamma: float, ru: np.ndarray, rv: np.ndarray):
    k = np.arange(1, kmax + 1, dtype=np.float64)
    return 0.5 * ru * k ** (-gamma - 0.51), 0.5 * rv * k ** (-gamma + 0.49)


def _spread(band: int, kmax: int, profile: np.ndarray) -> np.ndarray:
    """Place profile[|k|-1] on every slot with 1 <= |k| <= kmax."""
    idx = mode_indices(band)
    absk = np.abs(idx)
    sel = (absk >= 1) & (absk <= kmax)
    out = np.zeros(2 * band)
    out[sel] = profile[absk[sel] - 1]
    return out


def build_random_hgamma(grid: SpectralGrid, gamma: float, seed: int) -> SpectralState:
    """Random real pair lying in the gamma / gamma-1 class and no higher.

    Each coefficient profile (u, v, and in 2D the second-axis pair) reads
    k = 1..kmax uniforms from its own dedicated stream, so building on a
    wider grid extends the same function.  One draw per |k| is shared
    between +k and -k, making the spectra even and the fields real.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    band = grid.n_high
    kmax = min(grid.n_cut, grid.n_high - 1)
    draw = [standard_uniforms(seed, stream, kmax) for stream in _DATA_STREAMS]
    au, av = _axis_profile(kmax, gamma, draw[0], draw[1])
    if grid.dim == 1:
        u_hat = _spread(band, kmax, au).astype(np.complex128)
        v_hat = _spread(band, kmax, av).astype(np.complex128)
    else:
        bu, bv = _axis_profile(kmax, gamma, draw[2], draw[3])
        u_hat = np.outer(_spread(band, kmax, au),
                         _spread(band, kmax, bu)).astype(np.complex128)
        v_hat = np.outer(_spread(band, kmax, av),
                         _spread(band, kmax, bv)).astype(np.complex128)
    return SpectralState(u_hat, v_hat)


def build_initial(spec: InitialDataSpec, grid: SpectralGrid) -> SpectralState:
    if spec.kind == "indicator_1d":
        return build_indicator_1d(grid)
    if spec.kind == "indicator_2d":
        return build_indicator_2d(grid)
    if spec.kind == "random_hgamma":
        return build_random_hgamma(grid, spec.gamma, spec.seed)
    if spec.kind == "explicit":
        if spec.state is None:
            raise ValueError("explicit initial data needs a state")
        return spec.state
    raise ValueError(f"unknown initial data kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# presets matching the four benchmark problems


def preset_problem(preset: int, gamma: float = 0.5, seed: int = 0) -> tuple[int, float, ProblemSpec]:
    """(dim, default_alpha, ProblemSpec) for benchmark presets 1..4."""
    sigma = scaled_sine(16.0)
    f = zero_fn()
    if preset == 1:
        return 1, 2.0, ProblemSpec(f, sigma, InitialDataSpec("indicator_1d"))
    if preset == 2:
        return 1, 2.0, ProblemSpec(f, sigma, InitialDataSpec("random_hgamma", gamma=gamma, seed=seed))
    if preset == 3:
        return 2, 1.5, ProblemSpec(f, sigma, InitialDataSpec("indicator_2d"))
    if preset == 4:
        return 2, 1.5, ProblemSpec(f, sigma, InitialDataSpec("random_hgamma", gamma=gamma, seed=seed))
    raise ValueError(f"unknown preset {preset}")
