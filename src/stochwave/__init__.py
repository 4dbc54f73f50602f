"""Pseudospectral solvers for the periodic stochastic nonlinear wave
equation with multiplicative scalar noise, plus a coupled-path Monte Carlo
harness for strong-convergence measurements."""

from .spectral import (
    SpectralGrid,
    SpectralState,
    forward,
    inverse,
    load_snapshot,
    make_grid,
    pseudospectral_apply,
    save_snapshot,
    sobolev_norm,
    state_from_fields,
    state_to_fields,
    with_band,
)
from .noise import (
    WienerLattice,
    coarsen,
    sample_path,
)
from .problems import (
    InitialDataSpec,
    NonlinearitySpec,
    ProblemSpec,
    build_initial,
    build_random_hgamma,
    constant_fn,
    preset_problem,
    scaled_cosine,
    scaled_sine,
    zero_fn,
)
from .integrators import (
    BlockResult,
    MethodSpec,
    NumericalError,
    method_spec,
    recover_high,
    run,
    run_block,
)
from .experiments import (
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    LevelRow,
    NumericalFailure,
    emit_csv,
    estimate_order,
    run_convergence,
    run_single,
)

__version__ = "0.1.0"
