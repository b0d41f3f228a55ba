"""Over-dispersed sampling with Stein-kernel post-processing.

Build a Stein kernel over a differentiable target, sample the tilted
density p(x) sqrt(k_P(x)) with adaptive preconditioned MALA, then
post-process the states by optimal simplex reweighting or greedy thinning
and evaluate the result with kernel discrepancies and exact 1-Wasserstein
distances.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySummary,
    GramTooLarge,
    InsufficientReplicates,
    InvalidSimplex,
    NegativeQuadraticForm,
    NoExactSampler,
    NonConvergence,
    NotPositiveDefinite,
    SizeGuard,
    SteinpiError,
)
from .grid import GridSampler
from .kernels import (
    AssumptionReport,
    KGMKernel,
    LangevinKernel,
    check_theorem_assumptions,
    make_kernel,
)
from .mala import AdaptSchedule, ChainConfig, ChainOutput, adaptive_warmup, random_window, run_chain
from .metrics import TransportPlan, dimension_effect, wasserstein1, wasserstein1_1d, wasserstein1_exact
from .pi_targets import C2Estimate, PiTarget, PowerTilt, estimate_c2, make_pi, make_power_tilt
from .quantise import (
    QPResult,
    WeightedSample,
    greedy_thin,
    ksd,
    optimal_weights,
    uniform_sample,
)
from .targets import (
    ModeInfo,
    TargetModel,
    default_mixture,
    find_mode,
    make_garch_posterior,
    make_gaussian,
    make_gaussian_mixture,
    make_regression_posterior,
    make_skew_normal_2d,
    simulate_garch_series,
    simulated_regression_data,
)

__version__ = "0.1.0"
