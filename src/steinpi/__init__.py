"""Over-dispersed sampling with Stein-kernel post-processing.

Build a Stein kernel over a differentiable target, sample the tilted
density p(x) sqrt(k_P(x)) with adaptive preconditioned MALA, then
post-process the states by optimal simplex reweighting or greedy thinning
and evaluate the result with kernel discrepancies and exact 1-Wasserstein
distances.

Importing steinpi pins OpenBLAS, OpenMP and MKL to one thread, unless the
variable is already set, so that outputs do not depend on the thread
count.  The pin takes effect only if numpy has not been imported yet.
"""

import os

# read once, when numpy loads its BLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySummary,
    GramTooLarge,
    InsufficientReplicates,
    InvalidSimplex,
    NegativeQuadraticForm,
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
from .metrics import wasserstein1, wasserstein1_1d, wasserstein1_exact
from .pi_targets import PiTarget, PowerTilt, make_pi, make_power_tilt
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
