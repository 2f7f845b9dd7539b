"""Grant-free NOMA uplink toolkit: analysis, optimization and simulation.

Analytical SINR coverage of a MUSA-style grant-free uplink to a hovering
aggregator, finite-blocklength reliability of the short packets, adaptive
selection of the per-frame slot count, and a seeded Monte Carlo link
simulator that serves as the ground truth for the analytics.
"""

from .analytic import (
    CoverageReport,
    QuadratureError,
    SlotStatistics,
    frame_coverage_prob,
    frame_coverage_probs,
    slot_statistics,
)
from .config import (
    ChannelParams,
    ConfigError,
    FrameParams,
    GeometryParams,
    PowerPolicy,
    ReliabilityParams,
    Scenario,
    Scheme,
    SystemConfig,
    TrafficParams,
    db_to_linear,
    dbm_to_watts,
    default_config,
    load_config,
    serialize_config,
    validate_config,
)
from .optimizer import (
    BruteForceResult,
    InfeasibleError,
    OptimizerOutput,
    adaptive_slots,
    brute_force_slots,
    solve_n_epsilon,
)
from .shortpacket import (
    error_prob_ln_form,
    max_snr_proxy,
    q_function,
)
from .simulator import (
    CoverageEstimate,
    code_pool,
    estimate_coverage,
    estimate_coverages,
)

__version__ = "0.1.0"
