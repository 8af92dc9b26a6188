"""Finite-horizon dynamic discrete choice with quasi-hyperbolic discounting.

Library layout:

``model``           primitives and the exact backward-induction solver,
``identification``  closed-form recovery of the discount factors and
                    flow payoffs from choice probabilities,
``simulation``      seeded panel generation and frequency estimators,
``estimation``      two-step maximum likelihood with nested backward
                    induction,
``montecarlo``      replication harness and summary tables,
``fileio`` / ``cli``  file formats and the command line tool.
"""

from .exceptions import (
    AssumptionViolationError,
    EmptySummaryError,
    HyperdiscError,
    InsufficientDataError,
    InvalidInputError,
    NonConvergenceError,
)
from .model import (
    ModelSpec,
    ValueSolution,
    choice_values,
    solve_backward,
)
from .identification import (
    IdentificationResult,
    PairSystem,
    assemble_system,
    assemble_system_macro,
    build_pair_system,
    check_model,
    identify_from_estimates,
    identify_model,
    inclusive_value_gaps,
    recover_utilities,
    solve_discounts,
    solve_discounts_macro,
)
from .simulation import (
    CcpEstimate,
    PanelData,
    TransitionEstimate,
    derive_seed,
    empirical_ccps,
    estimate_transitions,
    random_transitions,
    simulate_panel,
)
from .estimation import (
    MleConfig,
    MleResult,
    UtilitySpec,
    fit_mle,
    log_likelihood,
)
from .montecarlo import (
    McConfig,
    McSummary,
    RepEstimate,
    run_replications,
    summarize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
