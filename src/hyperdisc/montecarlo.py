"""Replication harness: generate, simulate, estimate, summarize.

Each replication derives its own seed from ``(base_seed, r, N)``, so the
full set of results is reproducible and independent of how many worker
processes execute it.  The transition design is drawn once and shared
across replications by default (``fixed_across_reps``); drawing a fresh
design per replication is available as a policy switch.

Reported dispersions are cross-replication standard deviations of the
estimates (labelled "sd" in every output), not asymptotic standard
errors.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimation import MleConfig, UtilitySpec, fit_mle
from .exceptions import EmptySummaryError, HyperdiscError, InvalidInputError
from .model import ModelSpec, solve_backward
from .simulation import (
    derive_seed,
    estimate_transitions,
    random_transitions,
    simulate_panel,
)

FIXED_ACROSS_REPS = "fixed_across_reps"
FRESH_PER_REP = "fresh_per_rep"

# Stream tags folded into derive_seed; documented in docs/FORMATS.md.
TRANSITION_STREAM = 1
PANEL_STREAM = 2

PARAMETERS = ("alpha0", "alpha1", "delta", "beta")


@dataclass(frozen=True)
class McConfig:
    """Design and execution settings for a replication study.

    The design family is the two-action model with a linear payoff for
    action 1 (``alpha0 + alpha1 * state_value``), zero payoff for the
    reference action, and a random transition tensor.  Agents start from
    the uniform state distribution unless ``initial_dist`` says
    otherwise.
    """

    num_states: int = 5
    num_actions: int = 2
    horizon: int = 16
    alpha0: float = 0.5
    alpha1: float = -0.2
    beta: float = 0.85
    delta: float = 0.9
    sample_sizes: tuple = (2000,)
    n_replications: int = 100
    base_seed: int = 0
    n_jobs: int = 1
    transition_seed_policy: str = FIXED_ACROSS_REPS
    state_values: tuple | None = None
    initial_dist: tuple | None = None
    mle_max_iterations: int = 5000

    def __post_init__(self):
        if self.n_replications < 1:
            raise InvalidInputError("n_replications must be at least 1")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise InvalidInputError("sample_sizes must be positive")
        if self.transition_seed_policy not in (FIXED_ACROSS_REPS, FRESH_PER_REP):
            raise InvalidInputError(
                f"unknown transition_seed_policy {self.transition_seed_policy!r}"
            )
        if self.num_actions != 2:
            raise InvalidInputError("the built-in design uses exactly 2 actions")
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))

    def utility_table(self) -> np.ndarray:
        sv = (np.arange(self.num_states, dtype=float)
              if self.state_values is None else np.asarray(self.state_values, float))
        u = np.zeros((self.num_actions, self.num_states))
        u[0] = self.alpha0 + self.alpha1 * sv
        return u

    def true_values(self) -> dict:
        return {"alpha0": self.alpha0, "alpha1": self.alpha1,
                "delta": self.delta, "beta": self.beta}


@dataclass(frozen=True)
class RepEstimate:
    """One replication's estimates, or its failure marker."""

    replication: int
    sample_size: int
    seed: int
    alpha0: float | None = None
    alpha1: float | None = None
    delta: float | None = None
    beta: float | None = None
    loglik: float | None = None
    best_start: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def value(self, parameter: str):
        return getattr(self, parameter)


@dataclass(frozen=True)
class SummaryCell:
    parameter: str
    sample_size: int
    mean: float
    sd: float
    n_success: int
    n_failure: int


@dataclass(frozen=True)
class McSummary:
    """Per-parameter, per-sample-size means and standard deviations."""

    cells: tuple
    sample_sizes: tuple
    true_values: dict

    def cell(self, parameter: str, sample_size: int) -> SummaryCell:
        for c in self.cells:
            if c.parameter == parameter and c.sample_size == sample_size:
                return c
        raise KeyError((parameter, sample_size))

    def render_text(self) -> str:
        """Aligned table: one mean row and one (sd) row per parameter."""
        header = ["parameter", "true"] + [f"N={n}" for n in self.sample_sizes]
        rows = []
        for p in PARAMETERS:
            mean_row = [p, _fmt(self.true_values.get(p))]
            sd_row = ["", ""]
            for n in self.sample_sizes:
                c = self.cell(p, n)
                mean_row.append(_fmt(c.mean))
                sd_row.append(f"({_fmt(c.sd)})" if math.isfinite(c.sd) else "(nan)")
            rows.append(mean_row)
            rows.append(sd_row)
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines) + "\n"

    def to_csv_rows(self):
        yield ["parameter", "sample_size", "mean", "sd", "n_success", "n_failure"]
        for c in self.cells:
            yield [c.parameter, c.sample_size, repr(c.mean), repr(c.sd),
                   c.n_success, c.n_failure]


def _fmt(value) -> str:
    if value is None or not math.isfinite(value):
        return "nan"
    return f"{value:.3f}"


def design_model(config: McConfig, transitions) -> ModelSpec:
    """Build the design's ModelSpec around a given transition tensor.

    The zero payoff of the reference action supplies the equal-payoff
    pairs (reference action at every state against the reference state),
    which is what the assumption checker inspects.
    """
    J, K = config.num_states, config.num_actions
    pairs = tuple((K - 1, K - 1, x, J - 1) for x in range(J - 1))
    return ModelSpec(
        num_states=J,
        num_actions=K,
        horizon=config.horizon,
        beta=config.beta,
        delta=config.delta,
        utility=config.utility_table(),
        transitions=transitions,
        state_values=config.state_values,
        equality_pairs=pairs,
    )


def design_transitions(config: McConfig, replication_seed: int | None = None):
    """Transition draw under the configured seed policy."""
    if config.transition_seed_policy == FIXED_ACROSS_REPS or replication_seed is None:
        seed = derive_seed(config.base_seed, TRANSITION_STREAM)
    else:
        seed = derive_seed(replication_seed, TRANSITION_STREAM)
    return random_transitions(config.num_states, config.num_actions, seed)


def _mle_config(config: McConfig) -> MleConfig:
    return MleConfig(
        theta_ref=(config.alpha0, config.alpha1),
        max_iterations=config.mle_max_iterations,
    )


def run_one_replication(config: McConfig, replication: int,
                        sample_size: int) -> RepEstimate:
    """Generate one panel and estimate it; failures become markers.

    Only the package's own errors and linear-algebra failures become
    markers; any other exception propagates.
    """
    rep_seed = derive_seed(config.base_seed, replication, sample_size)
    try:
        transitions = design_transitions(config, rep_seed)
        model = design_model(config, transitions)
        solution = solve_backward(model)
        panel = simulate_panel(
            model, solution, sample_size,
            initial_dist=config.initial_dist,
            seed=derive_seed(rep_seed, PANEL_STREAM),
        )
        f_hat = estimate_transitions(panel, config.num_states, config.num_actions)
        spec = UtilitySpec(
            form="linear_in_state",
            num_actions=config.num_actions,
            num_states=config.num_states,
            state_values=model.state_values,
        )
        result = fit_mle(panel, spec, f_hat, _mle_config(config))
        return RepEstimate(
            replication=replication,
            sample_size=sample_size,
            seed=rep_seed,
            alpha0=float(result.theta_u_hat[0]),
            alpha1=float(result.theta_u_hat[1]),
            delta=result.delta_hat,
            beta=result.beta_hat,
            loglik=result.loglik,
            best_start=result.best_start_index,
        )
    except (HyperdiscError, np.linalg.LinAlgError) as err:  # record, never abort
        return RepEstimate(
            replication=replication,
            sample_size=sample_size,
            seed=rep_seed,
            error=f"{type(err).__name__}: {err}",
        )


def _run_task(args):
    return run_one_replication(*args)


def run_replications(config: McConfig) -> list:
    """Run every (replication, sample size) task, optionally in parallel.

    Results are returned in task order regardless of worker count, and
    every task's randomness is fully determined by its derived seed.
    """
    tasks = [(config, r, n)
             for n in config.sample_sizes
             for r in range(config.n_replications)]
    if config.n_jobs <= 1:
        return [_run_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=config.n_jobs) as pool:
        return list(pool.map(_run_task, tasks, chunksize=1))


def summarize(estimates, true_values=None) -> McSummary:
    """Cross-replication means and standard deviations per parameter.

    The standard deviation uses the n-1 divisor and is 0 by convention
    for a single successful replication.
    """
    estimates = list(estimates)
    if not estimates:
        raise EmptySummaryError("no replication records to summarize")
    successes = [e for e in estimates if e.ok]
    if not successes:
        raise EmptySummaryError("every replication failed; nothing to summarize")
    sample_sizes = tuple(sorted({e.sample_size for e in estimates}))
    cells = []
    for p in PARAMETERS:
        for n in sample_sizes:
            group = [e for e in estimates if e.sample_size == n]
            vals = np.array([e.value(p) for e in group if e.ok], dtype=float)
            n_fail = sum(1 for e in group if not e.ok)
            if vals.size == 0:
                mean, sd = float("nan"), float("nan")
            elif vals.size == 1:
                mean, sd = float(vals[0]), 0.0
            else:
                mean, sd = float(vals.mean()), float(vals.std(ddof=1))
            cells.append(SummaryCell(
                parameter=p, sample_size=n, mean=mean, sd=sd,
                n_success=int(vals.size), n_failure=int(n_fail),
            ))
    return McSummary(
        cells=tuple(cells),
        sample_sizes=sample_sizes,
        true_values=dict(true_values or {}),
    )
