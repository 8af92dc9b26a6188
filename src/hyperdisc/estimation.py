"""Two-step maximum likelihood estimation.

Transitions are estimated first by cell frequencies (their block of the
likelihood separates and the frequency estimator maximizes it exactly).
The remaining parameters, the utility coefficients and the two discount
factors, maximize the choice block

    sum_n sum_t log P_t(a_nt | x_nt)

with backward induction nested inside every objective evaluation.  Log
CCPs come straight out of the recursion as ``W - logsumexp(W)``, so no
probability is exponentiated and re-logged on the way to the objective.

Both discount factors are optimized through a logistic transform, which
keeps them strictly interior; utility coefficients enter untransformed.
Each configured start runs an independent derivative-free local search
(Nelder-Mead), declared converged when the simplex spread in parameters
and in objective values falls below the configured tolerances, and the
best final point over all starts is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

from .exceptions import InvalidInputError, NonConvergenceError
from .model import _backward_core
from .simulation import PanelData, TransitionEstimate, empirical_ccps

_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)

LINEAR_IN_STATE = "linear_in_state"
FREE_TABLE = "free_table"


@dataclass(frozen=True)
class UtilitySpec:
    """Parametrization of the flow payoff table.

    ``linear_in_state``: every action except the reference one gets an
    intercept and a slope on the state covariate,
    ``u_i(x) = a0_i + a1_i * state_values[x]``; the reference action is
    fixed at zero.  ``free_table``: one free payoff per non-reference
    action and state.  Either way exactly one action is normalized, and
    the parameter count stays below K*J.
    """

    form: str
    num_actions: int
    num_states: int
    state_values: np.ndarray | None = None
    reference_action: int | None = None

    def __post_init__(self):
        if self.form not in (LINEAR_IN_STATE, FREE_TABLE):
            raise InvalidInputError(f"unknown utility form {self.form!r}")
        K, J = int(self.num_actions), int(self.num_states)
        if K < 2 or J < 1:
            raise InvalidInputError("need num_actions >= 2 and num_states >= 1")
        ref = K - 1 if self.reference_action is None else int(self.reference_action)
        if not 0 <= ref < K:
            raise InvalidInputError(f"reference_action {ref} out of range")
        sv = (np.arange(J, dtype=float) if self.state_values is None
              else np.asarray(self.state_values, dtype=float))
        if sv.shape != (J,) or not np.all(np.isfinite(sv)):
            raise InvalidInputError("state_values must be J finite numbers")
        sv.setflags(write=False)
        object.__setattr__(self, "num_actions", K)
        object.__setattr__(self, "num_states", J)
        object.__setattr__(self, "reference_action", ref)
        object.__setattr__(self, "state_values", sv)
        if self.n_params >= K * J:
            raise InvalidInputError(
                "utility parameterization must have fewer than K*J parameters"
            )

    @property
    def n_params(self) -> int:
        if self.form == LINEAR_IN_STATE:
            return 2 * (self.num_actions - 1)
        return (self.num_actions - 1) * self.num_states

    def build_utility(self, theta_u) -> np.ndarray:
        theta = np.asarray(theta_u, dtype=float)
        if theta.shape != (self.n_params,):
            raise InvalidInputError(
                f"theta_u must have {self.n_params} entries, got {theta.shape}"
            )
        K, J = self.num_actions, self.num_states
        u = np.zeros((K, J))
        free_actions = [i for i in range(K) if i != self.reference_action]
        if self.form == LINEAR_IN_STATE:
            for row, i in enumerate(free_actions):
                a0, a1 = theta[2 * row], theta[2 * row + 1]
                u[i] = a0 + a1 * self.state_values
        else:
            u[free_actions] = theta.reshape(len(free_actions), J)
        return u

    def param_names(self):
        free_actions = [i for i in range(self.num_actions)
                        if i != self.reference_action]
        if self.form == LINEAR_IN_STATE:
            return [f"{nm}_{i}" for i in free_actions for nm in ("alpha0", "alpha1")]
        return [f"u_{i}_{x}" for i in free_actions for x in range(self.num_states)]


def transform_params(raw, n_theta: int):
    """Map an unconstrained vector to ``(theta_u, beta, delta)``.

    The last two entries pass through the logistic function (so the
    discount factors stay strictly inside (0, 1) even after floating
    point rounding); the leading ``n_theta`` entries are returned as is.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (n_theta + 2,):
        raise InvalidInputError(f"raw vector must have {n_theta + 2} entries")
    beta = float(np.clip(special.expit(raw[n_theta]), _OPEN_LO, _OPEN_HI))
    delta = float(np.clip(special.expit(raw[n_theta + 1]), _OPEN_LO, _OPEN_HI))
    return raw[:n_theta].copy(), beta, delta


def inverse_transform_params(theta_u, beta: float, delta: float):
    """Inverse of ``transform_params``; rejects boundary values 0 and 1."""
    if not (0.0 < beta < 1.0) or not (0.0 < delta < 1.0):
        raise InvalidInputError(
            "inverse transform needs beta and delta strictly inside (0, 1)"
        )
    theta = np.asarray(theta_u, dtype=float)
    return np.concatenate([theta, [special.logit(beta), special.logit(delta)]])


def _resolve_transitions(transitions) -> np.ndarray:
    f = transitions.f_hat if isinstance(transitions, TransitionEstimate) else transitions
    f = np.asarray(f, dtype=float)
    if f.ndim != 3 or f.shape[1] != f.shape[2]:
        raise InvalidInputError("transitions must have shape (K, J, J)")
    return f


def _choice_loglik(counts, utility, transitions, beta, delta):
    """The choice block ``sum_n sum_t log P_t(a_nt | x_nt)`` from the
    (T, K, J) observation counts, its sufficient statistic."""
    _, _, logp = _backward_core(utility, transitions, beta, delta, counts.shape[0])
    return float((counts * logp).sum())


def log_likelihood(panel: PanelData, utility_spec: UtilitySpec, theta_u,
                   beta: float, delta: float, transitions) -> float:
    """Choice-block log likelihood at the given parameters.

    Builds the payoff table, runs backward induction under the estimated
    transitions, and sums ``log P_t(a_nt | x_nt)`` over the panel.  The
    transition block of the joint likelihood is constant in these
    parameters and deliberately not included.
    """
    if not (0.0 < beta <= 1.0):
        raise InvalidInputError(f"beta must lie in (0, 1], got {beta}")
    if not (0.0 < delta < 1.0):
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta}")
    f = _resolve_transitions(transitions)
    counts = empirical_ccps(panel, utility_spec.num_states,
                            utility_spec.num_actions).counts
    return _choice_loglik(counts, utility_spec.build_utility(theta_u), f, beta, delta)


@dataclass(frozen=True)
class MleConfig:
    """Start pattern, tolerances and fixed parameters for ``fit_mle``.

    By default the starts form a grid: utility parameters at
    ``theta_start_scale`` times ``theta_ref`` crossed with every
    combination of ``beta_starts`` and ``delta_starts``.  Explicit
    ``starts`` (a sequence of ``(theta_u, beta, delta)`` triples)
    override the grid.  ``fixed_parameters`` may pin ``beta`` or
    ``delta`` (for example ``{"beta": 1.0}`` for plain exponential
    discounting); fixed values bypass the logistic transform.
    """

    theta_ref: tuple = ()
    theta_start_scale: float = 0.95
    beta_starts: tuple = (0.7, 0.8, 0.9)
    delta_starts: tuple = (0.7, 0.8, 0.9)
    starts: tuple | None = None
    param_tol: float = 1e-8
    objective_tol: float = 1e-10
    max_iterations: int = 5000
    fixed_parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.fixed_parameters.items():
            if key not in ("beta", "delta"):
                raise InvalidInputError(f"cannot fix unknown parameter {key!r}")
            if key == "beta" and not (0.0 < value <= 1.0):
                raise InvalidInputError(f"fixed beta must lie in (0, 1], got {value}")
            if key == "delta" and not (0.0 < value < 1.0):
                raise InvalidInputError(f"fixed delta must lie in (0, 1), got {value}")

    def start_points(self, n_theta: int):
        if self.starts is not None:
            pts = [(np.asarray(t, dtype=float), float(b), float(d))
                   for (t, b, d) in self.starts]
        else:
            theta0 = self.theta_start_scale * np.asarray(self.theta_ref, dtype=float)
            if theta0.shape != (n_theta,):
                raise InvalidInputError(
                    f"theta_ref must supply {n_theta} reference values"
                )
            betas = ([self.fixed_parameters["beta"]]
                     if "beta" in self.fixed_parameters else list(self.beta_starts))
            deltas = ([self.fixed_parameters["delta"]]
                      if "delta" in self.fixed_parameters else list(self.delta_starts))
            pts = [(theta0.copy(), float(b), float(d)) for b in betas for d in deltas]
        if not pts:
            raise InvalidInputError("at least one start point is required")
        return pts


@dataclass(frozen=True)
class StartRecord:
    """Bookkeeping for one optimizer start."""

    index: int
    theta_start: tuple
    beta_start: float
    delta_start: float
    converged: bool
    loglik: float
    iterations: int
    n_evaluations: int
    message: str


@dataclass(frozen=True)
class MleResult:
    """Best point over all starts plus the per-start records."""

    theta_u_hat: np.ndarray
    beta_hat: float
    delta_hat: float
    loglik: float
    per_start: tuple
    best_start_index: int


def fit_mle(panel: PanelData, utility_spec: UtilitySpec, transitions,
            config: MleConfig = MleConfig()) -> MleResult:
    """Maximize the choice-block likelihood from every configured start.

    Deterministic given the panel and configuration: starts run in a
    fixed order, each through Nelder-Mead with ``xatol = param_tol`` and
    ``fatol = objective_tol``, and ties in the final log likelihood are
    broken by the lowest start index.  Raises ``NonConvergenceError``
    (carrying all per-start records) only if no start converges.
    """
    f = _resolve_transitions(transitions)
    K, J = utility_spec.num_actions, utility_spec.num_states
    counts = empirical_ccps(panel, J, K).counts
    n_theta = utility_spec.n_params
    fixed_beta = config.fixed_parameters.get("beta")
    fixed_delta = config.fixed_parameters.get("delta")

    def split(raw):
        theta = raw[:n_theta]
        pos = n_theta
        if fixed_beta is None:
            beta = float(np.clip(special.expit(raw[pos]), _OPEN_LO, _OPEN_HI))
            pos += 1
        else:
            beta = fixed_beta
        if fixed_delta is None:
            delta = float(np.clip(special.expit(raw[pos]), _OPEN_LO, _OPEN_HI))
        else:
            delta = fixed_delta
        return theta, beta, delta

    def negloglik(raw):
        theta, beta, delta = split(raw)
        return -_choice_loglik(counts, utility_spec.build_utility(theta), f, beta, delta)

    def pack(theta, beta, delta):
        parts = [np.asarray(theta, dtype=float)]
        if fixed_beta is None:
            parts.append([special.logit(beta)])
        if fixed_delta is None:
            parts.append([special.logit(delta)])
        return np.concatenate(parts)

    records = []
    finals = []
    for idx, (theta0, b0, d0) in enumerate(config.start_points(n_theta)):
        res = optimize.minimize(
            negloglik,
            pack(theta0, b0, d0),
            method="Nelder-Mead",
            options={
                "xatol": config.param_tol,
                "fatol": config.objective_tol,
                "maxiter": config.max_iterations,
                "maxfev": 2 * config.max_iterations,
            },
        )
        theta_hat, beta_hat, delta_hat = split(res.x)
        records.append(StartRecord(
            index=idx,
            theta_start=tuple(float(v) for v in theta0),
            beta_start=b0,
            delta_start=d0,
            converged=bool(res.success),
            loglik=-float(res.fun),
            iterations=int(res.nit),
            n_evaluations=int(res.nfev),
            message=str(res.message),
        ))
        finals.append((theta_hat.copy(), beta_hat, delta_hat))

    if not any(r.converged for r in records):
        raise NonConvergenceError(
            "no optimizer start converged within the configured tolerances",
            records=records,
        )
    best = max(range(len(records)), key=lambda i: (records[i].loglik, -i))
    theta_hat, beta_hat, delta_hat = finals[best]
    return MleResult(
        theta_u_hat=theta_hat,
        beta_hat=beta_hat,
        delta_hat=delta_hat,
        loglik=records[best].loglik,
        per_start=tuple(records),
        best_start_index=best,
    )
