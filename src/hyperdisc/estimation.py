"""Two-step maximum likelihood estimation.

Transitions are estimated first by cell frequencies (their block of the
likelihood separates and the frequency estimator maximizes it exactly).
The remaining parameters, the utility coefficients and the two discount
factors, maximize the choice block

    sum_n sum_t log P_t(a_nt | x_nt)

with backward induction nested inside every objective evaluation.  Log
CCPs come straight out of the recursion as ``(W - m) - log(sum exp(W -
m))``, so no probability is exponentiated and re-logged on the way to
the objective.  The same recursion carries the forward-mode derivatives
of the log CCPs, which gives the exact score at once.

The search runs on the natural parameters ``(theta_u, beta, delta)``
with L-BFGS-B and the exact gradient, inside a box: utility
coefficients are free, ``beta`` lies in ``[DISCOUNT_FLOOR, 1]`` and
``delta`` in ``[DISCOUNT_FLOOR, nextafter(1, 0)]``.  So ``beta = 1``
(exponential discounting) can be reached, and an estimate on an edge of
the box is reported as such.  Each configured start runs an independent
local search, and the best final point over all starts is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInputError, NonConvergenceError
from .model import _backward_core, _check_discounts, _check_transitions, _state_values
from .simulation import PanelData, empirical_ccps

# Lower edge of both discount factors in the search box; it must be
# above 0, where the model is undefined.  On the edge beta = floor the
# choices depend on delta only through beta * delta <= floor (and the
# same holds with the roles swapped), so the slope along that edge is
# the floor times the slope in beta * delta.  At 1e-4, four orders of
# magnitude above the default gradient tolerance, a search that reaches
# the edge keeps moving along it to where that slope vanishes, often the
# (floor, floor) corner, instead of stopping wherever it arrived; at
# 1e-8 the slope falls below the tolerance and the unidentified factor
# is left at an arbitrary value.
DISCOUNT_FLOOR = 1e-4
_DELTA_HI = np.nextafter(1.0, 0.0)

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
        sv = _state_values(self.state_values, J)
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


def _choice_loglik(counts, utility, transitions, beta, delta, dutility=None):
    """The choice block ``sum_n sum_t log P_t(a_nt | x_nt)`` from the
    (T, K, J) observation counts, its sufficient statistic.

    With ``dutility`` (the (p, K, J) Jacobian of the payoff table) it
    returns ``(loglik, score)``, the score being the exact gradient in
    ``(theta_u, beta, delta)``: ``sum counts * dlogP``.
    """
    out = _backward_core(utility, transitions, beta, delta, counts.shape[0], dutility)
    loglik = float((counts * out[2]).sum())
    if dutility is None:
        return loglik
    return loglik, np.tensordot(out[3], counts, axes=([0, 2, 3], [0, 1, 2]))


def log_likelihood(panel: PanelData, utility_spec: UtilitySpec, theta_u,
                   beta: float, delta: float, transitions) -> float:
    """Choice-block log likelihood at the given parameters.

    Builds the payoff table, runs backward induction under the estimated
    transitions, and sums ``log P_t(a_nt | x_nt)`` over the panel.  The
    transition block of the joint likelihood is constant in these
    parameters and deliberately not included.
    """
    _check_discounts(beta, delta)
    K, J = utility_spec.num_actions, utility_spec.num_states
    f = _check_transitions(transitions, (K, J, J))
    counts = empirical_ccps(panel, J, K).counts
    return _choice_loglik(counts, utility_spec.build_utility(theta_u), f, beta, delta)


@dataclass(frozen=True)
class MleConfig:
    """Start pattern, tolerances and fixed parameters for ``fit_mle``.

    By default the starts form a grid: utility parameters at
    ``theta_start_scale`` times ``theta_ref`` crossed with every
    combination of ``beta_starts`` and ``delta_starts``, ``beta``
    varying slowest.  The last value of each default grid lies near an
    edge: ``beta = 0.01`` is strong present bias, ``delta = 0.999`` near
    full patience.  Where the data put ``beta * delta`` near 0, the
    likelihood can have one local maximum at a small ``beta`` with
    ``delta`` near 1 and another at ``beta = 1`` or on the floor;
    searches from the interior starts lower both factors together and
    can miss the first, which the search from ``(0.01, 0.999)`` reaches.

    Explicit ``starts`` (a sequence of ``(theta_u, beta, delta)``
    triples) override the grid.  ``fixed_parameters`` may pin ``beta``
    or ``delta`` (for example ``{"beta": 1.0}`` for plain exponential
    discounting); a fixed value becomes equal lower and upper bounds,
    which takes it out of the search.

    L-BFGS-B stops when the largest entry of the projected score is at
    most ``param_tol`` (its ``gtol``), or when a step raises the log
    likelihood by at most ``objective_tol`` times the mean negative log
    likelihood per observation (``ftol = objective_tol / number of
    observations``, as L-BFGS-B's test is relative to the objective's
    size).  It takes at most ``max_iterations`` iterations and
    ``2 * max_iterations`` objective evaluations per start.
    """

    theta_ref: tuple = ()
    theta_start_scale: float = 0.95
    beta_starts: tuple = (0.7, 0.8, 0.9, 0.01)
    delta_starts: tuple = (0.7, 0.8, 0.9, 0.999)
    starts: tuple | None = None
    param_tol: float = 1e-8
    objective_tol: float = 1e-10
    max_iterations: int = 5000
    fixed_parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        fixed = self.fixed_parameters
        for key in fixed:
            if key not in ("beta", "delta"):
                raise InvalidInputError(f"cannot fix unknown parameter {key!r}")
        # a factor left free is checked at an admissible stand-in
        _check_discounts(fixed.get("beta", 1.0), fixed.get("delta", 0.5), "fixed ")

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
    """Bookkeeping for one optimizer start.

    ``beta_start`` and ``delta_start`` are the start as searched, that
    is, moved onto the box.  ``converged`` is the optimizer's own
    success flag; ``at_bound`` names the estimated discount factors
    (``"beta"``, ``"delta"``) that finish on an edge of the search box.
    ``projected_score`` is the largest absolute entry of the log
    likelihood's score at the start's end point, with the entries of
    fixed parameters and of coordinates on an edge whose score points
    out of the box set to zero; it is about 0 at a stationary point of
    the box.  A start can stop on the relative-reduction test while it
    is well above ``param_tol``, as on a flat ridge in (beta, delta).
    """

    index: int
    theta_start: tuple
    beta_start: float
    delta_start: float
    converged: bool
    loglik: float
    iterations: int
    n_evaluations: int
    message: str
    at_bound: tuple
    projected_score: float


@dataclass(frozen=True)
class MleResult:
    """Best point over all starts plus the per-start records."""

    theta_u_hat: np.ndarray
    beta_hat: float
    delta_hat: float
    loglik: float
    per_start: tuple
    best_start_index: int


def _box(n_theta: int, fixed_parameters: dict):
    """L-BFGS-B bounds on ``(theta_u, beta, delta)``; a fixed discount
    factor gets equal lower and upper bounds."""
    from scipy import optimize

    beta = fixed_parameters.get("beta")
    delta = fixed_parameters.get("delta")
    return optimize.Bounds(
        [-np.inf] * n_theta + [DISCOUNT_FLOOR if beta is None else beta,
                               DISCOUNT_FLOOR if delta is None else delta],
        [np.inf] * n_theta + [1.0 if beta is None else beta,
                              _DELTA_HI if delta is None else delta],
    )


def fit_mle(panel: PanelData, utility_spec: UtilitySpec, transitions,
            config: MleConfig = MleConfig()) -> MleResult:
    """Maximize the choice-block likelihood from every configured start.

    Deterministic given the panel and configuration: starts run in a
    fixed order, each through L-BFGS-B on ``(theta_u, beta, delta)``
    with the exact score, in the box of ``_box`` and with the stopping
    rules of ``MleConfig``.  A start outside the box is moved onto it.
    Ties in the final log likelihood are broken by the lowest start
    index.  ``transitions`` is a (K, J, J) tensor of probability rows
    or an estimate carrying one in ``f_hat``.  Raises
    ``NonConvergenceError`` (carrying all per-start records) only if no
    start converges.
    """
    # imported here to keep SciPy off the package's import path
    from scipy import optimize

    K, J = utility_spec.num_actions, utility_spec.num_states
    f = _check_transitions(transitions, (K, J, J))
    counts = empirical_ccps(panel, J, K).counts
    n_theta = utility_spec.n_params
    # build_utility is linear, so its Jacobian is the table of each unit vector
    dutility = np.stack([utility_spec.build_utility(e) for e in np.eye(n_theta)])
    box = _box(n_theta, config.fixed_parameters)
    options = {
        "gtol": config.param_tol,
        "ftol": config.objective_tol / max(float(counts.sum()), 1.0),
        "maxiter": config.max_iterations,
        "maxfun": 2 * config.max_iterations,
    }

    def negloglik(x):
        loglik, score = _choice_loglik(counts, utility_spec.build_utility(x[:n_theta]),
                                       f, x[n_theta], x[n_theta + 1], dutility)
        return -loglik, -score

    records = []
    finals = []
    for idx, (theta0, b0, d0) in enumerate(config.start_points(n_theta)):
        x0 = np.clip(np.concatenate([theta0, [b0, d0]]), box.lb, box.ub)
        res = optimize.minimize(negloglik, x0, jac=True, method="L-BFGS-B",
                                bounds=box, options=options)
        theta_hat = res.x[:n_theta].copy()
        beta_hat, delta_hat = float(res.x[n_theta]), float(res.x[n_theta + 1])
        at_bound = tuple(
            nm for i, nm in enumerate(("beta", "delta"), n_theta)
            if nm not in config.fixed_parameters and res.x[i] in (box.lb[i], box.ub[i])
        )
        # res.jac is the gradient of -loglik at res.x; a fixed parameter
        # has both edges active, so its entry is always blocked
        score = -res.jac
        blocked = ((box.lb == box.ub) | ((res.x <= box.lb) & (score < 0.0))
                   | ((res.x >= box.ub) & (score > 0.0)))
        records.append(StartRecord(
            index=idx,
            theta_start=tuple(float(v) for v in theta0),
            beta_start=float(x0[n_theta]),
            delta_start=float(x0[n_theta + 1]),
            converged=bool(res.success),
            loglik=-float(res.fun),
            iterations=int(res.nit),
            n_evaluations=int(res.nfev),
            message=str(res.message),
            at_bound=at_bound,
            projected_score=float(np.abs(np.where(blocked, 0.0, score)).max()),
        ))
        finals.append((theta_hat, beta_hat, delta_hat))

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
