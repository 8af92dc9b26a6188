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

The likelihood is flat and curved along a ridge in (beta, delta), and
it can have more than one local maximum there, so the search is global
in those two factors and local in the rest.  A profile screen first
evaluates the likelihood on a fixed (beta, delta) grid, maximized over
the utility coefficients by Fisher-scoring steps at every grid point
until the steps fall below a relative tolerance (``SCREEN_TOL``, at
most ``SCREEN_STEPS`` steps), the grid points still moving in one
batched pass of the backward kernel per step.  L-BFGS-B with the exact
gradient then polishes from every local maximum of that profile, on the
natural parameters ``(theta_u, beta, delta)`` inside a box: utility
coefficients are free, ``beta`` lies in ``[DISCOUNT_FLOOR, 1]`` and
``delta`` in ``[DISCOUNT_FLOOR, nextafter(1, 0)]``.  So ``beta = 1`` (exponential discounting) can be
reached, and an estimate on an edge of the box is reported as such.
The polish with the highest log likelihood is the estimate; among
polishes tied with it up to rounding, a converged one is preferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInputError, NonConvergenceError
from .model import (
    _as_float_array,
    _backward_core,
    _check_discounts,
    _check_int,
    _check_transitions,
    _state_values,
)
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

# The profile screen's values of each free discount factor: dense near
# the floor, where beta * delta near 0 can put a second maximum, and
# ending on the top edge of the box.
_SCREEN_INTERIOR = (1e-4, 1e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                    0.8, 0.9, 0.95)
SCREEN_BETAS = _SCREEN_INTERIOR + (1.0,)
SCREEN_DELTAS = _SCREEN_INTERIOR + (float(_DELTA_HI),)
# Fisher-scoring steps on theta_u, from theta_u = 0, at every grid point:
# a point stops once no coordinate of its step exceeds SCREEN_TOL * (1 +
# |theta_u|), and after SCREEN_STEPS steps at the latest.
SCREEN_STEPS = 8
SCREEN_TOL = 1e-10
# A search that ends with a larger projected score is restarted from its
# end point, at most MAX_RESTARTS times.
RESTART_SCORE = 1e-3
MAX_RESTARTS = 2
# Polishes whose final log likelihoods are within LOGLIK_TIE * (1 +
# |loglik|) of the highest, a few dozen units in the last place, reached
# the same maximum up to rounding; a converged one of them is reported.
LOGLIK_TIE = 1e-14

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
        K = _check_int(self.num_actions, "num_actions")
        J = _check_int(self.num_states, "num_states")
        if K < 2 or J < 1:
            raise InvalidInputError("need num_actions >= 2 and num_states >= 1")
        ref = (K - 1 if self.reference_action is None
               else _check_int(self.reference_action, "reference_action"))
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
    """Starts, tolerances and fixed parameters for ``fit_mle``.

    By default the searches start from the local maxima of the profile
    screen described in ``fit_mle``.  Explicit ``starts``, a sequence
    of ``(theta_u, beta, delta)`` triples of finite numbers, replace the
    screen: each is polished in turn.  ``fixed_parameters`` may pin
    ``beta`` or ``delta`` (for example ``{"beta": 1.0}`` for plain
    exponential discounting); a fixed value collapses the screen's axis
    of that factor to the value and becomes equal lower and upper
    bounds, which takes it out of the search.

    L-BFGS-B stops when the largest entry of the projected score is at
    most ``param_tol`` (its ``gtol``), or when a step raises the log
    likelihood by at most ``objective_tol`` times the mean negative log
    likelihood per observation (``ftol = objective_tol / number of
    observations``, as L-BFGS-B's test is relative to the objective's
    size).  Each search takes at most ``max_iterations`` iterations and
    ``2 * max_iterations`` objective evaluations.
    """

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
        if _check_int(self.max_iterations, "max_iterations") < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.starts is None:
            return
        starts = []
        for start in self.starts:
            try:
                theta, beta, delta = start
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"start {start!r} must be a (theta_u, beta, delta) triple"
                ) from None
            theta = _as_float_array(theta, "start theta_u")
            if theta.ndim != 1:
                raise InvalidInputError("start theta_u must be a flat sequence of numbers")
            beta, delta = _as_float_array((beta, delta), "start beta and delta")
            starts.append((tuple(theta.tolist()), float(beta), float(delta)))
        if not starts:
            raise InvalidInputError("at least one start point is required")
        object.__setattr__(self, "starts", tuple(starts))


@dataclass(frozen=True)
class StartRecord:
    """Bookkeeping for one polish: an L-BFGS-B search with its restarts.

    ``theta_start``, ``beta_start`` and ``delta_start`` are the start as
    searched, that is, moved onto the box.  ``converged`` and
    ``message`` are the last search's own success flag and termination
    reason; ``iterations`` and ``n_evaluations`` add up every search of
    the polish, and ``restarts`` counts the searches after the first.
    ``at_bound`` names the estimated discount factors (``"beta"``,
    ``"delta"``) that finish on an edge of the search box.
    ``projected_score`` is the largest absolute entry of the log
    likelihood's score at the end point, with the entries of fixed
    parameters and of coordinates on an edge whose score points out of
    the box set to zero; it is about 0 at a stationary point of the box.
    A search can stop on the relative-reduction test while it is well
    above ``param_tol``, as on a flat ridge in (beta, delta); one that
    ends above ``RESTART_SCORE`` is restarted from its end point, at
    most ``MAX_RESTARTS`` times.
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
    restarts: int


@dataclass(frozen=True)
class MleResult:
    """Best point over all polishes plus the per-polish records.

    ``profile_betas`` and ``profile_deltas`` are the screen's grid axes,
    ``profile_loglik`` (one row per beta) the profile log likelihood on
    it and ``profile_steps`` the scoring steps each grid point took; all
    four are None when explicit starts replaced the screen.
    """

    theta_u_hat: np.ndarray
    beta_hat: float
    delta_hat: float
    loglik: float
    per_start: tuple
    best_start_index: int
    profile_betas: tuple | None = None
    profile_deltas: tuple | None = None
    profile_loglik: np.ndarray | None = None
    profile_steps: np.ndarray | None = None


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


def _scoring_step(counts, theta, dutility, transitions, beta, delta):
    """The log likelihood at, and one Fisher-scoring step on theta_u from,
    every grid point at once.

    Row g of ``theta`` holds theta_u at ``(beta[g], delta[g])``; one
    batched kernel pass gives ``(loglik (G,), step (G, p))``.  The
    scoring matrix is ``sum_{t,x} n_tx sum_a P dlogP dlogP^T`` over the
    theta_u directions, the expected information at the observed state
    counts ``n_tx``; its pseudo-inverse steps by zero along a direction
    the data leave undetermined, such as an unvisited state of a free
    table.
    """
    _, _, logP, dlogP = _backward_core(np.einsum("gi,iax->agx", theta, dutility),
                                       transitions, beta, delta, counts.shape[0],
                                       dutility, discounts=False)
    loglik = np.einsum("tax,tagx->g", counts, logP)
    score = np.einsum("tax,tiagx->gi", counts, dlogP)
    weight = np.exp(logP)
    weight *= counts.sum(axis=1)[:, None, None, :]
    info = np.einsum("tiagx,tjagx->gij", dlogP * weight[:, None], dlogP)
    return loglik, (np.linalg.pinv(info, hermitian=True) @ score[..., None])[..., 0]


def _profile_screen(counts, dutility, transitions, betas, deltas):
    """The profile log likelihood on the grid ``betas`` x ``deltas``.

    Every grid point starts from theta_u = 0 and takes scoring steps
    (``_scoring_step``) until no coordinate of its step exceeds
    ``SCREEN_TOL * (1 + |theta_u|)``, or until it has taken
    ``SCREEN_STEPS``.  Its profile is the log likelihood of the pass
    that stopped it, at the theta_u that pass ran at; that pass's step
    is not taken.  Each pass is one batched kernel pass over the points
    still moving.  Returns theta_u, shape (grid points, p), with beta
    varying slowest, and the profile and the steps taken at each point,
    both of shape (len(betas), len(deltas)).
    """
    beta = np.repeat(betas, len(deltas))
    delta = np.tile(deltas, len(betas))
    theta = np.zeros((beta.size, dutility.shape[0]))
    profile = np.empty(beta.size)
    steps = np.zeros(beta.size, dtype=int)
    active = np.arange(beta.size)
    for n in range(SCREEN_STEPS + 1):
        profile[active], step = _scoring_step(counts, theta[active], dutility,
                                              transitions, beta[active], delta[active])
        moving = np.any(np.abs(step) > SCREEN_TOL * (1.0 + np.abs(theta[active])),
                        axis=1)
        if n == SCREEN_STEPS or not moving.any():
            break
        active, step = active[moving], step[moving]
        theta[active] += step
        steps[active] += 1
    shape = (len(betas), len(deltas))
    return theta, profile.reshape(shape), steps.reshape(shape)


def _local_maxima(profile):
    """Grid points of finite profile at least as high as each of their
    up to eight neighbours."""
    nb, nd = profile.shape
    padded = np.pad(profile, 1, constant_values=-np.inf)
    peak = np.isfinite(profile)
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                peak &= profile >= padded[i:i + nb, j:j + nd]
    return peak


def fit_mle(panel: PanelData, utility_spec: UtilitySpec, transitions,
            config: MleConfig = MleConfig()) -> MleResult:
    """Maximize the choice-block likelihood: a profile screen over
    (beta, delta), then a local polish from each of its maxima.

    The screen (``_profile_screen``) runs on the grid ``SCREEN_BETAS`` x
    ``SCREEN_DELTAS``, an axis of one value for a fixed factor.  A
    polish is an L-BFGS-B search on ``(theta_u, beta, delta)`` with the
    exact score, in the box of ``_box`` and with the stopping rules of
    ``MleConfig``, restarted from its end point while its projected
    score stays above ``RESTART_SCORE``, at most ``MAX_RESTARTS``
    times.  It starts from every grid point whose profile is at least
    that of each neighbour, in descending profile order with ties to
    the lower grid index.  If none of them converges, the other grid
    points follow in the same order until one does.  Explicit
    ``config.starts`` replace the screen and are polished in the given
    order; a start outside the box is moved onto it.

    Deterministic given the panel and configuration.  The estimate is
    the polish with the highest final log likelihood; among the polishes
    within ``LOGLIK_TIE`` of it (relative), a converged one is preferred,
    then the higher log likelihood, then the lower polish index.  ``transitions`` is a (K, J, J) tensor of
    probability rows or an estimate carrying one in ``f_hat``.  Raises
    ``NonConvergenceError`` (carrying every polish record) only if no
    polish converges.
    """
    # imported here to keep SciPy off the package's import path
    from scipy import optimize

    K, J = utility_spec.num_actions, utility_spec.num_states
    f = _check_transitions(transitions, (K, J, J))
    counts = empirical_ccps(panel, J, K).counts
    n_theta = utility_spec.n_params
    # build_utility is linear, so its Jacobian is the table of each unit vector
    dutility = np.stack([utility_spec.build_utility(e) for e in np.eye(n_theta)])
    fixed = config.fixed_parameters
    box = _box(n_theta, fixed)
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

    def polish(theta0, beta0, delta0):
        x0 = np.clip(np.concatenate([theta0, [beta0, delta0]]), box.lb, box.ub)
        x, iterations, evaluations = x0, 0, 0
        for restarts in range(MAX_RESTARTS + 1):
            res = optimize.minimize(negloglik, x, jac=True, method="L-BFGS-B",
                                    bounds=box, options=options)
            x = res.x
            iterations += int(res.nit)
            evaluations += int(res.nfev)
            # res.jac is the gradient of -loglik at x; a fixed parameter
            # has both edges active, so its entry is always blocked
            score = -res.jac
            blocked = ((box.lb == box.ub) | ((x <= box.lb) & (score < 0.0))
                       | ((x >= box.ub) & (score > 0.0)))
            projected = float(np.abs(np.where(blocked, 0.0, score)).max())
            if projected <= RESTART_SCORE:
                break
        records.append(StartRecord(
            index=len(records),
            theta_start=tuple(float(v) for v in x0[:n_theta]),
            beta_start=float(x0[n_theta]),
            delta_start=float(x0[n_theta + 1]),
            converged=bool(res.success),
            loglik=-float(res.fun),
            iterations=iterations,
            n_evaluations=evaluations,
            message=str(res.message),
            at_bound=tuple(
                nm for i, nm in enumerate(("beta", "delta"), n_theta)
                if nm not in fixed and x[i] in (box.lb[i], box.ub[i])
            ),
            projected_score=projected,
            restarts=restarts,
        ))
        finals.append(x)

    profile = steps = None
    if config.starts is not None:
        for theta0, beta0, delta0 in config.starts:
            if len(theta0) != n_theta:
                raise InvalidInputError(
                    f"every start must supply {n_theta} utility parameters"
                )
            polish(np.array(theta0), beta0, delta0)
    else:
        betas = np.array([fixed["beta"]] if "beta" in fixed else SCREEN_BETAS, float)
        deltas = np.array([fixed["delta"]] if "delta" in fixed else SCREEN_DELTAS, float)
        thetas, profile, steps = _profile_screen(counts, dutility, f, betas, deltas)
        ranked = np.where(np.isfinite(profile), profile, -np.inf).ravel()
        order = np.argsort(-ranked, kind="stable")
        peak = _local_maxima(profile).ravel()
        n_peaks = int(peak.sum())
        queue = np.concatenate([order[peak[order]], order[~peak[order]]])
        for n, g in enumerate(queue):
            if n >= n_peaks and any(r.converged for r in records):
                break
            polish(thetas[g], betas[g // len(deltas)], deltas[g % len(deltas)])

    if not any(r.converged for r in records):
        raise NonConvergenceError(
            "no optimizer start converged within the configured tolerances",
            records=records,
        )
    top = max(r.loglik for r in records)
    tied = [i for i, r in enumerate(records)
            if r.loglik >= top - LOGLIK_TIE * (1.0 + abs(top))]
    best = max(tied, key=lambda i: (records[i].converged, records[i].loglik, -i))
    x = finals[best]
    return MleResult(
        theta_u_hat=x[:n_theta],
        beta_hat=float(x[n_theta]),
        delta_hat=float(x[n_theta + 1]),
        loglik=records[best].loglik,
        per_start=tuple(records),
        best_start_index=best,
        profile_betas=None if profile is None else tuple(betas.tolist()),
        profile_deltas=None if profile is None else tuple(deltas.tolist()),
        profile_loglik=profile,
        profile_steps=steps,
    )
