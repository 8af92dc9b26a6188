"""Panel simulation and the frequency estimators it feeds.

Actions are sampled directly from the solved conditional choice
probabilities rather than by drawing extreme value shocks and
maximizing; the two procedures are identical in distribution, and the
direct draw sidesteps any shock-location convention.  Every agent owns
an independent random stream derived from ``(base_seed, agent_id)``
through the splitmix64-based mixer below, so panels are reproducible
byte for byte and independent of any parallel scheduling.  Only the
uniforms are drawn agent by agent; the walk itself moves every agent
one period at a time with whole-array inverse-CDF steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .model import ModelSpec, ValueSolution

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def derive_seed(base_seed: int, *components: int) -> int:
    """Mix a base seed with integer components into a 64-bit stream seed.

    ``derive_seed(s, a, b)`` folds each component in order through
    splitmix64, so distinct component tuples give independent-looking
    streams while identical tuples always reproduce the same one.
    """
    state = _splitmix64(int(base_seed) & _MASK64)
    for c in components:
        state = _splitmix64(state ^ (int(c) & _MASK64))
    return state


@dataclass(frozen=True)
class PanelData:
    """Balanced panel of observed states and actions.

    ``states`` and ``actions`` are (N, T) integer arrays; row ``n``
    holds agent ``n``'s trajectory over periods 1..T.  Agents are
    identified by row order.
    """

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        actions = np.asarray(self.actions)
        if states.ndim != 2 or states.shape != actions.shape:
            raise InvalidInputError("states and actions must be (N, T) with equal shapes")
        if states.size == 0:
            raise InvalidInputError("panel must contain at least one observation")
        if not (np.issubdtype(states.dtype, np.integer)
                and np.issubdtype(actions.dtype, np.integer)):
            raise InvalidInputError("states and actions must be integer arrays")
        if states.min() < 0 or actions.min() < 0:
            raise InvalidInputError("state and action indices must be non-negative")
        states = np.ascontiguousarray(states, dtype=np.int64)
        actions = np.ascontiguousarray(actions, dtype=np.int64)
        states.setflags(write=False)
        actions.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)

    @property
    def n_agents(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class CcpEstimate:
    """Empirical choice frequencies per (period, action, state).

    ``p_hat[t, i, x]`` is NaN when the (t, x) cell was never visited;
    ``visited`` flags which cells carry data.
    """

    p_hat: np.ndarray
    counts: np.ndarray
    visited: np.ndarray


@dataclass(frozen=True)
class TransitionEstimate:
    """Pooled transition frequencies per (action, state) row.

    Rows never visited are filled with the uniform distribution and
    flagged, which keeps downstream solvers total without hiding the
    missingness.
    """

    f_hat: np.ndarray
    counts: np.ndarray
    visited: np.ndarray


def random_transitions(num_states: int, num_actions: int, seed: int) -> np.ndarray:
    """Random transition tensor: uniform entries, rows normalized to 1."""
    if num_states < 1 or num_actions < 1:
        raise InvalidInputError("num_states and num_actions must be positive")
    rng = np.random.default_rng(seed)
    f = rng.random((num_actions, num_states, num_states))
    return f / f.sum(axis=2, keepdims=True)


def simulate_panel(model: ModelSpec, solution: ValueSolution, n_agents: int,
                   initial_dist=None, seed: int = 0) -> PanelData:
    """Draw a balanced panel from a solved model.

    Each agent starts from ``initial_dist`` (uniform when omitted), then
    repeatedly draws an action from the period/state CCP and a next
    state from the chosen action's transition row.  Agent ``n`` uses the
    stream ``derive_seed(seed, n)``, consuming one uniform for the
    initial state and two per period (the last state draw is unused).

    All ``1 + 2T`` uniforms of every agent are drawn first into one
    (N, 1 + 2T) float array, 8(1 + 2T) bytes per agent, about the size
    of the returned panel.  The walk then moves all agents together, one
    period at a time, so Python loops over agents only to fill that
    array.
    """
    J, K, T = model.num_states, model.num_actions, model.horizon
    if solution.V.shape != (T, J) or solution.P.shape != (T, K, J):
        raise InvalidInputError("solution shapes do not match the model")
    if n_agents < 1:
        raise InvalidInputError("n_agents must be positive")
    if initial_dist is None:
        initial_dist = np.full(J, 1.0 / J)
    initial_dist = np.asarray(initial_dist, dtype=float)
    if initial_dist.shape != (J,) or np.any(initial_dist < 0.0) \
            or abs(initial_dist.sum() - 1.0) > 1e-9:
        raise InvalidInputError("initial_dist must be a length-J probability vector")

    cum_init = np.cumsum(initial_dist)
    cum_p = np.cumsum(solution.P, axis=1)      # over actions
    cum_f = np.cumsum(model.transitions, axis=2)  # over next states

    u = np.empty((n_agents, 1 + 2 * T))
    for n in range(n_agents):
        u[n] = np.random.default_rng(derive_seed(seed, n)).random(1 + 2 * T)
    # inverse CDF on a non-decreasing c: count(c <= u) is
    # searchsorted(c, u, side="right"); the min guards rounding at the top
    states = np.empty((n_agents, T), dtype=np.int64)
    actions = np.empty((n_agents, T), dtype=np.int64)
    x = np.minimum((cum_init <= u[:, :1]).sum(axis=1), J - 1)
    for t in range(T):
        a = np.minimum((cum_p[t][:, x] <= u[:, 1 + 2 * t]).sum(axis=0), K - 1)
        states[:, t] = x
        actions[:, t] = a
        x = np.minimum((cum_f[a, x] <= u[:, 2 + 2 * t, None]).sum(axis=1), J - 1)
    return PanelData(states=states, actions=actions)


def _check_panel_ranges(panel: PanelData, num_states: int, num_actions: int):
    if panel.states.max() >= num_states:
        raise InvalidInputError(
            f"panel contains state index {panel.states.max()} >= num_states {num_states}"
        )
    if panel.actions.max() >= num_actions:
        raise InvalidInputError(
            f"panel contains action index {panel.actions.max()} >= num_actions {num_actions}"
        )


def empirical_ccps(panel: PanelData, num_states: int, num_actions: int,
                   horizon: int | None = None) -> CcpEstimate:
    """Sample choice frequencies per (period, action, state) cell."""
    _check_panel_ranges(panel, num_states, num_actions)
    T = panel.horizon if horizon is None else int(horizon)
    if T != panel.horizon:
        raise InvalidInputError(f"panel has {panel.horizon} periods, expected {T}")
    counts = np.zeros((T, num_actions, num_states), dtype=np.int64)
    t_idx = np.broadcast_to(np.arange(T), panel.states.shape)
    np.add.at(counts, (t_idx.ravel(), panel.actions.ravel(), panel.states.ravel()), 1)
    state_totals = counts.sum(axis=1)          # (T, J)
    visited = state_totals > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        p_hat = counts / state_totals[:, None, :]
    p_hat[~np.broadcast_to(visited[:, None, :], p_hat.shape)] = np.nan
    return CcpEstimate(p_hat=p_hat, counts=counts, visited=visited)


def estimate_transitions(panel: PanelData, num_states: int,
                         num_actions: int) -> TransitionEstimate:
    """Pooled frequency estimator of the transition rows.

    Counts (x_t, a_t) -> x_{t+1} moves over all agents and periods; the
    per-row frequencies are the maximum likelihood estimates for
    unrestricted time-invariant Markov cells.
    """
    _check_panel_ranges(panel, num_states, num_actions)
    if panel.horizon < 2:
        raise InvalidInputError("estimating transitions needs at least 2 periods")
    counts = np.zeros((num_actions, num_states, num_states), dtype=np.int64)
    a = panel.actions[:, :-1].ravel()
    x = panel.states[:, :-1].ravel()
    x_next = panel.states[:, 1:].ravel()
    np.add.at(counts, (a, x, x_next), 1)
    row_totals = counts.sum(axis=2)            # (K, J)
    visited = row_totals > 0
    f_hat = np.full((num_actions, num_states, num_states), 1.0 / num_states)
    nz = visited
    f_hat[nz] = counts[nz] / row_totals[nz][:, None]
    return TransitionEstimate(f_hat=f_hat, counts=counts, visited=visited)
