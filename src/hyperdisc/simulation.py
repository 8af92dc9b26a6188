"""Panel simulation and the frequency estimators it feeds.

Actions are sampled directly from the solved conditional choice
probabilities rather than by drawing extreme value shocks and
maximizing; the two procedures are identical in distribution, and the
direct draw sidesteps any shock-location convention.  Every agent owns
an independent random stream derived from ``(base_seed, agent_id)``
through the splitmix64-based mixer below, so panels are reproducible
byte for byte and independent of any parallel scheduling.  The
uniforms of all agents' streams come from one whole-array run of
NumPy's SeedSequence and PCG64, and the walk moves every agent one
period at a time with whole-array inverse-CDF steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .model import ModelSpec, ValueSolution, _check_distributions, _check_int

_MASK64 = (1 << 64) - 1
_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SPLITMIX = (_U64(0x9E3779B97F4A7C15), _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 of every entry of a uint64 array (products wrap mod 2**64)."""
    golden, mult1, mult2 = _SPLITMIX
    z = z + golden
    z = (z ^ (z >> _U64(30))) * mult1
    z = (z ^ (z >> _U64(27))) * mult2
    return z ^ (z >> _U64(31))


def _seed_array(value: int) -> np.ndarray:
    return np.array([int(value) & _MASK64], dtype=np.uint64)


def derive_seed(base_seed: int, *components: int) -> int:
    """Mix a base seed with integer components into a 64-bit stream seed.

    ``derive_seed(s, a, b)`` folds each component in order through
    splitmix64, so distinct component tuples give independent-looking
    streams while identical tuples always reproduce the same one.
    """
    state = _splitmix64(_seed_array(base_seed))
    for c in components:
        state = _splitmix64(state ^ _seed_array(c))
    return int(state[0])


def _agent_seeds(base_seed: int, n_agents: int) -> np.ndarray:
    """``derive_seed(base_seed, n)`` for every n < n_agents, as one uint64 array."""
    return _splitmix64(_seed_array(derive_seed(base_seed))
                       ^ np.arange(n_agents, dtype=np.uint64))


# NumPy's SeedSequence (pool size 4, 32-bit words) and its hash constants.
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The (xor, multiplier) pair of each successive hashmix call."""
    pairs = []
    for _ in range(count):
        nxt = (init * mult) & 0xFFFFFFFF
        pairs.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return pairs


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12)   # mix_entropy
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)       # generate_state


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


# PCG64 (XSL-RR 128/64): 128-bit integers are (high, low) uint64 pairs.
_PCG_MULT_HI = _U64(2549297995355413924)
_PCG_MULT_LO = _U64(4865540595714422341)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _U64(32)
    b0, b1 = b & _MASK32, b >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _add128(hi, lo, add_hi, add_lo):
    low = lo + add_lo
    return hi + add_hi + (low < lo).astype(np.uint64), low


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc, modulo 2**128."""
    prod_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _seed_sequence_words(seeds: np.ndarray) -> list:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every seed, as four arrays."""
    # entropy words [lo32, hi32]; NumPy keeps one word for an entropy
    # below 2**32, but the pool pads it with hashmix(0) all the same
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> _U64(32)).astype(np.uint32),
             zero, zero]
    hashes = iter(_POOL_HASH)
    pool = [_hashmix(word, next(hashes)) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    # eight 32-bit words, paired little-endian
    state = [_hashmix(pool[i % 4], _STATE_HASH[i]).astype(np.uint64) for i in range(8)]
    return [state[2 * k] | (state[2 * k + 1] << _U64(32)) for k in range(4)]


def _default_rng_uniforms(seeds: np.ndarray, length: int) -> np.ndarray:
    """Row ``n`` is ``np.random.default_rng(int(seeds[n])).random(length)``.

    Runs NumPy's SeedSequence and PCG64 for every seed at once, in
    uint32 and uint64 whole-array arithmetic that wraps like theirs;
    docs/FORMATS.md spells out the stream.
    """
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_words(np.asarray(seeds, dtype=np.uint64))
    # PCG64 seeding: inc = (initseq << 1) | 1; state = 0, step (which
    # leaves inc), state += initstate, step
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((length, len(inc_lo)))
    for row in out:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        value, rot = hi ^ lo, hi >> _U64(58)
        value = (value >> rot) | (value << ((_U64(64) - rot) & _U64(63)))
        np.multiply(value >> _U64(11), 2.0 ** -53, out=row)
    return out.T


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
        # an unsigned value beyond the int64 range turns negative here
        states = np.ascontiguousarray(states, dtype=np.int64)
        actions = np.ascontiguousarray(actions, dtype=np.int64)
        if states.min() < 0 or actions.min() < 0:
            raise InvalidInputError(
                "state and action indices must be non-negative int64 values")
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


def _initial_dist(value, J) -> np.ndarray:
    """The starting-state distribution: uniform when ``value`` is None,
    else ``value`` as a length-J probability vector (sum within 1e-9)."""
    if value is None:
        return np.full(J, 1.0 / J)
    return _check_distributions(value, "initial_dist", 1e-9, (J,))


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
    of the returned panel, by running every agent's stream at once.  The
    walk then moves all agents together, one period at a time; nothing
    loops over agents.
    """
    J, K, T = model.num_states, model.num_actions, model.horizon
    if solution.V.shape != (T, J) or solution.P.shape != (T, K, J):
        raise InvalidInputError("solution shapes do not match the model")
    n_agents = _check_int(n_agents, "n_agents")
    if n_agents < 1:
        raise InvalidInputError("n_agents must be positive")
    cum_init = np.cumsum(_initial_dist(initial_dist, J))
    cum_p = np.cumsum(solution.P, axis=1)      # over actions
    cum_f = np.cumsum(model.transitions, axis=2)  # over next states

    u = _default_rng_uniforms(_agent_seeds(seed, n_agents), 1 + 2 * T)
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


def _count_cells(shape, *indices) -> np.ndarray:
    """int64 occurrences of each cell of a ``shape`` array.

    ``indices`` holds one in-range index array per axis; they broadcast
    together and every broadcast element is one occurrence.
    """
    flat = indices[0]
    for size, index in zip(shape[1:], indices[1:]):
        flat = flat * size + index
    counts = np.bincount(np.ravel(flat), minlength=math.prod(shape))
    return counts.astype(np.int64, copy=False).reshape(shape)


def empirical_ccps(panel: PanelData, num_states: int, num_actions: int,
                   horizon: int | None = None) -> CcpEstimate:
    """Sample choice frequencies per (period, action, state) cell."""
    _check_panel_ranges(panel, num_states, num_actions)
    T = panel.horizon if horizon is None else _check_int(horizon, "horizon")
    if T != panel.horizon:
        raise InvalidInputError(f"panel has {panel.horizon} periods, expected {T}")
    counts = _count_cells((T, num_actions, num_states),
                          np.arange(T), panel.actions, panel.states)
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
    counts = _count_cells((num_actions, num_states, num_states),
                          panel.actions[:, :-1], panel.states[:, :-1], panel.states[:, 1:])
    row_totals = counts.sum(axis=2)            # (K, J)
    visited = row_totals > 0
    f_hat = np.full((num_actions, num_states, num_states), 1.0 / num_states)
    nz = visited
    f_hat[nz] = counts[nz] / row_totals[nz][:, None]
    return TransitionEstimate(f_hat=f_hat, counts=counts, visited=visited)
