"""Reference computations for the output checks.

Everything here is written from the documented model and file formats
(``docs/FORMATS.md`` and the ``hyperdisc.model`` module docstring) and
shares no code with ``hyperdisc``: NumPy is used for storage, random
streams and counting, the recursion itself runs in plain loops.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *components: int) -> int:
    """Stream seed as specified under "Seeds and random streams"."""
    state = splitmix64(base & _MASK64)
    for c in components:
        state = splitmix64(state ^ (c & _MASK64))
    return state


def backward(utility, transitions, beta, delta, horizon):
    """Solve the beta-delta model by backward induction.

    From a zero continuation value after period ``T``, for every period,
    state ``x`` and action ``i``:

        E_i(x)  = sum_y f(y | x, i) V[t+1](y)
        W[t,i,x] = u_i(x) + beta * delta * E_i(x)
        P[t,i,x] = exp(W[t,i,x]) / sum_j exp(W[t,j,x])
        V[t,x]   = log sum_i exp(W[t,i,x])
                   + (1 - beta) * delta * sum_i P[t,i,x] E_i(x)

    Returns ``(V, W, P, logP)`` with shapes (T, J) and (T, K, J).
    """
    u = np.asarray(utility, dtype=float)
    f = np.asarray(transitions, dtype=float)
    K, J = u.shape
    V = np.zeros((horizon, J))
    W = np.zeros((horizon, K, J))
    logP = np.zeros((horizon, K, J))
    v_next = [0.0] * J
    for t in range(horizon - 1, -1, -1):
        for x in range(J):
            expect = [sum(f[i, x, y] * v_next[y] for y in range(J)) for i in range(K)]
            w = [u[i, x] + beta * delta * expect[i] for i in range(K)]
            top = max(w)
            lse = top + math.log(sum(math.exp(wi - top) for wi in w))
            probs = [math.exp(wi - lse) for wi in w]
            V[t, x] = lse + (1.0 - beta) * delta * sum(
                probs[i] * expect[i] for i in range(K))
            for i in range(K):
                W[t, i, x] = w[i]
                logP[t, i, x] = w[i] - lse
        v_next = list(V[t])
    return V, W, np.exp(logP), logP


def system_ratios(utility, transitions, beta, delta, horizon):
    """Conditioning of the identification system ``[I, c1 I, c2 I] A = B``
    of a model with the same-state pairs ``(0, 1, x, x)``, x < J-1.

    On exact CCPs the pair log ratios are ``beta*delta`` times the
    state-differenced values ``v[t+1] = V[t+1](x) - V[t+1](J)``, so the
    period-``t`` column of A is ``beta*delta`` times

        [ F_K~ (v[t+1] - v[t]) ;  g[t] - g[t-1] ;  v[t] - v[t-1] ]

    with ``F_K~`` the rows ``F_K(x) - F_K(J)``,
    ``g[t] = (sum_i P[t,i,x] F_i(x) - sum_i P[t,i,J] F_i(J)) v[t+1]``
    and ``F_i(x)`` the first ``J-1`` entries of a transition row
    (``hyperdisc.identification``'s module docstring).  The common factor
    leaves ratios unchanged.  Returns ``(a_ratio, design_ratio)``: the
    smallest over the largest singular value of A, and of the two-column
    design ``[vec M2, vec M3]`` that the constrained fit regresses on.
    """
    V, _, P, _ = backward(utility, transitions, beta, delta, horizon)
    f = np.asarray(transitions, dtype=float)
    K, J = f.shape[0], f.shape[1]
    n1 = J - 1
    v = np.vstack([V[1:], np.zeros((1, J))])
    v = v[:, :n1] - v[:, n1:]                      # v[t] = differenced V[t+1]
    front = f[:, :, :n1]
    g = np.array([
        (sum(P[t, i, :n1, None] * front[i, :n1] for i in range(K))
         - sum(P[t, i, n1] * front[i, n1] for i in range(K))) @ v[t]
        for t in range(horizon)])
    F_K = front[K - 1, :n1] - front[K - 1, n1]
    cols = range(2, horizon)
    top = np.array([F_K @ (v[t] - v[t - 1]) for t in cols])
    mid = np.array([g[t] - g[t - 1] for t in cols])
    bottom = np.array([v[t - 1] - v[t - 2] for t in cols])
    a_sv = np.linalg.svd(np.hstack([top, mid, bottom]), compute_uv=False)
    d_sv = np.linalg.svd(np.column_stack([mid.ravel(), bottom.ravel()]),
                         compute_uv=False)
    return float(a_sv[-1] / a_sv[0]), float(d_sv[-1] / d_sv[0])


def choice_counts(states, actions, num_actions, num_states):
    """Observations per (period, action, state) cell."""
    states = np.asarray(states)
    actions = np.asarray(actions)
    T = states.shape[1]
    cell = (np.arange(T)[None, :] * num_actions + actions) * num_states + states
    return np.bincount(cell.ravel(), minlength=T * num_actions * num_states).reshape(
        T, num_actions, num_states)


def transition_counts(states, actions, num_actions, num_states):
    """Moves (x_t, a_t) -> x_{t+1} per (action, state, next state)."""
    states = np.asarray(states)
    actions = np.asarray(actions)
    cell = ((actions[:, :-1] * num_states + states[:, :-1]) * num_states
            + states[:, 1:])
    return np.bincount(cell.ravel(), minlength=num_actions * num_states ** 2).reshape(
        num_actions, num_states, num_states)


def transition_frequencies(states, actions, num_actions, num_states):
    """Row frequencies of the moves; a row never visited is uniform."""
    counts = transition_counts(states, actions, num_actions, num_states)
    totals = counts.sum(axis=2, keepdims=True)
    freq = np.full(counts.shape, 1.0 / num_states)
    seen = totals[..., 0] > 0
    freq[seen] = counts[seen] / totals[seen]
    return freq


def choice_loglik(counts, logP) -> float:
    """Choice-block log likelihood ``sum counts * log P`` over all cells."""
    return float(math.fsum((np.asarray(counts) * np.asarray(logP)).ravel()))


def binomial_se(p, n):
    """Standard error of a frequency with success probability ``p`` in ``n`` trials."""
    return np.sqrt(np.asarray(p) * (1.0 - np.asarray(p)) / np.asarray(n))


def log_ratio_se(p_i, p_ref, n):
    """Delta-method standard error of ``log(phat_i / phat_ref)`` for two
    cells of one multinomial with ``n`` trials."""
    return np.sqrt((1.0 / np.asarray(p_i) + 1.0 / np.asarray(p_ref)) / np.asarray(n))


def uniform_transitions(num_states, num_actions, seed):
    """Transition draw of the Monte Carlo design: uniform entries from a
    PCG64 stream, each row divided by its sum."""
    f = np.random.default_rng(seed).random((num_actions, num_states, num_states))
    return f / f.sum(axis=2, keepdims=True)


def _inverse_cdf(cum, u):
    """Smallest index whose cumulative probability exceeds ``u``."""
    for k, c in enumerate(cum):
        if u < c:
            return k
    return len(cum) - 1


def _running_sums(values):
    out, acc = [], 0.0
    for v in values:
        acc += v
        out.append(acc)
    return out


def simulate(P, transitions, n_agents, seed):
    """Panel drawn along the documented stream layout.

    Agent ``n`` draws ``1 + 2T`` uniforms from ``derive_seed(seed, n)``:
    the initial state, uniform over the states, then per period an action from the CCP column and
    a next state from the chosen action's transition row, each by
    inverse CDF.  Returns ``(states, actions)`` of shape (N, T).
    """
    P = np.asarray(P, dtype=float)
    f = np.asarray(transitions, dtype=float)
    T, K, J = P.shape
    cum_init = _running_sums([1.0 / J] * J)
    cum_p = [[_running_sums(P[t, :, x]) for x in range(J)] for t in range(T)]
    cum_f = [[_running_sums(f[a, x]) for x in range(J)] for a in range(K)]
    states = np.empty((n_agents, T), dtype=np.int64)
    actions = np.empty((n_agents, T), dtype=np.int64)
    for n in range(n_agents):
        u = np.random.default_rng(derive_seed(seed, n)).random(1 + 2 * T).tolist()
        x = _inverse_cdf(cum_init, u[0])
        for t in range(T):
            a = _inverse_cdf(cum_p[t][x], u[1 + 2 * t])
            states[n, t] = x
            actions[n, t] = a
            x = _inverse_cdf(cum_f[a][x], u[2 + 2 * t])
    return states, actions


class PanelFormatError(ValueError):
    """A panel file that breaks the documented CSV format."""


def read_panel(path, n_agents, horizon):
    """Parse a panel CSV and return ``(states, actions)`` of shape (N, T).

    Requires the exact header, ``N * T`` integer rows, and every agent
    ``0 .. N-1`` covering every period ``1 .. T`` exactly once.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != b"agent,period,state,action\n":
            raise PanelFormatError(f"unexpected header {header!r}")
        body = fh.read()
    if body and not body.endswith(b"\n"):
        raise PanelFormatError("file does not end with a line feed")
    rows = body.split(b"\n")[:-1]
    if len(rows) != n_agents * horizon:
        raise PanelFormatError(f"{len(rows)} rows, expected {n_agents * horizon}")
    if not all(r.count(b",") == 3 for r in rows):
        raise PanelFormatError("every row must have 4 fields")
    try:
        data = np.array(b",".join(rows).split(b","), dtype=np.int64).reshape(-1, 4)
    except ValueError:
        raise PanelFormatError("every field must be an integer") from None
    agent, period, state, action = data.T
    if agent.min() < 0 or agent.max() >= n_agents or period.min() < 1 \
            or period.max() > horizon or state.min() < 0 or action.min() < 0:
        raise PanelFormatError("agent, period, state or action out of range")
    seen = np.zeros((n_agents, horizon), dtype=np.int64)
    np.add.at(seen, (agent, period - 1), 1)
    if not np.all(seen == 1):
        raise PanelFormatError("some agent does not cover every period exactly once")
    states = np.empty((n_agents, horizon), dtype=np.int64)
    actions = np.empty((n_agents, horizon), dtype=np.int64)
    states[agent, period - 1] = state
    actions[agent, period - 1] = action
    return states, actions
