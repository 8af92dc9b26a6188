"""Shared builders and independent oracles for the test suite."""

import dataclasses
import json
import math

import numpy as np

from hyperdisc import ModelSpec, random_transitions
from hyperdisc.montecarlo import McConfig, design_model

# Transition draw for the canonical 5-state, 2-action, 16-period design
# used across the suite.  Chosen once so that the design's assembled
# regressor matrix is structurally full rank with comfortable margin.
CANONICAL_TRANSITION_SEED = 56


def make_random_model(seed, num_states=3, num_actions=2, horizon=None,
                      beta=None, delta=None, u_scale=2.5):
    """Random model whose utilities admit J-1 same-state equal-payoff pairs.

    Pairs equalize actions 0 and 1 at states 0 .. J-2, which keeps the
    log CCP-ratio inversion exact.
    """
    rng = np.random.default_rng(seed)
    J, K = num_states, num_actions
    T = horizon if horizon is not None else 3 * J - 1 + 2
    b = beta if beta is not None else float(rng.uniform(0.6, 0.95))
    d = delta if delta is not None else float(rng.uniform(0.6, 0.95))
    f = rng.random((K, J, J))
    f /= f.sum(axis=2, keepdims=True)
    u = rng.normal(scale=u_scale, size=(K, J))
    pairs = tuple((0, 1, x, x) for x in range(J - 1))
    for (k, l, x1, x2) in pairs:
        u[l, x2] = u[k, x1]
    return ModelSpec(
        num_states=J, num_actions=K, horizon=T, beta=b, delta=d,
        utility=u, transitions=f, equality_pairs=pairs,
    )


def model_document(model):
    """``model`` as the JSON model document of docs/FORMATS.md."""
    return json.loads(json.dumps(dataclasses.asdict(model),
                                 default=lambda value: value.tolist()))


def write_model(model, path):
    """Write ``model`` to ``path`` as a JSON model document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_document(model), fh, indent=2)


def canonical_design(setting=1, transition_seed=CANONICAL_TRANSITION_SEED,
                     horizon=16):
    """The 5-state linear-payoff design with its cross-state pairs."""
    delta, beta = (0.9, 0.85) if setting == 1 else (0.75, 0.7)
    config = McConfig(beta=beta, delta=delta, horizon=horizon)
    transitions = random_transitions(config.num_states, config.num_actions,
                                     transition_seed)
    return design_model(config, transitions)


def exponential_solution(utility, transitions, delta, horizon):
    """Independent plain-exponential solver used as the beta = 1 oracle.

    Written with explicit per-state loops and math-module arithmetic on
    purpose, sharing no code with the package's vectorized recursion:
    V_t(x) = log sum_i exp(u_i(x) + delta * sum_x' V_{t+1}(x') f(x'|x,i)).
    """
    u = [list(map(float, row)) for row in np.asarray(utility)]
    f = np.asarray(transitions, dtype=float)
    K = len(u)
    J = len(u[0])
    V = [[0.0] * J for _ in range(horizon)]
    P = [[[0.0] * J for _ in range(K)] for _ in range(horizon)]
    v_next = [0.0] * J
    for t in range(horizon - 1, -1, -1):
        for x in range(J):
            vals = []
            for i in range(K):
                cont = sum(v_next[y] * f[i, x, y] for y in range(J))
                vals.append(u[i][x] + delta * cont)
            m = max(vals)
            denom = sum(math.exp(v - m) for v in vals)
            V[t][x] = m + math.log(denom)
            for i in range(K):
                P[t][i][x] = math.exp(vals[i] - m) / denom
        v_next = V[t]
    return np.array(V), np.array(P)
