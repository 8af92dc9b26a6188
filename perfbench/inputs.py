"""Seeded inputs of the three workloads.

Built with NumPy alone, so that the workload process and the checks
derive the same inputs, and the truth they are checked against, from
the workload seed without touching ``hyperdisc``.
"""

from __future__ import annotations

import numpy as np

import reference

# The acceptance replication design (tests/test_acceptance.py, setting 1):
# the McConfig defaults with the acceptance study's base seed.
MC_DESIGN = {
    "num_states": 5, "num_actions": 2, "horizon": 16,
    "alpha0": 0.5, "alpha1": -0.2, "beta": 0.85, "delta": 0.9,
    "base_seed": 20260801,
}
MC_SAMPLE_SIZE = 2000
# Replications per round.  Single replications take 1.7-3.1 s here, with
# 3,400-6,600 likelihood evaluations, so a round is 25-30 s and the
# median over a round is steadier than any one replication.
MC_ROUND = 10
# Stream tags of docs/FORMATS.md: transition design and replication panel.
TRANSITION_STREAM = 1
PANEL_STREAM = 2

PANEL_AGENTS = 20_000
PANEL_SHAPE = (5, 2, 16)  # J, K, T

# (J, K) of the identification sweep; every model has T = 3J + 1.
SWEEP_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (5, 3), (6, 2),
                (8, 2), (10, 3), (12, 2), (15, 2), (20, 2), (20, 3))
SWEEP_MODELS_PER_SHAPE = 3
# A sweep draw whose constrained-LS design is closer to collinear than
# this is drawn again: on such a draw the recovery error is set by
# rounding, not by the method (the J = 2, T = 7 draw
# sweep_model(4, (2, 2, 1), 1), at 9.3e-8, missed beta by 1.2e-5 and
# still reported in_range).
DESIGN_GATE = 1e-4
# The right inverse runs on J = 2 models whose A clears the acceptance
# suite's singular-value gate, with 1 % to spare: the reference ratio and
# the library's differ by about 1e-8 relative at this size.
RIGHT_INVERSE_GATE = 1e-6
RIGHT_INVERSE_MARGIN = 1.01


def mc_replications(seed: int):
    """Replication indices of one round, the same in every round."""
    return [1000 * seed + j for j in range(MC_ROUND)]


def mc_utility():
    J, K = MC_DESIGN["num_states"], MC_DESIGN["num_actions"]
    u = np.zeros((K, J))
    u[0] = MC_DESIGN["alpha0"] + MC_DESIGN["alpha1"] * np.arange(J, dtype=float)
    return u


def mc_transitions():
    """The design's transition tensor, fixed across replications."""
    return reference.uniform_transitions(
        MC_DESIGN["num_states"], MC_DESIGN["num_actions"],
        reference.derive_seed(MC_DESIGN["base_seed"], TRANSITION_STREAM))


def mc_panel_seed(replication: int) -> int:
    rep = reference.derive_seed(MC_DESIGN["base_seed"], replication, MC_SAMPLE_SIZE)
    return reference.derive_seed(rep, PANEL_STREAM)


def random_model(rng, J, K, T):
    """Model document with J-1 same-state equal-payoff pairs.

    Pairs equate actions 0 and 1 at states 0 .. J-2, where the log CCP
    ratio inversion is exact.
    """
    beta = float(rng.uniform(0.6, 0.95))
    delta = float(rng.uniform(0.6, 0.95))
    f = rng.random((K, J, J))
    f /= f.sum(axis=2, keepdims=True)
    u = rng.normal(size=(K, J))
    pairs = [[0, 1, x, x] for x in range(J - 1)]
    for k, l, x1, x2 in pairs:
        u[l, x2] = u[k, x1]
    return {
        "num_states": J, "num_actions": K, "horizon": T,
        "beta": beta, "delta": delta,
        "utility": u.tolist(), "transitions": f.tolist(),
        "state_values": list(range(J)), "equality_pairs": pairs,
    }


def panel_model(seed: int) -> dict:
    J, K, T = PANEL_SHAPE
    return random_model(np.random.default_rng([seed, 1]), J, K, T)


def panel_seed(seed: int) -> int:
    """Simulation seed of every operation."""
    return reference.derive_seed(seed, 2, 0)


def sweep_slots():
    """``(J, K, i)`` for the i-th model of each sweep shape."""
    return [(J, K, i) for J, K in SWEEP_SHAPES for i in range(SWEEP_MODELS_PER_SHAPE)]


def sweep_model(seed: int, slot, candidate: int):
    """Model document and auxiliary-state matrix of one sweep slot.

    ``candidate`` numbers the draws for the slot, for when a draw is
    rejected as too ill conditioned.
    """
    J, K, i = slot
    rng = np.random.default_rng([seed, 3, J, K, i, candidate])
    model = random_model(rng, J, K, 3 * J + 1)
    M = int(rng.integers(2, 4))
    H = rng.random((M, M))
    H /= H.sum(axis=1, keepdims=True)
    return model, H.tolist()


def sweep_cases(seed: int):
    """``(model document, auxiliary matrix, run the right inverse)`` for
    every sweep slot: its first draw that clears ``DESIGN_GATE``.

    The gates read ``reference.system_ratios``, so which models the
    sweep times depends on the seed alone.
    """
    cases = []
    for slot in sweep_slots():
        for candidate in range(100):
            model, macro = sweep_model(seed, slot, candidate)
            a_ratio, design_ratio = reference.system_ratios(
                model["utility"], model["transitions"], model["beta"],
                model["delta"], model["horizon"])
            if design_ratio >= DESIGN_GATE:
                break
        else:
            raise RuntimeError(f"no usable model for sweep slot {slot}")
        right_inverse = (model["num_states"] == 2
                         and a_ratio > RIGHT_INVERSE_MARGIN * RIGHT_INVERSE_GATE)
        cases.append((model, macro, right_inverse))
    return cases
