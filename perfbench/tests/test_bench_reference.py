"""The benchmark's reference computations agree with the package.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
from hyperdisc import ModelSpec, PanelData, derive_seed, simulate_panel, solve_backward  # noqa: E402
from hyperdisc.fileio import model_from_dict, write_panel_csv  # noqa: E402
from hyperdisc.identification import identify_model  # noqa: E402


def _random_model(seed, beta=None):
    rng = np.random.default_rng(seed)
    J, K, T = int(rng.integers(2, 7)), int(rng.integers(2, 5)), int(rng.integers(2, 20))
    f = rng.random((K, J, J))
    f /= f.sum(axis=2, keepdims=True)
    return ModelSpec(
        num_states=J, num_actions=K, horizon=T,
        beta=float(rng.uniform(0.3, 1.0)) if beta is None else beta,
        delta=float(rng.uniform(0.3, 0.99)),
        utility=rng.normal(scale=2.0, size=(K, J)), transitions=f,
    )


@pytest.mark.parametrize("seed,beta", [(s, None) for s in range(6)]
                         + [(s, 1.0) for s in range(6, 10)])
def test_backward_matches_solve_backward(seed, beta):
    model = _random_model(seed, beta)
    V, W, P, logP = reference.backward(model.utility, model.transitions,
                                       model.beta, model.delta, model.horizon)
    sol = solve_backward(model)
    assert np.abs(V - sol.V).max() < 1e-10
    assert np.abs(W - sol.W).max() < 1e-10
    assert np.abs(P - sol.P).max() < 1e-10
    assert np.allclose(np.exp(logP), P, rtol=0, atol=1e-15)


def test_derive_seed_matches_documented_mixer():
    for base, comps in [(0, ()), (7, (1,)), (20260801, (3, 2000)), (2**64 + 5, (2**63, 1))]:
        assert reference.derive_seed(base, *comps) == derive_seed(base, *comps)


def test_stream_layout_reproduces_simulate_panel():
    model = _random_model(11)
    sol = solve_backward(model)
    panel = simulate_panel(model, sol, 200, seed=12345)
    states, actions = reference.simulate(sol.P, model.transitions, 200, 12345)
    assert np.array_equal(states, panel.states)
    assert np.array_equal(actions, panel.actions)


def test_read_panel_parses_the_package_writer(tmp_path):
    rng = np.random.default_rng(3)
    states = rng.integers(0, 4, size=(30, 6))
    actions = rng.integers(0, 3, size=(30, 6))
    path = tmp_path / "panel.csv"
    write_panel_csv(PanelData(states=states, actions=actions), path)
    got_states, got_actions = reference.read_panel(path, 30, 6)
    assert np.array_equal(got_states, states)
    assert np.array_equal(got_actions, actions)


@pytest.mark.parametrize("seed,slot", [(0, (2, 2, 0)), (0, (3, 3, 1)), (0, (8, 2, 2)),
                                       (0, (20, 3, 0)), (1, (2, 3, 1)), (2, (2, 2, 2))])
def test_system_ratios_match_identify_model_diagnostics(seed, slot):
    model, _ = inputs.sweep_model(seed, slot, 0)
    a_ratio, design_ratio = reference.system_ratios(
        model["utility"], model["transitions"], model["beta"], model["delta"],
        model["horizon"])
    diag = identify_model(model_from_dict(model), mode="constrained_ls").diagnostics
    assert design_ratio == pytest.approx(diag["design_singular_value_ratio"], rel=1e-8)
    if a_ratio > 1e-8:  # below that both read rounding
        assert a_ratio == pytest.approx(diag["singular_value_ratio"], rel=1e-6)
