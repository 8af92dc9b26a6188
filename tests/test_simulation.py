import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from hyperdisc import (
    InvalidInputError,
    ModelSpec,
    PanelData,
    derive_seed,
    empirical_ccps,
    estimate_transitions,
    random_transitions,
    simulate_panel,
    solve_backward,
)
from hyperdisc.simulation import _agent_seeds, _default_rng_uniforms
from conftest import canonical_design, make_random_model


class TestRandomTransitions:
    def test_rows_sum_to_one(self):
        f = random_transitions(6, 3, seed=0)
        assert f.shape == (3, 6, 6)
        assert_allclose(f.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    def test_entries_strictly_positive(self):
        f = random_transitions(5, 2, seed=1)
        assert np.all(f > 0)

    def test_seed_determinism(self):
        a = random_transitions(4, 2, seed=7)
        b = random_transitions(4, 2, seed=7)
        c = random_transitions(4, 2, seed=8)
        assert_array_equal(a, b)
        assert np.abs(a - c).max() > 1e-6

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidInputError):
            random_transitions(0, 2, seed=0)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        seen = {derive_seed(42, k) for k in range(1000)}
        assert len(seen) == 1000
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_64_bit_range(self):
        for value in (derive_seed(0), derive_seed(2**63, 5), derive_seed(-1, 7)):
            assert 0 <= value < 2**64


class TestWholeArrayStreams:
    @pytest.mark.parametrize("length", [1, 33])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_uniforms_match_default_rng(self, seed, length):
        got = _default_rng_uniforms(np.array([seed], dtype=np.uint64), length)
        assert_array_equal(got[0], np.random.default_rng(seed).random(length))

    @pytest.mark.parametrize("base_seed", [-1, 2**64 - 1, 2**70])
    def test_agent_seeds_match_derive_seed(self, base_seed):
        seeds = _agent_seeds(base_seed, 1000)
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [derive_seed(base_seed, n) for n in range(1000)]

    @pytest.mark.parametrize("n_agents", [1, 3])
    def test_no_overflow_warning_escapes(self, n_agents):
        model = make_random_model(7)
        sol = solve_backward(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = simulate_panel(model, sol, n_agents, seed=2**64 - 1)
            derive_seed(2**64 - 1, 2**64 - 1)
        states, actions = per_agent_reference(model, sol, n_agents, seed=2**64 - 1)
        assert_array_equal(panel.states, states)
        assert_array_equal(panel.actions, actions)

    def test_simulate_panel_builds_no_generator(self, monkeypatch):
        model = make_random_model(8)
        sol = solve_backward(model)
        states, actions = per_agent_reference(model, sol, 40, seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("simulate_panel must not build a generator per agent")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        panel = simulate_panel(model, sol, 40, seed=5)
        assert_array_equal(panel.states, states)
        assert_array_equal(panel.actions, actions)


def per_agent_reference(model, solution, n_agents, initial_dist=None, seed=0):
    """The panel drawn agent by agent and period by period, one scalar
    ``searchsorted`` per draw, from the streams of docs/FORMATS.md."""
    J, K, T = model.num_states, model.num_actions, model.horizon
    if initial_dist is None:
        initial_dist = np.full(J, 1.0 / J)
    cum_init = np.cumsum(np.asarray(initial_dist, dtype=float))
    cum_p = np.cumsum(solution.P, axis=1)
    cum_f = np.cumsum(model.transitions, axis=2)
    states = np.empty((n_agents, T), dtype=np.int64)
    actions = np.empty((n_agents, T), dtype=np.int64)
    for n in range(n_agents):
        u = np.random.default_rng(derive_seed(seed, n)).random(1 + 2 * T)
        x = min(int(np.searchsorted(cum_init, u[0], side="right")), J - 1)
        for t in range(T):
            a = min(int(np.searchsorted(cum_p[t, :, x], u[1 + 2 * t], side="right")),
                    K - 1)
            states[n, t] = x
            actions[n, t] = a
            if t < T - 1:
                x = min(int(np.searchsorted(cum_f[a, x], u[2 + 2 * t], side="right")),
                        J - 1)
    return states, actions


def _reference_case(name):
    """(model, n_agents, initial_dist) of one edge case of the walk."""
    if name == "one_state":
        model = ModelSpec(num_states=1, num_actions=2, horizon=4, beta=0.8, delta=0.9,
                          utility=[[0.3], [0.0]], transitions=np.ones((2, 1, 1)))
        return model, 50, None
    if name == "one_period":
        return make_random_model(200, num_states=4, horizon=1), 60, None
    if name == "one_agent":
        return make_random_model(201), 1, None
    if name == "three_actions":
        return make_random_model(202, num_states=4, num_actions=3), 80, None
    if name == "zero_mass_ends":
        return make_random_model(203, num_states=4), 80, [0.0, 0.3, 0.7, 0.0]
    # payoffs x900 push every CCP to exactly 0 or 1
    base = make_random_model(204, num_states=4, num_actions=3)
    model = ModelSpec(num_states=4, num_actions=3, horizon=base.horizon, beta=base.beta,
                      delta=base.delta, utility=900.0 * base.utility,
                      transitions=base.transitions)
    return model, 80, None


class TestSimulatePanel:
    @pytest.mark.parametrize("case", ["one_state", "one_period", "one_agent",
                                      "three_actions", "zero_mass_ends", "saturated"])
    def test_matches_per_agent_reference(self, case):
        model, n_agents, init = _reference_case(case)
        sol = solve_backward(model)
        if case == "saturated":
            assert np.any(sol.P == 0.0) and np.any(sol.P == 1.0)
        panel = simulate_panel(model, sol, n_agents, initial_dist=init, seed=31)
        states, actions = per_agent_reference(model, sol, n_agents, init, seed=31)
        assert_array_equal(panel.states, states)
        assert_array_equal(panel.actions, actions)

    def test_seed_determinism(self):
        model = make_random_model(0)
        sol = solve_backward(model)
        a = simulate_panel(model, sol, 50, seed=3)
        b = simulate_panel(model, sol, 50, seed=3)
        c = simulate_panel(model, sol, 50, seed=4)
        assert_array_equal(a.states, b.states)
        assert_array_equal(a.actions, b.actions)
        assert (a.states != c.states).any() or (a.actions != c.actions).any()

    def test_agent_prefix_stability(self):
        # agent n's path does not depend on how many other agents exist
        model = make_random_model(1)
        sol = solve_backward(model)
        small = simulate_panel(model, sol, 10, seed=9)
        large = simulate_panel(model, sol, 40, seed=9)
        assert_array_equal(small.states, large.states[:10])
        assert_array_equal(small.actions, large.actions[:10])

    def test_dominant_action_always_taken(self):
        # a huge payoff gap pushes the CCP numerically to 1
        J, K = 3, 2
        u = np.zeros((K, J))
        u[0] = 60.0
        f = random_transitions(J, K, seed=2)
        model = ModelSpec(num_states=J, num_actions=K, horizon=5, beta=0.9,
                          delta=0.9, utility=u, transitions=f)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 200, seed=5)
        assert np.all(panel.actions == 0)

    def test_identity_transitions_freeze_state(self):
        J, K = 4, 2
        f = np.broadcast_to(np.eye(J), (K, J, J)).copy()
        model = ModelSpec(num_states=J, num_actions=K, horizon=6, beta=0.9,
                          delta=0.9, utility=np.zeros((K, J)), transitions=f)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 100, seed=6)
        assert np.all(panel.states == panel.states[:, :1])

    def test_initial_distribution_respected(self):
        model = make_random_model(3)
        sol = solve_backward(model)
        init = np.zeros(model.num_states)
        init[2] = 1.0
        panel = simulate_panel(model, sol, 50, initial_dist=init, seed=7)
        assert np.all(panel.states[:, 0] == 2)

    def test_invalid_initial_distribution(self):
        model = make_random_model(4)
        sol = solve_backward(model)
        with pytest.raises(InvalidInputError):
            simulate_panel(model, sol, 10, initial_dist=[0.5, 0.2, 0.1], seed=0)

    def test_large_sample_frequencies_match_solution(self):
        # law of large numbers at N=20000 on the canonical design
        model = canonical_design(setting=1)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 20000, seed=11)
        est = empirical_ccps(panel, model.num_states, model.num_actions)
        dev = np.abs(est.p_hat - sol.P)[est.visited[:, None, :]
                                        .repeat(model.num_actions, axis=1)]
        assert np.nanmax(dev) < 0.025

    @pytest.mark.parametrize("n_agents,tol", [(1000, 0.05), (10000, 0.02),
                                              (100000, 0.01)])
    def test_consistency_thresholds(self, n_agents, tol):
        # a 2-state design keeps every (t, x) cell well populated, so the
        # max-norm thresholds track the shrinking sampling error
        model = make_random_model(100, num_states=2, num_actions=2,
                                  horizon=4, u_scale=1.0)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, n_agents, seed=0)
        est = empirical_ccps(panel, model.num_states, model.num_actions)
        mask = np.broadcast_to(est.visited[:, None, :], est.p_hat.shape)
        dev = np.abs(est.p_hat - sol.P)[mask]
        assert dev.max() < tol

    def test_categorical_draws_match_gumbel_argmax_distribution(self):
        # sampling actions from softmax probabilities is distributionally
        # identical to adding extreme value noise and maximizing
        w = np.array([0.8, -0.3, 0.1])
        probs = np.exp(w) / np.exp(w).sum()
        n = 100000
        rng = np.random.default_rng(13)
        gumbel_actions = np.argmax(w + rng.gumbel(size=(n, 3)), axis=1)
        counts = np.bincount(gumbel_actions, minlength=3)
        result = stats.chisquare(counts, f_exp=n * probs)
        assert result.pvalue > 0.001


class TestPanelData:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InvalidInputError):
            PanelData(states=np.zeros((2, 3), dtype=np.int64),
                      actions=np.zeros((2, 4), dtype=np.int64))

    def test_rejects_float_arrays(self):
        with pytest.raises(InvalidInputError):
            PanelData(states=np.zeros((2, 3)), actions=np.zeros((2, 3)))

    def test_rejects_negative_indices(self):
        s = np.zeros((2, 3), dtype=np.int64)
        a = np.zeros((2, 3), dtype=np.int64)
        a[0, 0] = -1
        with pytest.raises(InvalidInputError):
            PanelData(states=s, actions=a)

    def test_rejects_indices_beyond_int64(self):
        s = np.full((2, 3), 1 << 63, dtype=np.uint64)
        a = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(InvalidInputError, match="non-negative int64"):
            PanelData(states=s, actions=a)


class TestEmpiricalCcps:
    def test_unanimous_cell(self):
        states = np.zeros((5, 1), dtype=np.int64)
        actions = np.ones((5, 1), dtype=np.int64)
        est = empirical_ccps(PanelData(states=states, actions=actions), 2, 2)
        assert est.p_hat[0, 1, 0] == 1.0
        assert est.counts[0, 1, 0] == 5

    def test_hand_counted_frequencies(self):
        # three agents at (t=1, x=1) playing actions (0, 0, 1)
        states = np.full((3, 1), 1, dtype=np.int64)
        actions = np.array([[0], [0], [1]], dtype=np.int64)
        est = empirical_ccps(PanelData(states=states, actions=actions), 3, 2)
        assert est.p_hat[0, 0, 1] == pytest.approx(2.0 / 3.0)
        assert est.p_hat[0, 1, 1] == pytest.approx(1.0 / 3.0)

    def test_unvisited_cells_flagged(self):
        states = np.zeros((4, 2), dtype=np.int64)
        actions = np.zeros((4, 2), dtype=np.int64)
        est = empirical_ccps(PanelData(states=states, actions=actions), 3, 2)
        assert est.visited[0, 0]
        assert not est.visited[0, 1]
        assert np.isnan(est.p_hat[0, 0, 1])

    def test_visited_cells_sum_to_one(self):
        model = make_random_model(5)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 300, seed=1)
        est = empirical_ccps(panel, model.num_states, model.num_actions)
        sums = est.p_hat.sum(axis=1)[est.visited]
        assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_range_validation(self):
        states = np.full((2, 2), 5, dtype=np.int64)
        actions = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(InvalidInputError):
            empirical_ccps(PanelData(states=states, actions=actions), 3, 2)


def _loop_ccp_counts(panel, J, K):
    counts = np.zeros((panel.horizon, K, J), dtype=np.int64)
    for n in range(panel.n_agents):
        for t in range(panel.horizon):
            counts[t, panel.actions[n, t], panel.states[n, t]] += 1
    return counts


def _loop_transition_counts(panel, J, K):
    counts = np.zeros((K, J, J), dtype=np.int64)
    for n in range(panel.n_agents):
        for t in range(panel.horizon - 1):
            counts[panel.actions[n, t], panel.states[n, t], panel.states[n, t + 1]] += 1
    return counts


class TestCountsMatchPlainLoops:
    @pytest.mark.parametrize("horizon", [1, 2, 5])
    def test_three_actions_with_unvisited_cells(self, horizon):
        # states 0..4 of J = 6 and actions 0..2 of K = 3: state 5 is never seen
        rng = np.random.default_rng(horizon)
        panel = PanelData(states=rng.integers(0, 5, (9, horizon)),
                          actions=rng.integers(0, 3, (9, horizon)))
        ccps = empirical_ccps(panel, 6, 3)
        assert ccps.counts.dtype == np.int64
        assert_array_equal(ccps.counts, _loop_ccp_counts(panel, 6, 3))
        assert not ccps.visited[:, 5].any()
        if horizon > 1:
            trans = estimate_transitions(panel, 6, 3)
            assert trans.counts.dtype == np.int64
            assert_array_equal(trans.counts, _loop_transition_counts(panel, 6, 3))
            assert not trans.visited[:, 5].any()

    def test_simulated_panel(self):
        model = make_random_model(9, num_actions=3)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 200, seed=4)
        J, K = model.num_states, model.num_actions
        assert_array_equal(empirical_ccps(panel, J, K).counts, _loop_ccp_counts(panel, J, K))
        assert_array_equal(estimate_transitions(panel, J, K).counts,
                           _loop_transition_counts(panel, J, K))


class TestEstimateTransitions:
    def test_hand_counted_row(self):
        # moves from (x=1, a=0): to 1, to 1, to 2
        states = np.array([[1, 1], [1, 1], [1, 2]], dtype=np.int64)
        actions = np.zeros((3, 2), dtype=np.int64)
        est = estimate_transitions(PanelData(states=states, actions=actions), 3, 2)
        assert est.f_hat[0, 1, 1] == pytest.approx(2.0 / 3.0)
        assert est.f_hat[0, 1, 2] == pytest.approx(1.0 / 3.0)
        assert est.visited[0, 1]

    def test_deterministic_chain_recovered(self):
        J, K = 3, 2
        f = np.zeros((K, J, J))
        f[:, 0, 1] = 1.0
        f[:, 1, 2] = 1.0
        f[:, 2, 0] = 1.0
        model = ModelSpec(num_states=J, num_actions=K, horizon=7, beta=0.9,
                          delta=0.9, utility=np.zeros((K, J)), transitions=f)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 60, seed=2)
        est = estimate_transitions(panel, J, K)
        assert_array_equal(est.f_hat[est.visited], f[est.visited])

    def test_unvisited_rows_uniform_and_flagged(self):
        states = np.zeros((3, 2), dtype=np.int64)
        actions = np.zeros((3, 2), dtype=np.int64)
        est = estimate_transitions(PanelData(states=states, actions=actions), 3, 2)
        assert not est.visited[1, 2]
        assert_allclose(est.f_hat[1, 2], 1.0 / 3.0, rtol=0, atol=1e-15)

    def test_needs_two_periods(self):
        states = np.zeros((3, 1), dtype=np.int64)
        actions = np.zeros((3, 1), dtype=np.int64)
        with pytest.raises(InvalidInputError):
            estimate_transitions(PanelData(states=states, actions=actions), 2, 2)

    def test_rows_sum_to_one(self):
        model = make_random_model(6)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 500, seed=3)
        est = estimate_transitions(panel, model.num_states, model.num_actions)
        assert_allclose(est.f_hat.sum(axis=2), 1.0, rtol=0, atol=1e-12)
