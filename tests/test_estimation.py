import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import approx_fprime

from hyperdisc import (
    InvalidInputError,
    MleConfig,
    ModelSpec,
    NonConvergenceError,
    PanelData,
    UtilitySpec,
    fit_mle,
    inverse_transform_params,
    log_likelihood,
    random_transitions,
    simulate_panel,
    solve_backward,
    transform_params,
)
from hyperdisc.simulation import empirical_ccps, estimate_transitions
from conftest import make_random_model


def linear_spec(num_states=5, state_values=None):
    return UtilitySpec(form="linear_in_state", num_actions=2,
                       num_states=num_states, state_values=state_values)


class TestUtilitySpec:
    def test_linear_build(self):
        spec = linear_spec(num_states=3)
        u = spec.build_utility([0.5, -0.2])
        assert_allclose(u[0], [0.5, 0.3, 0.1], rtol=0, atol=1e-15)
        assert_array_equal(u[1], np.zeros(3))

    def test_free_table_build(self):
        spec = UtilitySpec(form="free_table", num_actions=3, num_states=2)
        theta = [1.0, 2.0, 3.0, 4.0]
        u = spec.build_utility(theta)
        assert_array_equal(u[0], [1.0, 2.0])
        assert_array_equal(u[1], [3.0, 4.0])
        assert_array_equal(u[2], [0.0, 0.0])  # reference action pinned

    def test_reference_action_configurable(self):
        spec = UtilitySpec(form="linear_in_state", num_actions=2, num_states=3,
                           reference_action=0)
        u = spec.build_utility([1.0, 0.0])
        assert_array_equal(u[0], np.zeros(3))
        assert_allclose(u[1], 1.0)

    def test_param_count_below_table_size(self):
        spec = UtilitySpec(form="free_table", num_actions=2, num_states=4)
        assert spec.n_params == 4 < 8

    def test_unknown_form_rejected(self):
        with pytest.raises(InvalidInputError):
            UtilitySpec(form="quadratic", num_actions=2, num_states=3)

    def test_param_names(self):
        assert linear_spec(3).param_names() == ["alpha0_0", "alpha1_0"]


class TestParamTransform:
    def test_zero_maps_to_half(self):
        _, beta, delta = transform_params(np.zeros(2), 0)
        assert beta == pytest.approx(0.5, abs=1e-15)
        assert delta == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("value", [0.05, 0.3, 0.85, 0.999])
    def test_round_trip(self, value):
        raw = inverse_transform_params([1.5, -0.2], value, value)
        theta, beta, delta = transform_params(raw, 2)
        assert_allclose(theta, [1.5, -0.2], rtol=0, atol=1e-15)
        assert beta == pytest.approx(value, abs=1e-12)
        assert delta == pytest.approx(value, abs=1e-12)

    def test_monotone(self):
        raws = np.linspace(-5, 5, 21)
        betas = [transform_params(np.array([r, 0.0]), 0)[1] for r in raws]
        assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))

    def test_open_interval_enforced(self):
        theta, beta, delta = transform_params(np.array([800.0, -800.0]), 0)
        assert 0.0 < beta < 1.0
        assert 0.0 < delta < 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_inverse_rejects_boundary(self, bad):
        with pytest.raises(InvalidInputError):
            inverse_transform_params([], bad, 0.5)
        with pytest.raises(InvalidInputError):
            inverse_transform_params([], 0.5, bad)


class TestLogLikelihood:
    def test_uniform_ccp_contribution(self):
        # identical payoffs and identical transition rows across actions
        # force P = 1/K everywhere
        J, K = 3, 2
        f = random_transitions(J, K, seed=0)
        f[1] = f[0]
        spec = UtilitySpec(form="free_table", num_actions=K, num_states=J)
        panel = PanelData(states=np.array([[1]], dtype=np.int64),
                          actions=np.array([[0]], dtype=np.int64))
        ll = log_likelihood(panel, spec, np.zeros(J), 0.9, 0.9, f)
        assert ll == pytest.approx(math.log(0.5), abs=1e-12)

    def test_hand_enumerated_panel(self):
        # two agents, two periods: the value equals the sum of the four
        # individually looked-up log choice probabilities
        rng = np.random.default_rng(7)
        J, K = 3, 2
        f = random_transitions(J, K, seed=7)
        u = np.zeros((K, J))
        u[0] = rng.normal(size=J)  # reference action (the last) stays at zero
        model = ModelSpec(num_states=J, num_actions=K, horizon=2, beta=0.8,
                          delta=0.9, utility=u, transitions=f)
        sol = solve_backward(model)
        states = np.array([[0, 2], [1, 1]], dtype=np.int64)
        actions = np.array([[1, 0], [0, 1]], dtype=np.int64)
        panel = PanelData(states=states, actions=actions)
        expected = sum(
            math.log(sol.P[t, actions[n, t], states[n, t]])
            for n in range(2) for t in range(2)
        )
        spec = UtilitySpec(form="free_table", num_actions=K, num_states=J)
        got = log_likelihood(panel, spec, u[0], model.beta, model.delta,
                             model.transitions)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_total_likelihood_product_form(self):
        # the joint likelihood of actions and states factors into the CCP
        # block and the transition block
        model = make_random_model(8, num_states=3, horizon=4)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 5, seed=2)
        ccp_block = _loglik_with_utilities(panel, model.utility, model.beta,
                                           model.delta, model.transitions)
        trans_block = sum(
            math.log(model.transitions[panel.actions[n, t - 1],
                                       panel.states[n, t - 1],
                                       panel.states[n, t]])
            for n in range(panel.n_agents) for t in range(1, panel.horizon)
        )
        product_form = sum(
            math.log(sol.P[0, panel.actions[n, 0], panel.states[n, 0]])
            + sum(
                math.log(sol.P[t, panel.actions[n, t], panel.states[n, t]])
                + math.log(model.transitions[panel.actions[n, t - 1],
                                             panel.states[n, t - 1],
                                             panel.states[n, t]])
                for t in range(1, panel.horizon)
            )
            for n in range(panel.n_agents)
        )
        assert ccp_block + trans_block == pytest.approx(product_form, abs=1e-9)

    def test_frequency_estimator_maximizes_transition_block(self):
        model = make_random_model(9, num_states=3, horizon=5)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 40, seed=3)
        est = estimate_transitions(panel, model.num_states, model.num_actions)

        def transition_block(f):
            return sum(
                math.log(f[panel.actions[n, t - 1], panel.states[n, t - 1],
                           panel.states[n, t]])
                for n in range(panel.n_agents) for t in range(1, panel.horizon)
            )

        best = transition_block(est.f_hat)
        rng = np.random.default_rng(4)
        for _ in range(10):
            bump = est.f_hat + 0.01 * rng.random(est.f_hat.shape)
            bump /= bump.sum(axis=2, keepdims=True)
            assert transition_block(bump) <= best + 1e-12

    def test_invalid_discounts_rejected(self):
        model = make_random_model(10)
        panel = PanelData(states=np.zeros((1, 2), dtype=np.int64),
                          actions=np.zeros((1, 2), dtype=np.int64))
        spec = UtilitySpec(form="free_table", num_actions=model.num_actions,
                           num_states=model.num_states)
        theta = np.zeros(spec.n_params)
        with pytest.raises(InvalidInputError):
            log_likelihood(panel, spec, theta, 0.0, 0.9, model.transitions)
        with pytest.raises(InvalidInputError):
            log_likelihood(panel, spec, theta, 0.9, 1.0, model.transitions)

    def test_beta_one_allowed(self):
        model = make_random_model(11)
        panel = PanelData(states=np.zeros((1, 2), dtype=np.int64),
                          actions=np.zeros((1, 2), dtype=np.int64))
        spec = UtilitySpec(form="free_table", num_actions=model.num_actions,
                           num_states=model.num_states)
        value = log_likelihood(panel, spec, np.zeros(spec.n_params), 1.0, 0.9,
                               model.transitions)
        assert np.isfinite(value)

    def test_gradient_is_smooth_and_consistent(self):
        # forward differences (what a quasi-Newton optimizer would use)
        # against central differences at random interior points
        model = make_random_model(12, num_states=4, horizon=6)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 400, seed=5)
        spec = UtilitySpec(form="linear_in_state", num_actions=2,
                           num_states=model.num_states)
        f_hat = estimate_transitions(panel, model.num_states, model.num_actions)

        def objective(raw):
            theta, beta, delta = transform_params(raw, spec.n_params)
            return log_likelihood(panel, spec, theta, beta, delta, f_hat)

        rng = np.random.default_rng(6)
        step = 1e-6
        for _ in range(10):
            raw = np.concatenate([
                rng.uniform(-0.5, 0.5, spec.n_params),
                rng.uniform(-1.0, 1.5, 2),
            ])
            forward = approx_fprime(raw, objective, step)
            central = np.array([
                (objective(raw + step * e) - objective(raw - step * e)) / (2 * step)
                for e in np.eye(raw.size)
            ])
            scale = np.maximum(np.abs(central), 1e-3)
            assert np.max(np.abs(forward - central) / scale) < 1e-4


def _loglik_with_utilities(panel, utility, beta, delta, transitions):
    """Likelihood evaluated at an explicit payoff table (test helper)."""
    from hyperdisc.model import _backward_core
    counts = empirical_ccps(panel, utility.shape[1], utility.shape[0]).counts
    _, _, logp = _backward_core(np.asarray(utility, float),
                                np.asarray(transitions, float),
                                beta, delta, panel.horizon)
    return float((counts * logp).sum())


class TestFitMle:
    def make_problem(self, seed=0, n_agents=600):
        rng = np.random.default_rng(seed)
        J, K, T = 4, 2, 8
        f = random_transitions(J, K, seed=seed + 1)
        u = np.zeros((K, J))
        u[0] = 0.6 - 0.25 * np.arange(J)
        model = ModelSpec(num_states=J, num_actions=K, horizon=T, beta=0.8,
                          delta=0.9, utility=u, transitions=f)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, n_agents, seed=seed + 2)
        spec = UtilitySpec(form="linear_in_state", num_actions=K, num_states=J)
        f_hat = estimate_transitions(panel, J, K)
        return model, panel, spec, f_hat

    def test_reported_loglik_dominates_truth_when_started_there(self):
        model, panel, spec, f_hat = self.make_problem()
        truth = (np.array([0.6, -0.25]), 0.8, 0.9)
        config = MleConfig(starts=(truth, (np.array([0.0, 0.0]), 0.7, 0.7)))
        result = fit_mle(panel, spec, f_hat, config)
        at_truth = log_likelihood(panel, spec, truth[0], 0.8, 0.9, f_hat)
        assert result.loglik >= at_truth - 1e-9
        assert result.loglik >= max(r.loglik for r in result.per_start) - 1e-12

    def test_determinism(self):
        _, panel, spec, f_hat = self.make_problem(seed=3)
        config = MleConfig(theta_ref=(0.6, -0.25))
        a = fit_mle(panel, spec, f_hat, config)
        b = fit_mle(panel, spec, f_hat, config)
        assert_array_equal(a.theta_u_hat, b.theta_u_hat)
        assert a.beta_hat == b.beta_hat
        assert a.delta_hat == b.delta_hat
        assert a.loglik == b.loglik
        assert a.best_start_index == b.best_start_index

    def test_nine_start_grid(self):
        _, panel, spec, f_hat = self.make_problem(seed=4, n_agents=150)
        points = MleConfig(theta_ref=(0.6, -0.25)).start_points(2)
        assert len(points) == 9
        assert {(b, d) for (_, b, d) in points} == {
            (b, d) for b in (0.7, 0.8, 0.9) for d in (0.7, 0.8, 0.9)
        }
        assert_allclose(points[0][0], [0.57, -0.2375], rtol=0, atol=1e-15)

    def test_fixed_beta_reduces_to_exponential_mle(self):
        # data from a time-consistent model; fixing beta = 1 turns the fit
        # into a plain exponential MLE.  The discount factor is recovered
        # within Monte Carlo error, which is wide even at N = 20000 (its
        # sampling sd is roughly 0.08 in this design).
        J, K, T = 5, 2, 16
        f = random_transitions(J, K, seed=56)
        u = np.zeros((K, J))
        u[0] = 0.5 - 0.2 * np.arange(J)
        model = ModelSpec(num_states=J, num_actions=K, horizon=T, beta=1.0,
                          delta=0.9, utility=u, transitions=f)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 20000, seed=22)
        spec = UtilitySpec(form="linear_in_state", num_actions=K, num_states=J)
        f_hat = estimate_transitions(panel, J, K)
        config = MleConfig(theta_ref=(0.5, -0.2), fixed_parameters={"beta": 1.0})
        result = fit_mle(panel, spec, f_hat, config)
        assert result.beta_hat == 1.0
        assert abs(result.delta_hat - 0.9) < 0.15
        assert abs(result.theta_u_hat[0] - 0.5) < 0.05
        assert abs(result.theta_u_hat[1] + 0.2) < 0.02
        assert len(result.per_start) == 3  # only the delta grid remains
        at_truth = log_likelihood(panel, spec, [0.5, -0.2], 1.0, 0.9, f_hat)
        assert result.loglik >= at_truth

    def test_single_large_replication_near_truth(self):
        # one replication of the 5-state linear design at N = 8000: the
        # intercept estimate lands within three replication standard
        # deviations (3 * 0.014) of the truth
        from hyperdisc import McConfig
        from hyperdisc.montecarlo import run_one_replication
        config = McConfig(delta=0.9, beta=0.85, sample_sizes=(8000,),
                          n_replications=1, base_seed=20260801)
        record = run_one_replication(config, 0, 8000)
        assert record.ok
        assert abs(record.alpha0 - 0.5) < 3 * 0.014
        assert abs(record.alpha1 + 0.2) < 3 * 0.005

    def test_nonconvergence_carries_records(self):
        _, panel, spec, f_hat = self.make_problem(seed=5, n_agents=100)
        config = MleConfig(theta_ref=(0.6, -0.25), max_iterations=1)
        with pytest.raises(NonConvergenceError) as err:
            fit_mle(panel, spec, f_hat, config)
        assert len(err.value.records) == 9
        assert all(not r.converged for r in err.value.records)

    def test_bad_fixed_parameter_rejected(self):
        with pytest.raises(InvalidInputError):
            MleConfig(fixed_parameters={"gamma": 0.5})
        with pytest.raises(InvalidInputError):
            MleConfig(fixed_parameters={"delta": 1.0})
