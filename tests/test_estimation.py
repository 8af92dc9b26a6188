import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hyperdisc import (
    InvalidInputError,
    MleConfig,
    ModelSpec,
    NonConvergenceError,
    PanelData,
    UtilitySpec,
    fit_mle,
    log_likelihood,
    random_transitions,
    simulate_panel,
    solve_backward,
)
from hyperdisc import estimation
from hyperdisc.estimation import (
    DISCOUNT_FLOOR,
    LOGLIK_TIE,
    RESTART_SCORE,
    SCREEN_BETAS,
    SCREEN_DELTAS,
    SCREEN_STEPS,
    SCREEN_TOL,
    _box,
    _choice_loglik,
    _profile_screen,
    _scoring_step,
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


class TestSearchBox:
    def test_edges(self):
        box = _box(2, {})
        assert 0.0 < DISCOUNT_FLOOR <= 1e-4
        assert_array_equal(box.lb, [-np.inf, -np.inf, DISCOUNT_FLOOR, DISCOUNT_FLOOR])
        assert_array_equal(box.ub, [np.inf, np.inf, 1.0, np.nextafter(1.0, 0.0)])

    @pytest.mark.parametrize("fixed", [{"beta": 1.0}, {"delta": 0.75},
                                       {"beta": 0.6, "delta": 0.9}])
    def test_fixed_parameters_become_equal_bounds(self, fixed):
        box = _box(3, fixed)
        for i, name in ((3, "beta"), (4, "delta")):
            if name in fixed:
                assert box.lb[i] == box.ub[i] == fixed[name]
            else:
                assert box.lb[i] == DISCOUNT_FLOOR

    def test_likelihood_finite_at_every_corner(self):
        model = make_random_model(13, num_states=4, horizon=6)
        panel = simulate_panel(model, solve_backward(model), 50, seed=1)
        spec = linear_spec(num_states=4)
        box = _box(spec.n_params, {})
        for beta in (box.lb[2], box.ub[2]):
            for delta in (box.lb[3], box.ub[3]):
                value = log_likelihood(panel, spec, [0.3, -0.1], beta, delta,
                                       model.transitions)
                assert np.isfinite(value)

    @pytest.mark.parametrize("beta0,delta0", [(1.5, 0.8), (0.8, 1.0), (-0.2, 0.0),
                                              (1.0, np.nextafter(1.0, 0.0))])
    def test_starts_on_or_outside_the_box(self, beta0, delta0):
        # natural parameters need no inverse transform: a start on an
        # edge is accepted, one outside is moved onto the box
        _, panel, spec, f_hat = TestFitMle().make_problem(seed=6, n_agents=200)
        config = MleConfig(starts=((np.array([0.5, -0.2]), beta0, delta0),))
        result = fit_mle(panel, spec, f_hat, config)
        record = result.per_start[0]
        assert record.converged
        # the record holds the start as searched, moved onto the box
        assert record.beta_start == min(max(beta0, DISCOUNT_FLOOR), 1.0)
        assert record.delta_start == min(max(delta0, DISCOUNT_FLOOR),
                                         np.nextafter(1.0, 0.0))
        assert DISCOUNT_FLOOR <= result.beta_hat <= 1.0
        assert DISCOUNT_FLOOR <= result.delta_hat < 1.0
        assert result.loglik == log_likelihood(panel, spec, result.theta_u_hat,
                                               result.beta_hat, result.delta_hat, f_hat)

    def test_search_moves_along_the_floor_edge(self, monkeypatch):
        # nearly myopic data (beta * delta = 0.045): every start reaches a
        # floor edge, where the other factor is not identified, and moves
        # along it to the (floor, floor) corner.  With a floor of 1e-8 the
        # slope along the edge is below the gradient tolerance and searches
        # from the start grid this fit used to run stopped at scattered
        # points of the edges.
        _, panel, spec, f_hat = TestFitMle().make_problem(seed=1, n_agents=300,
                                                          beta=0.05, delta=0.9)
        starts = tuple((np.array([0.57, -0.2375]), b, d)
                       for b in (0.7, 0.8, 0.9, 0.01) for d in (0.7, 0.8, 0.9, 0.999))
        for config in (MleConfig(), MleConfig(starts=starts)):
            result = fit_mle(panel, spec, f_hat, config)
            assert result.beta_hat == result.delta_hat == DISCOUNT_FLOOR
            assert all(r.at_bound == ("beta", "delta") for r in result.per_start)
        monkeypatch.setattr("hyperdisc.estimation.DISCOUNT_FLOOR", 1e-8)
        low = fit_mle(panel, spec, f_hat, MleConfig(starts=starts))
        assert sum(r.at_bound == ("beta", "delta") for r in low.per_start) < 3

    def test_at_bound_names_the_discount_factors_on_an_edge(self):
        for seed in range(4):
            _, panel, spec, f_hat = TestFitMle().make_problem(seed=seed, n_agents=300)
            result = fit_mle(panel, spec, f_hat)
            for record in result.per_start:
                assert set(record.at_bound) <= {"beta", "delta"}
            best = result.per_start[result.best_start_index].at_bound
            assert ("beta" in best) == (result.beta_hat in (DISCOUNT_FLOOR, 1.0))
            assert ("delta" in best) == (result.delta_hat in (
                DISCOUNT_FLOOR, np.nextafter(1.0, 0.0)))


def _exact_score(panel, spec, theta, beta, delta, transitions):
    counts = empirical_ccps(panel, spec.num_states, spec.num_actions).counts
    dutility = np.stack([spec.build_utility(e) for e in np.eye(spec.n_params)])
    return _choice_loglik(counts, spec.build_utility(theta),
                          transitions.f_hat, beta, delta, dutility)


def _numeric_score(panel, spec, x, transitions, step=1e-5, one_sided=()):
    """Central differences of ``log_likelihood`` in (theta_u, beta, delta);
    second-order backward differences in the coordinates ``one_sided``."""
    def objective(y):
        return log_likelihood(panel, spec, y[:-2], y[-2], y[-1], transitions)

    grad = []
    for i, e in enumerate(np.eye(x.size) * step):
        if i in one_sided:
            grad.append((3 * objective(x) - 4 * objective(x - e)
                         + objective(x - 2 * e)) / (2 * step))
        else:
            grad.append((objective(x + e) - objective(x - e)) / (2 * step))
    return np.array(grad)


def _score_problem(seed, num_states, num_actions, n_agents=400):
    model = make_random_model(seed, num_states=num_states,
                              num_actions=num_actions, horizon=6)
    panel = simulate_panel(model, solve_backward(model), n_agents, seed=seed)
    return panel, estimate_transitions(panel, num_states, num_actions)


def _check_score(panel, spec, x, f_hat, one_sided=()):
    loglik, score = _exact_score(panel, spec, x[:-2], x[-2], x[-1], f_hat)
    assert loglik == log_likelihood(panel, spec, x[:-2], x[-2], x[-1], f_hat)
    numeric = _numeric_score(panel, spec, x, f_hat, one_sided=one_sided)
    # rounding in the differences is about eps * |loglik| / step, near 1e-7
    assert_allclose(score, numeric, rtol=0, atol=1e-8 * np.abs(numeric).max() + 1e-6)


class TestExactScore:
    def test_free_table_three_states(self):
        panel, f_hat = _score_problem(14, num_states=3, num_actions=3)
        spec = UtilitySpec(form="free_table", num_actions=3, num_states=3)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = np.concatenate([rng.normal(size=spec.n_params),
                                rng.uniform(0.2, 0.95, 2)])
            _check_score(panel, spec, x, f_hat)

    def test_one_sided_at_beta_one(self):
        panel, f_hat = _score_problem(15, num_states=3, num_actions=2)
        spec = linear_spec(num_states=3)
        x = np.array([0.4, -0.3, 1.0, 0.85])
        _check_score(panel, spec, x, f_hat, one_sided=(2,))

    def test_fixed_parameter_fit(self):
        # with beta fixed the search covers (theta_u, delta); the score's
        # free entries agree with the differences and vanish at the optimum
        _, panel, spec, f_hat = TestFitMle().make_problem(seed=0, n_agents=800)
        config = MleConfig(fixed_parameters={"beta": 0.8})
        result = fit_mle(panel, spec, f_hat, config)
        assert result.beta_hat == 0.8
        assert all(r.at_bound == () for r in result.per_start)
        x = np.concatenate([result.theta_u_hat, [result.beta_hat, result.delta_hat]])
        _, score = _exact_score(panel, spec, x[:2], x[2], x[3], f_hat)
        _check_score(panel, spec, x, f_hat)
        free = score[[0, 1, 3]]
        assert np.abs(free).max() < 1e-3, free


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
        # the exact score on the natural parameters (theta_u, beta, delta)
        # against central differences at random interior points
        panel, f_hat = _score_problem(12, num_states=4, num_actions=2)
        spec = linear_spec(num_states=4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = np.concatenate([rng.uniform(-0.5, 0.5, spec.n_params),
                                rng.uniform(0.2, 0.95, 2)])
            _check_score(panel, spec, x, f_hat)


def _loglik_with_utilities(panel, utility, beta, delta, transitions):
    """Likelihood evaluated at an explicit payoff table (test helper)."""
    from hyperdisc.model import _backward_core
    counts = empirical_ccps(panel, utility.shape[1], utility.shape[0]).counts
    _, _, logp = _backward_core(np.asarray(utility, float),
                                np.asarray(transitions, float),
                                beta, delta, panel.horizon)
    return float((counts * logp).sum())


class TestFitMle:
    def make_problem(self, seed=0, n_agents=600, beta=0.8, delta=0.9):
        rng = np.random.default_rng(seed)
        J, K, T = 4, 2, 8
        f = random_transitions(J, K, seed=seed + 1)
        u = np.zeros((K, J))
        u[0] = 0.6 - 0.25 * np.arange(J)
        model = ModelSpec(num_states=J, num_actions=K, horizon=T, beta=beta,
                          delta=delta, utility=u, transitions=f)
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
        a = fit_mle(panel, spec, f_hat)
        b = fit_mle(panel, spec, f_hat)
        assert_array_equal(a.theta_u_hat, b.theta_u_hat)
        assert a.beta_hat == b.beta_hat
        assert a.delta_hat == b.delta_hat
        assert a.loglik == b.loglik
        assert a.best_start_index == b.best_start_index
        assert a.per_start == b.per_start
        assert_array_equal(a.profile_loglik, b.profile_loglik)

    def test_screen_grid(self):
        # the grid axes with beta varying slowest; every polish starts on a
        # local maximum of the profile, the highest first, at the screen's
        # theta_u, where the profile is the log likelihood
        _, panel, spec, f_hat = self.make_problem(seed=4, n_agents=150)
        result = fit_mle(panel, spec, f_hat)
        interior = (1e-4, 1e-3, 0.01, 0.03, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                    0.8, 0.9, 0.95)
        assert result.profile_betas == SCREEN_BETAS == interior + (1.0,)
        assert result.profile_deltas == SCREEN_DELTAS == interior + (np.nextafter(1.0, 0.0),)
        profile = result.profile_loglik
        assert profile.shape == (15, 15) and np.all(np.isfinite(profile))
        padded = np.pad(profile, 1, constant_values=-np.inf)
        heights = []
        for record in result.per_start:
            i = SCREEN_BETAS.index(record.beta_start)
            j = SCREEN_DELTAS.index(record.delta_start)
            assert profile[i, j] == padded[i:i + 3, j:j + 3].max()
            at_start = log_likelihood(panel, spec, record.theta_start, record.beta_start,
                                      record.delta_start, f_hat)
            assert profile[i, j] == pytest.approx(at_start, rel=1e-12)
            heights.append(profile[i, j])
        assert heights == sorted(heights, reverse=True)
        assert result.loglik >= profile.max()

    def test_screen_steps_around_an_unvisited_state(self):
        # no transition leads to state 2, so the free payoff u_0(2) has no
        # information: the scoring matrix is singular at every grid point,
        # its pseudo-inverse leaves that payoff at 0, and so does the polish
        J, K = 3, 2
        f = random_transitions(J, K, seed=3)
        f[:, :, 2] = 0.0
        f /= f.sum(axis=2, keepdims=True)
        u = np.array([[0.4, -0.3, 0.2], [0.0, 0.0, 0.0]])
        model = ModelSpec(num_states=J, num_actions=K, horizon=6, beta=0.8,
                          delta=0.9, utility=u, transitions=f)
        panel = simulate_panel(model, solve_backward(model), 300, seed=4,
                               initial_dist=[0.5, 0.5, 0.0])
        assert not np.any(panel.states == 2)
        spec = UtilitySpec(form="free_table", num_actions=K, num_states=J)
        result = fit_mle(panel, spec, estimate_transitions(panel, J, K))
        assert np.all(np.isfinite(result.profile_loglik))
        assert all(r.theta_start[2] == 0.0 for r in result.per_start)
        assert result.theta_u_hat[2] == 0.0
        assert result.per_start[result.best_start_index].converged

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
        config = MleConfig(fixed_parameters={"beta": 1.0})
        result = fit_mle(panel, spec, f_hat, config)
        assert result.beta_hat == 1.0
        assert abs(result.delta_hat - 0.9) < 0.15
        assert abs(result.theta_u_hat[0] - 0.5) < 0.05
        assert abs(result.theta_u_hat[1] + 0.2) < 0.02
        # only the delta axis of the screen remains
        assert result.profile_betas == (1.0,)
        assert result.profile_deltas == SCREEN_DELTAS
        assert result.profile_loglik.shape == (1, 15)
        assert all(r.beta_start == 1.0 for r in result.per_start)
        at_truth = log_likelihood(panel, spec, [0.5, -0.2], 1.0, 0.9, f_hat)
        assert result.loglik >= at_truth

    def test_fit_reaches_beta_one(self):
        # time-consistent data on which the best fit ends at beta = 1
        # exactly, the admissible edge, and says so; so does every start
        # that reaches the best log likelihood
        J, K, T = 4, 2, 8
        f = random_transitions(J, K, seed=1)
        u = np.zeros((K, J))
        u[0] = 0.6 - 0.25 * np.arange(J)
        model = ModelSpec(num_states=J, num_actions=K, horizon=T, beta=1.0,
                          delta=0.9, utility=u, transitions=f)
        panel = simulate_panel(model, solve_backward(model), 600, seed=2)
        spec = UtilitySpec(form="linear_in_state", num_actions=K, num_states=J)
        f_hat = estimate_transitions(panel, J, K)
        result = fit_mle(panel, spec, f_hat)
        assert result.beta_hat == 1.0
        assert all(r.converged for r in result.per_start)
        best = [r for r in result.per_start if r.loglik > result.loglik - 1e-9]
        assert len(best) == len(result.per_start) >= 2
        assert all("beta" in r.at_bound for r in best)
        _, score = _exact_score(panel, spec, result.theta_u_hat, 1.0,
                                result.delta_hat, f_hat)
        assert score[2] > 0.0  # the likelihood still rises towards beta > 1

    def test_restart_mends_interior_stalls(self, monkeypatch):
        # the data of test_fit_reaches_beta_one, searched from the 16-start
        # grid fit_mle used before the profile screen.  Two of those
        # searches, from (0.7, 0.999) and (0.01, 0.9), stop in the interior
        # on the relative-reduction test, 5e-6 and 7.5e-6 below the best,
        # still reporting converged, with projected scores that show they
        # are not stationary.  Restarting each from its end point mends it.
        _, panel, spec, f_hat = self.make_problem(seed=0, beta=1.0)
        starts = tuple((np.array([0.57, -0.2375]), b, d)
                       for b in (0.7, 0.8, 0.9, 0.01) for d in (0.7, 0.8, 0.9, 0.999))
        stalled = {3, 14}
        monkeypatch.setattr("hyperdisc.estimation.MAX_RESTARTS", 0)
        once = fit_mle(panel, spec, f_hat, MleConfig(starts=starts))
        stalls = {r.index for r in once.per_start
                  if r.at_bound == () and r.loglik < once.loglik - 1e-6}
        assert stalls == stalled
        assert all(once.per_start[i].converged
                   and once.per_start[i].projected_score > RESTART_SCORE for i in stalls)
        monkeypatch.undo()
        result = fit_mle(panel, spec, f_hat, MleConfig(starts=starts))
        _, score = _exact_score(panel, spec, result.theta_u_hat, result.beta_hat,
                                result.delta_hat, f_hat)
        assert result.beta_hat == 1.0 and score[2] > 0.0
        best = result.per_start[result.best_start_index]
        # the projected score leaves out the beta entry, which points out of the box
        assert best.projected_score == np.abs(score[[0, 1, 3]]).max()
        for record in result.per_start:
            assert record.converged and record.projected_score <= RESTART_SCORE
            assert record.loglik >= result.loglik - 1e-9
            assert (record.restarts > 0) == (record.index in stalled)
            first = once.per_start[record.index]
            assert record.iterations > first.iterations or record.index not in stalled

    def test_projected_score_leaves_out_fixed_parameters(self):
        _, panel, spec, f_hat = self.make_problem(seed=0, n_agents=800)
        config = MleConfig(fixed_parameters={"beta": 0.8})
        result = fit_mle(panel, spec, f_hat, config)
        _, score = _exact_score(panel, spec, result.theta_u_hat, 0.8,
                                result.delta_hat, f_hat)
        best = result.per_start[result.best_start_index]
        assert best.at_bound == ()
        assert best.projected_score == np.abs(score[[0, 1, 3]]).max()
        assert all(0.0 <= r.projected_score < 1e-3 for r in result.per_start)

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

    @pytest.mark.parametrize("beta,delta,replication,loglik", [
        (0.85, 0.9, 81, -21844.284501846887),
        (0.7, 0.75, 93, -21881.15983031932),
    ])
    def test_present_bias_start_finds_the_patient_maximum(self, beta, delta,
                                                          replication, loglik):
        # two acceptance-design replications whose likelihood has a second,
        # higher local maximum at a small beta with delta near 1; searches
        # from a start grid of beta and delta in {0.7, 0.8, 0.9} all miss
        # it.  The profile screen finds it: the best polish starts from a
        # grid point with beta <= 0.03 and delta >= 0.95.  `loglik` is the
        # value a logistic-space Nelder-Mead search reached on the same
        # panels.
        from hyperdisc import McConfig
        from hyperdisc.montecarlo import run_one_replication
        config = McConfig(delta=delta, beta=beta, sample_sizes=(2000,),
                          n_replications=100, base_seed=20260801)
        record = run_one_replication(config, replication, 2000)
        assert record.ok
        assert record.loglik >= loglik - 1e-6
        assert record.beta < 0.05 and record.delta > 0.999
        start = _replication_fit(config, replication).per_start[record.best_start]
        assert start.beta_start <= 0.03 and start.delta_start >= 0.95

    @pytest.mark.parametrize("beta,delta,replication,loglik", [
        (0.85, 0.9, 62, -21837.48811203118),
        (0.85, 0.9, 66, -21832.30210613112),
        (0.85, 0.9, 81, -21844.284501846887),
        (0.7, 0.75, 25, -21851.830837813573),
        (0.7, 0.75, 93, -21881.15983031932),
    ])
    def test_screen_reaches_the_start_grid_maximum(self, beta, delta, replication,
                                                   loglik):
        # acceptance-design replications on which the 16-start grid fit_mle
        # used before the screen ended at `loglik`.  On 62 (setting 1) and
        # 25 (setting 2) L-BFGS-B ends ABNORMAL at a grid maximum with a
        # projected score near 5e-5; on 66 the polish first stalls at a
        # projected score of 2.7, 1.8e-3 below `loglik`, and one restart
        # reaches it.
        from hyperdisc import McConfig
        config = McConfig(delta=delta, beta=beta, sample_sizes=(2000,),
                          n_replications=100, base_seed=20260801)
        result = _replication_fit(config, replication)
        assert result.loglik >= loglik - 1e-6
        assert result.per_start[result.best_start_index].converged

    @pytest.mark.parametrize("shift,best", [(0.0, 1), (0.5, 1), (2.0, 0)])
    def test_estimate_prefers_a_converged_polish_in_a_tie(self, monkeypatch, shift,
                                                          best):
        # two equal starts polish to the same point; L-BFGS-B's first
        # search is marked unsuccessful and the second one's log
        # likelihood is lowered by `shift` tie widths.  Within the tie the
        # converged second polish is the estimate, not the lower index;
        # beyond it the higher, unconverged first polish is
        from scipy import optimize
        _, panel, spec, f_hat = self.make_problem(seed=3, n_agents=300)
        start = (np.array([0.5, -0.2]), 0.8, 0.9)
        minimize = optimize.minimize
        searches = []

        def first_abnormal(*args, **kwargs):
            res = minimize(*args, **kwargs)
            searches.append(res)
            if len(searches) == 1:
                res.success = False
                res.message = "ABNORMAL"
            else:
                res.fun += shift * LOGLIK_TIE * (1.0 + abs(res.fun))
            return res

        monkeypatch.setattr(optimize, "minimize", first_abnormal)
        result = fit_mle(panel, spec, f_hat, MleConfig(starts=(start, start)))
        first, second = result.per_start
        assert len(searches) == 2
        assert not first.converged and second.converged
        assert first.loglik - second.loglik == pytest.approx(
            shift * LOGLIK_TIE * (1.0 + abs(first.loglik)), rel=0.1, abs=0.0)
        assert result.best_start_index == best
        assert result.loglik == result.per_start[best].loglik
        assert result.profile_steps is None

    def test_higher_unconverged_polish_is_reported(self):
        # acceptance-design setting 1, replication 119: L-BFGS-B ends the
        # first polish ABNORMAL at (beta 3.6e-4, delta nextafter(1, 0)),
        # with a projected score just above gtol, and a restart does not
        # move it; the second polish converges at the (floor, floor)
        # corner 4.2e-7 lower.  That is no rounding tie, so the estimate
        # is the higher polish
        from hyperdisc import McConfig
        config = McConfig(delta=0.9, beta=0.85, sample_sizes=(2000,),
                          n_replications=120, base_seed=20260801)
        result = _replication_fit(config, 119)
        assert result.loglik >= -21872.85669986209 - 1e-9
        assert result.delta_hat > 0.999
        assert any(r.converged and r.loglik < result.loglik - 1e-7
                   for r in result.per_start)

    def test_nonconvergence_carries_records(self):
        # with zero tolerances no search of one iteration converges, so
        # every grid point is polished in turn
        _, panel, spec, f_hat = self.make_problem(seed=5, n_agents=100)
        config = MleConfig(max_iterations=1, param_tol=0.0, objective_tol=0.0)
        with pytest.raises(NonConvergenceError) as err:
            fit_mle(panel, spec, f_hat, config)
        records = err.value.records
        assert len(records) == len(SCREEN_BETAS) * len(SCREEN_DELTAS)
        assert len({(r.beta_start, r.delta_start) for r in records}) == len(records)
        assert all(not r.converged for r in records)

    @pytest.mark.parametrize("starts,message", [
        ((("a", 0.8, 0.9),), "start theta_u must be numeric"),
        ((([0.5, "b"], 0.8, 0.9),), "start theta_u must be numeric"),
        ((([0.5, -0.2], "x", 0.9),), "start beta and delta must be numeric"),
        ((([0.5, -0.2], 0.8, np.nan),), "start beta and delta must be finite"),
        ((([[0.5], [-0.2]], 0.8, 0.9),), "start theta_u must be a flat sequence"),
        ((([0.5, -0.2], 0.8),), "start ([0.5, -0.2], 0.8) must be a"),
        ((), "at least one start point is required"),
    ])
    def test_malformed_starts_rejected(self, starts, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            MleConfig(starts=starts)

    def test_start_length_checked_at_the_fit(self):
        _, panel, spec, f_hat = self.make_problem(seed=5, n_agents=50)
        config = MleConfig(starts=(([0.5], 0.8, 0.9),))
        with pytest.raises(InvalidInputError, match="must supply 2 utility parameters"):
            fit_mle(panel, spec, f_hat, config)

    @pytest.mark.parametrize("value,message", [
        (2.5, "max_iterations must be an integer, got 2.5"),
        ("10", "max_iterations must be an integer"),
        (0, "max_iterations must be at least 1"),
    ])
    def test_max_iterations_is_a_positive_integer(self, value, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            MleConfig(max_iterations=value)

    def test_bad_fixed_parameter_rejected(self):
        with pytest.raises(InvalidInputError):
            MleConfig(fixed_parameters={"gamma": 0.5})
        with pytest.raises(InvalidInputError):
            MleConfig(fixed_parameters={"delta": 1.0})


def _replication_fit(config, replication, sample_size=2000):
    """``fit_mle`` on one replication of ``run_one_replication``'s design."""
    from hyperdisc import montecarlo
    from hyperdisc.simulation import derive_seed

    rep_seed = derive_seed(config.base_seed, replication, sample_size)
    model = montecarlo.design_model(config, montecarlo.design_transitions(config, rep_seed))
    panel = simulate_panel(model, solve_backward(model), sample_size,
                           seed=derive_seed(rep_seed, montecarlo.PANEL_STREAM))
    f_hat = estimate_transitions(panel, config.num_states, config.num_actions)
    spec = linear_spec(config.num_states, model.state_values)
    return fit_mle(panel, spec, f_hat)


def _screen_problem(seed=4, n_agents=300):
    """Counts, payoff Jacobian and transitions of a ``make_problem`` panel."""
    _, panel, spec, f_hat = TestFitMle().make_problem(seed=seed, n_agents=n_agents)
    counts = empirical_ccps(panel, spec.num_states, spec.num_actions).counts
    dutility = np.stack([spec.build_utility(e) for e in np.eye(spec.n_params)])
    return counts, dutility, f_hat.f_hat


class TestProfileScreen:
    def test_active_set_matches_each_point_alone(self):
        counts, dutility, f = _screen_problem()
        betas, deltas = np.array(SCREEN_BETAS), np.array(SCREEN_DELTAS)
        theta, profile, steps = _profile_screen(counts, dutility, f, betas, deltas)
        assert profile.shape == steps.shape == (15, 15)
        for g in range(betas.size * deltas.size):
            i, j = divmod(g, deltas.size)
            one = _profile_screen(counts, dutility, f, betas[i:i + 1], deltas[j:j + 1])
            assert_allclose(one[0][0], theta[g], rtol=0, atol=1e-12)
            assert_allclose(one[1][0, 0], profile[i, j], rtol=1e-9)

    def test_points_stop_within_the_tolerance(self):
        # a point that stops before the cap has a remaining step within
        # SCREEN_TOL, and its profile is the log likelihood at its theta_u
        counts, dutility, f = _screen_problem(seed=2)
        betas, deltas = np.array(SCREEN_BETAS), np.array(SCREEN_DELTAS)
        theta, profile, steps = _profile_screen(counts, dutility, f, betas, deltas)
        beta, delta = np.repeat(betas, 15), np.tile(deltas, 15)
        loglik, step = _scoring_step(counts, theta, dutility, f, beta, delta)
        assert_allclose(loglik, profile.ravel(), rtol=1e-12)
        stopped = steps.ravel() < SCREEN_STEPS
        assert stopped.all() and steps.min() >= 1
        assert np.all(np.abs(step[stopped]) <= SCREEN_TOL * (1.0 + np.abs(theta[stopped])))

    def test_cap_keeps_the_last_theta(self, monkeypatch):
        # with the cap at 2 every point takes 2 steps: the third pass gives
        # the profile at that theta_u and its step is not taken
        counts, dutility, f = _screen_problem()
        betas, deltas = np.array([0.5, 0.9]), np.array([0.8])
        monkeypatch.setattr(estimation, "SCREEN_STEPS", 2)
        theta, profile, steps = _profile_screen(counts, dutility, f, betas, deltas)
        assert_array_equal(steps, [[2], [2]])
        beta, delta = betas, np.repeat(deltas, 2)
        want = np.zeros((2, dutility.shape[0]))
        for _ in range(2):
            loglik, step = _scoring_step(counts, want, dutility, f, beta, delta)
            want = want + step
        loglik, _ = _scoring_step(counts, want, dutility, f, beta, delta)
        assert_array_equal(theta, want)
        assert_array_equal(profile.ravel(), loglik)

    @pytest.mark.parametrize("beta,delta", [(0.85, 0.9), (0.7, 0.75)])
    def test_passes_on_an_acceptance_replication(self, monkeypatch, beta, delta):
        # replication 0 of each acceptance setting: every grid point has
        # converged after at most 5 batched passes, where 8 fixed steps and
        # a value pass took 9
        from hyperdisc import McConfig
        batch_sizes = []
        kernel = estimation._backward_core

        def spy(*args, **kwargs):
            if np.ndim(args[2]) == 1:  # a batch of betas
                batch_sizes.append(np.size(args[2]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(estimation, "_backward_core", spy)
        config = McConfig(delta=delta, beta=beta, sample_sizes=(2000,),
                          n_replications=1, base_seed=20260801)
        result = _replication_fit(config, 0)
        assert len(batch_sizes) <= 6
        assert batch_sizes[0] == 225
        assert len(batch_sizes) == result.profile_steps.max() + 1
        assert result.profile_steps.shape == result.profile_loglik.shape
