import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from hyperdisc import (
    InvalidInputError,
    McConfig,
    MleConfig,
    ModelSpec,
    UtilitySpec,
    ValueSolution,
    assemble_system,
    build_pair_system,
    check_model,
    choice_values,
    empirical_ccps,
    estimate_transitions,
    fit_mle,
    inclusive_value_gaps,
    log_likelihood,
    recover_utilities,
    simulate_panel,
    solve_backward,
    solve_discounts,
)
from hyperdisc import model as model_module
from hyperdisc.cli import main
from conftest import canonical_design, exponential_solution, make_random_model


def two_action_model(utility, horizon=1, beta=0.8, delta=0.9, transitions=None):
    """A J-state, two-action model with the given (2, J) payoff table."""
    u = np.asarray(utility, dtype=float)
    J = u.shape[1]
    f = np.full((2, J, J), 1.0 / J) if transitions is None else transitions
    return ModelSpec(num_states=J, num_actions=2, horizon=horizon, beta=beta,
                     delta=delta, utility=u, transitions=f)


def shifted_payoffs(model, shift):
    """``model`` with ``shift`` added to every flow payoff."""
    return ModelSpec(num_states=model.num_states, num_actions=model.num_actions,
                     horizon=model.horizon, beta=model.beta, delta=model.delta,
                     utility=model.utility + shift, transitions=model.transitions)


def hotz_miller_values(model, sol):
    """``W_K - log P_K + (1 - beta) delta sum_i P_i E[V_next | x, i]``, per
    period, evaluated state by state from the solver's own arrays."""
    T, K, J = sol.W.shape
    out = np.empty((T, J))
    for t in range(T):
        v_next = sol.V[t + 1] if t + 1 < T else np.zeros(J)
        ev = model.transitions @ v_next
        corr = (1 - model.beta) * model.delta * (sol.P[t] * ev).sum(axis=0)
        out[t] = sol.W[t, -1] - np.log(sol.P[t, -1]) + corr
    return out


class TestLogsumexp:
    """``V`` is an overflow-safe log-sum-exp of ``W`` (plus the beta-delta
    correction, which vanishes in a single period)."""

    def test_two_equal_entries(self):
        sol = solve_backward(two_action_model([[0.0, 1.5], [0.0, 1.5]]))
        assert_allclose(sol.V[0], [math.log(2.0), 1.5 + math.log(2.0)],
                        rtol=0, atol=1e-15)

    def test_overflow_safety(self):
        sol = solve_backward(two_action_model([[1000.0], [1000.0]]), check=True)
        assert_allclose(sol.V[0], [1000.0 + math.log(2.0)], rtol=0, atol=1e-12)
        assert_allclose(sol.P[0], 0.5, rtol=0, atol=1e-12)

    def test_singleton_identity(self):
        # a negligible second action leaves V at the dominant payoff
        for x in (-3.5, 0.0, 42.0):
            sol = solve_backward(two_action_model([[x], [x - 800.0]]))
            assert sol.V[0, 0] == pytest.approx(x, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            two_action_model([[0.0], [0.0]], horizon=0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            two_action_model([[0.0, np.inf], [0.0, 0.0]])

    @given(st.floats(-1e3, 1e3))
    def test_shift_invariance(self, shift):
        # a common payoff shift c moves V_t by c (1 + delta + ... + delta^(T-1-t))
        model = make_random_model(12, horizon=6)
        base = solve_backward(model)
        moved = solve_backward(shifted_payoffs(model, shift), check=True)
        remaining = model.horizon - np.arange(model.horizon)
        expected = shift * (1 - model.delta ** remaining) / (1 - model.delta)
        assert_allclose(moved.V - base.V - expected[:, None], 0.0, rtol=0, atol=1e-9)


class TestCcpFromValues:
    """``P`` is the logit of ``W``."""

    def test_symmetric(self):
        f = np.random.default_rng(1).random((1, 3, 3))
        f = np.repeat(f / f.sum(axis=2, keepdims=True), 2, axis=0)
        sol = solve_backward(two_action_model([[0.3, -1.0, 2.0]] * 2, horizon=4,
                                              transitions=f))
        assert_allclose(sol.P, 0.5, rtol=0, atol=1e-15)

    def test_logistic_value(self):
        # independent evaluation of exp(0.5) / (1 + exp(0.5))
        p1 = math.exp(0.5) / (1.0 + math.exp(0.5))
        got = solve_backward(two_action_model([[0.5], [0.0]])).P[0, :, 0]
        assert_allclose(got, [p1, 1.0 - p1], rtol=0, atol=1e-15)
        assert_allclose(got, [0.62246, 0.37754], rtol=0, atol=1e-5)

    def test_sums_to_one_and_positive(self):
        sol = solve_backward(make_random_model(0, num_states=6, num_actions=4))
        assert np.all(sol.P > 0)
        assert_allclose(sol.P.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        expw = np.exp(sol.W)
        assert_allclose(sol.P, expw / expw.sum(axis=1, keepdims=True),
                        rtol=0, atol=1e-14)

    @given(st.floats(-50, 50))
    def test_shift_invariance(self, shift):
        model = make_random_model(13, horizon=6)
        base = solve_backward(model)
        moved = solve_backward(shifted_payoffs(model, shift))
        assert_allclose(moved.P, base.P, rtol=0, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            two_action_model([[np.nan, 0.0], [0.0, 0.0]])


class TestChoiceValues:
    def test_zero_continuation_returns_utility_exactly(self):
        model = make_random_model(3)
        w = choice_values(model.utility, model.transitions, model.beta,
                          model.delta, np.zeros(model.num_states))
        assert_array_equal(w, model.utility)

    def test_beta_one_matches_long_run_values(self):
        model = make_random_model(4)
        v_next = np.random.default_rng(5).normal(size=model.num_states)
        expected = model.utility + model.delta * np.einsum(
            "ixy,y->ix", model.transitions, v_next)
        assert_allclose(
            choice_values(model.utility, model.transitions, 1.0, model.delta, v_next),
            expected, rtol=0, atol=1e-14,
        )

    def test_hand_computed_single_cell(self):
        # one action, two states, zero utility: W(0) = 0.5 * 0.8 * 0.3
        f = np.array([[[0.3, 0.7], [0.6, 0.4]]])
        w = choice_values(np.zeros((1, 2)), f, 0.5, 0.8, np.array([1.0, 0.0]))
        assert w[0, 0] == pytest.approx(0.12, abs=1e-15)

    def test_difference_between_discounting_modes(self):
        # long-run minus current choice values is (1-beta)*delta*E[v_next]
        model = make_random_model(6)
        v_next = np.random.default_rng(7).normal(size=model.num_states)
        gap = (choice_values(model.utility, model.transitions, 1.0, model.delta, v_next)
               - choice_values(model.utility, model.transitions, model.beta,
                               model.delta, v_next))
        expected = (1.0 - model.beta) * model.delta * (model.transitions @ v_next)
        assert_allclose(gap, expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        model = make_random_model(3)
        with pytest.raises(InvalidInputError):
            choice_values(model.utility, model.transitions, model.beta,
                          model.delta, np.zeros(model.num_states + 1))


class TestPerceivedValueStep:
    """The perceived value ``V`` against its log-sum-exp and Hotz-Miller
    forms, the identities ``solve_backward(check=True)`` enforces."""

    def test_beta_one_reduces_to_logsumexp(self):
        model = make_random_model(8, beta=1.0)
        sol = solve_backward(model, check=True)
        assert_allclose(sol.V, logsumexp(sol.W, axis=1), rtol=0, atol=1e-12)

    def test_terminal_step_is_logsumexp_of_utility(self):
        model = make_random_model(9)
        sol = solve_backward(model)
        assert_allclose(sol.V[-1], logsumexp(model.utility, axis=0), rtol=0, atol=1e-12)

    def test_both_algebraic_forms_agree(self):
        for seed, kwargs in ((10, {}), (11, {"beta": 1.0}),
                             (12, {"num_states": 6, "num_actions": 4})):
            model = make_random_model(seed, **kwargs)
            sol = solve_backward(model, check=True)
            assert_allclose(sol.V, hotz_miller_values(model, sol), rtol=0, atol=1e-10)

    def test_inconsistent_probabilities_rejected(self, monkeypatch):
        core = model_module._backward_core

        def perturbed_core(*args):
            V, W, logP = core(*args)
            W = W.copy()
            W[1, 0, 1] += 1e-6
            return V, W, logP

        model = make_random_model(11)
        monkeypatch.setattr(model_module, "_backward_core", perturbed_core)
        solve_backward(model)  # without the check the drift goes unnoticed
        with pytest.raises(InvalidInputError, match="cross-check"):
            solve_backward(model, check=True)


class TestSolveBackward:
    def test_single_period(self):
        model = make_random_model(20, horizon=1)
        sol = solve_backward(model)
        expu = np.exp(model.utility)
        assert_allclose(sol.P[0], expu / expu.sum(axis=0), rtol=0, atol=1e-14)
        assert_allclose(sol.V[0], np.log(expu.sum(axis=0)), rtol=0, atol=1e-12)

    def test_terminal_values_equal_utility_exactly(self):
        model = make_random_model(21)
        sol = solve_backward(model)
        assert_array_equal(sol.W[-1], model.utility)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beta_one_matches_independent_exponential_solver(self, seed):
        model = make_random_model(seed, num_states=4, num_actions=3,
                                  horizon=9, beta=1.0)
        sol = solve_backward(model)
        V, P = exponential_solution(model.utility, model.transitions,
                                    model.delta, model.horizon)
        assert_allclose(sol.V, V, rtol=0, atol=1e-10)
        assert_allclose(sol.P, P, rtol=0, atol=1e-10)

    def test_composition_of_public_steps(self):
        # each period: choice_values on the next V, its logit, then the
        # log-sum-exp plus the beta-delta correction
        model = make_random_model(22, num_states=4, horizon=7)
        sol = solve_backward(model, check=True)
        corr = (1 - model.beta) * model.delta
        v_next = np.zeros(model.num_states)
        for t in range(model.horizon - 1, -1, -1):
            w = choice_values(model.utility, model.transitions, model.beta,
                              model.delta, v_next)
            p = np.exp(w) / np.exp(w).sum(axis=0)
            v_next = (np.log(np.exp(w).sum(axis=0))
                      + corr * (p * (model.transitions @ v_next)).sum(axis=0))
            assert_allclose(sol.W[t], w, rtol=0, atol=1e-10)
            assert_allclose(sol.P[t], p, rtol=0, atol=1e-12)
            assert_allclose(sol.V[t], v_next, rtol=0, atol=1e-10)

    def test_canonical_design_ccps_interior_and_invertible(self):
        model = canonical_design(setting=1)
        sol = solve_backward(model, check=True)
        assert np.all(sol.P > 0.0) and np.all(sol.P < 1.0)
        assert_allclose(sol.P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # same-state log CCP ratios must equal choice-value differences
        logp = np.log(sol.P)
        for k in range(model.num_actions):
            for l in range(model.num_actions):
                gap = (logp[:, k, :] - logp[:, l, :]) - (sol.W[:, k, :] - sol.W[:, l, :])
                assert np.abs(gap).max() < 1e-10

    def test_long_run_minus_current_identity(self):
        model = make_random_model(23, num_states=4, horizon=8)
        sol = solve_backward(model)
        for t in range(model.horizon):
            v_next = sol.V[t + 1] if t + 1 < model.horizon else np.zeros(model.num_states)
            long_run = choice_values(model.utility, model.transitions, 1.0,
                                     model.delta, v_next)
            expected = (1 - model.beta) * model.delta * (model.transitions @ v_next)
            assert_allclose(long_run - sol.W[t], expected, rtol=0, atol=1e-10)

    def test_terminal_ccps_invariant_to_column_shift(self):
        model = make_random_model(24)
        shifted_u = model.utility.copy()
        x = 1
        shifted_u[:, x] += 3.7
        shifted = ModelSpec(
            num_states=model.num_states, num_actions=model.num_actions,
            horizon=model.horizon, beta=model.beta, delta=model.delta,
            utility=shifted_u, transitions=model.transitions,
        )
        base = solve_backward(model)
        moved = solve_backward(shifted)
        assert_allclose(moved.P[-1, :, x], base.P[-1, :, x], rtol=0, atol=1e-12)

    def test_large_payoffs_keep_probabilities_on_the_simplex(self):
        # log CCPs formed as (W - m) - log(sum exp(W - m)) keep their
        # absolute precision when every payoff is raised by 1e4
        model = make_random_model(12, horizon=20)
        raised = ModelSpec(
            num_states=model.num_states, num_actions=model.num_actions,
            horizon=model.horizon, beta=model.beta, delta=model.delta,
            utility=model.utility + 1e4, transitions=model.transitions,
            equality_pairs=model.equality_pairs,
        )
        sol = solve_backward(raised, check=True)
        assert np.abs(sol.P.sum(axis=1) - 1.0).max() < 1e-14
        # W itself carries rounding of order 1e4 * eps per period
        assert_allclose(sol.P, solve_backward(model).P, rtol=0, atol=1e-10)


def _reference_backward_core(utility, transitions, beta, delta, horizon, dutility=None):
    """The unbatched backward loop, frozen as the bit-exact reference of
    ``model._backward_core``'s batch of one."""
    K, J = utility.shape
    V = np.empty((horizon, J))
    W = np.empty((horizon, K, J))
    logP = np.empty((horizon, K, J))
    bd = beta * delta
    corr = (1.0 - beta) * delta
    v_next = np.zeros(J)
    if dutility is not None:
        p = dutility.shape[0]
        du = np.zeros((p + 2, K, J))
        du[:p] = dutility
        dbd = np.zeros((p + 2, 1, 1))
        dbd[p:, 0, 0] = delta, beta
        dcorr = np.zeros((p + 2, 1))
        dcorr[p:, 0] = -delta, 1.0 - beta
        f_t = transitions.reshape(K * J, J).T
        dv_next = np.zeros((p + 2, J))
        dlogP = np.empty((horizon, p + 2, K, J))
    for t in range(horizon - 1, -1, -1):
        ev = transitions @ v_next
        w = utility + bd * ev
        m = w.max(axis=0)
        z = w - m
        log_s = np.log(np.exp(z).sum(axis=0))
        lp = z - log_s
        P = np.exp(lp)
        Pev = P * ev
        pev_sum = Pev.sum(axis=0)
        v_next = (m + log_s) + corr * pev_sum
        V[t] = v_next
        W[t] = w
        logP[t] = lp
        if dutility is not None:
            dev = (dv_next @ f_t).reshape(-1, K, J)
            dw = du + dbd * ev + bd * dev
            dlse = (P * dw).sum(axis=1)
            dlp = dw - dlse[:, None, :]
            dv_next = (dlse + dcorr * pev_sum
                       + corr * (Pev * dlp + P * dev).sum(axis=1))
            dlogP[t] = dlp
    if dutility is None:
        return V, W, logP
    return V, W, logP, dlogP


def _random_kernel_problem(seed, batch=None):
    rng = np.random.default_rng(seed)
    J, K, T = int(rng.integers(2, 21)), int(rng.integers(2, 4)), int(rng.integers(2, 20))
    f = rng.random((K, J, J))
    f /= f.sum(axis=2, keepdims=True)
    lead = () if batch is None else (batch,)
    utility = rng.normal(scale=2.0, size=(K,) + lead + (J,))
    beta = rng.uniform(0.01, 1.0, size=lead)
    delta = rng.uniform(0.01, 0.999, size=lead)
    dutility = rng.normal(size=(3, K, J))
    return utility, f, beta, delta, T, dutility


class TestBatchedKernel:
    @pytest.mark.parametrize("seed", range(40))
    def test_batch_of_one_equals_the_reference_loop(self, seed):
        utility, f, beta, delta, T, dutility = _random_kernel_problem(seed)
        args = (utility, f, float(beta), float(delta), T)
        for extra in ((), (dutility,)):
            got = model_module._backward_core(*args, *extra)
            want = _reference_backward_core(*args, *extra)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_batch_members_equal_their_own_calls(self, seed):
        utility, f, beta, delta, T, dutility = _random_kernel_problem(100 + seed, batch=7)
        batched = model_module._backward_core(utility, f, beta, delta, T, dutility)
        K, J = f.shape[:2]
        # the batch axis sits just before the state axis
        assert [a.shape for a in batched] == [(T, 7, J), (T, K, 7, J), (T, K, 7, J),
                                              (T, 5, K, 7, J)]
        for b in range(7):
            single = model_module._backward_core(utility[:, b], f, float(beta[b]),
                                                 float(delta[b]), T, dutility)
            for a, s in zip(batched, single):
                assert_array_equal(a[..., b, :], s)

    def test_utility_directions_alone(self):
        # without the discount directions dlogP keeps the p utility ones
        utility, f, beta, delta, T, dutility = _random_kernel_problem(7, batch=4)
        full = model_module._backward_core(utility, f, beta, delta, T, dutility)
        theta_only = model_module._backward_core(utility, f, beta, delta, T, dutility,
                                                 discounts=False)
        for a, b in zip(theta_only[:3], full[:3]):
            assert_array_equal(a, b)
        assert theta_only[3].shape == full[3][:, :3].shape
        assert_allclose(theta_only[3], full[3][:, :3], rtol=0, atol=1e-12)


class TestBackwardCoreDerivatives:
    @pytest.mark.parametrize("seed,kwargs", [
        (30, {}), (31, {"beta": 1.0}), (32, {"num_states": 4, "num_actions": 3}),
    ])
    def test_value_path_bit_identical_with_derivatives(self, seed, kwargs):
        model = make_random_model(seed, **kwargs)
        dutility = np.random.default_rng(seed).normal(
            size=(3, model.num_actions, model.num_states))
        args = (model.utility, model.transitions, model.beta, model.delta,
                model.horizon)
        V, W, logP = model_module._backward_core(*args)
        V_d, W_d, logP_d, dlogP = model_module._backward_core(*args, dutility)
        assert_array_equal(V_d, V)
        assert_array_equal(W_d, W)
        assert_array_equal(logP_d, logP)
        assert dlogP.shape == (model.horizon, 3 + 2, model.num_actions,
                               model.num_states)

    def test_derivatives_match_central_differences(self):
        model = make_random_model(33, num_states=4, num_actions=3, horizon=7)
        p = 2
        dutility = np.random.default_rng(3).normal(
            size=(p, model.num_actions, model.num_states))

        def log_ccps(x):
            utility = model.utility + np.tensordot(x[:p], dutility, axes=1)
            return model_module._backward_core(utility, model.transitions,
                                               x[p], x[p + 1], model.horizon)[2]

        x = np.array([0.3, -0.4, model.beta, model.delta])
        utility = model.utility + np.tensordot(x[:p], dutility, axes=1)
        dlogP = model_module._backward_core(utility, model.transitions, x[p],
                                            x[p + 1], model.horizon, dutility)[3]
        step = 1e-6
        for i, e in enumerate(np.eye(p + 2) * step):
            central = (log_ccps(x + e) - log_ccps(x - e)) / (2 * step)
            assert_allclose(dlogP[:, i], central, rtol=0, atol=1e-8)
        # the sum over actions of P * dlogP is zero: probabilities stay on the simplex
        P = np.exp(log_ccps(x))
        assert np.abs((P[:, None] * dlogP).sum(axis=2)).max() < 1e-13


class TestValidation:
    def test_transition_rows_must_sum_to_one(self):
        f = np.full((2, 2, 2), 0.4)
        with pytest.raises(InvalidInputError):
            ModelSpec(num_states=2, num_actions=2, horizon=3, beta=0.9,
                      delta=0.9, utility=np.zeros((2, 2)), transitions=f)

    def test_negative_transition_rejected(self):
        f = np.array([[[1.2, -0.2], [0.5, 0.5]]] * 2)
        with pytest.raises(InvalidInputError):
            ModelSpec(num_states=2, num_actions=2, horizon=3, beta=0.9,
                      delta=0.9, utility=np.zeros((2, 2)), transitions=f)

    @pytest.mark.parametrize("beta,delta", [(0.0, 0.9), (1.2, 0.9),
                                            (0.9, 0.0), (0.9, 1.0)])
    def test_discount_domains(self, beta, delta):
        f = np.full((2, 2, 2), 0.5)
        with pytest.raises(InvalidInputError):
            ModelSpec(num_states=2, num_actions=2, horizon=3, beta=beta,
                      delta=delta, utility=np.zeros((2, 2)), transitions=f)

    def test_beta_exactly_one_allowed(self):
        f = np.full((2, 2, 2), 0.5)
        spec = ModelSpec(num_states=2, num_actions=2, horizon=3, beta=1.0,
                         delta=0.9, utility=np.zeros((2, 2)), transitions=f)
        assert spec.beta == 1.0

    def test_violated_equality_pair_rejected(self):
        f = np.full((2, 2, 2), 0.5)
        u = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(InvalidInputError):
            ModelSpec(num_states=2, num_actions=2, horizon=3, beta=0.9,
                      delta=0.9, utility=u, transitions=f,
                      equality_pairs=[(0, 1, 0, 0)])

    def test_pair_indices_validated(self):
        f = np.full((2, 2, 2), 0.5)
        with pytest.raises(InvalidInputError):
            ModelSpec(num_states=2, num_actions=2, horizon=3, beta=0.9,
                      delta=0.9, utility=np.zeros((2, 2)), transitions=f,
                      equality_pairs=[(0, 1, 0, 5)])

    def test_value_solution_requires_simplex(self):
        bad_p = np.full((2, 2, 2), 0.4)
        with pytest.raises(InvalidInputError):
            ValueSolution(V=np.zeros((2, 2)), W=np.zeros((2, 2, 2)), P=bad_p)

    def test_model_arrays_are_read_only(self):
        model = make_random_model(30)
        with pytest.raises(ValueError):
            model.utility[0, 0] = 99.0


# --- each input rule, at every public entry point that takes the input ---

RULE_MODEL = make_random_model(40, num_states=3)          # J = 3, K = 2, T = 10
RULE_SPEC = UtilitySpec(form="linear_in_state", num_actions=2, num_states=3)
RULE_PANEL = simulate_panel(RULE_MODEL, solve_backward(RULE_MODEL), 40, seed=1)
RULE_FIT = MleConfig(starts=(((0.0, 0.0), 0.8, 0.9),))


def with_transitions(f):
    return ModelSpec(num_states=3, num_actions=2, horizon=4, beta=0.8, delta=0.9,
                     utility=np.zeros((2, 3)), transitions=f)


DISCOUNT_SITES = {
    "ModelSpec": lambda b, d: ModelSpec(
        num_states=3, num_actions=2, horizon=4, beta=b, delta=d,
        utility=np.zeros((2, 3)), transitions=RULE_MODEL.transitions),
    "log_likelihood": lambda b, d: log_likelihood(
        RULE_PANEL, RULE_SPEC, (0.0, 0.0), b, d, RULE_MODEL.transitions),
    "MleConfig.fixed_parameters": lambda b, d: MleConfig(
        fixed_parameters={"beta": b, "delta": d}),
    "McConfig": lambda b, d: McConfig(beta=b, delta=d),
    "choice_values": lambda b, d: choice_values(
        RULE_MODEL.utility, RULE_MODEL.transitions, b, d, np.zeros(3)),
}


@pytest.mark.parametrize("site", sorted(DISCOUNT_SITES))
@pytest.mark.parametrize("beta,delta,match", [
    (1.0, 0.9, None),
    (0.0, 0.9, r"beta must lie in \(0, 1\], got 0.0"),
    (1.5, 0.9, r"beta must lie in \(0, 1\], got 1.5"),
    (math.nan, 0.9, r"beta must lie in \(0, 1\]"),
    ("0.8", 0.9, "beta must be a real number, got '0.8'"),
    (0.8, 1.0, r"delta must lie in \(0, 1\), got 1.0"),
    (0.8, 0.0, r"delta must lie in \(0, 1\), got 0.0"),
    (0.8, None, "delta must be a real number, got None"),
])
def test_discount_rule(site, beta, delta, match):
    """beta in (0, 1], delta in (0, 1), both real numbers."""
    if match is None:
        DISCOUNT_SITES[site](beta, delta)
        return
    with pytest.raises(InvalidInputError, match=match):
        DISCOUNT_SITES[site](beta, delta)


# (name in the message, valid value, call); transitions are (2, 3, 3)
DISTRIBUTION_SITES = {
    "ModelSpec.transitions": ("transitions", RULE_MODEL.transitions, with_transitions),
    "build_pair_system": ("transitions", RULE_MODEL.transitions,
                          lambda f: build_pair_system(f, RULE_MODEL.equality_pairs)),
    "fit_mle": ("transitions", RULE_MODEL.transitions,
                lambda f: fit_mle(RULE_PANEL, RULE_SPEC, f, RULE_FIT)),
    "log_likelihood": ("transitions", RULE_MODEL.transitions,
                       lambda f: log_likelihood(RULE_PANEL, RULE_SPEC, (0.0, 0.0),
                                                0.8, 0.9, f)),
    "choice_values": ("transitions", RULE_MODEL.transitions,
                      lambda f: choice_values(RULE_MODEL.utility, f, 0.8, 0.9, np.ones(3))),
    "check_model macro": ("macro_transitions", np.array([[0.3, 0.7], [0.6, 0.4]]),
                          lambda h: check_model(RULE_MODEL, macro_transitions=h)),
    "simulate_panel initial_dist": (
        "initial_dist", np.array([0.2, 0.3, 0.5]),
        lambda p: simulate_panel(RULE_MODEL, solve_backward(RULE_MODEL), 50,
                                 initial_dist=p)),
    "McConfig initial_dist": ("initial_dist", np.array([0.2, 0.3, 0.5]),
                              lambda p: McConfig(num_states=3, initial_dist=tuple(p))),
}


def nan_entry(v):
    v = v.copy()
    v.flat[0] = np.nan
    return v


def negative_entry(v):
    v = v.copy()
    v.flat[0] -= 0.8
    v.flat[1] += 0.8
    return v


@pytest.mark.parametrize("site", sorted(DISTRIBUTION_SITES))
@pytest.mark.parametrize("mutate,match", [
    (nan_entry, "must be finite everywhere"),
    (negative_entry, "must be non-negative"),
    (lambda v: 2.0 * v, "must sum to 1 within"),
    (lambda v: "x", "must be numeric"),
])
def test_distribution_rule(site, mutate, match):
    """Input distributions are finite, non-negative rows summing to 1."""
    name, valid, call = DISTRIBUTION_SITES[site]
    call(valid)
    with pytest.raises(InvalidInputError, match=f"{name} {match}"):
        call(mutate(valid))


TRANSITION_SITES = {
    "ModelSpec": lambda f: with_transitions(f).transitions,
    "choice_values": lambda f: choice_values(RULE_MODEL.utility, f, 0.8, 0.9, np.ones(3)),
    "build_pair_system": lambda f: build_pair_system(f, RULE_MODEL.equality_pairs).F,
    "fit_mle": lambda f: fit_mle(RULE_PANEL, RULE_SPEC, f, RULE_FIT).loglik,
    "log_likelihood": lambda f: log_likelihood(RULE_PANEL, RULE_SPEC, (0.0, 0.0),
                                               0.8, 0.9, f),
}


@pytest.mark.parametrize("site", sorted(TRANSITION_SITES))
def test_transition_rule(site):
    """Transitions are a (K, J, J) tensor, given as such or as an estimate's
    ``f_hat``."""
    call = TRANSITION_SITES[site]
    estimate = estimate_transitions(RULE_PANEL, 3, 2)
    assert_array_equal(call(estimate), call(estimate.f_hat))
    with pytest.raises(InvalidInputError, match="transitions must have shape"):
        call(estimate.f_hat[:, :2])
    with pytest.raises(InvalidInputError, match="transitions must have shape"):
        call(estimate.f_hat[0])


PAIR_SITES = {
    "ModelSpec": lambda pairs: ModelSpec(
        num_states=3, num_actions=2, horizon=4, beta=0.8, delta=0.9,
        utility=np.zeros((2, 3)), transitions=RULE_MODEL.transitions,
        equality_pairs=pairs).equality_pairs,
    "build_pair_system": lambda pairs: build_pair_system(RULE_MODEL.transitions,
                                                         pairs).pairs,
    "inclusive_value_gaps": lambda pairs: inclusive_value_gaps(
        solve_backward(RULE_MODEL), pairs),
}


@pytest.mark.parametrize("site", sorted(PAIR_SITES))
@pytest.mark.parametrize("pairs,match", [
    ([[0, 1, 0, 0], [np.int64(1), 0, np.int32(1), 1]], None),
    ([(0, 1, 0)], r"equality pair \(0, 1, 0\) must be 4 integers"),
    ([(0, 1, 0, 0, 1)], "must be 4 integers"),
    ([(0, 1, "a", 0)], "must be 4 integers"),
    ([7], "equality pair 7 must be 4 integers"),
    ([(0, 2, 0, 0)], r"equality pair \(0, 2, 0, 0\) is out of range for K=2, J=3"),
    ([(0, 1, 0, -1)], "is out of range for K=2, J=3"),
    ([(0.7, 1.2, 0.0, 0.9)], r"equality pair \(0.7, 1.2, 0.0, 0.9\) must be 4 integers"),
    ([(0, 1, 1.0, 1)], "must be 4 integers"),
    ([(0, 1, "1", 1)], "must be 4 integers"),
    ([(0, True, 1, 1)], "must be 4 integers"),
])
def test_pair_rule(site, pairs, match):
    """Pairs are four integers indexing actions and states, never
    truncated floats, strings or bools."""
    if match is None:
        normalized = tuple((int(k), int(l), int(x1), int(x2)) for k, l, x1, x2 in pairs)
        assert_array_equal(PAIR_SITES[site](pairs), PAIR_SITES[site](normalized))
        return
    with pytest.raises(InvalidInputError, match=match):
        PAIR_SITES[site](pairs)


STATE_VALUE_SITES = {
    "ModelSpec": lambda sv: ModelSpec(
        num_states=5, num_actions=2, horizon=4, beta=0.8, delta=0.9,
        utility=np.zeros((2, 5)), transitions=np.full((2, 5, 5), 0.2),
        state_values=sv).state_values,
    "UtilitySpec": lambda sv: UtilitySpec(form="linear_in_state", num_actions=2,
                                          num_states=5, state_values=sv).state_values,
    # the design's payoff is alpha0 + alpha1 * state value, with alpha1 = -0.2
    "McConfig": lambda sv: (McConfig(num_states=5, state_values=sv).utility_table()[0]
                            - 0.5) / -0.2,
}


@pytest.mark.parametrize("site", sorted(STATE_VALUE_SITES))
@pytest.mark.parametrize("state_values,match", [
    (None, None),
    ((0.0, 1.0), r"state_values must have shape \(5,\), got \(2,\)"),
    ((0.0, 1.0, np.nan, 3.0, 4.0), "state_values must be finite everywhere"),
    ("x", "state_values must be numeric"),
])
def test_state_value_rule(site, state_values, match):
    """State covariates are J finite numbers, 0 .. J-1 by default."""
    if match is None:
        assert_allclose(STATE_VALUE_SITES[site](state_values), np.arange(5.0),
                        rtol=0, atol=1e-12)
        return
    with pytest.raises(InvalidInputError, match=match):
        STATE_VALUE_SITES[site](state_values)


def model_dims(num_states=3, num_actions=2, horizon=4):
    return ModelSpec(num_states=num_states, num_actions=num_actions, horizon=horizon,
                     beta=0.8, delta=0.9, utility=np.zeros((2, 3)),
                     transitions=RULE_MODEL.transitions)


def utility_dims(num_states=3, num_actions=2, reference_action=None):
    return UtilitySpec(form="linear_in_state", num_actions=num_actions,
                       num_states=num_states, reference_action=reference_action)


def recover_rule_utilities(anchor):
    return recover_utilities(
        solve_backward(RULE_MODEL).P[-1],
        build_pair_system(RULE_MODEL.transitions, RULE_MODEL.equality_pairs), anchor)


def anchored_cell(action=0, state=2):
    """The (action, state) cell at which ``recover_utilities`` pinned the
    anchor value 0.  RULE_MODEL's same-state pairs link no two states, so
    only the anchor state is level-identified, and at state 2, where
    u_0 != u_1, only the anchor action's payoff is exactly 0."""
    utilities, identified, _ = recover_rule_utilities((action, state, 0.0))
    x = int(np.flatnonzero(identified)[0])
    return int(np.flatnonzero(utilities[:, x] == 0.0)[0]), x


# (field, valid value, call returning the field as stored)
DIMENSION_SITES = {
    "ModelSpec num_states": ("num_states", 3, lambda v: model_dims(num_states=v).num_states),
    "ModelSpec num_actions": ("num_actions", 2,
                              lambda v: model_dims(num_actions=v).num_actions),
    "ModelSpec horizon": ("horizon", 4, lambda v: model_dims(horizon=v).horizon),
    "UtilitySpec num_states": ("num_states", 3,
                               lambda v: utility_dims(num_states=v).num_states),
    "UtilitySpec num_actions": ("num_actions", 2,
                                lambda v: utility_dims(num_actions=v).num_actions),
    "UtilitySpec reference_action": ("reference_action", 0,
                                     lambda v: utility_dims(reference_action=v)
                                     .reference_action),
    "simulate_panel n_agents": ("n_agents", 50, lambda v: simulate_panel(
        RULE_MODEL, solve_backward(RULE_MODEL), v).n_agents),
    "empirical_ccps horizon": ("horizon", 10, lambda v: empirical_ccps(
        RULE_PANEL, 3, 2, horizon=v).counts.shape[0]),
    "recover_utilities anchor action": ("anchor action", 0,
                                        lambda v: anchored_cell(action=v)[0]),
    "recover_utilities anchor state": ("anchor state", 2,
                                       lambda v: anchored_cell(state=v)[1]),
}


@pytest.mark.parametrize("site", sorted(DIMENSION_SITES))
@pytest.mark.parametrize("mutate", [lambda n: n + 0.7, float, str, lambda n: True])
def test_dimension_rule(site, mutate):
    """Dimensions and indices are integers, never truncated floats,
    strings or bools."""
    name, valid, call = DIMENSION_SITES[site]
    stored = call(np.int64(valid))
    assert stored == valid and type(stored) is int
    bad = mutate(valid)
    with pytest.raises(InvalidInputError,
                       match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("anchor,match", [
    ((0, 2), r"anchor must be \(action, state, value\), got \(0, 2\)"),
    ((0, 2, 0.0, 1.0), "anchor must be"),
    (7, "anchor must be"),
    ((0, 2, "x"), "anchor value must be numeric"),
    ((0, 2, np.nan), "anchor value must be finite everywhere"),
    ((0, 2, (0.0, 1.0)), r"anchor value must have shape \(\), got \(2,\)"),
])
def test_anchor_rule(anchor, match):
    """An anchor is (action, state, value) with one finite value."""
    with pytest.raises(InvalidInputError, match=match):
        recover_rule_utilities(anchor)


EXAMPLE_MODEL = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples" / "model.json"


@pytest.mark.parametrize("rank_tol", [math.nan, -1.0, 0.0, 1.0])
def test_rank_tol_rule(rank_tol, tmp_path, capsys):
    """rank_tol is a real number in (0, 1) wherever a rank is gated, and
    the command line exits 2 on any other value."""
    pair_system = build_pair_system(RULE_MODEL.transitions, RULE_MODEL.equality_pairs)
    A, B = assemble_system(solve_backward(RULE_MODEL).P, pair_system)
    calls = [
        lambda: build_pair_system(RULE_MODEL.transitions, RULE_MODEL.equality_pairs,
                                  rank_tol),
        lambda: solve_discounts(A, B, rank_tol=rank_tol),
        lambda: check_model(RULE_MODEL, rank_tol=rank_tol),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError,
                           match=rf"^rank_tol must lie in \(0, 1\), got {rank_tol}$"):
            call()
    for command in ("identify", "check"):
        code = main([command, "--model", str(EXAMPLE_MODEL), "--rank-tol", str(rank_tol),
                     "--out", str(tmp_path / f"{command}.json")])
        assert code == 2
        assert f"rank_tol must lie in (0, 1), got {rank_tol}" in capsys.readouterr().err
