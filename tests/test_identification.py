import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hyperdisc import (
    AssumptionViolationError,
    InsufficientDataError,
    InvalidInputError,
    assemble_system,
    assemble_system_macro,
    build_pair_system,
    check_model,
    identify_from_estimates,
    identify_model,
    inclusive_value_gaps,
    recover_utilities,
    solve_backward,
    solve_discounts,
    solve_discounts_macro,
)
from hyperdisc.identification import (
    MODE_CONSTRAINED_LS,
    MODE_RIGHT_INVERSE,
    numerical_rank,
    smooth_empirical_ccps,
)
from hyperdisc.simulation import empirical_ccps, estimate_transitions, simulate_panel
from conftest import canonical_design, make_random_model


def exact_system(model):
    pair_system = build_pair_system(model.transitions, model.equality_pairs)
    solution = solve_backward(model)
    A, B = assemble_system(solution.P, pair_system)
    return pair_system, solution, A, B


def find_well_conditioned_model(start_seed, sv_gate, **kwargs):
    """First random model whose assembled system passes the rank gate."""
    seed = start_seed
    while True:
        model = make_random_model(seed, **kwargs)
        try:
            _, _, A, _ = exact_system(model)
        except AssumptionViolationError:
            seed += 1
            continue
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] > sv_gate * sv[0]:
            return model
        seed += 1


class TestBuildPairSystem:
    def test_two_state_single_pair_value(self):
        model = make_random_model(0, num_states=2)
        pair = (0, 1, 0, 1)
        ps = build_pair_system(model.transitions, [pair])
        expected = model.transitions[0, 0, 0] - model.transitions[1, 1, 0]
        assert ps.F_tilde.shape == (1, 1)
        assert ps.F_tilde[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_identical_transitions_violate_rank(self):
        f = np.random.default_rng(0).random((2, 3, 3))
        f /= f.sum(axis=2, keepdims=True)
        f[1] = f[0]  # both actions move the state identically
        with pytest.raises(AssumptionViolationError) as err:
            build_pair_system(f, [(0, 1, 0, 0), (0, 1, 1, 1)])
        assert err.value.assumption == "4(b)"
        assert "4(b)" in str(err.value)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_verdict_matches_determinant_oracle(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.random((2, 3, 3))
        f /= f.sum(axis=2, keepdims=True)
        pairs = [(0, 1, 0, 0), (0, 1, 1, 1)]
        rows = np.array([f[0, 0, :2] - f[1, 0, :2], f[0, 1, :2] - f[1, 1, :2]])
        det = rows[0, 0] * rows[1, 1] - rows[0, 1] * rows[1, 0]
        assert abs(det) > 1e-8  # random rows are far from singular
        ps = build_pair_system(f, pairs)  # must not raise
        assert ps.F_tilde.shape == (2, 2)

    def test_exactly_singular_matches_determinant_oracle(self):
        f = np.random.default_rng(7).random((2, 3, 3))
        f /= f.sum(axis=2, keepdims=True)
        f[1, 1] = f[0, 0]  # second pair row becomes exactly zero minus zero
        f[0, 1] = f[0, 0]
        f[1, 0] = f[0, 0]
        pairs = [(0, 1, 0, 0), (0, 1, 1, 1)]
        rows = np.array([f[0, 0, :2] - f[1, 0, :2], f[0, 1, :2] - f[1, 1, :2]])
        det = rows[0, 0] * rows[1, 1] - rows[0, 1] * rows[1, 0]
        assert det == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(AssumptionViolationError):
            build_pair_system(f, pairs)

    def test_pair_count_enforced(self):
        model = make_random_model(1)
        with pytest.raises(InvalidInputError):
            build_pair_system(model.transitions, [(0, 1, 0, 0)])  # J=3 needs 2

    def test_stacked_matrices_shapes(self):
        model = make_random_model(2, num_states=4, num_actions=3)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        J, K = 4, 3
        assert ps.F_tilde.shape == (J - 1, J - 1)
        assert ps.F_tilde_K.shape == (J - 1, J - 1)
        assert ps.F.shape == (K, J, J - 1)
        assert_array_equal(ps.F, model.transitions[:, :, : J - 1])
        assert_array_equal(ps.F_tilde_K, ps.F[K - 1, : J - 1] - ps.F[K - 1, J - 1])


class TestBuildCcpBlocks:
    """The pair log ratios D_t and the CCP blocks, as they enter
    ``assemble_system``."""

    def test_identical_pair_entry_is_zero(self):
        # a pair (k, k, x, x) adds a zero row to F_tilde and a zero log
        # ratio to every D_t, so the least-squares system is unchanged
        model = make_random_model(3)
        _, sol, A, B = exact_system(model)
        extra = build_pair_system(model.transitions,
                                  list(model.equality_pairs) + [(1, 1, 0, 0)])
        A2, B2 = assemble_system(sol.P, extra)
        assert_allclose(A2, A, rtol=0, atol=1e-10)
        assert_array_equal(B2, B)

    def test_uniform_ccps(self):
        model = make_random_model(4)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        K, J, T = model.num_actions, model.num_states, model.horizon
        uniform = np.full((T, K, J), 1.0 / K)
        A, B = assemble_system(uniform, ps)
        assert_array_equal(A, 0.0)
        assert_array_equal(B, 0.0)

    def test_ratio_vector_equals_scaled_value_difference(self):
        # same-state log CCP ratios give D_t = beta*delta*F_tilde dV_{t+1},
        # so the bottom block of column t is beta*delta*(dV_t - dV_{t-1})
        model = make_random_model(5, num_states=4)
        ps, sol, A, _ = exact_system(model)
        n1 = model.num_states - 1
        dV = sol.V[:, :n1] - sol.V[:, n1:]
        expected = model.beta * model.delta * np.diff(dV, axis=0)[1:].T
        assert_allclose(A[2 * n1:], expected, rtol=0, atol=1e-10)

    def test_nonpositive_ccps_rejected(self):
        model = make_random_model(6)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        sol = solve_backward(model)
        bad = sol.P.copy()
        for value in (0.0, -0.1):
            bad[2, 0, 1] = value
            with pytest.raises(InvalidInputError):
                assemble_system(bad, ps)
            with pytest.raises(InvalidInputError):
                assemble_system_macro(bad, ps, np.array([[1.0]]))


class TestAssembleSystem:
    def test_shapes(self):
        model = make_random_model(7, num_states=3, horizon=12)
        _, _, A, B = exact_system(model)
        n1 = model.num_states - 1
        assert A.shape == (3 * n1, model.horizon - 2)
        assert B.shape == (n1, model.horizon - 2)

    def test_matches_per_period_definition(self):
        # column t built period by period from the assemble_system formula,
        # with G_t summed action by action
        model = make_random_model(8, num_states=4, num_actions=3, horizon=9)
        ps, sol, A, B = exact_system(model)
        f = model.transitions
        n1 = model.num_states - 1
        logp = np.log(sol.P)
        D = np.array([[logp[t, k, x1] - logp[t, l, x2] for (k, l, x1, x2) in ps.pairs]
                      for t in range(model.horizon)])

        def G_times_solved_D(t):
            G = sum(sol.P[t, i, :n1, None] * f[i, :n1, :n1]
                    - sol.P[t, i, n1] * f[i, n1, :n1] for i in range(model.num_actions))
            return G @ np.linalg.solve(ps.F_tilde, D[t])

        for col, t in enumerate(range(2, model.horizon)):
            expected = np.concatenate([
                ps.F_tilde_K @ np.linalg.solve(ps.F_tilde, D[t] - D[t - 1]),
                G_times_solved_D(t) - G_times_solved_D(t - 1),
                np.linalg.solve(ps.F_tilde, D[t - 1] - D[t - 2]),
            ])
            assert_allclose(A[:, col], expected, rtol=1e-12, atol=1e-12 * np.abs(A).max())
            target = (logp[t, -1, :n1] - logp[t, -1, n1]
                      - (logp[t - 1, -1, :n1] - logp[t - 1, -1, n1]))
            assert_array_equal(B[:, col], target)

    def test_exact_residual_on_linear_design_with_same_state_pairs(self):
        # the 5-state linear design at (delta, beta) = (0.9, 0.85), with
        # action payoffs equalized state by state so inversion is exact
        rng = np.random.default_rng(56)
        J, K, T = 5, 2, 16
        f = rng.random((K, J, J))
        f /= f.sum(axis=2, keepdims=True)
        u = np.zeros((K, J))
        u[0] = 0.5 - 0.2 * np.arange(J)
        u[1, : J - 1] = u[0, : J - 1]  # same-state pairs at states 0..3
        u[1, J - 1] = 0.0
        from hyperdisc import ModelSpec
        model = ModelSpec(num_states=J, num_actions=K, horizon=T, beta=0.85,
                          delta=0.9, utility=u, transitions=f,
                          equality_pairs=[(0, 1, x, x) for x in range(J - 1)])
        _, _, A, B = exact_system(model)
        c1 = (1 - model.beta) / model.beta
        c2 = -1.0 / (model.beta * model.delta)
        eye = np.eye(J - 1)
        resid = np.abs(np.hstack([eye, c1 * eye, c2 * eye]) @ A - B).max()
        assert resid < 1e-8

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_exact_residual_on_random_models(self, seed):
        model = make_random_model(seed, num_states=3)
        _, _, A, B = exact_system(model)
        c1 = (1 - model.beta) / model.beta
        c2 = -1.0 / (model.beta * model.delta)
        eye = np.eye(model.num_states - 1)
        resid = np.abs(np.hstack([eye, c1 * eye, c2 * eye]) @ A - B).max()
        assert resid < 1e-8

    def test_stationary_ccps_produce_rank_deficient_system(self):
        model = make_random_model(14)
        ps, sol, _, _ = exact_system(model)
        T, K, J = model.horizon, model.num_actions, model.num_states
        frozen = np.broadcast_to(sol.P[0], (T, K, J)).copy()
        A, B = assemble_system(frozen, ps)
        assert_allclose(A[: J - 1], 0.0, rtol=0, atol=1e-12)      # delta-D block
        assert_allclose(A[2 * (J - 1):], 0.0, rtol=0, atol=1e-12)
        with pytest.raises(AssumptionViolationError) as err:
            solve_discounts(A, B)
        assert err.value.assumption == "5(b)"

    def test_too_few_periods(self):
        model = make_random_model(15, horizon=3)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        sol = solve_backward(model)
        with pytest.raises(InsufficientDataError):
            assemble_system(sol.P, ps)


class TestSolveDiscounts:
    @pytest.mark.parametrize("mode", [MODE_RIGHT_INVERSE, MODE_CONSTRAINED_LS])
    def test_exact_recovery_both_modes(self, mode):
        model = find_well_conditioned_model(100, 1e-7, num_states=2)
        _, _, A, B = exact_system(model)
        result = solve_discounts(A, B, rank_tol=1e-8, mode=mode)
        assert abs(result.beta_hat - model.beta) < 1e-6
        assert abs(result.delta_hat - model.delta) < 1e-6
        assert result.in_range
        assert result.diagnostics["fit_residual_max"] < 1e-8

    def test_modes_agree(self):
        model = find_well_conditioned_model(200, 1e-7, num_states=2)
        _, _, A, B = exact_system(model)
        ri = solve_discounts(A, B, rank_tol=1e-8, mode=MODE_RIGHT_INVERSE)
        cls_ = solve_discounts(A, B, rank_tol=1e-8, mode=MODE_CONSTRAINED_LS)
        assert abs(ri.beta_hat - cls_.beta_hat) < 1e-6
        assert abs(ri.delta_hat - cls_.delta_hat) < 1e-6

    def test_block_structure_on_exact_inputs(self):
        model = find_well_conditioned_model(300, 1e-7, num_states=2)
        _, _, A, B = exact_system(model)
        result = solve_discounts(A, B, rank_tol=1e-8, mode=MODE_RIGHT_INVERSE)
        n1 = model.num_states - 1
        coef = result.coefficient_matrix
        assert np.abs(coef[:, :n1] - np.eye(n1)).max() < 1e-6
        assert result.diagnostics["block1_identity_residual"] < 1e-6
        assert result.diagnostics["block2_offdiag_max"] < 1e-6
        assert result.diagnostics["block3_offdiag_max"] < 1e-6

    def test_beta_one_yields_zero_c1(self):
        model = make_random_model(400, num_states=2, beta=1.0)
        _, _, A, B = exact_system(model)
        result = solve_discounts(A, B, mode=MODE_CONSTRAINED_LS)
        assert abs(result.c1) < 1e-8
        assert abs(result.beta_hat - 1.0) < 1e-8

    def test_duplicated_row_rejected(self):
        model = find_well_conditioned_model(500, 1e-7, num_states=2)
        _, _, A, B = exact_system(model)
        A = A.copy()
        A[1] = A[0]
        with pytest.raises(AssumptionViolationError) as err:
            solve_discounts(A, B, mode=MODE_RIGHT_INVERSE)
        assert err.value.assumption == "5(b)"

    def test_too_few_columns_cites_5a(self):
        # J=3 needs T >= 8; T=7 gives a 6x5 system
        model = make_random_model(600, num_states=3, horizon=7)
        _, _, A, B = exact_system(model)
        with pytest.raises(InsufficientDataError) as err:
            solve_discounts(A, B)
        assert err.value.assumption == "5(a)"
        assert "5(a)" in str(err.value)

    def test_out_of_range_estimates_flagged_not_fatal(self):
        model = find_well_conditioned_model(700, 1e-7, num_states=2)
        _, _, A, _ = exact_system(model)
        n1 = model.num_states - 1
        eye = np.eye(n1)
        fake_B = np.hstack([eye, -0.5 * eye, 1.0 * eye]) @ A  # beta=2, delta=-0.5
        result = solve_discounts(A, fake_B, rank_tol=1e-8, mode=MODE_CONSTRAINED_LS)
        assert not result.in_range
        assert result.beta_hat == pytest.approx(2.0, abs=1e-6)
        assert result.delta_hat == pytest.approx(-0.5, abs=1e-6)

    def test_unknown_mode_rejected(self):
        model = make_random_model(800, num_states=2)
        _, _, A, B = exact_system(model)
        with pytest.raises(InvalidInputError):
            solve_discounts(A, B, mode="something_else")


class TestStateDifferencedIdentity:
    def test_expected_value_decomposition(self):
        # sum_x' V(x') f(x'|x,i) == F_i(x) (V - V(J)) + V(J), all (t, x, i)
        model = make_random_model(900, num_states=4, num_actions=3)
        sol = solve_backward(model)
        J = model.num_states
        for t in range(model.horizon):
            v = sol.V[t]
            v_diff = v[: J - 1] - v[J - 1]
            for i in range(model.num_actions):
                lhs = model.transitions[i] @ v
                rhs = model.transitions[i, :, : J - 1] @ v_diff + v[J - 1]
                assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


class TestRecoverUtilities:
    def test_linear_design_recovered_exactly(self):
        model = canonical_design(setting=1)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        sol = solve_backward(model)
        utilities, identified, inconsistency = recover_utilities(
            sol.P[-1], ps, anchor=(1, model.num_states - 1, 0.0)
        )
        assert identified.all()
        assert inconsistency < 1e-10
        expected = 0.5 - 0.2 * np.arange(model.num_states)
        assert_allclose(utilities[0], expected, rtol=0, atol=1e-10)
        assert_allclose(utilities[1], 0.0, rtol=0, atol=1e-10)

    def test_uniform_terminal_ccps_give_zero_differences(self):
        model = make_random_model(42, num_states=3)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        uniform = np.full((model.num_actions, model.num_states), 0.5)
        utilities, identified, _ = recover_utilities(uniform, ps, anchor=(0, 0, 0.0))
        assert_allclose(utilities - utilities[-1], 0.0, rtol=0, atol=1e-15)

    def test_disconnected_states_flagged(self):
        model = make_random_model(43, num_states=4)
        # pairs only among states {0, 1}; states 2 and 3 stay unanchored
        pairs = [(0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 1)]
        u = model.utility.copy()
        u[1, 0] = u[0, 0]
        u[1, 1] = u[0, 1]
        u[0, 1] = u[0, 0]
        ps = build_pair_system(model.transitions, pairs)
        sol = solve_backward(model)
        utilities, identified, _ = recover_utilities(sol.P[-1], ps, anchor=(0, 0, 1.0))
        assert identified[0] and identified[1]
        assert not identified[2] and not identified[3]
        # unanchored states still report within-state differences
        logp = np.log(sol.P[-1])
        assert_allclose(utilities[:, 2], logp[:, 2] - logp[-1, 2], rtol=0, atol=1e-12)

    def test_anchor_out_of_range(self):
        model = make_random_model(44)
        ps = build_pair_system(model.transitions, model.equality_pairs)
        sol = solve_backward(model)
        with pytest.raises(InvalidInputError):
            recover_utilities(sol.P[-1], ps, anchor=(9, 0, 0.0))


class TestInclusiveValueGaps:
    def test_same_state_pairs_have_zero_gap(self):
        model = make_random_model(50)
        sol = solve_backward(model)
        gaps = inclusive_value_gaps(sol, model.equality_pairs)
        assert np.abs(gaps).max() < 1e-12

    def test_cross_state_pairs_have_nonzero_gap(self):
        model = canonical_design(setting=1)
        sol = solve_backward(model)
        gaps = inclusive_value_gaps(sol, model.equality_pairs)
        assert np.abs(gaps).max() > 1e-3

    def test_matches_per_element_definition(self):
        from scipy.special import logsumexp
        model = canonical_design(setting=1)
        sol = solve_backward(model)
        pairs = model.equality_pairs + ((0, 1, 0, 0),)
        assert any(x1 != x2 for (_, _, x1, x2) in pairs)
        gaps = inclusive_value_gaps(sol, pairs)
        expected = np.array([
            [logsumexp(sol.W[t, :, x1]) - logsumexp(sol.W[t, :, x2])
             for (_, _, x1, x2) in pairs]
            for t in range(model.horizon)
        ])
        assert_array_equal(gaps, expected)
        assert_array_equal(inclusive_value_gaps(sol.W, pairs), expected)

    def test_empty_pair_list(self):
        model = make_random_model(51)
        gaps = inclusive_value_gaps(solve_backward(model), ())
        assert gaps.shape == (model.horizon, 0)


class TestMacroSystem:
    def test_single_macro_state_reduces_exactly(self):
        model = make_random_model(60, num_states=3)
        ps, sol, A, B = exact_system(model)
        At, Bt = assemble_system_macro(sol.P, ps, np.array([[1.0]]))
        assert_array_equal(At, A)
        assert_array_equal(Bt, B)

    def test_shapes(self):
        model = make_random_model(61, num_states=3, horizon=6)
        ps, sol, _, _ = exact_system(model)
        H = np.full((3, 3), 1.0 / 3.0)
        At, Bt = assemble_system_macro(sol.P, ps, H)
        assert At.shape == (6, (model.horizon - 2) * 3)
        assert Bt.shape == (2, (model.horizon - 2) * 3)

    def test_exact_residual_with_macro_state(self):
        model = make_random_model(62, num_states=3, horizon=4)
        ps, sol, _, _ = exact_system(model)
        H = np.random.default_rng(0).random((3, 3))
        H /= H.sum(axis=1, keepdims=True)
        At, Bt = assemble_system_macro(sol.P, ps, H)
        c1 = (1 - model.beta) / model.beta
        c2 = -1.0 / (model.beta * model.delta)
        eye = np.eye(model.num_states - 1)
        resid = np.abs(np.hstack([eye, c1 * eye, c2 * eye]) @ At - Bt).max()
        assert resid < 1e-8

    def test_minimum_horizon_recovery(self):
        # J=3 with a 3-valued auxiliary state needs only T=4
        model = make_random_model(63, num_states=3, horizon=4,
                                  beta=0.8, delta=0.9)
        ps, sol, _, _ = exact_system(model)
        H = np.random.default_rng(1).random((3, 3))
        H /= H.sum(axis=1, keepdims=True)
        At, Bt = assemble_system_macro(sol.P, ps, H)
        assert At.shape == (6, 6)
        result = solve_discounts_macro(At, Bt, mode=MODE_CONSTRAINED_LS)
        assert abs(result.beta_hat - model.beta) < 1e-6
        assert abs(result.delta_hat - model.delta) < 1e-6

    def test_duplicated_columns_defeat_right_inverse(self):
        # with auxiliary-state-invariant CCPs each period's M columns
        # coincide, so the full-rank requirement 8(b) fails
        model = make_random_model(63, num_states=3, horizon=4)
        ps, sol, _, _ = exact_system(model)
        H = np.random.default_rng(1).random((3, 3))
        H /= H.sum(axis=1, keepdims=True)
        At, Bt = assemble_system_macro(sol.P, ps, H)
        with pytest.raises(AssumptionViolationError) as err:
            solve_discounts_macro(At, Bt, mode=MODE_RIGHT_INVERSE)
        assert err.value.assumption == "8(b)"

    def test_count_gate_cites_8a(self):
        model = make_random_model(64, num_states=3, horizon=4)
        ps, sol, _, _ = exact_system(model)
        At, Bt = assemble_system_macro(sol.P, ps, np.array([[1.0]]))  # M = 1
        with pytest.raises(InsufficientDataError) as err:
            solve_discounts_macro(At, Bt)
        assert err.value.assumption == "8(a)"

    def test_columns_repeat_the_plain_system(self):
        # ``outer(x, ones) @ H.T``, the per-period average over the next
        # auxiliary state, is x times the row sums of H; the bottom block
        # is repeated as is
        model = make_random_model(66, num_states=4, num_actions=3)
        ps, sol, A, B = exact_system(model)
        H = np.random.default_rng(2).random((3, 3))
        H /= H.sum(axis=1, keepdims=True)
        At, Bt = assemble_system_macro(sol.P, ps, H)
        n1 = model.num_states - 1
        scale = np.tile(H.sum(axis=1), A.shape[1])
        expected_A = np.repeat(A, 3, axis=1)
        expected_A[: 2 * n1] *= scale
        assert_allclose(At, expected_A, rtol=1e-14, atol=1e-14 * np.abs(A).max())
        assert_allclose(Bt, np.repeat(B, 3, axis=1) * scale, rtol=1e-14,
                        atol=1e-14 * np.abs(B).max())

    def test_row_sums_validated(self):
        model = make_random_model(65, num_states=3)
        ps, sol, _, _ = exact_system(model)
        bad = np.array([[0.5, 0.4], [0.3, 0.7]])
        with pytest.raises(InvalidInputError):
            assemble_system_macro(sol.P, ps, bad)

    def test_macro_solver_equals_plain_solver_for_m1(self):
        model = find_well_conditioned_model(900, 1e-7, num_states=2)
        ps, sol, A, B = exact_system(model)
        At, Bt = assemble_system_macro(sol.P, ps, np.array([[1.0]]))
        plain = solve_discounts(A, B, rank_tol=1e-8, mode=MODE_CONSTRAINED_LS)
        macro = solve_discounts_macro(At, Bt, rank_tol=1e-8, mode=MODE_CONSTRAINED_LS)
        assert macro.beta_hat == plain.beta_hat
        assert macro.delta_hat == plain.delta_hat


class TestCheckModel:
    def test_canonical_design_passes_all_checks(self):
        model = canonical_design(setting=1)
        report = check_model(model)
        assert all(entry["passed"] for entry in report.values()), report

    def test_duplicated_transitions_fail_4b(self):
        # equal payoffs across actions make (0, 1, x, x) pairs valid, and
        # identical transition tensors zero out every pair row
        from hyperdisc import ModelSpec
        rng = np.random.default_rng(8)
        f = rng.random((2, 5, 5))
        f /= f.sum(axis=2, keepdims=True)
        f[1] = f[0]
        broken = ModelSpec(
            num_states=5, num_actions=2, horizon=16, beta=0.85, delta=0.9,
            utility=np.zeros((2, 5)), transitions=f,
            equality_pairs=[(0, 1, x, x) for x in range(4)],
        )
        report = check_model(broken)
        assert not report["4(b)"]["passed"]

    def test_short_horizon_fails_5a(self):
        model = canonical_design(setting=1, horizon=10)  # needs 3J-1 = 14
        report = check_model(model)
        assert not report["5(a)"]["passed"]

    def test_macro_entries_reported(self):
        model = canonical_design(setting=1)
        H = np.full((2, 2), 0.5)
        report = check_model(model, macro_transitions=H)
        for key in ("6", "7(a)", "7(b)", "8(a)", "8(b)"):
            assert key in report
        assert report["8(a)"]["passed"]  # (16-2)*2 = 28 >= 12

    @pytest.mark.parametrize("H", [
        [[2.0, -1.0], [0.5, 0.5]],   # rows sum to 1, one entry negative
        [[0.5, 0.4], [0.3, 0.7]],    # a row off 1
        [0.5, 0.5],                  # not square
        np.nan,                      # a document without the matrix
    ])
    def test_invalid_macro_transitions_rejected(self, H):
        # T = 3 is too short to assemble A, so nothing else reads H
        model = make_random_model(66, num_states=2, horizon=3)
        with pytest.raises(InvalidInputError, match="macro_transitions"):
            check_model(model, macro_transitions=H)


class TestDataMode:
    def test_smoothing_counts_and_report(self):
        counts = np.array([[[5, 0], [3, 2]], [[4, 1], [0, 5]]], dtype=float)
        counts = counts.reshape(2, 2, 2)
        visited = np.ones((2, 2), dtype=bool)
        ccps, n_smoothed = smooth_empirical_ccps(counts, visited)
        assert n_smoothed == 2
        assert np.all(ccps > 0)
        assert_allclose(ccps.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # untouched cell (t=0, x=0) keeps raw frequencies: counts (5, 3)
        assert ccps[0, 0, 0] == pytest.approx(5.0 / 8.0)
        # smoothed cell (t=0, x=1): counts (0, 2) -> (0.5/3, 2.5/3)
        assert ccps[0, 0, 1] == pytest.approx(0.5 / 3.0)
        assert ccps[0, 1, 1] == pytest.approx(2.5 / 3.0)
        # smoothed cell (t=1, x=0): counts (4, 0) -> (4.5/5, 0.5/5)
        assert ccps[1, 0, 0] == pytest.approx(4.5 / 5.0)

    def test_unvisited_cells_rejected(self):
        counts = np.zeros((2, 2, 2))
        visited = np.zeros((2, 2), dtype=bool)
        with pytest.raises(InsufficientDataError):
            smooth_empirical_ccps(counts, visited)

    def test_pipeline_runs_on_simulated_panel(self):
        model = find_well_conditioned_model(1000, 1e-7, num_states=2)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 4000, seed=3)
        ccps = empirical_ccps(panel, model.num_states, model.num_actions)
        f_hat = estimate_transitions(panel, model.num_states, model.num_actions)
        result = identify_from_estimates(
            ccps.counts, ccps.visited, f_hat, model.equality_pairs,
            mode=MODE_CONSTRAINED_LS,
        )
        assert np.isfinite(result.beta_hat)
        assert "smoothed_cells" in result.diagnostics
        assert result.utilities_hat is not None

    def test_identify_model_attaches_diagnostics(self):
        model = canonical_design(setting=1)
        result = identify_model(model, mode=MODE_CONSTRAINED_LS)
        assert result.diagnostics["n_cross_state_pairs"] == 4
        assert result.diagnostics["inclusive_value_gap_max"] > 1e-3
        assert result.utilities_hat is not None

    def test_identify_model_exact_recovery_with_same_state_pairs(self):
        model = find_well_conditioned_model(1100, 1e-7, num_states=2)
        result = identify_model(model, mode=MODE_RIGHT_INVERSE, rank_tol=1e-8)
        assert abs(result.beta_hat - model.beta) < 1e-6
        assert abs(result.delta_hat - model.delta) < 1e-6
        assert result.diagnostics["inclusive_value_gap_max"] < 1e-10


class TestNumericalRank:
    def test_structural_tolerance_default(self):
        rank, _ = numerical_rank(np.eye(3))
        assert rank == 3
        duplicated = np.vstack([np.eye(3), np.eye(3)[0]])  # 4x3, rank 3
        rank, _ = numerical_rank(duplicated)
        assert rank == 3
        rank, _ = numerical_rank(np.vstack([np.ones((2, 4)), np.eye(4)[:1]]))
        assert rank == 2
