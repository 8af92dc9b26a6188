"""Closed-form recovery of the discount factors from choice probabilities.

The forward model implies, for the state-differenced perceived values
``V_t = (V_t(x) - V_t(J))_{x=1..J-1}`` (reference state ``J`` is the
last index), the recursion

    V_t = -dlog(P_{t,K}) + u_K + beta*delta * F_K_tilde V_{t+1}
          + (1-beta)*delta * (P_t F - P_tJ F_J) V_{t+1},

where every matrix on the right is built from observed choice
probabilities and transition rows only (``u_K`` is the state-differenced
payoff of the reference action).  Separately, for an action/state pair
``(k, l, x1, x2)`` with equal flow payoffs, the same-state logit
inversion turns log CCP ratios into value differences:

    D_t(pair) = log(P_{t,k}(x1) / P_{t,l}(x2))
              = beta*delta * (F_k(x1) - F_l(x2)) V_{t+1},

so with ``J-1`` such pairs whose transition-difference rows stack into
an invertible matrix ``F_tilde``, the unknown ``V_{t+1}`` is
``(beta*delta)^{-1} F_tilde^{-1} D_t``.  Substituting into the
first-differenced recursion eliminates every unknown except the two
scalars

    c1 = (1 - beta) / beta        and        c2 = -1 / (beta * delta),

leaving the linear system ``[I, c1*I, c2*I] A = B`` whose ``T - 2``
columns (one per period from the third on) are observable.  Recovering
the bracket row by a right inverse of ``A``, or fitting ``(c1, c2)``
directly by least squares with the scalar-identity structure imposed,
yields ``beta = 1 / (1 + c1)`` and ``delta = -1 / (beta * c2)``.

Caveat kept loud on purpose: the log-ratio inversion above is exact only
for same-state pairs (``x1 == x2``), where the two inclusive values
cancel.  For cross-state pairs the ratio picks up the gap
``log sum_j exp W_{t,j}(x1) - log sum_j exp W_{t,j}(x2)``, which this
module does not attempt to correct.  The system is assembled exactly as
defined either way, and ``inclusive_value_gaps`` quantifies the
discrepancy whenever the forward solution is available.

Numbered conditions referenced in error messages and check reports:

1      state transitions are Markov given the action (maintained),
2      taste shocks are i.i.d. type 1 extreme value (maintained),
3      flow payoffs are additively separable and time invariant
       (maintained),
4(a)   at least J-1 equal-payoff action/state pairs exist,
4(b)   F_tilde has full column rank,
5(a)   the panel spans at least 3J-1 periods,
5(b)   A has full row rank,
6      choice probabilities do not depend on the auxiliary state
       (macro variant),
7(a)   the equal-payoff pairs hold for every auxiliary state value,
7(b)   same as 4(b) in the macro variant,
8(a)   (T-2)*M is at least 3(J-1),
8(b)   A_tilde has full row rank.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AssumptionViolationError,
    InsufficientDataError,
    InvalidInputError,
)
from .model import PAIR_UTILITY_TOL, ModelSpec, ValueSolution, solve_backward

DEFAULT_RANK_TOL = 1e-10

MODE_RIGHT_INVERSE = "paper_right_inverse"
MODE_CONSTRAINED_LS = "constrained_ls"
_MODES = (MODE_RIGHT_INVERSE, MODE_CONSTRAINED_LS)

ASSUMPTION_TEXT = {
    "1": "state transitions are Markov given the action",
    "2": "taste shocks are i.i.d. type 1 extreme value with mean zero",
    "3": "flow payoffs are additively separable and time invariant",
}


@dataclass(frozen=True)
class PairSystem:
    """Transition-difference matrices implied by the equal-payoff pairs.

    ``F_i(x)`` denotes the first ``J-1`` entries of the transition row
    of action ``i`` at state ``x``.  Fields:

    ``F_tilde``
        one row ``F_k(x1) - F_l(x2)`` per pair, shape
        (n_pairs, J-1),
    ``F_tilde_K``
        rows ``F_K(x) - F_K(J)`` of the reference action for
        ``x = 1 .. J-1``, shape (J-1, J-1),
    ``F``
        the rows ``F_i(x)`` of every action and state, shape
        (K, J, J-1).
    """

    pairs: tuple
    F_tilde: np.ndarray
    F_tilde_K: np.ndarray
    F: np.ndarray
    num_states: int
    num_actions: int
    rank_tol: float
    singular_values: np.ndarray

    def solve(self, rhs):
        """Solve ``F_tilde @ y = rhs`` (least squares when over-determined)."""
        if self.F_tilde.shape[0] == self.F_tilde.shape[1]:
            return np.linalg.solve(self.F_tilde, rhs)
        return np.linalg.lstsq(self.F_tilde, rhs, rcond=None)[0]


@dataclass(frozen=True)
class IdentificationResult:
    """Recovered discount factors plus the diagnostics behind them.

    ``beta_hat`` and ``delta_hat`` are always reported, even when they
    land outside their admissible ranges; ``in_range`` flags validity.
    ``coefficient_matrix`` is the recovered (J-1) x 3(J-1) block row; in
    right-inverse mode it is the raw product ``B A^+`` whose deviation
    from ``[I, c1*I, c2*I]`` is itself a diagnostic, in constrained mode
    it is the structured matrix by construction.
    """

    beta_hat: float
    delta_hat: float
    c1: float
    c2: float
    in_range: bool
    mode: str
    coefficient_matrix: np.ndarray
    diagnostics: dict
    utilities_hat: np.ndarray | None = None
    utility_level_identified: np.ndarray | None = None


def _pair_columns(pairs):
    """The four index arrays ``(k, l, x1, x2)`` of a pair list, empty or not."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 4).T


def numerical_rank(matrix, rank_tol=None):
    """Rank by singular values.

    ``rank_tol`` is relative to the largest singular value; ``None``
    picks the floating-point resolution limit ``max(shape) * eps`` (the
    usual matrix_rank convention), which answers "is this matrix rank
    deficient in exact arithmetic" rather than "is it well conditioned".
    Returns ``(rank, singular_values)``.
    """
    arr = np.asarray(matrix, dtype=float)
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, sv
    tol = (max(arr.shape) * np.finfo(float).eps) if rank_tol is None else rank_tol
    return int((sv > tol * sv[0]).sum()), sv


def build_pair_system(transitions, pairs, rank_tol=DEFAULT_RANK_TOL):
    """Assemble the transition-difference matrices for the given pairs.

    Requires at least ``J-1`` pairs with valid indices, and checks
    condition 4(b): the stacked pair rows must have full column rank at
    ``rank_tol`` (relative to the largest singular value).
    """
    f = np.asarray(transitions, dtype=float)
    if f.ndim != 3 or f.shape[1] != f.shape[2]:
        raise InvalidInputError("transitions must have shape (K, J, J)")
    K, J = f.shape[0], f.shape[1]
    if J < 2:
        raise InvalidInputError("identification needs at least 2 states")
    norm_pairs = []
    for pair in pairs:
        if len(pair) != 4:
            raise InvalidInputError(f"pair {pair!r} must have 4 entries")
        k, l, x1, x2 = (int(v) for v in pair)
        if not (0 <= k < K and 0 <= l < K and 0 <= x1 < J and 0 <= x2 < J):
            raise InvalidInputError(f"pair {pair!r} is out of range for K={K}, J={J}")
        norm_pairs.append((k, l, x1, x2))
    if len(norm_pairs) < J - 1:
        raise InvalidInputError(
            f"need at least J-1 = {J - 1} pairs, got {len(norm_pairs)}"
        )

    F = f[:, :, : J - 1].copy()  # F_i(x) rows, dropping the last next-state column
    k, l, x1, x2 = _pair_columns(norm_pairs)
    F_tilde = F[k, x1] - F[l, x2]
    F_tilde_K = F[K - 1, : J - 1] - F[K - 1, J - 1]

    rank, sv = numerical_rank(F_tilde, rank_tol)
    if rank < J - 1:
        raise AssumptionViolationError(
            "Assumption 4(b) violated: F_tilde is rank deficient "
            f"(rank {rank} < {J - 1}; relative singular values "
            f"{np.array2string(sv / sv[0] if sv.size and sv[0] else sv, precision=2)})",
            assumption="4(b)",
        )
    return PairSystem(
        pairs=tuple(norm_pairs),
        F_tilde=F_tilde,
        F_tilde_K=F_tilde_K,
        F=F,
        num_states=J,
        num_actions=K,
        rank_tol=float(rank_tol),
        singular_values=sv,
    )


def _assemble(ccps, pair_system, min_periods, assumption=None):
    """The plain system ``(A, B)`` from every period's CCPs at once.

    Column ``t`` (periods 3 through T) is

        [ F_tilde_K F_tilde^{-1} (D_t - D_{t-1}) ;
          G_t F_tilde^{-1} D_t - G_{t-1} F_tilde^{-1} D_{t-1} ;
          F_tilde^{-1} (D_{t-1} - D_{t-2}) ]

    with ``G_t = P_t F - P_tJ F_J``, whose row ``x`` is
    ``sum_i P_{t,i}(x) F_i(x) - sum_i P_{t,i}(J) F_i(J)``, and the
    matching column of ``B`` is the first difference of the
    state-differenced reference-action log CCPs.  Fewer than
    ``min_periods`` periods raise, citing ``assumption``.
    """
    arr = np.asarray(ccps, dtype=float)
    K, J = pair_system.num_actions, pair_system.num_states
    if arr.ndim != 3 or arr.shape[1:] != (K, J):
        raise InvalidInputError(f"ccps must have shape (T, {K}, {J}), got {arr.shape}")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidInputError(
            "ccps must be finite and strictly positive (logs are taken); "
            "smooth empirical zero cells first"
        )
    T, n1 = arr.shape[0], J - 1
    if T < min_periods:
        raise InsufficientDataError(
            f"assembling the system needs at least {min_periods} periods, got {T}",
            assumption=assumption,
        )
    logc = np.log(arr)
    k, l, x1, x2 = _pair_columns(pair_system.pairs)
    D = logc[:, k, x1] - logc[:, l, x2]                  # (T, n_pairs)
    solved_D = pair_system.solve(D.T)                     # (J-1, T)
    solved_dD = pair_system.solve(np.diff(D, axis=0).T)   # (J-1, T-1)
    E = np.einsum("tix,ixy->txy", arr, pair_system.F)     # sum_i P_{t,i}(x) F_i(x)
    G = E[:, :n1] - E[:, n1:]                             # (T, J-1, J-1)
    GD = np.einsum("txy,yt->xt", G, solved_D)
    logpk = logc[:, -1, :n1] - logc[:, -1, n1:]
    A = np.vstack([
        pair_system.F_tilde_K @ solved_dD[:, 1:],
        np.diff(GD, axis=1)[:, 1:],
        solved_dD[:, :-1],
    ])
    return A, np.diff(logpk, axis=0)[1:].T


def assemble_system(ccps, pair_system):
    """Stack the identification system ``(A, B)`` from (T, K, J) CCPs.

    One column per period from the third on (see ``_assemble``); shapes
    are (3(J-1), T-2) and (J-1, T-2).  Needs T >= 4 (condition 5(a)).
    """
    return _assemble(ccps, pair_system, 4, "5(a)")


def _validate_macro(macro_transitions):
    """``macro_transitions`` as a float array, once it is a row-stochastic square matrix."""
    H = np.asarray(macro_transitions, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInputError("macro_transitions must be a square matrix")
    if not np.all(np.isfinite(H)) or np.any(H < 0.0):
        raise InvalidInputError("macro_transitions must be finite and non-negative")
    row_err = np.abs(H.sum(axis=1) - 1.0).max()
    if row_err > 1e-12:
        raise InvalidInputError(
            f"macro_transitions rows must sum to 1 within 1e-12; worst {row_err:.3e}"
        )
    return H


def assemble_system_macro(ccps, pair_system, macro_transitions):
    """Macro-state variant of ``assemble_system``.

    ``macro_transitions`` is the M x M row-stochastic transition matrix
    of an auxiliary state that evolves independently of the action and,
    by condition 6, leaves choice probabilities unchanged.  Each period
    then contributes M columns instead of one: the first two blocks and
    the target are averaged over the next auxiliary state, the bottom
    block enters as is.  Because the CCPs do not move with the auxiliary
    state, every one of those averages is the plain column itself, so
    ``A_tilde`` is ``A`` with each column repeated M times (and
    ``B_tilde`` likewise).  The macro route therefore adds no
    information; its only effect is to pass the count gate 8(a).
    Shapes are (3(J-1), (T-2)M) and (J-1, (T-2)M); T = 3 suffices here.
    """
    M = _validate_macro(macro_transitions).shape[0]
    A, B = _assemble(ccps, pair_system, 3)
    return np.repeat(A, M, axis=1), np.repeat(B, M, axis=1)


def _solve_discounts_impl(A, B, rank_tol, mode, labels):
    short_label, rank_label = labels
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise InvalidInputError("A and B must be matrices with matching column counts")
    n1 = B.shape[0]
    if A.shape[0] != 3 * n1:
        raise InvalidInputError(
            f"A must have 3 * {n1} = {3 * n1} rows to match B, got {A.shape[0]}"
        )
    if mode not in _MODES:
        raise InvalidInputError(f"mode must be one of {_MODES}, got {mode!r}")
    if A.shape[1] < A.shape[0]:
        raise InsufficientDataError(
            f"Assumption {short_label} violated: the system has {A.shape[1]} columns "
            f"but full row rank needs at least {A.shape[0]} "
            "(the panel is too short for this state space)",
            assumption=short_label,
        )

    rank, sv = numerical_rank(A, rank_tol)
    cond_AAt = float((sv[0] / sv[-1]) ** 2) if sv[-1] > 0 else float("inf")
    sv_ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    diagnostics = {
        "mode": mode,
        "rank": rank,
        "rows": int(A.shape[0]),
        "columns": int(A.shape[1]),
        "singular_value_ratio": sv_ratio,
        "condition_number_AAt": cond_AAt,
        "rank_tol": float(rank_tol),
    }

    eye = np.eye(n1)
    if mode == MODE_RIGHT_INVERSE:
        if rank < A.shape[0]:
            raise AssumptionViolationError(
                f"Assumption {rank_label} violated: A is rank deficient at "
                f"tolerance {rank_tol:g} (numerical rank {rank} of {A.shape[0]}; "
                f"smallest relative singular value {sv_ratio:.3e})",
                assumption=rank_label,
            )
        # B A^T (A A^T)^{-1} through an orthogonal decomposition: least
        # squares on the transposed system, exact because A^T has full
        # column rank.
        coef = np.linalg.lstsq(A.T, B.T, rcond=None)[0].T
        block1 = coef[:, :n1]
        block2 = coef[:, n1 : 2 * n1]
        block3 = coef[:, 2 * n1 :]
        c1 = float(np.mean(np.diag(block2)))
        c2 = float(np.mean(np.diag(block3)))
        off = ~np.eye(n1, dtype=bool)
        diagnostics.update(
            block1_identity_residual=float(np.linalg.norm(block1 - eye)),
            block2_offdiag_max=float(np.abs(block2[off]).max()) if n1 > 1 else 0.0,
            block3_offdiag_max=float(np.abs(block3[off]).max()) if n1 > 1 else 0.0,
        )
    else:
        # Impose the scalar-identity structure and fit only (c1, c2):
        # minimize || M1 + c1 M2 + c2 M3 - B ||_F over the two scalars.
        M1, M2, M3 = A[:n1], A[n1 : 2 * n1], A[2 * n1 :]
        design = np.column_stack([M2.ravel(), M3.ravel()])
        dsv = np.linalg.svd(design, compute_uv=False)
        if dsv[0] == 0.0 or dsv[-1] <= rank_tol * dsv[0]:
            raise AssumptionViolationError(
                f"Assumption {rank_label} violated: the two scalar directions of A "
                f"are collinear at tolerance {rank_tol:g} "
                f"(relative singular value {0.0 if dsv[0] == 0 else dsv[-1] / dsv[0]:.3e})",
                assumption=rank_label,
            )
        sol = np.linalg.lstsq(design, (B - M1).ravel(), rcond=None)[0]
        c1, c2 = float(sol[0]), float(sol[1])
        coef = np.hstack([eye, c1 * eye, c2 * eye])
        diagnostics["design_singular_value_ratio"] = float(dsv[-1] / dsv[0])

    fit = np.hstack([eye, c1 * eye, c2 * eye]) @ A - B
    diagnostics["fit_residual_max"] = float(np.abs(fit).max())

    with np.errstate(divide="ignore", invalid="ignore"):
        beta_hat = 1.0 / (1.0 + c1)
        delta_hat = -1.0 / (beta_hat * c2)
    beta_hat = float(beta_hat)
    delta_hat = float(delta_hat)
    in_range = bool(
        np.isfinite(beta_hat)
        and np.isfinite(delta_hat)
        and 0.0 < beta_hat <= 1.0
        and 0.0 < delta_hat < 1.0
    )
    return IdentificationResult(
        beta_hat=beta_hat,
        delta_hat=delta_hat,
        c1=c1,
        c2=c2,
        in_range=in_range,
        mode=mode,
        coefficient_matrix=coef,
        diagnostics=diagnostics,
    )


def solve_discounts(A, B, rank_tol=DEFAULT_RANK_TOL, mode=MODE_RIGHT_INVERSE):
    """Recover ``(beta, delta)`` from the assembled system.

    ``mode="paper_right_inverse"`` computes the full coefficient matrix
    ``B A^+`` and reads the scalars off the second and third diagonal
    blocks (their means), requiring A to have full row rank at
    ``rank_tol`` (condition 5(b)); block-1 deviation from the identity
    and off-diagonal mass in blocks 2 and 3 are reported as diagnostics.
    ``mode="constrained_ls"`` imposes the scalar-identity structure and
    solves a two-unknown least squares, which only needs the two scalar
    directions to be distinguishable and is far less demanding on the
    conditioning of A.  Both return estimates even outside the
    admissible ranges, flagged by ``in_range``.
    """
    return _solve_discounts_impl(A, B, rank_tol, mode, ("5(a)", "5(b)"))


def solve_discounts_macro(A_tilde, B_tilde, rank_tol=DEFAULT_RANK_TOL,
                          mode=MODE_CONSTRAINED_LS):
    """Recover ``(beta, delta)`` from the macro-state system.

    Same solve contract as ``solve_discounts`` with conditions 8(a) and
    8(b) cited instead.  Note that when choice probabilities are exactly
    invariant to the auxiliary state, each period's M columns are
    linearly dependent, so the right-inverse device cannot gain rank
    from M; the constrained mode (the default here) is what benefits
    from the shorter-panel requirement 8(a).
    """
    return _solve_discounts_impl(A_tilde, B_tilde, rank_tol, mode, ("8(a)", "8(b)"))


def recover_utilities(terminal_ccps, pair_system, anchor):
    """Recover flow payoffs from terminal-period choice probabilities.

    With a zero continuation value after the final period, terminal
    choice-specific values equal flow payoffs, so within-state payoff
    differences against the reference action are exactly the terminal
    log CCP ratios.  Levels are pinned by propagating the anchor
    ``(action, state, value)`` through the graph whose edges are the
    equal-payoff pairs; states not connected to the anchor's component
    keep level zero and are flagged as not level-identified.

    Returns ``(utilities, level_identified, max_pair_inconsistency)``
    where the last entry is the largest absolute disagreement found when
    a pair edge revisits an already-pinned state (zero on exact inputs).
    """
    c = np.asarray(terminal_ccps, dtype=float)
    J = pair_system.num_states
    K = pair_system.num_actions
    if c.shape != (K, J):
        raise InvalidInputError(f"terminal_ccps must have shape {(K, J)}, got {c.shape}")
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise InvalidInputError("terminal_ccps must be finite and strictly positive")
    anchor_action, anchor_state, anchor_value = anchor
    anchor_action, anchor_state = int(anchor_action), int(anchor_state)
    if not (0 <= anchor_action < K and 0 <= anchor_state < J):
        raise InvalidInputError(f"anchor {anchor!r} is out of range")

    logc = np.log(c)
    diffs = logc - logc[K - 1]  # u_i(x) - u_K(x), exact at the terminal period

    # Each pair u_k(x1) = u_l(x2) links the unknown reference-action
    # levels: L(x2) = L(x1) + diffs[k, x1] - diffs[l, x2].
    edges = {}
    for (k, l, x1, x2) in pair_system.pairs:
        offset = diffs[k, x1] - diffs[l, x2]
        edges.setdefault(x1, []).append((x2, offset))
        edges.setdefault(x2, []).append((x1, -offset))

    levels = np.zeros(J)
    identified = np.zeros(J, dtype=bool)
    levels[anchor_state] = float(anchor_value) - diffs[anchor_action, anchor_state]
    identified[anchor_state] = True
    max_inconsistency = 0.0
    stack = [anchor_state]
    while stack:
        x = stack.pop()
        for (y, offset) in edges.get(x, ()):
            candidate = levels[x] + offset
            if identified[y]:
                max_inconsistency = max(max_inconsistency, abs(candidate - levels[y]))
            else:
                levels[y] = candidate
                identified[y] = True
                stack.append(y)

    utilities = diffs + np.where(identified, levels, 0.0)
    return utilities, identified, float(max_inconsistency)


def inclusive_value_gaps(solution_or_w, pairs):
    """Inclusive-value discrepancy of each pair, per period.

    Returns the (T, n_pairs) array of
    ``log sum_j exp W_{t,j}(x1) - log sum_j exp W_{t,j}(x2)``, the exact
    error committed by treating a cross-state log CCP ratio as a
    choice-value difference.  Zero (to rounding) for same-state pairs.
    """
    w = solution_or_w.W if isinstance(solution_or_w, ValueSolution) else solution_or_w
    w = np.asarray(w, dtype=float)
    from scipy.special import logsumexp as _lse

    inclusive = _lse(w, axis=1)  # (T, J)
    _, _, x1, x2 = _pair_columns(pairs)
    return inclusive[:, x1] - inclusive[:, x2]


def smooth_empirical_ccps(counts, visited):
    """Add-one-half smoothing of empirical CCP cells that contain zeros.

    ``counts`` is the (T, K, J) action count array and ``visited`` the
    (T, J) indicator of cells with any observation.  Cells with all
    actions observed keep their raw frequencies; visited cells with at
    least one zero action count get ``(n + 1/2) / (n_x + K/2)``.
    Returns ``(ccps, n_smoothed_cells)``.  Unvisited cells raise, since
    the identification system needs every (t, x) probability.
    """
    counts = np.asarray(counts, dtype=float)
    visited = np.asarray(visited, dtype=bool)
    if not visited.all():
        n_miss = int((~visited).sum())
        raise InsufficientDataError(
            f"{n_miss} period/state cells have no observations; "
            "identification needs every cell visited"
        )
    T, K, J = counts.shape
    state_totals = counts.sum(axis=1)  # (T, J)
    ccps = counts / state_totals[:, None, :]
    needs = (counts == 0.0).any(axis=1)  # (T, J)
    n_smoothed = int(needs.sum())
    if n_smoothed:
        sm = (counts + 0.5) / (state_totals[:, None, :] + 0.5 * K)
        mask = needs[:, None, :]
        ccps = np.where(mask, sm, ccps)
    return ccps, n_smoothed


def _identify(ccps, pair_system, mode, rank_tol, anchor, macro_transitions, extra):
    """Assemble, solve and recover payoffs: the pipeline of both entry points.

    ``extra`` holds the caller's own diagnostics, appended after the
    solver's and the payoff-recovery inconsistency.
    """
    if macro_transitions is None:
        A, B = assemble_system(ccps, pair_system)
        result = solve_discounts(A, B, rank_tol=rank_tol, mode=mode)
    else:
        A, B = assemble_system_macro(ccps, pair_system, macro_transitions)
        result = solve_discounts_macro(A, B, rank_tol=rank_tol, mode=mode)
    if anchor is None:
        anchor = (pair_system.num_actions - 1, pair_system.num_states - 1, 0.0)
    utilities, identified, inconsistency = recover_utilities(
        ccps[-1], pair_system, anchor
    )
    diagnostics = dict(result.diagnostics)
    diagnostics.update(utility_recovery_max_inconsistency=inconsistency, **extra)
    return dataclasses.replace(
        result,
        diagnostics=diagnostics,
        utilities_hat=utilities,
        utility_level_identified=identified,
    )


def identify_model(model: ModelSpec, mode=MODE_RIGHT_INVERSE,
                   rank_tol=DEFAULT_RANK_TOL, anchor=None,
                   macro_transitions=None, pairs=None):
    """Exact-mode identification pipeline on a fully specified model.

    Solves the model, assembles the system from the exact CCPs and the
    model's own equal-payoff pairs (or ``pairs`` if given), recovers the
    discount factors and the flow payoffs, and attaches the
    inclusive-value gap diagnostic for any cross-state pairs.  The
    anchor defaults to value zero for the reference action at the
    reference state.
    """
    use_pairs = model.equality_pairs if pairs is None else tuple(pairs)
    if not use_pairs:
        raise InvalidInputError(
            "Assumption 4(a): the model supplies no equal-payoff pairs"
        )
    pair_system = build_pair_system(model.transitions, use_pairs, rank_tol)
    solution = solve_backward(model)
    gaps = inclusive_value_gaps(solution, pair_system.pairs)
    extra = {
        "n_cross_state_pairs": sum(1 for p in pair_system.pairs if p[2] != p[3]),
        "inclusive_value_gap_max": float(np.abs(gaps).max()),
    }
    return _identify(solution.P, pair_system, mode, rank_tol, anchor,
                     macro_transitions, extra)


def identify_from_estimates(ccp_counts, ccp_visited, transitions, pairs,
                            mode=MODE_RIGHT_INVERSE, rank_tol=DEFAULT_RANK_TOL,
                            anchor=None, macro_transitions=None):
    """Data-mode identification from empirical counts and transitions.

    ``ccp_counts``/``ccp_visited`` come from ``empirical_ccps`` and
    ``transitions`` from ``estimate_transitions`` (or any estimated
    (K, J, J) array).  Zero cells are smoothed before logs; the smoothed
    cell count lands in the diagnostics.
    """
    f = getattr(transitions, "f_hat", transitions)
    pair_system = build_pair_system(f, pairs, rank_tol)
    ccps, n_smoothed = smooth_empirical_ccps(ccp_counts, ccp_visited)
    return _identify(ccps, pair_system, mode, rank_tol, anchor,
                     macro_transitions, {"smoothed_cells": n_smoothed})


def check_model(model: ModelSpec, rank_tol=DEFAULT_RANK_TOL,
                macro_transitions=None):
    """Verdict on every testable identification condition for a model.

    Conditions 1 through 3 hold by construction for any ``ModelSpec``
    and are reported as such.  4(a) re-checks the pair payoff equalities,
    4(b) the pair-matrix rank at ``rank_tol``, 5(a) the horizon
    requirement, and 5(b) whether the assembled A is full row rank in
    the structural sense (singular values above floating-point
    resolution; the reported singular-value ratio tells how usable the
    right inverse is numerically).  With ``macro_transitions`` the 7/8
    analogues are reported as well.  Returns a dict of
    ``{condition: {"passed": bool, "detail": str}}``.
    """
    J, K, T = model.num_states, model.num_actions, model.horizon
    H = None if macro_transitions is None else _validate_macro(macro_transitions)
    report = {}
    for cond in ("1", "2", "3"):
        report[cond] = {
            "passed": True,
            "detail": f"holds by construction: {ASSUMPTION_TEXT[cond]}",
        }

    pairs = model.equality_pairs
    k, l, x1, x2 = _pair_columns(pairs)
    gap = np.abs(model.utility[k, x1] - model.utility[l, x2]).max(initial=0.0)
    ok_a = len(pairs) >= J - 1 and gap <= PAIR_UTILITY_TOL
    report["4(a)"] = {
        "passed": bool(ok_a),
        "detail": f"{len(pairs)} pairs supplied (need {J - 1}); "
                  f"largest payoff gap {gap:.3e}",
    }

    pair_system = None
    try:
        pair_system = build_pair_system(model.transitions, pairs, rank_tol)
        sv = pair_system.singular_values
        report["4(b)"] = {
            "passed": True,
            "detail": f"F_tilde full column rank; smallest relative singular value "
                      f"{sv[-1] / sv[0]:.3e}",
        }
    except (AssumptionViolationError, InvalidInputError) as err:
        report["4(b)"] = {"passed": False, "detail": str(err)}

    ok_T = T >= 3 * J - 1
    report["5(a)"] = {
        "passed": bool(ok_T),
        "detail": f"T = {T}, requirement 3J-1 = {3 * J - 1}",
    }

    solution = None
    if pair_system is not None and T >= 4:
        solution = solve_backward(model)
        A, _ = assemble_system(solution.P, pair_system)
        rank, sv = numerical_rank(A, rank_tol=None)
        report["5(b)"] = {
            "passed": bool(rank == A.shape[0]),
            "detail": f"A is {A.shape[0]}x{A.shape[1]}, structural rank {rank}; "
                      f"smallest relative singular value {sv[-1] / sv[0]:.3e}",
        }
    else:
        report["5(b)"] = {
            "passed": False,
            "detail": "A not assembled (pair system unavailable or T < 4)",
        }

    if H is not None:
        M = H.shape[0]
        report["6"] = {
            "passed": True,
            "detail": "maintained: flow payoffs carry no auxiliary-state dependence "
                      "in this model family, so CCPs are invariant to it",
        }
        report["7(a)"] = dict(report["4(a)"])
        report["7(b)"] = dict(report["4(b)"])
        ok_count = (T - 2) * M >= 3 * (J - 1)
        report["8(a)"] = {
            "passed": bool(ok_count),
            "detail": f"(T-2)*M = {(T - 2) * M}, requirement 3(J-1) = {3 * (J - 1)}",
        }
        if pair_system is not None and solution is not None:
            At, _ = assemble_system_macro(solution.P, pair_system, H)
            rank, sv = numerical_rank(At, rank_tol=None)
            report["8(b)"] = {
                "passed": bool(rank == At.shape[0]),
                "detail": f"A_tilde is {At.shape[0]}x{At.shape[1]}, structural rank "
                          f"{rank}; smallest relative singular value {sv[-1] / sv[0]:.3e}",
            }
        else:
            report["8(b)"] = {"passed": False, "detail": "A_tilde not assembled"}
    return report
