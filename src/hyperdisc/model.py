"""Model primitives and the exact forward solution.

An agent lives for ``T`` decision periods.  Each period she observes a
discrete state ``x`` (one of ``J``), draws a vector of additive type 1
extreme value taste shocks (location shifted so the shocks have mean
zero), and picks one of ``K`` actions.  The flow payoff of action ``i``
is ``u_i(x)`` plus the shock, and the state then moves with probability
``f(x' | x, i)``.  Future payoffs are discounted quasi-hyperbolically:
a payoff ``s >= 1`` periods ahead is weighted ``beta * delta**s``, so
``beta < 1`` is an extra one-time markdown of everything beyond today
(present bias) while ``delta`` is the usual exponential factor.

The agent is sophisticated: she predicts that her future selves will be
present biased too.  The resulting behavior is the perception-perfect
profile of the intrapersonal game, computed by backward induction from a
zero continuation value after the final period.  Three arrays describe
the solution:

``V[t, x]``
    perceived long-run value of entering period ``t`` in state ``x``,
    i.e. the continuation value as evaluated one period earlier
    (discounted by ``delta`` alone from ``t`` on),
``W[t, i, x]``
    choice-specific value ``u_i(x) + beta * delta * E[V[t+1] | x, i]``
    that enters today's logit comparison,
``P[t, i, x]``
    the implied conditional choice probability
    ``exp(W[t, i, x]) / sum_j exp(W[t, j, x])``.

All arrays are indexed ``t = 0 .. T-1``, ``i = 0 .. K-1`` and
``x = 0 .. J-1``.  By convention the last action index and the last
state index act as the reference action and reference state in the
identification module.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInputError

# Tolerances used when validating primitives.
ROW_SUM_TOL = 1e-12
PAIR_UTILITY_TOL = 1e-12
CROSS_CHECK_TOL = 1e-10


def _as_float_array(value, name, shape=None):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be numeric") from None
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite everywhere")
    return arr


# One validator per input rule; every entry point taking the input calls it.

def _check_int(value, name):
    """``value`` as an int; it must be an integer, not a bool, a float
    or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_fraction(value, name, closed=False, prefix=""):
    """Raise unless ``value`` is a real number in (0, 1), or in (0, 1] when
    ``closed``; ``prefix`` starts the message."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{prefix}{name} must be a real number, got {value!r}")
    if not (0.0 < value < 1.0 or (closed and value == 1.0)):
        interval = "(0, 1]" if closed else "(0, 1)"
        raise InvalidInputError(f"{prefix}{name} must lie in {interval}, got {value}")


def _check_discounts(beta, delta, prefix=""):
    """Raise unless ``beta`` is a real number in (0, 1] and ``delta`` one
    in (0, 1); ``prefix`` starts the message."""
    _check_fraction(beta, "beta", closed=True, prefix=prefix)
    _check_fraction(delta, "delta", prefix=prefix)


def _check_distributions(value, name, tol, shape=None):
    """``value`` as a float array whose rows along the last axis are
    probability vectors: finite, non-negative, summing to 1 within ``tol``."""
    arr = _as_float_array(value, name, shape)
    if np.any(arr < 0.0):
        raise InvalidInputError(f"{name} must be non-negative")
    row_err = np.abs(arr.sum(axis=-1) - 1.0).max()
    if row_err > tol:
        raise InvalidInputError(
            f"every row of {name} must sum to 1 within {tol:g}; worst deviation {row_err:.3e}"
        )
    return arr


def _check_transitions(value, shape=None):
    """A (K, J, J) transition tensor (of ``shape`` if given), or the
    ``f_hat`` of an estimate, as a float array of probability rows."""
    f = _as_float_array(getattr(value, "f_hat", value), "transitions", shape)
    if f.ndim != 3 or f.shape[1] != f.shape[2]:
        raise InvalidInputError(f"transitions must have shape (K, J, J), got {f.shape}")
    return _check_distributions(f, "transitions", ROW_SUM_TOL)


def _check_ccps(value, name, shape):
    """``value`` as a finite float array of ``shape`` whose entries are
    strictly positive, since the identification system takes their logs."""
    arr = _as_float_array(value, name, shape)
    if np.any(arr <= 0.0):
        raise InvalidInputError(f"{name} must be strictly positive (logs are taken); "
                                "smooth empirical zero cells first")
    return arr


def _check_pairs(pairs, K, J):
    """Equal-payoff pairs as a tuple of ``(k, l, x1, x2)`` int tuples that
    index K actions and J states."""
    out = []
    for pair in pairs:
        try:
            k, l, x1, x2 = (_check_int(v, "pair entry") for v in pair)
        except (TypeError, ValueError):
            raise InvalidInputError(f"equality pair {pair!r} must be 4 integers") from None
        if not (0 <= k < K and 0 <= l < K and 0 <= x1 < J and 0 <= x2 < J):
            raise InvalidInputError(f"equality pair {pair!r} is out of range for K={K}, J={J}")
        out.append((k, l, x1, x2))
    return tuple(out)


def _state_values(value, J):
    """The covariate of each of J states: ``value`` as J finite floats,
    or ``0, 1, ..., J-1`` when it is None."""
    if value is None:
        return np.arange(J, dtype=float)
    return _as_float_array(value, "state_values", (J,))


@dataclass(frozen=True)
class ModelSpec:
    """Complete primitive set of a finite-horizon discrete choice model.

    Parameters
    ----------
    num_states : int
        Number of observed states ``J`` (at least 1).
    num_actions : int
        Number of actions ``K`` (at least 2).
    horizon : int
        Number of decision periods ``T``; the data horizon coincides
        with it.
    beta : float
        Present-bias factor in ``(0, 1]``; 1 nests plain exponential
        discounting.
    delta : float
        Standard discount factor in ``(0, 1)``.
    utility : (K, J) array
        Flow payoffs ``u_i(x)`` in utils.
    transitions : (K, J, J) array
        ``transitions[i, x, x'] = f(x' | x, i)``; every row must be a
        probability vector.  An estimate carrying it in ``f_hat`` is
        accepted too.
    state_values : (J,) array, optional
        Covariate value attached to each state index (defaults to
        ``0, 1, ..., J-1``).  Decouples the internal index from the
        covariate scale used in utility parameterizations.
    equality_pairs : sequence of (k, l, x1, x2)
        Assertions ``u_k(x1) = u_l(x2)``, the exclusion restrictions the
        identification module relies on.  Validated here whenever
        utilities are supplied.
    """

    num_states: int
    num_actions: int
    horizon: int
    beta: float
    delta: float
    utility: np.ndarray
    transitions: np.ndarray
    state_values: np.ndarray | None = None
    equality_pairs: tuple = field(default=())

    def __post_init__(self):
        J = _check_int(self.num_states, "num_states")
        K = _check_int(self.num_actions, "num_actions")
        T = _check_int(self.horizon, "horizon")
        if J < 1:
            raise InvalidInputError("num_states must be a positive integer")
        if K < 2:
            raise InvalidInputError("num_actions must be at least 2")
        if T < 1:
            raise InvalidInputError("horizon must be a positive integer")
        _check_discounts(self.beta, self.delta)
        utility = _as_float_array(self.utility, "utility", (K, J))
        transitions = _check_transitions(self.transitions, (K, J, J))
        state_values = _state_values(self.state_values, J)
        pairs = _check_pairs(self.equality_pairs, K, J)
        for k, l, x1, x2 in pairs:
            gap = abs(utility[k, x1] - utility[l, x2])
            if gap > PAIR_UTILITY_TOL:
                raise InvalidInputError(
                    f"equality pair {(k, l, x1, x2)!r} violated: "
                    f"|u_k(x1) - u_l(x2)| = {gap:.3e}"
                )

        for arr in (utility, transitions, state_values):
            arr.setflags(write=False)
        object.__setattr__(self, "num_states", J)
        object.__setattr__(self, "num_actions", K)
        object.__setattr__(self, "horizon", T)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "state_values", state_values)
        object.__setattr__(self, "equality_pairs", pairs)


@dataclass(frozen=True)
class ValueSolution:
    """Per-period values and choice probabilities from backward induction.

    ``V`` has shape (T, J), ``W`` and ``P`` have shape (T, K, J).  Every
    CCP column sums to one and is strictly interior, and same-state log
    CCP ratios equal the corresponding ``W`` differences (the inversion
    the identification step exploits).
    """

    V: np.ndarray
    W: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        W = np.asarray(self.W, dtype=float)
        P = np.asarray(self.P, dtype=float)
        if V.ndim != 2 or W.ndim != 3 or P.shape != W.shape:
            raise InvalidInputError("V must be (T, J) and W, P must be (T, K, J)")
        if W.shape[0] != V.shape[0] or W.shape[2] != V.shape[1]:
            raise InvalidInputError("V and W dimensions are inconsistent")
        # The logit keeps probabilities strictly interior in exact
        # arithmetic, but extreme payoff gaps can round them to the
        # boundary in floating point; only genuine violations reject.
        if np.any(P < 0.0) or np.any(P > 1.0):
            raise InvalidInputError("choice probabilities must lie inside [0, 1]")
        sum_err = np.abs(P.sum(axis=1) - 1.0).max()
        if sum_err > 1e-12:
            raise InvalidInputError(
                f"choice probabilities must sum to 1 within 1e-12 per (t, x); "
                f"worst deviation {sum_err:.3e}"
            )
        for arr in (V, W, P):
            arr.setflags(write=False)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "P", P)


def _logsumexp(a, axis):
    """``log(sum(exp(a), axis))`` bit for bit as SciPy's ``logsumexp`` forms
    it (Blanchard, Higham & Higham 2021): the maxima are counted, not summed."""
    top = np.max(a, axis=axis, keepdims=True)
    at_top = a == top
    count = at_top.sum(axis=axis)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=axis)
    return np.log1p(rest / count) + np.log(count) + np.squeeze(top, axis)


def choice_values(utility, transitions, beta, delta, v_next):
    """Choice-specific values ``u_i(x) + beta * delta * E[v_next | x, i]``.

    With ``beta = 1`` this is the perceived long-run choice value (the
    object a time-consistent self would use); the gap between the two is
    ``(1 - beta) * delta * E[v_next | x, i]``.
    """
    u = _as_float_array(utility, "utility")
    if u.ndim != 2:
        raise InvalidInputError("utility must be a (K, J) table")
    K, J = u.shape
    _check_discounts(beta, delta)
    f = _check_transitions(transitions, (K, J, J))
    return u + beta * delta * (f @ _as_float_array(v_next, "v_next", (J,)))


def _backward_core(utility, transitions, beta, delta, horizon, dutility=None,
                   discounts=True):
    """Backward induction kernel shared by the solver and the likelihood.

    Returns ``(V, W, logP)``; the caller exponentiates ``logP`` when
    probabilities are needed.  Log CCPs are produced directly as
    ``(W - m) - log(sum exp(W - m))`` with ``m`` the column maximum, so
    likelihood evaluation never takes the log of an underflowed
    probability and large payoffs lose no absolute precision.

    With ``beta`` and ``delta`` of shape (B,) and ``utility`` of shape
    (K, B, J), the kernel solves B models that share the transitions in
    one pass, and every output gains a batch axis just before its state
    axis: ``V`` (T, B, J), ``W`` and ``logP`` (T, K, B, J).  Each member
    is the same sequence of operations as its own unbatched call, so the
    two agree bit for bit; an unbatched call is the batch of one.

    With ``dutility``, the (p, K, J) derivative of the payoff table with
    respect to p utility parameters, the same loop also carries the
    forward-mode derivatives of ``V`` in p + 2 directions (the p
    parameters, then ``beta``, then ``delta``) and returns
    ``(V, W, logP, dlogP)`` with ``dlogP`` of shape (T, p + 2, K, J),
    or (T, p + 2, K, B, J) batched.  Per direction, with
    ``P = exp(logP)`` and ``ev = f @ V_next``:

        dW   = du + d(beta delta) ev + beta delta dev
        dlse = sum_i P_i dW_i,    dlogP = dW - dlse
        dV   = dlse + d((1 - beta) delta) sum_i P_i ev_i
               + (1 - beta) delta sum_i P_i (dlogP_i ev_i + dev_i)

    With ``discounts=False`` only the p parameter directions are carried
    (``dlogP`` of shape (T, p, K, J)), for a caller that holds the
    discount factors fixed.  The value path is the same sequence of
    operations either way, so ``V``, ``W`` and ``logP`` are bit-identical
    with or without derivatives.
    """
    K, J = transitions.shape[:2]
    batched = np.ndim(beta) == 1
    # a batch axis sits just before the state axis, so that every sum
    # over actions adds whole (B, J) blocks
    lead = np.shape(beta)
    if batched:
        beta = np.reshape(beta, (-1, 1))
        delta = np.reshape(delta, (-1, 1))
    V = np.empty((horizon,) + lead + (J,))
    W = np.empty((horizon, K) + lead + (J,))
    logP = np.empty((horizon, K) + lead + (J,))
    bd = beta * delta
    corr = (1.0 - beta) * delta
    # one matrix-vector product per action and member, as unbatched,
    # into a buffer whose view is made once
    f_v = transitions[:, None] if batched else transitions
    v_col = np.zeros(lead + (J, 1))
    v_next = v_col[..., 0]
    ev_col = np.empty((K,) + lead + (J, 1))
    ev = ev_col[..., 0]
    if dutility is not None:
        p = dutility.shape[0]
        n = p + 2 if discounts else p
        du = dutility.reshape((p, K) + (1,) * len(lead) + (J,))
        if discounts:
            # the discount directions, rows p and p + 1, enter through
            # beta * delta and (1 - beta) * delta alone; their terms are
            # zero in the p utility rows and are left out there
            dbd = np.zeros((2, 1) + lead + (1,))
            dbd[0, 0], dbd[1, 0] = delta, beta
            dcorr = np.zeros((2,) + lead + (1,))
            dcorr[0], dcorr[1] = -delta, 1.0 - beta
        f_t = transitions.reshape(K * J, J).T
        # dev comes out member by member; order it direction, action, member
        dev_shape = (n,) + lead + (K, J)
        dev_axes = (0, 2, 1, 3) if batched else (0, 1, 2)
        dv_next = np.zeros((n,) + lead + (J,))
        dlogP = np.empty((horizon, n, K) + lead + (J,))
    # ufunc reductions below: the ndarray methods cost an extra call each
    for t in range(horizon - 1, -1, -1):
        np.matmul(f_v, v_col, ev_col)
        w = np.add(utility, bd * ev, W[t])
        m = np.maximum.reduce(w, 0)
        z = w - m
        log_s = np.log(np.add.reduce(np.exp(z), 0))
        lp = np.subtract(z, log_s, logP[t])
        P = np.exp(lp)
        Pev = P * ev
        pev_sum = np.add.reduce(Pev, 0)
        np.add(m + log_s, corr * pev_sum, v_next)
        V[t] = v_next
        if dutility is not None:
            dev = (dv_next.reshape(-1, J) @ f_t).reshape(dev_shape).transpose(dev_axes)
            # a row of dW adds its one non-zero first term (du, or dbd ev
            # in a discount row) to bd dev, and dV adds corr (...) last, so
            # every sum rounds as in the formulas above
            dw = bd * dev
            dw[:p] += du
            if discounts:
                dw[p:] += dbd * ev
            dlse = np.add.reduce(P * dw, 1)
            dlp = np.subtract(dw, dlse[:, None], dlogP[t])
            if discounts:
                dlse[p:] += dcorr * pev_sum
            dv_next = dlse + corr * np.add.reduce(Pev * dlp + P * dev, 1)
    return (V, W, logP) if dutility is None else (V, W, logP, dlogP)


def solve_backward(model: ModelSpec, check=False) -> ValueSolution:
    """Solve the model exactly by backward induction.

    The continuation value after the final period is zero, so terminal
    choice-specific values equal the flow payoffs.  Each earlier period
    forms ``W`` as ``choice_values`` does, takes its logit, and carries
    the perceived value back to the period before, all in
    ``_backward_core``.  With ``check=True`` the returned arrays must
    satisfy, in every period and state, the two forms of the perceived
    value

        V = log(sum_i exp(W_i)) + corr = W_K - log(P_K) + corr,
        corr = (1 - beta) * delta * sum_i P_i * E[V_next | x, i],

    the second being the Hotz-Miller (1993) inversion through the
    reference action; both must equal ``V`` to 1e-10.
    """
    V, W, logP = _backward_core(
        model.utility, model.transitions, model.beta, model.delta, model.horizon
    )
    solution = ValueSolution(V=V, W=W, P=np.exp(logP))
    if check:
        P = solution.P
        v_next = np.concatenate([V[1:], np.zeros((1, model.num_states))])
        ev = np.einsum("ixy,ty->tix", model.transitions, v_next)
        corr = (1.0 - model.beta) * model.delta * (P * ev).sum(axis=1)
        with np.errstate(divide="ignore"):
            hotz_miller = W[:, -1] - np.log(P[:, -1]) + corr
        lse_gap = np.abs(_logsumexp(W, axis=1) + corr - V).max()
        hm_gap = np.abs(hotz_miller - V).max()
        if not max(lse_gap, hm_gap) <= CROSS_CHECK_TOL:
            raise InvalidInputError(
                "backward induction cross-check failed: the log-sum-exp and "
                f"Hotz-Miller forms of V miss it by {lse_gap:.3e} and {hm_gap:.3e}"
            )
    return solution
