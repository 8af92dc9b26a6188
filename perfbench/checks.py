"""Output checks of the three workloads.

Each check takes the records a workload process wrote and returns a
list of problems, empty when every output is correct.  They test
properties the method must have, against the benchmark's own reference
computations (``reference.py``), and never against stored output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import inputs
import reference

# The package and the reference compute the same sum and agree to about
# 3e-16 relative on real fits.  At 1e-9 (about 2e-5 absolute at N = 2000)
# a shift of 1e-5 in beta_hat would go unseen wherever the likelihood has
# a slope of order one, as at a boundary fit.
LOGLIK_RTOL = 1e-12
LOGLIK_TRUTH_SLACK = 1e-6
SE_LIMIT = 6.0
DISCOUNT_TOL = 1e-6
PAYOFF_TOL = 1e-8
CHECK_CONDITIONS = ("4(a)", "4(b)", "5(a)")


def mc_panel(replication, P_true, f_true):
    """The replication's panel, derived again from the documented streams."""
    return reference.simulate(P_true, f_true, inputs.MC_SAMPLE_SIZE,
                              inputs.mc_panel_seed(replication))


def check_replication(out, panel):
    """One replication against the reference likelihood of its panel,
    ``panel = (states, actions)``."""
    d = inputs.MC_DESIGN
    r = out["replication"]
    if out["error"] is not None:
        return [f"replication {r}: error marker {out['error']!r}"]
    problems = []
    alpha0, alpha1, beta, delta, loglik = (
        out[k] for k in ("alpha0", "alpha1", "beta", "delta", "loglik"))
    if not (0.0 < beta <= 1.0 and 0.0 < delta < 1.0):
        problems.append(f"replication {r}: beta {beta!r} or delta {delta!r} "
                        "outside its admissible range")
    if not (math.isfinite(alpha0) and math.isfinite(alpha1) and math.isfinite(loglik)):
        problems.append(f"replication {r}: non-finite estimate or log likelihood")
    if problems:
        return problems

    J, K, T = d["num_states"], d["num_actions"], d["horizon"]
    states, actions = panel
    counts = reference.choice_counts(states, actions, K, J)
    f_hat = reference.transition_frequencies(states, actions, K, J)
    u_hat = np.zeros((K, J))
    u_hat[0] = alpha0 + alpha1 * np.arange(J, dtype=float)
    at_estimate = reference.choice_loglik(
        counts, reference.backward(u_hat, f_hat, beta, delta, T)[3])
    at_truth = reference.choice_loglik(
        counts, reference.backward(inputs.mc_utility(), f_hat, d["beta"], d["delta"], T)[3])
    if abs(loglik - at_estimate) > LOGLIK_RTOL * abs(at_estimate):
        problems.append(f"replication {r}: reported log likelihood {loglik!r} differs "
                        f"from the reference {at_estimate!r} at the reported estimates")
    if loglik < at_truth - LOGLIK_TRUTH_SLACK:
        problems.append(f"replication {r}: log likelihood {loglik!r} is below the "
                        f"reference {at_truth!r} at the true parameters")
    return problems


def check_mc(records):
    d = inputs.MC_DESIGN
    f_true = inputs.mc_transitions()
    P_true = reference.backward(inputs.mc_utility(), f_true, d["beta"], d["delta"],
                                d["horizon"])[2]
    panels = {}
    problems = []
    for rec in records:
        if not rec["ok"]:
            continue  # raised, counted as a failed operation
        out = rec["output"]
        r = out["replication"]
        if r not in panels:
            panels[r] = mc_panel(r, P_true, f_true)
        problems += check_replication(out, panels[r])
    return problems


def check_panel_frequencies(model, states, actions):
    """Action and transition frequencies within ``SE_LIMIT`` binomial
    standard errors of the model's CCPs and transition rows."""
    J, K = model["num_states"], model["num_actions"]
    P = reference.backward(model["utility"], model["transitions"],
                           model["beta"], model["delta"], model["horizon"])[2]
    problems = []
    counts = reference.choice_counts(states, actions, K, J)
    n_tx = counts.sum(axis=1, keepdims=True)
    visited = np.broadcast_to(n_tx > 0, counts.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.abs(counts / n_tx - P) / reference.binomial_se(P, n_tx)
    if np.any(z[visited] > SE_LIMIT):
        problems.append(f"action frequency {z[visited].max():.1f} standard errors "
                        "from the reference CCP")
    f = np.asarray(model["transitions"])
    moves = reference.transition_counts(states, actions, K, J)
    n_ax = moves.sum(axis=2, keepdims=True)
    seen = np.broadcast_to(n_ax > 0, moves.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.abs(moves / n_ax - f) / reference.binomial_se(f, n_ax)
    if np.any(z[seen] > SE_LIMIT):
        problems.append(f"transition frequency {z[seen].max():.1f} standard errors "
                        "from the model's transition row")
    return problems


def check_payoff_report(model, report, terminal_counts):
    """Reported ``u_i(x) - u_K(x)`` within ``SE_LIMIT`` delta-method
    standard errors of the truth."""
    u = np.asarray(model["utility"])
    P = reference.backward(u, model["transitions"], model["beta"], model["delta"],
                           model["horizon"])[2][-1]
    u_hat = np.asarray(report["utilities_hat"], dtype=float)
    if u_hat.shape != u.shape:
        return [f"report utilities have shape {u_hat.shape}, expected {u.shape}"]
    se = reference.log_ratio_se(P[:-1], P[-1], terminal_counts.sum(axis=0))
    z = np.abs((u_hat[:-1] - u_hat[-1]) - (u[:-1] - u[-1])) / se
    if not np.all(z <= SE_LIMIT):
        return [f"payoff difference {np.nanmax(z):.1f} standard errors from the truth"]
    return []


def check_panel(seed, records, post, n_agents=inputs.PANEL_AGENTS):
    model = inputs.panel_model(seed)
    J, K, T = model["num_states"], model["num_actions"], model["horizon"]
    problems = []
    for rec in records:
        if not rec["ok"]:
            continue  # raised, counted as a failed operation
        out = rec["output"]
        op = rec["op"]
        if out["simulate_rc"] != 0 or out["identify_rc"] != 0:
            problems.append(f"op {op}: simulate exited with {out['simulate_rc']}, "
                            f"identify with {out['identify_rc']}")
            continue
        try:
            states, actions = reference.read_panel(out["panel"], n_agents, T)
        except reference.PanelFormatError as err:
            problems.append(f"op {op}: panel file: {err}")
            continue
        problems += [f"op {op}: {p}" for p in check_panel_frequencies(model, states, actions)]
        with open(out["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        terminal = reference.choice_counts(states, actions, K, J)[-1]
        problems += [f"op {op}: {p}" for p in check_payoff_report(model, report, terminal)]
    if post:
        if post["rerun_rc"] != 0 or not os.path.exists(post["rerun_of"]):
            problems.append("no first panel, or its rerun failed")
        else:
            with open(post["rerun"], "rb") as a, open(post["rerun_of"], "rb") as b:
                if a.read() != b.read():
                    problems.append("simulate with the same seed wrote a different file")
    return problems


def check_sweep_entry(model, right_inverse, entry):
    """One model's identification results against its true primitives."""
    u = np.asarray(model["utility"])
    gaps = u - u[-1]
    problems = []
    expected = ("constrained", "macro") + (("right_inverse",) if right_inverse else ())
    if set(entry) != {"check", *expected}:
        problems.append(f"fits {sorted(set(entry) - {'check'})}, expected "
                        f"{sorted(expected)}")
    for key, fit in entry.items():
        if key == "check":
            continue
        err = max(abs(fit["beta"] - model["beta"]), abs(fit["delta"] - model["delta"]))
        if not fit["in_range"] or not err <= DISCOUNT_TOL:
            problems.append(f"{key}: beta/delta off by {err:.2e} (in_range "
                            f"{fit['in_range']})")
        u_hat = np.asarray(fit["utilities"], dtype=float)
        if u_hat.shape != u.shape:
            problems.append(f"{key}: utilities have shape {u_hat.shape}")
            continue
        payoff_err = np.abs((u_hat - u_hat[-1]) - gaps).max()
        if not payoff_err <= PAYOFF_TOL:
            problems.append(f"{key}: payoff differences off by {payoff_err:.2e}")
    for cond in CHECK_CONDITIONS:
        if not entry["check"].get(cond, False):
            problems.append(f"check_model reports {cond} failed")
    return problems


def check_sweep(seed, records):
    slots = inputs.sweep_slots()
    cases = inputs.sweep_cases(seed)
    problems = []
    for rec in records:
        if not rec["ok"]:
            continue  # raised, counted as a failed operation
        entries = rec["output"]["models"]
        if len(entries) != len(cases):
            problems.append(f"op {rec['op']}: {len(entries)} results for "
                            f"{len(cases)} models")
            continue
        for slot, (model, _, right_inverse), entry in zip(slots, cases, entries):
            problems += [f"op {rec['op']}, model {slot}: {p}"
                         for p in check_sweep_entry(model, right_inverse, entry)]
    return problems
