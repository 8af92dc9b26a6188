"""Each output check accepts a correct output and rejects a corrupted one.

The correct outputs are built from the benchmark's own reference
computations, so these tests need no ``hyperdisc`` run.
"""

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402


@pytest.fixture(scope="module")
def replication():
    """A replication output at the true parameters, with its panel.

    At the truth the likelihood has a clearly non-zero slope, so a small
    shift of an estimate moves the reference log likelihood well past
    the relative tolerance.  At an interior maximum such a shift moves
    it only at second order; there the range check and the comparison
    with the truth are what bound the estimates.
    """
    d = inputs.MC_DESIGN
    f = inputs.mc_transitions()
    P = reference.backward(inputs.mc_utility(), f, d["beta"], d["delta"], d["horizon"])[2]
    r = 3
    panel = checks.mc_panel(r, P, f)
    J, K = d["num_states"], d["num_actions"]
    f_hat = reference.transition_frequencies(*panel, K, J)
    logP = reference.backward(inputs.mc_utility(), f_hat, d["beta"], d["delta"],
                              d["horizon"])[3]
    out = {"replication": r, "alpha0": d["alpha0"], "alpha1": d["alpha1"],
           "beta": d["beta"], "delta": d["delta"], "error": None,
           "loglik": reference.choice_loglik(reference.choice_counts(*panel, K, J), logP)}
    return out, panel


def _replication_problems(replication, **changes):
    out, panel = replication
    return checks.check_replication(dict(out, **changes), panel)


def test_replication_check_accepts_correct_output(replication):
    assert _replication_problems(replication) == []


@pytest.mark.parametrize("field,shift", [("loglik", 1e-3), ("beta", 1e-5),
                                         ("beta", -1e-5), ("alpha1", 1e-5)])
def test_replication_check_rejects_shifted_output(replication, field, shift):
    out = replication[0]
    assert _replication_problems(replication, **{field: out[field] + shift})


@pytest.mark.parametrize("field,value", [("beta", 1.2), ("beta", 0.0), ("delta", 1.0),
                                         ("alpha0", float("nan"))])
def test_replication_check_rejects_inadmissible_estimate(replication, field, value):
    assert _replication_problems(replication, **{field: value})


def test_replication_check_rejects_error_marker(replication):
    assert _replication_problems(replication, error="NonConvergenceError: no start")


def test_mc_check_rejects_operation_with_error_marker(replication):
    out = dict(replication[0], error="NonConvergenceError: no start")
    assert checks.check_mc([{"op": 0, "ok": True, "output": out}])


N_AGENTS = 2000


@pytest.fixture(scope="module")
def panel_files(tmp_path_factory):
    """A correct panel CSV and identify report for the panel model."""
    model = inputs.panel_model(0)
    P = reference.backward(model["utility"], model["transitions"], model["beta"],
                           model["delta"], model["horizon"])[2]
    states, actions = reference.simulate(P, model["transitions"], N_AGENTS, 99)
    root = tmp_path_factory.mktemp("panel")
    lines = ["agent,period,state,action"] + [
        f"{n},{t + 1},{states[n, t]},{actions[n, t]}"
        for n in range(N_AGENTS) for t in range(model["horizon"])]
    path = root / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    report = {"utilities_hat": model["utility"]}
    (root / "report.json").write_text(json.dumps(report))
    return root, lines, report


def _panel_problems(root, lines=None, report=None, post=None, identify_rc=0):
    if lines is not None:
        (root / "bad.csv").write_text("\n".join(lines) + "\n")
    if report is not None:
        (root / "bad.json").write_text(json.dumps(report))
    record = {"op": 0, "ok": True, "output": {
        "panel": str(root / ("bad.csv" if lines is not None else "panel.csv")),
        "report": str(root / ("bad.json" if report is not None else "report.json")),
        "simulate_rc": 0, "identify_rc": identify_rc}}
    return checks.check_panel(0, [record], post, n_agents=N_AGENTS)


def test_panel_check_accepts_correct_output(panel_files):
    root, _, _ = panel_files
    post = {"rerun_rc": 0, "rerun": str(root / "panel.csv"),
            "rerun_of": str(root / "panel.csv")}
    assert _panel_problems(root, post=post) == []


def test_panel_check_rejects_nonzero_exit(panel_files):
    root, _, _ = panel_files
    assert _panel_problems(root, identify_rc=1)


def test_panel_check_rejects_dropped_row(panel_files):
    root, lines, _ = panel_files
    assert _panel_problems(root, lines=lines[:1000] + lines[1001:])


def test_panel_check_rejects_skewed_frequencies(panel_files):
    root, lines, _ = panel_files
    # agent 0 .. 599 always take action 0
    skewed = lines[:1] + [line[:-1] + "0" if int(line.split(",")[0]) < 600 else line
                          for line in lines[1:]]
    assert _panel_problems(root, lines=skewed)


def test_panel_check_rejects_perturbed_payoff(panel_files):
    root, _, report = panel_files
    bad = copy.deepcopy(report)
    bad["utilities_hat"][0][-1] += 2.0
    assert _panel_problems(root, report=bad)


def test_panel_check_rejects_rerun_that_differs(panel_files, tmp_path):
    root, lines, _ = panel_files
    other = tmp_path / "rerun.csv"
    other.write_text("\n".join(lines[:-1]) + "\n")
    post = {"rerun_rc": 0, "rerun": str(other), "rerun_of": str(root / "panel.csv")}
    assert _panel_problems(root, post=post)


@pytest.fixture(scope="module")
def sweep_case():
    model, _ = inputs.sweep_model(0, (3, 2, 0), 0)
    fit = {"beta": model["beta"], "delta": model["delta"], "in_range": True,
           "utilities": model["utility"]}
    entry = {"constrained": fit, "macro": copy.deepcopy(fit),
             "check": {c: True for c in ("1", "2", "3", "4(a)", "4(b)", "5(a)", "5(b)")}}
    return model, entry


def test_sweep_check_accepts_correct_output(sweep_case):
    model, entry = sweep_case
    assert checks.check_sweep_entry(model, False, entry) == []


def test_sweep_check_rejects_perturbed_payoff(sweep_case):
    model, entry = sweep_case
    bad = copy.deepcopy(entry)
    bad["macro"]["utilities"][0][1] += 1e-7
    assert checks.check_sweep_entry(model, False, bad)


@pytest.mark.parametrize("field,value", [("beta", 1e-5), ("delta", -1e-5)])
def test_sweep_check_rejects_shifted_discount(sweep_case, field, value):
    model, entry = sweep_case
    bad = copy.deepcopy(entry)
    bad["constrained"][field] += value
    assert checks.check_sweep_entry(model, False, bad)


def test_sweep_check_rejects_out_of_range_flag(sweep_case):
    model, entry = sweep_case
    bad = copy.deepcopy(entry)
    bad["constrained"]["in_range"] = False
    assert checks.check_sweep_entry(model, False, bad)


def test_sweep_check_rejects_failed_condition(sweep_case):
    model, entry = sweep_case
    bad = copy.deepcopy(entry)
    bad["check"]["4(b)"] = False
    assert checks.check_sweep_entry(model, False, bad)


def test_sweep_check_rejects_missing_right_inverse(sweep_case):
    model, entry = sweep_case
    assert checks.check_sweep_entry(model, True, entry)
