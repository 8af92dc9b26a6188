import math
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hyperdisc import (
    EmptySummaryError,
    InvalidInputError,
    McConfig,
    NonConvergenceError,
    RepEstimate,
    run_replications,
    summarize,
)
from hyperdisc import montecarlo
from hyperdisc.montecarlo import (
    FRESH_PER_REP,
    design_model,
    design_transitions,
    run_one_replication,
)


def small_config(**overrides):
    base = dict(
        num_states=3, horizon=6, alpha0=0.5, alpha1=-0.2, beta=0.8, delta=0.9,
        sample_sizes=(150,), n_replications=2, base_seed=99,
        mle_max_iterations=3000,
    )
    base.update(overrides)
    return McConfig(**base)


class TestDesign:
    def test_model_carries_normalization_pairs(self):
        config = small_config()
        transitions = design_transitions(config)
        model = design_model(config, transitions)
        assert model.equality_pairs == ((1, 1, 0, 2), (1, 1, 1, 2))
        assert_array_equal(model.utility[1], np.zeros(3))
        assert model.utility[0, 0] == pytest.approx(0.5)
        assert model.utility[0, 2] == pytest.approx(0.5 - 0.4)

    def test_transition_policy_fixed(self):
        config = small_config()
        a = design_transitions(config, replication_seed=1)
        b = design_transitions(config, replication_seed=2)
        assert_array_equal(a, b)

    def test_transition_policy_fresh(self):
        config = small_config(transition_seed_policy=FRESH_PER_REP)
        a = design_transitions(config, replication_seed=1)
        b = design_transitions(config, replication_seed=2)
        assert np.abs(a - b).max() > 1e-6

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            small_config(n_replications=0)
        with pytest.raises(InvalidInputError):
            small_config(sample_sizes=())
        with pytest.raises(InvalidInputError):
            small_config(transition_seed_policy="sometimes")

    @pytest.mark.parametrize("field,value,message", [
        ("num_states", "5", "num_states must be an integer, got '5'"),
        ("num_actions", 2.0, "num_actions must be an integer, got 2.0"),
        ("horizon", 2.5, "horizon must be an integer, got 2.5"),
        ("n_replications", "3", "n_replications must be an integer"),
        ("n_jobs", 1.5, "n_jobs must be an integer"),
        ("base_seed", None, "base_seed must be an integer"),
        ("mle_max_iterations", True, "mle_max_iterations must be an integer"),
        ("mle_max_iterations", 0, "mle_max_iterations must be at least 1"),
        ("sample_sizes", ("a",), "every sample size must be an integer, got 'a'"),
        ("sample_sizes", (200.0,), "every sample size must be an integer"),
        ("sample_sizes", 2000, "sample_sizes must be a sequence of integers"),
    ])
    def test_integer_fields_are_integers(self, field, value, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            small_config(**{field: value})


class TestRunReplications:
    def test_single_replication_and_zero_sd(self):
        config = small_config(n_replications=1)
        records = run_replications(config)
        assert len(records) == 1
        assert records[0].ok
        summary = summarize(records, true_values=config.true_values())
        for p in ("alpha0", "alpha1", "delta", "beta"):
            assert summary.cell(p, 150).sd == 0.0
            assert summary.cell(p, 150).n_success == 1

    def test_deterministic_across_runs_and_worker_counts(self, monkeypatch):
        config = small_config()
        serial = run_replications(config)
        again = run_replications(config)
        # the workers get one BLAS thread each; the parent's settings,
        # set or not, are restored afterwards
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        parallel = run_replications(
            McConfig(**{**_as_dict(config), "n_jobs": 2})
        )
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ
        assert serial == again
        assert serial == parallel

    def test_failures_recorded_not_fatal(self, monkeypatch):
        # a search of one iteration can converge where the screen's start
        # is already stationary, so the fit is made to fail outright
        def no_convergence(*args, **kwargs):
            raise NonConvergenceError("no optimizer start converged", records=[])

        monkeypatch.setattr(montecarlo, "fit_mle", no_convergence)
        config = small_config(mle_max_iterations=1)
        records = run_replications(config)
        assert len(records) == 2
        assert all(not r.ok for r in records)
        assert all("NonConvergenceError" in r.error for r in records)
        with pytest.raises(EmptySummaryError):
            summarize(records)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise TypeError("fit_mle() got an unexpected keyword argument")

        monkeypatch.setattr(montecarlo, "fit_mle", broken_fit)
        with pytest.raises(TypeError):
            run_one_replication(small_config(), 0, 150)

    def test_seed_derivation_matches_single_run(self):
        config = small_config()
        records = run_replications(config)
        solo = run_one_replication(config, 1, 150)
        assert records[1] == solo


def _as_dict(config):
    import dataclasses
    return dataclasses.asdict(config)


class TestSummarize:
    def test_two_point_formula(self):
        records = [
            RepEstimate(replication=0, sample_size=100, seed=1,
                        alpha0=1.0, alpha1=0.0, delta=0.8, beta=0.7),
            RepEstimate(replication=1, sample_size=100, seed=2,
                        alpha0=1.0, alpha1=0.0, delta=0.9, beta=0.7),
        ]
        summary = summarize(records)
        cell = summary.cell("delta", 100)
        assert cell.mean == pytest.approx(0.85, abs=1e-15)
        assert cell.sd == pytest.approx(math.sqrt(0.005), abs=1e-15)
        assert cell.n_success == 2 and cell.n_failure == 0

    def test_failures_counted(self):
        records = [
            RepEstimate(replication=0, sample_size=100, seed=1,
                        alpha0=1.0, alpha1=0.0, delta=0.8, beta=0.7),
            RepEstimate(replication=1, sample_size=100, seed=2,
                        error="NonConvergenceError: ..."),
        ]
        summary = summarize(records)
        cell = summary.cell("alpha0", 100)
        assert cell.n_success == 1 and cell.n_failure == 1
        assert cell.sd == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySummaryError):
            summarize([])

    def test_rendered_layout(self):
        records = [
            RepEstimate(replication=0, sample_size=100, seed=1,
                        alpha0=0.494, alpha1=-0.199, delta=0.819, beta=0.795),
            RepEstimate(replication=0, sample_size=400, seed=2,
                        alpha0=0.496, alpha1=-0.199, delta=0.886, beta=0.827),
        ]
        summary = summarize(records, true_values={"alpha0": 0.5, "alpha1": -0.2,
                                                  "delta": 0.9, "beta": 0.85})
        text = summary.render_text()
        lines = text.strip().split("\n")
        # header plus one mean row and one ( sd ) row per parameter
        assert len(lines) == 1 + 2 * 4
        assert lines[0].split() == ["parameter", "true", "N=100", "N=400"]
        assert lines[1].split()[0] == "alpha0"
        assert lines[2].split()[0].startswith("(")
        for row in (2, 4, 6, 8):
            assert all(cell.startswith("(") and cell.endswith(")")
                       for cell in lines[row].split())

    def test_monotone_precision_in_sample_size(self):
        # dispersion of the intercept estimate shrinks as N quadruples
        config = small_config(sample_sizes=(200, 800), n_replications=20,
                              base_seed=7)
        records = run_replications(config)
        summary = summarize(records, true_values=config.true_values())
        sd_small = summary.cell("alpha0", 200).sd
        sd_large = summary.cell("alpha0", 800).sd
        assert summary.cell("alpha0", 200).n_success == 20
        assert sd_large < sd_small * 1.2
