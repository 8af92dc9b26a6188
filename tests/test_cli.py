import json

import numpy as np
import pytest

from hyperdisc.cli import main
from hyperdisc.fileio import load_json, save_model
from hyperdisc.montecarlo import design_model, McConfig
from hyperdisc.simulation import random_transitions
from conftest import canonical_design, make_random_model


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(canonical_design(setting=1), path)
    return path


def well_conditioned_model(start_seed=1100, gate=1e-7):
    import numpy as np
    from hyperdisc import AssumptionViolationError, build_pair_system
    from hyperdisc import assemble_system, solve_backward
    seed = start_seed
    while True:
        model = make_random_model(seed, num_states=2)
        try:
            ps = build_pair_system(model.transitions, model.equality_pairs)
            A, _ = assemble_system(solve_backward(model).P, ps)
        except AssumptionViolationError:
            seed += 1
            continue
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] > gate * sv[0]:
            return model
        seed += 1


class TestSimulateCommand:
    def test_row_count_and_manifest(self, tmp_path, model_file):
        out = tmp_path / "panel.csv"
        code = main(["simulate", "--model", str(model_file), "--agents", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 10 * 16  # header plus N * T rows
        manifest = load_json(f"{out}.manifest.json")
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [str(out)]
        assert "duration_seconds" in manifest

    def test_same_seed_identical_files(self, tmp_path, model_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--model", str(model_file), "--agents", "5",
                     "--seed", "9", "--out", str(out1)]) == 0
        assert main(["simulate", "--model", str(model_file), "--agents", "5",
                     "--seed", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_var_seed_fallback(self, tmp_path, model_file, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        monkeypatch.setenv("HYPERDISC_SEED", "9")
        assert main(["simulate", "--model", str(model_file), "--agents", "5",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--model", str(model_file), "--agents", "5",
                     "--seed", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_json_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_states": 5,,}')
        code = main(["simulate", "--model", str(bad), "--agents", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["simulate", "--model", str(tmp_path / "nope.json"),
                     "--agents", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestIdentifyCommand:
    def test_exact_mode_recovers_discounts(self, tmp_path):
        model = well_conditioned_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        out = tmp_path / "report.json"
        code = main(["identify", "--model", str(path), "--rank-tol", "1e-8",
                     "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert abs(report["beta_hat"] - model.beta) < 1e-6
        assert abs(report["delta_hat"] - model.delta) < 1e-6
        assert report["in_range"]
        assert report["utilities_hat"] is not None

    def test_canonical_design_diagnostic_run(self, tmp_path, model_file):
        # cross-state pairs: the run completes and surfaces the
        # inclusive-value gap instead of pretending exactness
        out = tmp_path / "report.json"
        code = main(["identify", "--model", str(model_file),
                     "--mode", "constrained-ls", "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert report["diagnostics"]["n_cross_state_pairs"] == 4
        assert report["diagnostics"]["inclusive_value_gap_max"] > 1e-3

    def test_short_horizon_exits_3_citing_5a(self, tmp_path, capsys):
        model = canonical_design(setting=1, horizon=10)
        path = tmp_path / "model.json"
        save_model(model, path)
        code = main(["identify", "--model", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "5(a)" in capsys.readouterr().err

    def test_macro_m1_matches_plain_run(self, tmp_path):
        model = well_conditioned_model(start_seed=2200)
        path = tmp_path / "model.json"
        save_model(model, path)
        hfile = tmp_path / "h.json"
        hfile.write_text("[[1.0]]")
        plain_out = tmp_path / "plain.json"
        macro_out = tmp_path / "macro.json"
        assert main(["identify", "--model", str(path), "--rank-tol", "1e-8",
                     "--mode", "constrained-ls", "--out", str(plain_out)]) == 0
        assert main(["identify", "--model", str(path), "--rank-tol", "1e-8",
                     "--mode", "constrained-ls", "--macro", str(hfile),
                     "--out", str(macro_out)]) == 0
        plain = load_json(plain_out)
        macro = load_json(macro_out)
        assert macro["beta_hat"] == plain["beta_hat"]
        assert macro["delta_hat"] == plain["delta_hat"]

    def test_macro_minimum_horizon_via_cli(self, tmp_path):
        # J=3 with a 3-valued auxiliary state identifies from only T=4;
        # the macro run defaults to the constrained solver
        model = make_random_model(63, num_states=3, horizon=4,
                                  beta=0.8, delta=0.9)
        path = tmp_path / "model.json"
        save_model(model, path)
        hfile = tmp_path / "h.json"
        H = np.random.default_rng(1).random((3, 3))
        H /= H.sum(axis=1, keepdims=True)
        hfile.write_text(json.dumps(H.tolist()))
        out = tmp_path / "report.json"
        code = main(["identify", "--model", str(path), "--macro", str(hfile),
                     "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert report["mode"] == "constrained_ls"
        assert abs(report["beta_hat"] - model.beta) < 1e-6
        assert abs(report["delta_hat"] - model.delta) < 1e-6

    def test_data_mode_runs(self, tmp_path):
        model = well_conditioned_model(start_seed=3300)
        path = tmp_path / "model.json"
        save_model(model, path)
        panel_out = tmp_path / "panel.csv"
        assert main(["simulate", "--model", str(path), "--agents", "3000",
                     "--seed", "4", "--out", str(panel_out)]) == 0
        out = tmp_path / "report.json"
        code = main(["identify", "--model", str(path), "--panel", str(panel_out),
                     "--mode", "constrained-ls", "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert "smoothed_cells" in report["diagnostics"]


class TestEstimateCommand:
    def test_estimate_pipeline(self, tmp_path):
        config = McConfig(num_states=3, horizon=6, beta=0.8, delta=0.9,
                          alpha0=0.5, alpha1=-0.2)
        model = design_model(config, random_transitions(3, 2, seed=5))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        panel_path = tmp_path / "panel.csv"
        assert main(["simulate", "--model", str(model_path), "--agents", "400",
                     "--seed", "5", "--out", str(panel_path)]) == 0
        config_path = tmp_path / "est.json"
        config_path.write_text(json.dumps({
            "num_states": 3, "num_actions": 2,
            "utility_form": "linear_in_state",
            "theta_ref": [0.5, -0.2],
        }))
        out = tmp_path / "mle.json"
        code = main(["estimate", "--panel", str(panel_path),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert 0.0 < report["beta_hat"] < 1.0
        assert 0.0 < report["delta_hat"] < 1.0
        assert len(report["per_start"]) == 9
        assert report["loglik"] == max(r["loglik"] for r in report["per_start"])

    def test_nonconvergence_exit_code(self, tmp_path):
        config = McConfig(num_states=3, horizon=6)
        model = design_model(config, random_transitions(3, 2, seed=5))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        panel_path = tmp_path / "panel.csv"
        main(["simulate", "--model", str(model_path), "--agents", "50",
              "--seed", "5", "--out", str(panel_path)])
        config_path = tmp_path / "est.json"
        config_path.write_text(json.dumps({
            "num_states": 3, "num_actions": 2, "theta_ref": [0.5, -0.2],
            "max_iterations": 1,
        }))
        code = main(["estimate", "--panel", str(panel_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "mle.json")])
        assert code == 4


class TestMontecarloCommand:
    def test_single_replication_summary(self, tmp_path):
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps({
            "num_states": 3, "horizon": 6, "alpha0": 0.5, "alpha1": -0.2,
            "beta": 0.8, "delta": 0.9, "sample_sizes": [150],
            "replications": 1, "base_seed": 3, "jobs": 1,
        }))
        out_dir = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(config_path),
                     "--out", str(out_dir), "--jobs", "1"])
        assert code == 0
        summary_text = (out_dir / "summary.txt").read_text()
        # single replication: every dispersion row shows (0.000)
        assert "(0.000)" in summary_text
        manifest = load_json(out_dir / "manifest.json")
        assert manifest["subcommand"] == "montecarlo"
        rows = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert rows[0] == "parameter,sample_size,mean,sd,n_success,n_failure"
        assert len(rows) == 1 + 4
        assert (out_dir / "estimates.csv").exists()


class TestCheckCommand:
    def test_canonical_design_passes(self, tmp_path, model_file):
        out = tmp_path / "check.json"
        code = main(["check", "--model", str(model_file), "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert report["all_passed"]
        assert report["assumptions"]["5(b)"]["passed"]

    def test_degenerate_transitions_fail_4b(self, tmp_path, capsys):
        from hyperdisc import ModelSpec
        f = np.broadcast_to(random_transitions(3, 1, seed=0)[0], (2, 3, 3)).copy()
        broken = ModelSpec(num_states=3, num_actions=2, horizon=8, beta=0.8,
                           delta=0.9, utility=np.zeros((2, 3)), transitions=f,
                           equality_pairs=[(0, 1, 0, 0), (0, 1, 1, 1)])
        path = tmp_path / "broken.json"
        save_model(broken, path)
        code = main(["check", "--model", str(path)])
        assert code == 3
        stdout = capsys.readouterr().out
        report = json.loads(stdout)
        assert not report["assumptions"]["4(b)"]["passed"]
        assert not report["all_passed"]

    def test_macro_flag(self, tmp_path, model_file):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps([[0.6, 0.4], [0.3, 0.7]]))
        out = tmp_path / "check.json"
        code = main(["check", "--model", str(model_file), "--macro", str(hfile),
                     "--out", str(out)])
        report = load_json(out)
        for key in ("6", "7(a)", "7(b)", "8(a)", "8(b)"):
            assert key in report["assumptions"]
        # (16-2)*2 = 28 >= 12, and the horizon alone already delivers full
        # structural row rank, so the macro variant passes as well
        assert report["assumptions"]["8(a)"]["passed"]
        assert report["assumptions"]["8(b)"]["passed"]
        assert code == 0

    @pytest.mark.parametrize("document", [{"other": [[1.0]]},
                                          {"macro_transitions": [[2.0, -1.0], [0.5, 0.5]]}])
    def test_invalid_macro_document_exits_2(self, tmp_path, capsys, document):
        path = tmp_path / "short.json"
        save_model(make_random_model(66, num_states=2, horizon=3), path)
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps(document))
        code = main(["check", "--model", str(path), "--macro", str(hfile)])
        assert code == 2
        assert "macro_transitions" in capsys.readouterr().err
