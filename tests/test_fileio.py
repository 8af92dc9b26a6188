import csv
import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hyperdisc import InvalidInputError, MleConfig, PanelData, simulate_panel, solve_backward
from hyperdisc.fileio import (
    _WRITE_BLOCK_ROWS,
    MODEL_FIELDS,
    estimation_config_from_dict,
    load_model,
    mc_config_from_dict,
    model_from_dict,
    read_panel_csv,
    write_panel_csv,
)
from conftest import make_random_model, model_document, write_model

HEADER = "agent,period,state,action\n"


def _write_panel_rows(panel, path):
    """Reference writer: one csv.writer row per (agent, period) cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["agent", "period", "state", "action"])
        for n in range(panel.n_agents):
            for t in range(panel.horizon):
                writer.writerow([n, t + 1, panel.states[n, t], panel.actions[n, t]])


class TestModelDocument:
    def test_round_trip_is_exact(self, tmp_path):
        model = make_random_model(0, num_states=4, num_actions=3)
        path = tmp_path / "model.json"
        write_model(model, path)
        loaded = load_model(path)
        assert_array_equal(loaded.utility, model.utility)
        assert_array_equal(loaded.transitions, model.transitions)
        assert_array_equal(loaded.state_values, model.state_values)
        assert loaded.beta == model.beta and loaded.delta == model.delta
        assert loaded.equality_pairs == model.equality_pairs

    def test_field_names_fixed(self):
        assert set(MODEL_FIELDS) == {
            "num_states", "num_actions", "horizon", "beta", "delta",
            "utility", "transitions", "state_values", "equality_pairs",
        }

    def test_missing_field_named_in_error(self):
        doc = model_document(make_random_model(2))
        del doc["transitions"]
        with pytest.raises(InvalidInputError, match="transitions"):
            model_from_dict(doc)

    def test_validation_applies_on_load(self):
        doc = model_document(make_random_model(3))
        doc["transitions"][0][0][0] += 0.5  # break row sum
        with pytest.raises(InvalidInputError):
            model_from_dict(doc)


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        model = make_random_model(4)
        sol = solve_backward(model)
        panel = simulate_panel(model, sol, 7, seed=1)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        loaded = read_panel_csv(path)
        assert_array_equal(loaded.states, panel.states)
        assert_array_equal(loaded.actions, panel.actions)

    def test_format_details(self, tmp_path):
        panel = PanelData(states=np.array([[2, 1]], dtype=np.int64),
                          actions=np.array([[0, 1]], dtype=np.int64))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        raw = path.read_bytes().decode("utf-8")
        assert raw == "agent,period,state,action\n0,1,2,0\n0,2,1,1\n"

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("agent,period,state,act\n0,1,0,0\n")
        with pytest.raises(InvalidInputError, match="header"):
            read_panel_csv(path)

    def test_unbalanced_panel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("agent,period,state,action\n0,1,0,0\n0,2,1,0\n1,1,0,1\n")
        with pytest.raises(InvalidInputError, match="unbalanced|cover"):
            read_panel_csv(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("agent,period,state,action\n0,1,0.5,0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            read_panel_csv(path)

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("agent,period,state,action\n0,1,0,0\n0,1,1,0\n")
        with pytest.raises(InvalidInputError, match="duplicate"):
            read_panel_csv(path)

    def test_writer_spans_blocks(self, tmp_path):
        # more rows than two write blocks of whole agents, with a partial
        # block at the end
        horizon = 7
        per_block = _WRITE_BLOCK_ROWS // horizon
        n_agents = 2 * per_block + 3
        rng = np.random.default_rng(5)
        panel = PanelData(states=rng.integers(0, 12, size=(n_agents, horizon)),
                          actions=rng.integers(0, 3, size=(n_agents, horizon)))
        assert n_agents % per_block != 0
        write_panel_csv(panel, tmp_path / "blocks.csv")
        _write_panel_rows(panel, tmp_path / "rows.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("n_agents, horizon, top_state, top_action, first_of_block", [
        # agent ids gain a digit inside a block, or on a block's first agent
        pytest.param(12, 3, 4, 1, None, id="agents-9-10-in-block"),
        pytest.param(12, _WRITE_BLOCK_ROWS // 10, 4, 1, 10, id="agents-9-10-across-blocks"),
        pytest.param(103, 3, 4, 1, None, id="agents-99-100-in-block"),
        pytest.param(103, _WRITE_BLOCK_ROWS // 100, 4, 1, 100,
                     id="agents-99-100-across-blocks"),
        pytest.param(1003, 2, 4, 1, None, id="agents-999-1000-in-block"),
        pytest.param(1003, 131, 4, 1, 1000, id="agents-999-1000-across-blocks"),
        pytest.param(4, 9, 4, 1, None, id="horizon-9"),
        pytest.param(4, 10, 4, 1, None, id="horizon-10"),
        pytest.param(40, 6, 15, 11, None, id="two-digit-states-and-actions"),
        pytest.param(1, 1, 3, 1, None, id="one-agent-one-period"),
        pytest.param(4, 3, np.iinfo(np.int64).max, 1, None, id="int64-max-state"),
    ])
    def test_writer_matches_row_writer(self, tmp_path, n_agents, horizon, top_state,
                                       top_action, first_of_block):
        if first_of_block is not None:
            assert first_of_block % (_WRITE_BLOCK_ROWS // horizon) == 0
        rng = np.random.default_rng(n_agents * horizon)
        states = rng.integers(0, top_state, size=(n_agents, horizon), endpoint=True)
        actions = rng.integers(0, top_action, size=(n_agents, horizon), endpoint=True)
        states[-1, -1], actions[-1, -1] = top_state, top_action
        panel = PanelData(states=states, actions=actions)
        write_panel_csv(panel, tmp_path / "blocks.csv")
        _write_panel_rows(panel, tmp_path / "rows.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("edit, expected", [
        # records 1-9 are agents 0-2 over periods 1-3 in writer order, on
        # lines 2-10; each edit leaves the rest of that order in place
        pytest.param(lambda r: r.insert(5, r[4]),
                     "line 7: duplicate record for agent 1, period 2", id="adjacent-duplicate"),
        pytest.param(lambda r: r.append(r[1]),
                     "line 11: duplicate record for agent 0, period 2", id="late-duplicate"),
        pytest.param(lambda r: r.pop(4),
                     "agent 1 does not cover periods 1..3; unbalanced panels are rejected",
                     id="missing-period"),
        pytest.param(lambda r: r.pop(8),
                     "agent 2 does not cover periods 1..3; unbalanced panels are rejected",
                     id="missing-last-period"),
        pytest.param(lambda r: r.__setitem__(5, "1,0,1,1"), "line 7: index out of range",
                     id="period-zero"),
        pytest.param(lambda r: r.insert(6, r.pop(3)), None, id="one-row-out-of-order"),
    ])
    def test_writer_order_edits(self, tmp_path, edit, expected):
        panel = PanelData(states=np.arange(9).reshape(3, 3) % 4,
                          actions=np.arange(9).reshape(3, 3) % 2)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        header, *records = path.read_text().splitlines()
        edit(records)
        path.write_text("\n".join([header] + records) + "\n")
        if expected is not None:
            with pytest.raises(InvalidInputError, match=f"^{re.escape(expected)}$"):
                read_panel_csv(path)
            return
        loaded = read_panel_csv(path)
        assert_array_equal(loaded.states, panel.states)
        assert_array_equal(loaded.actions, panel.actions)

    @pytest.mark.parametrize("seed", range(12))
    def test_rewritten_panel_reads_back_equal(self, tmp_path, seed):
        # the writer's records shuffled, partly quoted, with blank lines
        # and CRLF endings
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 7, size=2))
        panel = PanelData(states=rng.integers(0, 13, size=shape),
                          actions=rng.integers(0, 3, size=shape))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        header, *records = path.read_text().splitlines()
        records = [",".join(f'"{v}"' if rng.random() < 0.3 else v for v in r.split(","))
                   for r in records]
        rng.shuffle(records)
        for _ in range(2):
            records.insert(rng.integers(0, len(records) + 1), "")
        path.write_bytes("\r\n".join([header] + records).encode() + b"\r\n")
        loaded = read_panel_csv(path)
        assert_array_equal(loaded.states, panel.states)
        assert_array_equal(loaded.actions, panel.actions)

    @pytest.mark.parametrize("text, expected", [
        pytest.param("agent,period,state,action\r\n0,1,2,0\r\n0,2,1,1\r\n",
                     ([[2, 1]], [[0, 1]]), id="crlf"),
        pytest.param(HEADER + '"0",1,2,0\n0,"2",1,"1"\n', ([[2, 1]], [[0, 1]]), id="quoted"),
        pytest.param(HEADER + "0,1,2,0\n\n0,2,1,1\n", ([[2, 1]], [[0, 1]]), id="blank-line"),
        pytest.param(HEADER + "7,2,1,0\n-3,1,0,1\n7,1,2,1\n-3,2,3,0\n",
                     ([[0, 3], [2, 1]], [[1, 0], [1, 0]]), id="shuffled-sparse-ids"),
        pytest.param(HEADER + "1_0,1,2,0\n 10,2,1,+1\n", ([[2, 1]], [[0, 1]]),
                     id="int-syntax"),
        pytest.param(HEADER + "0,1,2,0\n\n0,0,1,1\n", "line 4: index out of range",
                     id="blank-line-before-bad-row"),
        pytest.param(HEADER, "panel file contains no records", id="header-only"),
        pytest.param(HEADER + "\n\n", "panel file contains no records", id="blank-body"),
        pytest.param(HEADER + "0,1,2,0\n0,2,1\n", "line 3: expected 4 fields, got 3",
                     id="three-fields"),
        pytest.param(HEADER + "0,1,2\n0,2,1\n", "line 2: expected 4 fields, got 3",
                     id="three-fields-every-row"),
        pytest.param(HEADER + "0,1,2,0,0\n0,2,1,1,0\n", "line 2: expected 4 fields, got 5",
                     id="five-fields"),
        pytest.param(HEADER + "0,1,2,0\n   \n0,2,1,1\n", "line 3: expected 4 fields, got 1",
                     id="whitespace-line"),
        pytest.param(HEADER + "# comment\n0,1,2,0\n", "line 2: expected 4 fields, got 1",
                     id="hash-line"),
        pytest.param(HEADER + "0,1,2,0\n#0,2,1,1\n", "line 3: fields must be integers",
                     id="hash-field"),
        pytest.param(HEADER + "0,1,2,0\n1,1,0,0\n0,2,1,1\n1,2,0,0\n\n0,1,2,0\n",
                     "line 7: duplicate record for agent 0, period 1", id="late-duplicate"),
        pytest.param(HEADER + "0,1,-2,0\n0,2,x,1\n", "line 2: index out of range",
                     id="bad-row-before-unparsable-row"),
        pytest.param(HEADER + "5,1,2,0\n5,2,1,1\n4,1,0,0\n",
                     "agent 4 does not cover periods 1..2; unbalanced panels are rejected",
                     id="first-short-agent"),
    ])
    def test_reader_edge_cases(self, tmp_path, text, expected):
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(InvalidInputError, match=f"^{re.escape(expected)}$"):
                    read_panel_csv(path)
                return
            panel = read_panel_csv(path)
        assert_array_equal(panel.states, expected[0])
        assert_array_equal(panel.actions, expected[1])

    def test_values_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(HEADER + "0,1,2,0\n\n9223372036854775808,1,1,1\n")
        with pytest.raises(InvalidInputError,
                           match="^line 4: fields must be integers in the int64 range$"):
            read_panel_csv(path)


class TestConfigDocuments:
    def test_estimation_config_defaults(self):
        spec, config = estimation_config_from_dict({"num_states": 5, "num_actions": 2})
        assert spec.form == "linear_in_state"
        assert spec.reference_action == 1
        # no explicit starts: the fit runs the profile screen
        assert config.starts is None
        assert config.param_tol == 1e-8
        assert config.objective_tol == 1e-10
        assert config.max_iterations == 5000
        assert config == MleConfig()

    def test_removed_start_grid_keys_are_ignored(self):
        _, config = estimation_config_from_dict({
            "num_states": 5, "num_actions": 2, "theta_ref": [0.5, -0.2],
            "theta_start_scale": 0.9, "beta_starts": [0.5], "delta_starts": [0.5],
        })
        assert config == MleConfig()

    def test_estimation_config_starts(self):
        _, config = estimation_config_from_dict({
            "num_states": 5, "num_actions": 2,
            "starts": [{"theta_u": [0.5, -0.2], "beta": 0.8, "delta": 0.9}],
        })
        assert config.starts == (((0.5, -0.2), 0.8, 0.9),)

    def test_estimation_config_explicit(self):
        spec, config = estimation_config_from_dict({
            "num_states": 3, "num_actions": 2,
            "utility_form": "free_table",
            "fixed_parameters": {"beta": 1.0},
            "tolerances": {"parameter": 1e-6, "objective": 1e-8},
            "max_iterations": 123,
        })
        assert spec.form == "free_table"
        assert config.fixed_parameters == {"beta": 1.0}
        assert config.param_tol == 1e-6
        assert config.max_iterations == 123

    def test_estimation_config_requires_dimensions(self):
        with pytest.raises(InvalidInputError):
            estimation_config_from_dict({"num_states": 3})

    def test_mc_config_mapping(self):
        config = mc_config_from_dict({
            "num_states": 4, "horizon": 12, "alpha0": 0.4, "alpha1": -0.1,
            "beta": 0.7, "delta": 0.8, "sample_sizes": [500, 1000],
            "replications": 3, "base_seed": 11, "jobs": 2,
        })
        assert config.num_states == 4
        assert config.sample_sizes == (500, 1000)
        assert config.n_replications == 3
        assert config.n_jobs == 2

    def test_mc_config_unknown_field_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown"):
            mc_config_from_dict({"replications": 2, "typo_field": 1})
