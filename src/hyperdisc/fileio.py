"""File formats: model JSON, panel CSV, config JSON, reports, manifests.

The exact field names and conventions live in docs/FORMATS.md; this
module is the only place that reads or writes them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np

from .estimation import MleConfig, UtilitySpec
from .exceptions import InvalidInputError
from .identification import IdentificationResult
from .model import ModelSpec
from .montecarlo import McConfig, McSummary
from .simulation import PanelData

MODEL_FIELDS = ("num_states", "num_actions", "horizon", "beta", "delta",
                "utility", "transitions", "state_values", "equality_pairs")

PANEL_HEADER = ["agent", "period", "state", "action"]


def model_to_dict(model: ModelSpec) -> dict:
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "horizon": model.horizon,
        "beta": model.beta,
        "delta": model.delta,
        "utility": model.utility.tolist(),
        "transitions": model.transitions.tolist(),
        "state_values": model.state_values.tolist(),
        "equality_pairs": [list(p) for p in model.equality_pairs],
    }


def model_from_dict(data: dict) -> ModelSpec:
    if not isinstance(data, dict):
        raise InvalidInputError("model document must be a JSON object")
    missing = [f for f in MODEL_FIELDS if f not in data]
    if missing:
        raise InvalidInputError(f"model document is missing fields: {', '.join(missing)}")
    return ModelSpec(
        num_states=data["num_states"],
        num_actions=data["num_actions"],
        horizon=data["horizon"],
        beta=data["beta"],
        delta=data["delta"],
        utility=data["utility"],
        transitions=data["transitions"],
        state_values=data["state_values"],
        equality_pairs=tuple(tuple(p) for p in data["equality_pairs"]),
    )


def save_model(model: ModelSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def write_panel_csv(panel: PanelData, path) -> None:
    """Panel CSV: header agent,period,state,action; 1-based periods,
    0-based state/action indices, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PANEL_HEADER)
        for n in range(panel.n_agents):
            for t in range(panel.horizon):
                writer.writerow([n, t + 1, panel.states[n, t], panel.actions[n, t]])


def read_panel_csv(path) -> PanelData:
    """Read a panel CSV, rejecting unbalanced or non-contiguous panels."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError("panel file is empty") from None
        if header != PANEL_HEADER:
            raise InvalidInputError(
                f"panel header must be {','.join(PANEL_HEADER)}, got {','.join(header)}"
            )
        by_agent: dict = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InvalidInputError(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                agent, period, state, action = (int(v) for v in row)
            except ValueError:
                raise InvalidInputError(f"line {lineno}: fields must be integers") from None
            if period < 1 or state < 0 or action < 0:
                raise InvalidInputError(f"line {lineno}: index out of range")
            cell = by_agent.setdefault(agent, {})
            if period in cell:
                raise InvalidInputError(
                    f"line {lineno}: duplicate record for agent {agent}, period {period}"
                )
            cell[period] = (state, action)
    if not by_agent:
        raise InvalidInputError("panel file contains no records")
    horizon = max(max(periods) for periods in by_agent.values())
    agents = sorted(by_agent)
    states = np.empty((len(agents), horizon), dtype=np.int64)
    actions = np.empty((len(agents), horizon), dtype=np.int64)
    for i, agent in enumerate(agents):
        periods = by_agent[agent]
        if len(periods) != horizon or set(periods) != set(range(1, horizon + 1)):
            raise InvalidInputError(
                f"agent {agent} does not cover periods 1..{horizon}; "
                "unbalanced panels are rejected"
            )
        for t in range(horizon):
            states[i, t], actions[i, t] = periods[t + 1]
    return PanelData(states=states, actions=actions)


def estimation_config_from_dict(data: dict):
    """Build ``(UtilitySpec, MleConfig)`` from an estimation config doc."""
    if not isinstance(data, dict):
        raise InvalidInputError("estimation config must be a JSON object")
    for fld in ("num_states", "num_actions"):
        if fld not in data:
            raise InvalidInputError(f"estimation config is missing {fld!r}")
    spec = UtilitySpec(
        form=data.get("utility_form", "linear_in_state"),
        num_actions=data["num_actions"],
        num_states=data["num_states"],
        state_values=data.get("state_values"),
        reference_action=data.get("reference_action"),
    )
    # only the keys the document sets reach MleConfig, which holds the defaults
    options = {key: data[key] for key in ("theta_ref", "theta_start_scale", "beta_starts",
                                          "delta_starts", "max_iterations", "fixed_parameters")
               if key in data}
    for key in ("theta_ref", "beta_starts", "delta_starts"):
        if key in options:
            options[key] = tuple(options[key])
    tol = data.get("tolerances", {})
    for key, attr in (("parameter", "param_tol"), ("objective", "objective_tol")):
        if key in tol:
            options[attr] = tol[key]
    if data.get("starts") is not None:
        options["starts"] = tuple(
            (np.asarray(s["theta_u"], dtype=float), s["beta"], s["delta"])
            for s in data["starts"]
        )
    config = MleConfig(**options)
    return spec, config


def load_estimation_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return estimation_config_from_dict(json.load(fh))


def mc_config_from_dict(data: dict) -> McConfig:
    if not isinstance(data, dict):
        raise InvalidInputError("montecarlo config must be a JSON object")
    known = dict(data)
    kwargs = {}
    mapping = {
        "num_states": "num_states", "num_actions": "num_actions",
        "horizon": "horizon", "alpha0": "alpha0", "alpha1": "alpha1",
        "beta": "beta", "delta": "delta", "sample_sizes": "sample_sizes",
        "replications": "n_replications", "base_seed": "base_seed",
        "jobs": "n_jobs", "transition_seed_policy": "transition_seed_policy",
        "state_values": "state_values", "initial_dist": "initial_dist",
        "mle_max_iterations": "mle_max_iterations",
    }
    for key, attr in mapping.items():
        if key in known:
            value = known.pop(key)
            if key in ("sample_sizes", "state_values", "initial_dist") and value is not None:
                value = tuple(value)
            kwargs[attr] = value
    if known:
        raise InvalidInputError(
            f"montecarlo config has unknown fields: {', '.join(sorted(known))}"
        )
    return McConfig(**kwargs)


def load_mc_config(path) -> McConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return mc_config_from_dict(json.load(fh))


def identification_report(result: IdentificationResult) -> dict:
    report = {
        "beta_hat": result.beta_hat,
        "delta_hat": result.delta_hat,
        "c1": result.c1,
        "c2": result.c2,
        "in_range": result.in_range,
        "mode": result.mode,
        "coefficient_matrix": result.coefficient_matrix.tolist(),
        "diagnostics": _jsonable(result.diagnostics),
    }
    if result.utilities_hat is not None:
        report["utilities_hat"] = result.utilities_hat.tolist()
        report["utility_level_identified"] = result.utility_level_identified.tolist()
    return report


def mle_report(result) -> dict:
    return {
        "theta_u_hat": result.theta_u_hat.tolist(),
        "beta_hat": result.beta_hat,
        "delta_hat": result.delta_hat,
        "loglik": result.loglik,
        "best_start_index": result.best_start_index,
        "per_start": [asdict(r) for r in result.per_start],
    }


def write_summary_csv(summary: McSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in summary.to_csv_rows():
            writer.writerow(row)


def write_estimates_csv(estimates, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "sample_size", "seed", "alpha0", "alpha1",
                         "delta", "beta", "loglik", "best_start", "error"])
        for e in estimates:
            writer.writerow([
                e.replication, e.sample_size, e.seed,
                _csv_num(e.alpha0), _csv_num(e.alpha1), _csv_num(e.delta),
                _csv_num(e.beta), _csv_num(e.loglik),
                "" if e.best_start is None else e.best_start,
                e.error or "",
            ])


def _csv_num(value):
    return "" if value is None else repr(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def save_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(data), fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
