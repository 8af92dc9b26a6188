"""File formats: model JSON, panel CSV, config JSON, reports, manifests.

The exact field names and conventions live in docs/FORMATS.md; this
module is the only place that reads or writes them.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import asdict, fields

import numpy as np

from .estimation import MleConfig, UtilitySpec
from .exceptions import InvalidInputError
from .identification import IdentificationResult
from .model import ModelSpec
from .montecarlo import McConfig, McSummary
from .simulation import PanelData

MODEL_FIELDS = tuple(f.name for f in fields(ModelSpec))
# Monte Carlo config keys that differ from their McConfig field names
_MC_KEYS = {"n_replications": "replications", "n_jobs": "jobs"}

PANEL_HEADER = ["agent", "period", "state", "action"]
_WRITE_BLOCK_ROWS = 32768
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def model_to_dict(model: ModelSpec) -> dict:
    return {name: _jsonable(getattr(model, name)) for name in MODEL_FIELDS}


def model_from_dict(data: dict) -> ModelSpec:
    if not isinstance(data, dict):
        raise InvalidInputError("model document must be a JSON object")
    missing = [f for f in MODEL_FIELDS if f not in data]
    if missing:
        raise InvalidInputError(f"model document is missing fields: {', '.join(missing)}")
    return ModelSpec(**{name: data[name] for name in MODEL_FIELDS})


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
    n_agents, horizon = panel.states.shape
    rows = np.empty((n_agents * horizon, 4), dtype=np.int64)
    rows[:, 0] = np.repeat(np.arange(n_agents), horizon)
    rows[:, 1] = np.tile(np.arange(1, horizon + 1), n_agents)
    rows[:, 2] = panel.states.ravel()
    rows[:, 3] = panel.actions.ravel()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(PANEL_HEADER) + "\n")
        # one format string per block bounds the tuple of Python ints it needs
        for start in range(0, len(rows), _WRITE_BLOCK_ROWS):
            block = rows[start:start + _WRITE_BLOCK_ROWS]
            fh.write("%d,%d,%d,%d\n" * len(block) % tuple(block.ravel().tolist()))


def read_panel_csv(path) -> PanelData:
    """Read a panel CSV, rejecting unbalanced or non-contiguous panels.

    Rows may come in any order, blank lines are skipped, ``#`` starts no
    comment, fields may be CSV-quoted, and agent ids are int64 values
    whose rows come back in ascending id order.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise InvalidInputError("panel file is empty") from None
        if header != PANEL_HEADER:
            raise InvalidInputError(
                f"panel header must be {','.join(PANEL_HEADER)}, got {','.join(header)}"
            )
        with warnings.catch_warnings():
            # a body without records is reported below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2,
                                   comments=None, quotechar='"')
            except ValueError:
                table = None
    unparsed = None
    if table is None or table.shape[1] != 4:
        table, unparsed = _scan_panel_rows(path)
    agent, period, state, action = table.T
    out_of_range = (period < 1) | (state < 0) | (action < 0)
    # a stable sort keeps file order among equal keys, so every repeat of
    # an (agent, period) key after its first occurrence is a duplicate
    order = np.lexsort((period, agent))
    repeated = ((agent[order[1:]] == agent[order[:-1]])
                & (period[order[1:]] == period[order[:-1]]))
    duplicate = np.zeros(len(table), dtype=bool)
    duplicate[order[1:][repeated]] = True
    bad = np.flatnonzero(out_of_range | duplicate)
    if bad.size:
        row = bad[0]
        lineno = next(itertools.islice(_panel_records(path), row, None))[0]
        if out_of_range[row]:
            raise InvalidInputError(f"line {lineno}: index out of range")
        raise InvalidInputError(
            f"line {lineno}: duplicate record for agent {agent[row]}, period {period[row]}"
        )
    if unparsed is not None:
        raise unparsed
    if not len(table):
        raise InvalidInputError("panel file contains no records")
    horizon = int(period.max())
    agents, counts = np.unique(agent, return_counts=True)
    # without duplicates, an agent covers 1..horizon iff it has horizon rows
    short = np.flatnonzero(counts != horizon)
    if short.size:
        raise InvalidInputError(
            f"agent {agents[short[0]]} does not cover periods 1..{horizon}; "
            "unbalanced panels are rejected"
        )
    return PanelData(states=state[order].reshape(len(agents), horizon),
                     actions=action[order].reshape(len(agents), horizon))


def _panel_records(path):
    """Yield ``(line number, fields)`` for each non-blank record after the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def _scan_panel_rows(path):
    """Parse the records one by one, up to the first one that fails.

    Runs only when ``np.loadtxt`` refused the body or did not find four
    columns in it.  Returns the rows
    before the failing record and the error naming its line (or None),
    so that an earlier bad row is still reported first.  It also accepts
    what ``int`` accepts beyond ``loadtxt``, such as ``1_0``.
    """
    rows, error = [], None
    for lineno, row in _panel_records(path):
        if len(row) != 4:
            error = InvalidInputError(f"line {lineno}: expected 4 fields, got {len(row)}")
            break
        try:
            values = [int(v) for v in row]
        except ValueError:
            error = InvalidInputError(f"line {lineno}: fields must be integers")
            break
        if not all(_INT64_MIN <= v <= _INT64_MAX for v in values):
            error = InvalidInputError(f"line {lineno}: fields must be integers in the int64 range")
            break
        rows.append(values)
    return np.array(rows, dtype=np.int64).reshape(-1, 4), error


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
    # keys of the removed start grid (theta_ref, theta_start_scale,
    # beta_starts, delta_starts) are ignored like any other unknown key
    options = {key: data[key] for key in ("max_iterations", "fixed_parameters")
               if key in data}
    tol = data.get("tolerances", {})
    for key, attr in (("parameter", "param_tol"), ("objective", "objective_tol")):
        if key in tol:
            options[attr] = tol[key]
    if data.get("starts") is not None:
        try:
            options["starts"] = tuple((s["theta_u"], s["beta"], s["delta"])
                                      for s in data["starts"])
        except (KeyError, TypeError):
            raise InvalidInputError(
                'every start must be an object with "theta_u", "beta" and "delta"'
            ) from None
    config = MleConfig(**options)
    return spec, config


def load_estimation_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return estimation_config_from_dict(json.load(fh))


def mc_config_from_dict(data: dict) -> McConfig:
    if not isinstance(data, dict):
        raise InvalidInputError("montecarlo config must be a JSON object")
    keys = {_MC_KEYS.get(f.name, f.name): f.name for f in fields(McConfig)}
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise InvalidInputError(f"montecarlo config has unknown fields: {', '.join(unknown)}")
    # JSON arrays become the tuples McConfig holds
    return McConfig(**{keys[key]: tuple(value) if isinstance(value, list) else value
                       for key, value in data.items()})


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
        "profile": None if result.profile_loglik is None else {
            "beta": list(result.profile_betas),
            "delta": list(result.profile_deltas),
            "loglik": result.profile_loglik.tolist(),
            "steps": result.profile_steps.tolist(),
        },
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
