"""File formats: model JSON, panel CSV, config JSON, reports, manifests.

The exact field names and conventions live in docs/FORMATS.md; this
module is the only place that reads or writes them.
"""

from __future__ import annotations

import contextlib
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
_ROW_SEPARATORS = np.frombuffer(b",,,\n", dtype=np.uint8)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


@contextlib.contextmanager
def _utf8(path):
    """Report a file that does not decode as UTF-8 as invalid input."""
    try:
        yield
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: file is not valid UTF-8") from None


def model_from_dict(data: dict) -> ModelSpec:
    if not isinstance(data, dict):
        raise InvalidInputError("model document must be a JSON object")
    missing = [f for f in MODEL_FIELDS if f not in data]
    if missing:
        raise InvalidInputError(f"model document is missing fields: {', '.join(missing)}")
    return ModelSpec(**{name: data[name] for name in MODEL_FIELDS})


def load_model(path) -> ModelSpec:
    return model_from_dict(load_json(path))


def write_panel_csv(panel: PanelData, path) -> None:
    """Panel CSV: header agent,period,state,action; 1-based periods,
    0-based state/action indices, LF line endings, agents in row order.

    The rows are assembled as bytes, a block of whole agents (about
    ``_WRITE_BLOCK_ROWS`` rows) at a time: each field's digits go
    right-aligned into a fixed-width ``uint8`` matrix, the unused
    leading bytes stay 0 and are dropped, and each block is one write.
    """
    n_agents, horizon = panel.states.shape
    per_block = max(1, _WRITE_BLOCK_ROWS // horizon)
    periods = _ascii_digits(np.arange(1, horizon + 1))
    with open(path, "wb") as fh:
        fh.write(",".join(PANEL_HEADER).encode() + b"\n")
        for first in range(0, n_agents, per_block):
            states = panel.states[first:first + per_block]
            actions = panel.actions[first:first + per_block]
            fields = (_ascii_digits(np.arange(first, first + len(states)))[:, None],
                      periods, _ascii_digits(states), _ascii_digits(actions))
            ends = np.cumsum([field.shape[-1] + 1 for field in fields])
            rows = np.zeros(states.shape + (ends[-1],), dtype=np.uint8)
            for field, end in zip(fields, ends):
                rows[..., end - 1 - field.shape[-1]:end - 1] = field
            rows[..., ends - 1] = _ROW_SEPARATORS
            fh.write(rows.tobytes().translate(None, b"\0"))


def _ascii_digits(values):
    """ASCII digits of non-negative integers, one row of bytes per value.

    The digits are right-aligned to the width of the largest value; the
    leading bytes a shorter value does not use are 0.
    """
    places = 10 ** np.arange(len(str(values.max())) - 1, -1, -1, dtype=np.int64)
    digits = (values[..., None] // places % 10 + ord("0")).astype(np.uint8)
    digits[(values[..., None] < places) & (places > 1)] = 0
    return digits


def read_panel_csv(path) -> PanelData:
    """Read a panel CSV, rejecting unbalanced or non-contiguous panels.

    Rows may come in any order, blank lines are skipped, ``#`` starts no
    comment, fields may be CSV-quoted, and agent ids are int64 values
    whose rows come back in ascending id order.  A file that is not
    UTF-8 is rejected.  Rows already strictly ascending in (agent,
    period), as ``write_panel_csv`` writes them, are taken without a sort.
    """
    with _utf8(path):
        table, unparsed = _parse_panel(path)
    agent, period, state, action = table.T
    out_of_range = (period < 1) | (state < 0) | (action < 0)
    duplicate = np.zeros(len(table), dtype=bool)
    ascending = ((agent[1:] > agent[:-1])
                 | ((agent[1:] == agent[:-1]) & (period[1:] > period[:-1])))
    if ascending.all():
        # the sort order is the identity, and no key can repeat
        order = slice(None)
    else:
        # a stable sort keeps file order among equal keys, so every repeat
        # of an (agent, period) key after its first occurrence is a duplicate
        order = np.lexsort((period, agent))
        repeated = ((agent[order[1:]] == agent[order[:-1]])
                    & (period[order[1:]] == period[order[:-1]]))
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
    ids = agent[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    counts = np.diff(np.r_[starts, len(ids)])
    # without duplicates, an agent covers 1..horizon iff it has horizon rows
    short = np.flatnonzero(counts != horizon)
    if short.size:
        raise InvalidInputError(
            f"agent {ids[starts[short[0]]]} does not cover periods 1..{horizon}; "
            "unbalanced panels are rejected"
        )
    return PanelData(states=state[order].reshape(len(starts), horizon),
                     actions=action[order].reshape(len(starts), horizon))


def _parse_panel(path):
    """Check the header and parse the body with one ``np.loadtxt`` call.

    Returns the rows and, when ``np.loadtxt`` refused the body, the error
    ``_scan_panel_rows`` found (or None).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise InvalidInputError("panel file is empty")
    if header != PANEL_HEADER:
        raise InvalidInputError(
            f"panel header must be {','.join(PANEL_HEADER)}, got {','.join(header)}"
        )
    with warnings.catch_warnings():
        # a body without records is reported by the caller, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2,
                               comments=None, quotechar='"', skiprows=1,
                               encoding="utf-8")
        except ValueError:
            table = None
    if table is None or table.shape[1] != 4:
        return _scan_panel_rows(path)
    return table, None


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
    return estimation_config_from_dict(load_json(path))


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
    with _utf8(path), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
