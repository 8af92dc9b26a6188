"""Spans around the public functions of each ``hyperdisc`` layer.

The wrappers replace a function where the calling module looks it up
(``hyperdisc.montecarlo.fit_mle``, ``hyperdisc.cli.simulate_panel``,
...), so a call is recorded on the path the library really takes and
nothing under ``src/`` changes.  A span is named after the module that
defines the function, which is the layer it is charged to.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("model", "simulation", "estimation", "identification",
          "montecarlo", "fileio", "cli")

# Where each public function is looked up when the library calls it.
# ``fileio`` is listed for the panel CSV only, so that the model, report
# and manifest JSON handled by ``cli.main`` stays in the cli layer.
TARGETS = (
    ("hyperdisc.cli", ("main", "solve_backward", "simulate_panel", "empirical_ccps",
                       "estimate_transitions", "identify_model",
                       "identify_from_estimates", "check_model", "fit_mle")),
    ("hyperdisc.fileio", ("write_panel_csv", "read_panel_csv")),
    ("hyperdisc.montecarlo", ("run_one_replication", "solve_backward",
                              "random_transitions", "simulate_panel",
                              "estimate_transitions", "fit_mle")),
    ("hyperdisc.identification", ("identify_model", "identify_from_estimates",
                                  "check_model", "solve_backward",
                                  "build_pair_system", "assemble_system",
                                  "assemble_system_macro", "solve_discounts",
                                  "solve_discounts_macro", "recover_utilities",
                                  "smooth_empirical_ccps", "inclusive_value_gaps")),
)

BOUNDARY_TOL = 1e-9


def _argument(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Counts taken at the span boundary: (args, kwargs, result) -> dict.
def _count_agents(fn, args, kwargs, result):
    return {"agents": int(_argument(fn, "n_agents", args, kwargs))}


def _count_fit(fn, args, kwargs, result):
    return {
        "evals": sum(r.n_evaluations for r in result.per_start),
        "boundary": int(max(result.beta_hat, result.delta_hat) >= 1.0 - BOUNDARY_TOL),
    }


def _count_file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_argument(fn, "path", args, kwargs))}


COUNTERS = {
    "simulate_panel": _count_agents,
    "fit_mle": _count_fit,
    "write_panel_csv": _count_file_bytes,
}


class Tracer:
    """Records one span per wrapped call while ``recording`` is active."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op id, counts]
        self.missing = []     # "module.name" of targets that no longer exist
        self.wrapped = set()  # names of the functions that are wrapped somewhere
        self.op_id = None
        self._stack = []
        self._bindings = []   # (module, attribute, original, wrapper)
        for module_name, names in TARGETS:
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._bindings.append((module, attr, original, self._wrap(original, attr)))
                self.wrapped.add(attr)

    def _wrap(self, fn, attr):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{attr}"
        counter = COUNTERS.get(attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.op_id, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(fn, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, op_id):
        """Install the wrappers and open the operation's root span."""
        self.op_id = op_id
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        root = ["op", time.perf_counter(), None, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield self
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self.op_id = None

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    The workload process is single threaded, so the children of a span
    run one after another inside it and never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Per-layer metrics: name -> (unit, function names it reads).  Which way
# is better is kept in BENCHMARK.json only.
METRICS = {
    "montecarlo.self_ms": ("ms", ("run_one_replication",)),
    "model.solve_backward_ms": ("ms", ("solve_backward",)),
    "model.solve_backward_calls": ("count", ("solve_backward",)),
    "simulation.simulate_panel_s": ("s", ("simulate_panel",)),
    "simulation.agents_per_s": ("1/s", ("simulate_panel",)),
    "simulation.counts_ms": ("ms", ("empirical_ccps", "estimate_transitions")),
    "estimation.fit_mle_s": ("s", ("fit_mle",)),
    "estimation.fit_evals": ("count", ("fit_mle",)),
    "estimation.eval_us": ("us", ("fit_mle",)),
    "estimation.boundary_fits_pct": ("%", ("fit_mle",)),
    "identification.identify_model_ms": ("ms", ("identify_model",)),
    "identification.check_model_ms": ("ms", ("check_model",)),
    "identification.assemble_system_ms": ("ms", ("assemble_system",
                                                 "assemble_system_macro")),
    "identification.solve_discounts_ms": ("ms", ("solve_discounts",
                                                 "solve_discounts_macro")),
    "identification.identify_from_estimates_ms": ("ms", ("identify_from_estimates",)),
    "fileio.write_panel_csv_s": ("s", ("write_panel_csv",)),
    "fileio.read_panel_csv_s": ("s", ("read_panel_csv",)),
    "fileio.panel_csv_mb": ("MB", ("write_panel_csv",)),
    "cli.self_ms": ("ms", ("main",)),
}
METRICS.update({f"{layer}.share": ("%", ()) for layer in LAYERS})
METRICS["trace.overhead_pct"] = ("%", ())


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, untraced_op_seconds, wrapped):
    """Per-layer metrics of one traced run.

    Times are per operation (the median over traced operations of the
    operation's total), fit-level figures are per fit or a share of the
    traced fits, and a metric
    is left out when none of its functions is among the ``wrapped``
    names, because a later version of the library no longer has them.
    A layer that does not run on the workload reads 0.
    """
    own = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s["name"] == "op"]
    per_op = {spans[i]["op"]: {"duration": spans[i]["end"] - spans[i]["start"],
                               "time": {}, "calls": {}, "self": {}, "agents": 0,
                               "bytes": 0}
              for i in ops}
    fits = []
    for i, s in enumerate(spans):
        if s["name"] == "op":
            continue
        op = per_op[s["op"]]
        layer, func = s["name"].split(".", 1)
        duration = s["end"] - s["start"]
        op["time"][func] = op["time"].get(func, 0.0) + duration
        op["calls"][func] = op["calls"].get(func, 0) + 1
        op["self"][layer] = op["self"].get(layer, 0.0) + own[i]
        op["self"][s["name"]] = op["self"].get(s["name"], 0.0) + own[i]
        counts = s["counts"] or {}
        op["agents"] += counts.get("agents", 0)
        if func == "write_panel_csv":
            op["bytes"] += counts["bytes"]
        if func == "fit_mle":
            fits.append((duration, counts["evals"], counts["boundary"]))
    ops = list(per_op.values())

    def per_op_total(funcs, scale):
        return _median([sum(o["time"].get(f, 0.0) for f in funcs) * scale for o in ops])

    def self_of(span_name, scale):
        return _median([o["self"].get(span_name, 0.0) * scale for o in ops])

    values = {
        "montecarlo.self_ms": self_of("montecarlo.run_one_replication", 1e3),
        "model.solve_backward_ms": per_op_total(("solve_backward",), 1e3),
        "model.solve_backward_calls": _median(
            [o["calls"].get("solve_backward", 0) for o in ops]),
        "simulation.simulate_panel_s": per_op_total(("simulate_panel",), 1.0),
        "simulation.agents_per_s": _median(
            [o["agents"] / o["time"]["simulate_panel"] for o in ops
             if o["time"].get("simulate_panel")]),
        "simulation.counts_ms": per_op_total(("empirical_ccps", "estimate_transitions"), 1e3),
        "estimation.fit_mle_s": _median([f[0] for f in fits]),
        "estimation.fit_evals": _median([f[1] for f in fits]),
        "estimation.eval_us": _median([f[0] / f[1] * 1e6 for f in fits if f[1]]),
        "estimation.boundary_fits_pct": (100.0 * sum(f[2] for f in fits) / len(fits)
                                         if fits else 0.0),
        "identification.identify_model_ms": per_op_total(("identify_model",), 1e3),
        "identification.check_model_ms": per_op_total(("check_model",), 1e3),
        "identification.assemble_system_ms": per_op_total(
            ("assemble_system", "assemble_system_macro"), 1e3),
        "identification.solve_discounts_ms": per_op_total(
            ("solve_discounts", "solve_discounts_macro"), 1e3),
        "identification.identify_from_estimates_ms": per_op_total(
            ("identify_from_estimates",), 1e3),
        "fileio.write_panel_csv_s": per_op_total(("write_panel_csv",), 1.0),
        "fileio.read_panel_csv_s": per_op_total(("read_panel_csv",), 1.0),
        "fileio.panel_csv_mb": _median([o["bytes"] / 1e6 for o in ops]),
        "cli.self_ms": self_of("cli.main", 1e3),
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = _median(
            [100.0 * o["self"].get(layer, 0.0) / o["duration"] for o in ops])
    traced = _median([o["duration"] for o in ops])
    untraced = _median(untraced_op_seconds)
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0) if untraced else 0.0

    out = {}
    for name, (unit, funcs) in METRICS.items():
        if funcs and not set(funcs) & set(wrapped):
            continue
        out[name] = {"value": values[name], "unit": unit}
    return out
