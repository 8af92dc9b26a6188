"""One workload in its own process: set up, run timed operations, record.

Started by ``run.py``; not meant to be run by hand.  The process imports
``hyperdisc`` from the checkout's ``src/``, builds the workload's seeded
inputs, then repeats whole rounds of operations for about ``--seconds``.
With ``--trace 1`` every operation input runs twice, once bare and once
under the tracer, alternating which goes first.  Wall times and the
peak resident memory go to ``result.json`` in ``--out``, the outputs
the checks need to ``outputs.jsonl``, and the spans, if any, to
``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_hyperdisc():
    sys.path.insert(0, SRC)
    import hyperdisc
    import hyperdisc.cli
    import hyperdisc.fileio
    if not os.path.abspath(hyperdisc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hyperdisc was imported from {hyperdisc.__file__}, "
                         f"not from {SRC}")
    return hyperdisc


# Each workload runs ``op(k, i)`` for the inputs ``i`` of one round,
# ``0 .. round_size - 1``, in whole rounds; ``k`` numbers the operation.

class McReplication:
    """One replication of a fixed, seeded block per operation, serially."""

    def __init__(self, hyperdisc, seed, out):
        d = inputs.MC_DESIGN
        self.montecarlo = hyperdisc.montecarlo
        self.config = hyperdisc.montecarlo.McConfig(
            num_states=d["num_states"], num_actions=d["num_actions"],
            horizon=d["horizon"], alpha0=d["alpha0"], alpha1=d["alpha1"],
            beta=d["beta"], delta=d["delta"], base_seed=d["base_seed"],
            sample_sizes=(inputs.MC_SAMPLE_SIZE,), n_replications=1)
        self.replications = inputs.mc_replications(seed)
        self.round_size = len(self.replications)

    def op(self, k, i):
        r = self.replications[i]
        est = self.montecarlo.run_one_replication(self.config, r, inputs.MC_SAMPLE_SIZE)
        out = {name: getattr(est, name) for name in
               ("alpha0", "alpha1", "beta", "delta", "loglik", "error")}
        out["replication"] = r
        return out  # an error marker is for the checks to reject

    def post(self):
        return {}


class PanelPipeline:
    """``hyperdisc simulate`` then ``hyperdisc identify --panel``, in process."""

    round_size = 1

    def __init__(self, hyperdisc, seed, out):
        self.cli = hyperdisc.cli
        self.sim_seed = inputs.panel_seed(seed)
        self.out = out
        self.model_path = os.path.join(out, "model.json")
        with open(self.model_path, "w", encoding="utf-8") as fh:
            json.dump(inputs.panel_model(seed), fh)

    def simulate(self, path):
        return self.cli.main(["simulate", "--model", self.model_path,
                              "--agents", str(inputs.PANEL_AGENTS),
                              "--seed", str(self.sim_seed), "--out", path])

    def op(self, k, i):
        panel = os.path.join(self.out, f"panel_{k}.csv")
        report = os.path.join(self.out, f"report_{k}.json")
        out = {"panel": panel, "report": report,
               "simulate_rc": self.simulate(panel), "identify_rc": None}
        if out["simulate_rc"] == 0:
            out["identify_rc"] = self.cli.main(
                ["identify", "--model", self.model_path, "--panel", panel,
                 "--mode", "constrained-ls", "--out", report])
        return out  # a non-zero exit is for the checks to reject

    def post(self):
        """Simulate the first operation's panel again, untimed."""
        rerun = os.path.join(self.out, "panel_rerun.csv")
        rc = self.simulate(rerun)
        return {"rerun": rerun, "rerun_rc": rc,
                "rerun_of": os.path.join(self.out, "panel_0.csv")}


class IdentifySweep:
    """Exact-CCP identification over a fixed, seeded set of models."""

    round_size = 1

    def __init__(self, hyperdisc, seed, out):
        self.identification = hyperdisc.identification
        self.cases = [(hyperdisc.fileio.model_from_dict(model), np.asarray(macro),
                       right_inverse)
                      for model, macro, right_inverse in inputs.sweep_cases(seed)]

    def op(self, k, i):
        idf = self.identification
        results = []
        for spec, macro, right_inverse in self.cases:
            fits = {
                "constrained": idf.identify_model(spec, mode="constrained_ls"),
                "macro": idf.identify_model(spec, mode="constrained_ls",
                                            macro_transitions=macro),
            }
            if right_inverse:
                fits["right_inverse"] = idf.identify_model(
                    spec, mode="paper_right_inverse",
                    rank_tol=inputs.RIGHT_INVERSE_GATE)
            report = idf.check_model(spec)
            entry = {key: {"beta": r.beta_hat, "delta": r.delta_hat,
                           "in_range": r.in_range,
                           "utilities": r.utilities_hat.tolist()}
                     for key, r in fits.items()}
            entry["check"] = {c: bool(v["passed"]) for c, v in report.items()}
            results.append(entry)
        return {"models": results}

    def post(self):
        return {}


WORKLOADS = {
    "mc_replication": McReplication,
    "panel_pipeline": PanelPipeline,
    "identify_sweep": IdentifySweep,
}


def run_ops(workload, seconds, tracer, outputs):
    """Whole rounds of operations, as many as come nearest to ``seconds``;
    at least one.

    Every run attempts the same operations, each the same number of
    times, however fast the code runs.  Each operation's output goes to
    ``outputs`` as a JSON line as soon as it is timed, so the process
    holds no more memory after many operations than after one.
    """
    records = []
    k = n_inputs = rounds = 0
    started = time.perf_counter()
    while True:
        for i in range(workload.round_size):
            if tracer is None:
                order = (False,)
            else:
                order = (False, True) if n_inputs % 2 == 0 else (True, False)
            n_inputs += 1
            for traced in order:
                scope = tracer.recording(k) if traced else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with scope:
                        out = workload.op(k, i)
                    ok = True
                except Exception:  # the operation failed; count it and go on
                    ok, out = False, {"traceback": traceback.format_exc()}
                records.append({"op": k, "input": i, "traced": traced, "ok": ok,
                                "seconds": time.perf_counter() - t0})
                outputs.write(json.dumps({"op": k, "output": out}) + "\n")
                k += 1
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return records


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hyperdisc = import_hyperdisc()
    workload = WORKLOADS[args.workload](hyperdisc, args.seed, args.out)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    with open(os.path.join(args.out, "outputs.jsonl"), "w", encoding="utf-8") as fh:
        records = run_ops(workload, args.seconds, tracer, fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops": records,
              "post": workload.post()}
    if tracer is not None:
        tracer.write(os.path.join(args.out, "spans.jsonl"))
        result["wrapped"] = sorted(tracer.wrapped)
        result["missing"] = tracer.missing
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
