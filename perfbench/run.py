"""Benchmark of hyperdisc: three seeded workloads, checked outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded process (``worker.py``)
that imports ``hyperdisc`` from this checkout's ``src/``.  The outputs
are checked here, in a process that never imports ``hyperdisc``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``setup_s``, ``op_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics from the spans instead.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(HERE, "out")

WORKLOADS = ("mc_replication", "panel_pipeline", "identify_sweep")
# Set-up is measured this many times per run: spare processes that stop
# after set-up, plus the measuring process itself.
SETUP_SAMPLES = 5
# A workload process gets this long beyond --seconds before it is killed.
GRACE_SECONDS = 150

SINGLE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}


class WorkerError(RuntimeError):
    """A workload process exited abnormally."""


def _spawn(args, timeout):
    env = dict(os.environ, **SINGLE_THREAD)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args,
         "--spawned-at", repr(spawned)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerError(f"workload process exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return proc.stdout


def run_workload(name, seed, seconds, trace):
    """Run one workload; return ``(result dict, list of problems)``."""
    out = os.path.join(OUT_ROOT, f"{name}-{seed}-{'trace' if trace else 'plain'}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    common = ["--workload", name, "--seed", str(seed), "--out", out]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        line = _spawn([*common, "--seconds", "0", "--setup-only"], GRACE_SECONDS)
        setups.append(json.loads(line.strip().splitlines()[-1])["setup_s"])
    _spawn([*common, "--seconds", str(seconds), "--trace", str(int(trace))],
           seconds + GRACE_SECONDS)
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    with open(os.path.join(out, "outputs.jsonl"), encoding="utf-8") as fh:
        outputs = {line["op"]: line["output"] for line in map(json.loads, fh)}
    for rec in result["ops"]:
        rec["output"] = outputs[rec["op"]]

    records = result["ops"]
    if name == "mc_replication":
        problems = checks.check_mc(records)
    elif name == "panel_pipeline":
        problems = checks.check_panel(seed, records, result["post"])
    else:
        problems = checks.check_sweep(seed, records)
    for rec in records:  # the panels are large and already checked
        for key in ("panel", "report"):
            path = rec["output"].get(key)
            if path and os.path.exists(path):
                os.remove(path)
    rerun = result["post"].get("rerun")
    if rerun and os.path.exists(rerun):
        os.remove(rerun)
    result["out"] = out
    return result, problems


def end_to_end(result):
    plain = [r["seconds"] for r in result["ops"] if r["ok"] and not r["traced"]]
    return {
        "setup_s": {"value": statistics.median(result["setup_samples"]), "unit": "s"},
        "op_s": {"value": statistics.median(plain) if plain else float("nan"),
                 "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result):
    spans = tracer.read_spans(os.path.join(result["out"], "spans.jsonl"))
    plain = [r["seconds"] for r in result["ops"] if r["ok"] and not r["traced"]]
    return tracer.layer_metrics(spans, plain, result["wrapped"])


def summary_line(name, result, metrics):
    ops = result["ops"]
    n_ok = sum(r["ok"] and not r["traced"] for r in ops)
    parts = [f"{key} {m['value']:.4g} {m['unit']}" for key, m in metrics.items()]
    return (f"{name}: {', '.join(parts)}; op_s is the median of {n_ok} untraced "
            f"operations; attempted {len(ops)}, failed {sum(not r['ok'] for r in ops)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "hyperdisc")):
        print(f"error: no hyperdisc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    exit_code = 0
    for name in names:
        try:
            result, problems = run_workload(name, args.seed, args.seconds, args.trace)
        except (WorkerError, subprocess.TimeoutExpired) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        metrics = end_to_end(result) if not args.trace else per_layer(result)
        for problem in problems:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        for rec in result["ops"]:
            if not rec["ok"]:
                print(f"{name}: operation {rec['op']} failed: {rec['output']}",
                      file=sys.stderr)
        if args.trace and result["missing"]:
            print(f"{name}: no longer in the library, left untraced: "
                  f"{', '.join(result['missing'])}", file=sys.stderr)
        print(summary_line(name, result, metrics))
        print(json.dumps({
            "correct": not problems,
            "attempted": len(result["ops"]),
            "failed": sum(not r["ok"] for r in result["ops"]),
            "metrics": metrics,
        }))
        if problems:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
