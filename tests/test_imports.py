"""SciPy and multiprocessing stay off the import path.

Only ``fit_mle`` and parallel Monte Carlo runs need them, so importing
the package, running ``simulate``, ``identify`` (exact and ``--panel``)
and ``check``, solving a model with ``check=True`` and evaluating one
log likelihood must not load them.  pytest itself has SciPy loaded, so
the check runs in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import hyperdisc

MODEL = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples" / "model.json"

# Prints, after each stage, the heavy modules loaded so far.
SCRIPT = r"""
import json, os, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing")
                  or m == "concurrent.futures.process")

stages = {}
import hyperdisc, hyperdisc.cli
stages["import"] = heavy()

model, out = sys.argv[1], sys.argv[2]
panel = os.path.join(out, "panel.csv")
codes = [
    hyperdisc.cli.main(["simulate", "--model", model, "--agents", "500",
                        "--seed", "7", "--out", panel]),
    hyperdisc.cli.main(["identify", "--model", model, "--panel", panel,
                        "--out", os.path.join(out, "identify.json")]),
    hyperdisc.cli.main(["identify", "--model", model,
                        "--out", os.path.join(out, "identify_exact.json")]),
    hyperdisc.cli.main(["check", "--model", model,
                        "--out", os.path.join(out, "check.json")]),
]
stages["cli"] = heavy()
hyperdisc.solve_backward(hyperdisc.fileio.load_model(model), check=True)
stages["solve_check"] = heavy()

import hyperdisc.estimation
from hyperdisc import fileio
data = fileio.read_panel_csv(panel)
spec = hyperdisc.UtilitySpec(form="free_table", num_actions=2, num_states=2)
f_hat = hyperdisc.estimate_transitions(data, 2, 2)
loglik = hyperdisc.estimation.log_likelihood(data, spec, [0.0, -1.0], 0.8, 0.6, f_hat)
stages["loglik"] = heavy()
config = hyperdisc.MleConfig(starts=(([0.0, -1.0], 0.8, 0.6),))
fit = hyperdisc.fit_mle(data, spec, f_hat, config)
print(json.dumps({"stages": stages, "codes": codes, "loglik": loglik,
                  "fit_converged": fit.per_start[0].converged,
                  "optimize_loaded": "scipy.optimize" in sys.modules}))
"""


def test_import_and_data_commands_leave_scipy_and_multiprocessing_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperdisc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(MODEL), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["stages"] == {"import": [], "cli": [], "solve_check": [], "loglik": []}
    assert report["loglik"] < 0.0
    assert report["codes"] == [0, 0, 0, 0]
    # the fit still works and loads the optimizer where it is used
    assert report["fit_converged"]
    assert report["optimize_loaded"]
