"""Command line interface.

Subcommands: simulate, identify, estimate, montecarlo, check.  Every
run that writes files also writes exactly one manifest next to them
recording the resolved configuration, inputs, outputs, seed, version
and wall-clock duration.

Exit codes: 0 success, 1 I/O failure, 2 validation failure,
3 assumption violation, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
import time

from . import __version__, fileio
from .estimation import fit_mle
from .exceptions import (
    AssumptionViolationError,
    EmptySummaryError,
    InsufficientDataError,
    InvalidInputError,
    NonConvergenceError,
)
from .identification import (
    MODE_CONSTRAINED_LS,
    MODE_RIGHT_INVERSE,
    _validate_macro,
    check_model,
    identify_from_estimates,
    identify_model,
)
from .montecarlo import run_replications, summarize
from .simulation import empirical_ccps, estimate_transitions, simulate_panel
from .model import _as_float_array, solve_backward

SEED_ENV_VAR = "HYPERDISC_SEED"

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_ASSUMPTION = 3
EXIT_NONCONVERGENCE = 4

_MODE_FLAGS = {"right-inverse": MODE_RIGHT_INVERSE,
               "constrained-ls": MODE_CONSTRAINED_LS}


def _version() -> str:
    """The installed distribution's version; the package's own
    ``__version__`` when it runs from a source checkout."""
    from importlib import metadata

    try:
        return metadata.version("hyperdisc")
    except metadata.PackageNotFoundError:
        return __version__


def _resolve_seed(arg_seed):
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 0


def _available_cpus() -> int:
    """CPUs this process may run on, not all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _manifest(subcommand, config, inputs, outputs, seed, started):
    return {
        "subcommand": subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "tool_version": _version(),
        "duration_seconds": time.perf_counter() - started,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _parse_anchor(text):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidInputError("--anchor must be action,state,value")
    try:
        action, state = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(
            f"--anchor action and state must be integers, got {text!r}"
        ) from None
    return action, state, float(_as_float_array(parts[2], "--anchor value"))


def _parse_pairs(text):
    """``k,l,x1,x2`` groups joined by ``;``, as int tuples whose length and
    range are checked where the pairs are used."""
    if text is None:
        return None
    try:
        return tuple(tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";"))
    except ValueError:
        raise InvalidInputError(f"--pairs groups must be 4 integers, got {text!r}") from None


def _load_macro(path):
    if path is None:
        return None
    data = fileio.load_json(path)
    if isinstance(data, dict):
        if "macro_transitions" not in data:
            raise InvalidInputError(f"{path}: JSON object has no 'macro_transitions' key")
        data = data["macro_transitions"]
    return _validate_macro(data)


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args.seed)
    model = fileio.load_model(args.model)
    solution = solve_backward(model)
    panel = simulate_panel(model, solution, args.agents, seed=seed)
    fileio.write_panel_csv(panel, args.out)
    fileio.save_json(
        _manifest("simulate",
                  {"agents": args.agents},
                  {"model": str(args.model)},
                  [str(args.out)],
                  seed, started),
        f"{args.out}.manifest.json",
    )
    return EXIT_OK


def cmd_identify(args) -> int:
    started = time.perf_counter()
    model = fileio.load_model(args.model)
    anchor = _parse_anchor(args.anchor)
    pairs = _parse_pairs(args.pairs)
    macro = _load_macro(args.macro)
    # the macro system's per-period columns coincide under invariant
    # CCPs, so the structured fit is the sensible default there
    mode_flag = args.mode or ("constrained-ls" if macro is not None
                              else "right-inverse")
    mode = _MODE_FLAGS[mode_flag]

    if args.panel is None:
        result = identify_model(model, mode=mode, rank_tol=args.rank_tol,
                                anchor=anchor, macro_transitions=macro, pairs=pairs)
        inputs = {"model": str(args.model)}
    else:
        panel = fileio.read_panel_csv(args.panel)
        ccps = empirical_ccps(panel, model.num_states, model.num_actions)
        f_hat = estimate_transitions(panel, model.num_states, model.num_actions)
        result = identify_from_estimates(
            ccps.counts, f_hat,
            pairs if pairs is not None else model.equality_pairs,
            mode=mode, rank_tol=args.rank_tol, anchor=anchor,
            macro_transitions=macro,
        )
        inputs = {"model": str(args.model), "panel": str(args.panel)}

    report = fileio.identification_report(result)
    fileio.save_json(report, args.out)
    fileio.save_json(
        _manifest("identify",
                  {"mode": mode_flag, "rank_tol": args.rank_tol,
                   "macro": args.macro and str(args.macro)},
                  inputs, [str(args.out)], None, started),
        f"{args.out}.manifest.json",
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    started = time.perf_counter()
    panel = fileio.read_panel_csv(args.panel)
    spec, config = fileio.load_estimation_config(args.config)
    f_hat = estimate_transitions(panel, spec.num_states, spec.num_actions)
    result = fit_mle(panel, spec, f_hat, config)
    fileio.save_json(fileio.mle_report(result), args.out)
    fileio.save_json(
        _manifest("estimate",
                  {"config": str(args.config)},
                  {"panel": str(args.panel)},
                  [str(args.out)], None, started),
        f"{args.out}.manifest.json",
    )
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    started = time.perf_counter()
    raw = fileio.load_json(args.config)
    config = fileio.mc_config_from_dict(raw)
    overrides = {}
    if args.reps is not None:
        overrides["n_replications"] = args.reps
    if args.jobs is not None:
        overrides["n_jobs"] = args.jobs
    elif "jobs" not in raw:
        overrides["n_jobs"] = _available_cpus()
    if args.seed is not None:
        overrides["base_seed"] = _resolve_seed(args.seed)
    if overrides:
        config = dataclasses.replace(config, **overrides)

    os.makedirs(args.out, exist_ok=True)
    estimates = run_replications(config)
    summary = summarize(estimates, true_values=config.true_values())
    summary_csv = os.path.join(args.out, "summary.csv")
    summary_txt = os.path.join(args.out, "summary.txt")
    estimates_csv = os.path.join(args.out, "estimates.csv")
    fileio.write_summary_csv(summary, summary_csv)
    with open(summary_txt, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary.render_text())
    fileio.write_estimates_csv(estimates, estimates_csv)
    fileio.save_json(
        _manifest("montecarlo",
                  dataclasses.asdict(config),
                  {"config": str(args.config)},
                  [summary_csv, summary_txt, estimates_csv],
                  config.base_seed, started),
        os.path.join(args.out, "manifest.json"),
    )
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    model = fileio.load_model(args.model)
    macro = _load_macro(args.macro)
    report = check_model(model, rank_tol=args.rank_tol, macro_transitions=macro)
    all_passed = all(entry["passed"] for entry in report.values())
    document = {"assumptions": report, "all_passed": all_passed}
    if args.out:
        fileio.save_json(document, args.out)
        fileio.save_json(
            _manifest("check",
                      {"rank_tol": args.rank_tol, "macro": args.macro and str(args.macro)},
                      {"model": str(args.model)},
                      [str(args.out)], None, started),
            f"{args.out}.manifest.json",
        )
    else:
        json.dump(fileio._jsonable(document), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK if all_passed else EXIT_ASSUMPTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdisc",
        description="Finite-horizon discrete choice with present-biased discounting: "
                    "simulate, identify, estimate, replicate, check.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="simulate a panel from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"falls back to ${SEED_ENV_VAR}, then 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="closed-form discount recovery")
    p.add_argument("--model", required=True)
    p.add_argument("--panel", default=None,
                   help="empirical mode: estimate CCPs/transitions from this panel")
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default=None,
                   help="default: right-inverse, or constrained-ls with --macro")
    p.add_argument("--macro", default=None,
                   help="JSON file with the auxiliary-state transition matrix")
    p.add_argument("--rank-tol", type=float, default=1e-10)
    p.add_argument("--anchor", default=None, help="action,state,value")
    p.add_argument("--pairs", default=None, help="k,l,x1,x2[;k,l,x1,x2...]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("estimate", help="two-step maximum likelihood on a panel")
    p.add_argument("--panel", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("montecarlo", help="replication study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: available cores)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("check", help="report on the identification conditions")
    p.add_argument("--model", required=True)
    p.add_argument("--macro", default=None)
    p.add_argument("--rank-tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as err:
        print(f"error: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AssumptionViolationError, InsufficientDataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (NonConvergenceError, EmptySummaryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
