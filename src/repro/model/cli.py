"""``python -m repro model`` — fit, validate and query the cost model.

Four subcommands around ``benchmarks/results/cost_model.json`` (the
``cost_model`` document of :mod:`repro.artifacts`; ``python -m repro
bench cost_model --check`` is its staleness gate):

* ``fit`` — run the seeded training grid, fit, score the held-out
  cells and (gate permitting) write the artifact.  CI nightly refits
  with a rotating ``--holdout-seed``.
* ``validate`` — independently re-simulate the checked-in artifact's
  held-out cells and re-score them against ``--max-error``.
* ``predict`` — print one cell's predicted phase breakdown (pure
  arithmetic; flags extrapolation outside the training range).
* ``bench`` — predict the campaign-scale grid and audit a seeded sample
  of cells against the simulator; exit status is the spot-check verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List

from repro import artifacts
from repro.model import fit as fit_mod
from repro.model.features import CellSpec
from repro.model.predict import (
    CostModel,
    ModelSchemaError,
    format_model_bench,
    load_model,
    run_model_bench,
)
from repro.model.validate import format_validation, validate_model
from repro.parallel.engine import WorkerCrash, resolve_jobs


def _progress(done: int, total: int, label: str) -> None:
    print(f"[{done}/{total}] {label}", file=sys.stderr)


def _cmd_fit(args: argparse.Namespace) -> int:
    jobs = resolve_jobs(args.jobs)
    params = dataclasses.replace(
        artifacts.CostModelParams(), seed=args.seed, holdout_seed=args.holdout_seed
    )
    try:
        doc = artifacts.run(
            "cost_model", params, jobs=jobs,
            progress=_progress if jobs > 1 else None,
        )
    except WorkerCrash as exc:
        print(f"model fit failed: {exc}", file=sys.stderr)
        return 1
    print(fit_mod.format_fit(doc))
    if doc["validation"]["geomean_rel_error"] > args.max_error:
        print(
            f"model fit: geomean rel error exceeds the "
            f"--max-error gate ({args.max_error * 100:.1f}%) — artifact "
            "not written",
            file=sys.stderr,
        )
        return 1
    for written in artifacts.write("cost_model", doc, args.out):
        print(f"wrote {written}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    jobs = resolve_jobs(args.jobs)
    try:
        doc = run_model_bench(jobs=jobs, progress=_progress if jobs > 1 else None)
    except (FileNotFoundError, ModelSchemaError, WorkerCrash) as exc:
        print(f"model bench failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        artifacts.write_json(args.out, doc)
        print(f"wrote {args.out}")
    print(format_model_bench(doc))
    return 0 if doc["spot_check"]["ok"] else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        model = load_model(args.model_path)
    except FileNotFoundError:
        print(
            f"model validate: no artifact at {args.model_path}",
            file=sys.stderr,
        )
        return 1
    except ModelSchemaError as exc:
        print(f"model validate: {exc}", file=sys.stderr)
        return 1
    jobs = resolve_jobs(args.jobs)
    try:
        report = validate_model(
            model,
            jobs=jobs,
            progress=_progress if jobs > 1 else None,
            max_error=args.max_error,
        )
    except WorkerCrash as exc:
        print(f"model validate failed: {exc}", file=sys.stderr)
        return 1
    print(format_validation(report))
    if args.json:
        artifacts.write_json(args.json, report)
        print(f"wrote {args.json}")
    return 0 if report["ok"] else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    try:
        model: CostModel = load_model(args.model_path)
    except FileNotFoundError:
        print(
            f"model predict: no artifact at {args.model_path}",
            file=sys.stderr,
        )
        return 1
    except ModelSchemaError as exc:
        print(f"model predict: {exc}", file=sys.stderr)
        return 1
    spec = CellSpec(args.workload, args.scheme, args.ops, args.value_bytes)
    try:
        predicted = model.predict_cell(spec)
    except KeyError as exc:
        print(f"model predict: {exc.args[0]}", file=sys.stderr)
        return 1
    flag = "  (EXTRAPOLATED — outside the training range)" \
        if predicted["extrapolated"] else ""
    print(f"{spec.key}{flag}")
    for phase, cycles in predicted["phases"].items():
        print(f"  {phase:<16} {cycles:>16,.1f}")
    print(f"  {'total cycles':<16} {predicted['cycles']:>16,.1f}")
    print(f"  {'pm_bytes':<16} {predicted['pm_bytes']:>16,.1f}")
    return 0


def model_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro model",
        description="Fit / validate / query the analytical cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="run the training grid, fit, gate, write the artifact"
    )
    defaults = artifacts.CostModelParams()
    p_fit.add_argument("--seed", type=int, default=defaults.seed)
    p_fit.add_argument(
        "--holdout-seed", type=int, default=defaults.holdout_seed,
        help="rotates which grid points are held out of the fit "
        "(CI nightly passes a date-derived seed)",
    )
    p_fit.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the training grid (default REPRO_JOBS)",
    )
    p_fit.add_argument(
        "--out", default=fit_mod.DEFAULT_MODEL_PATH,
        help=f"artifact path (default {fit_mod.DEFAULT_MODEL_PATH})",
    )
    p_fit.add_argument(
        "--max-error", type=float, default=fit_mod.DEFAULT_MAX_ERROR,
        help="held-out geomean relative-error gate; the artifact is "
        "only written when it passes (default 0.05)",
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_val = sub.add_parser(
        "validate",
        help="re-simulate the artifact's held-out cells and re-score",
    )
    p_val.add_argument(
        "--model-path", default=fit_mod.DEFAULT_MODEL_PATH
    )
    p_val.add_argument("--jobs", type=int, default=None)
    p_val.add_argument(
        "--max-error", type=float, default=fit_mod.DEFAULT_MAX_ERROR
    )
    p_val.add_argument("--json", help="write the report document here")
    p_val.set_defaults(func=_cmd_validate)

    p_pred = sub.add_parser(
        "predict", help="predict one cell's phase breakdown"
    )
    p_pred.add_argument(
        "--model-path", default=fit_mod.DEFAULT_MODEL_PATH
    )
    p_pred.add_argument("--workload", default="hashtable")
    p_pred.add_argument("--scheme", default="SLPMT")
    p_pred.add_argument("--ops", type=int, default=300)
    p_pred.add_argument("--value-bytes", type=int, default=256)
    p_pred.set_defaults(func=_cmd_predict)

    p_bench = sub.add_parser(
        "bench",
        help="predict the campaign grid, spot-check it against the simulator",
    )
    p_bench.add_argument("--jobs", type=int, default=None)
    p_bench.add_argument("--out", help="write the prediction document here")
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)
