"""``python -m repro fuzz`` — the crash-campaign CLI.

Usage::

    python -m repro fuzz [single] --budget 200 --seed 7   # single-core
    python -m repro fuzz --workloads hashtable,dlist --schemes SLPMT
    python -m repro fuzz --replay repro.json       # re-run a reproducer
    python -m repro fuzz --hazard-demo             # catch the §IV-A bug
    python -m repro fuzz fault                     # media-fault campaign
    python -m repro fuzz fault --fault-kinds torn-tail
    python -m repro fuzz multicore --cores 2,4 --thetas 0,0.9
    python -m repro fuzz service --batches 1,8 --schemes SLPMT
    python -m repro fuzz twopc --shards 2,3 --schemes SLPMT

The positional argument picks the campaign family (default
``single``; see :data:`repro.fuzz.kernel.FAMILIES`).  A campaign writes
its table to ``benchmarks/results/<family report>`` (override with
``--out``) and exits 1 when any invariant violation was found; every
violation of a family with reproducer hooks is shrunk to a minimal
reproducer saved as ``<prefix>_repro_<n>.json`` next to the report.
Bad input — an option that does not apply to the family, a workload it
cannot build, an unknown scheme — exits 2 with one line, before any
cell runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from repro.common.errors import ReproError
from repro.fuzz.campaign import FuzzCell
from repro.fuzz.kernel import FAMILIES, Family, format_report, run_campaign
from repro.fuzz.minimize import Reproducer, minimize, replay
from repro.parallel.engine import WorkerCrash, resolve_jobs

RESULTS_DIR = os.path.join("benchmarks", "results")


class UsageError(Exception):
    """Fuzz CLI input that names no runnable campaign."""


def _progress(done: int, total: int, label: str) -> None:
    print(f"[{done}/{total}] {label}", file=sys.stderr)


def _csv(kind, low: float):
    """Comma-separated values of *kind*, each at least *low*."""

    def parse(text: str, flag: str) -> List[Any]:
        try:
            values = [kind(v.strip()) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"bad {flag} value: {exc}")
        if not values or any(v < low for v in values):
            raise UsageError(f"{flag} needs values of at least {low:g}")
        return values

    return parse


def _fault_kinds(text: str, flag: str) -> List[str]:
    from repro.faults import FAULT_KINDS

    kinds = [k.strip() for k in text.split(",")]
    unknown = set(kinds) - set(FAULT_KINDS)
    if unknown:
        raise UsageError(f"unknown fault kind(s): {sorted(unknown)}")
    return kinds


#: Parsers of the family-specific grid axes, by argparse dest.
_GRID_AXES = {
    "fault_kinds": _fault_kinds,
    "cores": _csv(int, 1),
    "thetas": _csv(float, 0),
    "batches": _csv(int, 1),
    "shards": _csv(int, 2),
}

#: Every family-specific option, by argparse dest.
_FAMILY_OPTIONS = ("ops", "num_keys", "duration", *_GRID_AXES)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Deterministic crash-consistency fuzzing campaigns.",
    )
    parser.add_argument("family", nargs="?", default="single",
                        choices=sorted(FAMILIES),
                        help="campaign family (default single)")
    parser.add_argument("--budget", type=int, default=None,
                        help="crash cases per cell (default per family: "
                             + ", ".join(f"{f.name} {f.budget}"
                                         for f in FAMILIES.values()) + ")")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign RNG seed (default 7)")
    parser.add_argument("--value-bytes", type=int, default=32,
                        help="value payload size (default 32)")
    parser.add_argument("--workloads", type=str, default=None,
                        help="comma-separated subject filter")
    parser.add_argument("--schemes", type=str, default=None,
                        help="comma-separated scheme filter")
    parser.add_argument("--out", type=str, default=None,
                        help="report path (default benchmarks/results/"
                             "<family>_campaign.txt)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the cell sweep "
                             "(default REPRO_JOBS or 1); the report is "
                             "byte-identical to a serial campaign")
    parser.add_argument("--replay", type=str, default=None, metavar="FILE",
                        help="re-run a JSON reproducer instead of a campaign")
    parser.add_argument("--hazard-demo", action="store_true",
                        help="single: run the deliberately mis-annotated "
                             "tombstone cell (Section IV-A) and shrink its "
                             "violation")
    parser.add_argument("--ops", type=int, default=None,
                        help="single/fault: operations per cell (default "
                             "10); multicore: operations per core (default 10)")
    parser.add_argument("--fault-kinds", type=str, default=None,
                        help="fault: comma-separated fault kinds "
                             "(torn-tail,bit-flip,drop-drains)")
    parser.add_argument("--cores", type=str, default=None,
                        help="multicore: comma-separated core counts "
                             "(default 1,2,4)")
    parser.add_argument("--thetas", type=str, default=None,
                        help="multicore: comma-separated zipfian skews "
                             "(default 0,0.9)")
    parser.add_argument("--num-keys", type=int, default=None,
                        help="multicore: shared key-population size "
                             "(default 16)")
    parser.add_argument("--batches", type=str, default=None,
                        help="service: comma-separated group-commit batch "
                             "sizes (default 1,8)")
    parser.add_argument("--duration", type=int, default=None,
                        metavar="CYCLES",
                        help="service: clients submit until the simulated "
                             "clock passes CYCLES instead of a fixed "
                             "request count")
    parser.add_argument("--shards", type=str, default=None,
                        help="twopc: comma-separated shard counts, each at "
                             "least 2 (default 2,3)")
    return parser


def _replay_main(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = Reproducer.from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read reproducer: {exc}")
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"{path} is not a valid reproducer file: {exc}")
    result = replay(rep)
    print(f"replaying {path}: {rep.workload}/{rep.scheme}/{rep.policy} "
          f"@{rep.crash_kind}:{rep.crash_point} ({len(rep.ops)} ops)")
    if result.violation is None:
        print("no violation reproduced (expected: "
              f"[{rep.check}] {rep.violation})")
        return 1
    print(f"reproduced [{result.check}] {result.violation}")
    if result.violation != rep.violation or result.check != rep.check:
        print(f"MISMATCH: file records [{rep.check}] {rep.violation}")
        return 1
    print("violation matches the reproducer byte-for-byte")
    return 0


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _names(text: Optional[str]) -> Optional[List[str]]:
    return None if text is None else [n.strip() for n in text.split(",")]


def _select(family: Family, args: argparse.Namespace):
    """Validate the command line against *family*: returns ``(cells,
    params)`` or raises :class:`UsageError` naming the bad input."""
    from repro.core.schemes import scheme_by_name

    own = set(family.axes) | set(family.axis_params)
    for dest in _FAMILY_OPTIONS:
        if getattr(args, dest) is not None and dest not in own:
            raise UsageError(
                f"{_flag(dest)} does not apply to the {family.name} family"
            )
    if args.hazard_demo and family.name != "single":
        raise UsageError(f"--hazard-demo does not apply to the {family.name} family")
    workloads = _names(args.workloads)
    unknown = sorted(set(workloads or ()) - set(family.subjects))
    if unknown:
        raise UsageError(
            f"the {family.name} family cannot build workload(s) {unknown}"
        )
    schemes = _names(args.schemes)
    for scheme in schemes or ():
        try:
            scheme_by_name(scheme)
        except ReproError:
            raise UsageError(f"unknown scheme {scheme!r}")
    axes = {
        dest: default if getattr(args, dest) is None
        else _GRID_AXES[dest](getattr(args, dest), _flag(dest))
        for dest, default in family.axes.items()
    }
    params: Dict[str, Any] = {"value_bytes": args.value_bytes}
    for dest, param in family.axis_params.items():
        if getattr(args, dest) is not None:
            params[param] = getattr(args, dest)
    cells = family.grid(workloads, schemes, axes)
    if not cells:
        raise UsageError("no cells selected")
    return cells, params


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _hazard_demo(
    args: argparse.Namespace, params: Dict[str, Any], out_dir: str
) -> int:
    result = run_campaign(
        "single", [FuzzCell("hashtable", "SLPMT", "manual-buggy-tombstone")],
        budget=args.budget, seed=args.seed, **params,
    )
    print(format_report(result))
    if not result.violations:
        print("hazard NOT caught — the campaign should have found the "
              "mis-annotated tombstone")
        return 1
    rep = minimize(Reproducer.from_violation(
        "single", result.violations[0], seed=args.seed, **result.params
    ))
    rep_path = os.path.join(out_dir, "fuzz_repro_hazard.json")
    _write(rep_path, rep.to_json())
    print(f"hazard caught: [{rep.check}] {rep.violation}")
    print(f"minimal reproducer ({len(rep.ops)} ops, "
          f"{rep.crash_kind} point {rep.crash_point}) -> {rep_path}")
    if replay(rep).violation == rep.violation:
        print("reproducer replays to the identical violation")
        return 0
    print("REPLAY MISMATCH")
    return 1


def _campaign_main(args: argparse.Namespace) -> int:
    family = FAMILIES[args.family]
    cells, params = _select(family, args)
    out = args.out or os.path.join(RESULTS_DIR, family.out)
    out_dir = os.path.dirname(out) or "."
    if args.hazard_demo:
        return _hazard_demo(args, params, out_dir)
    jobs = resolve_jobs(args.jobs)
    try:
        result = run_campaign(
            family.name, cells, budget=args.budget, seed=args.seed,
            jobs=jobs, progress=_progress if jobs > 1 else None, **params,
        )
    except WorkerCrash as exc:
        print(f"{family.name} campaign failed: {exc}", file=sys.stderr)
        return 2
    text = format_report(result)
    print(text, end="")
    _write(out, text)
    print(f"[report written to {out}]")
    if not result.violations:
        return 0
    if family.freeze is not None:
        prefix = family.out.replace("campaign.txt", "repro")
        for n, violation in enumerate(result.violations):
            rep = minimize(Reproducer.from_violation(
                family.name, violation, seed=args.seed, **result.params
            ))
            rep_path = os.path.join(out_dir, f"{prefix}_{n}.json")
            _write(rep_path, rep.to_json())
            print(f"[reproducer -> {rep_path}]")
    return 1


def fuzz_main(argv: "List[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.replay:
            return _replay_main(args.replay)
        return _campaign_main(args)
    except UsageError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
