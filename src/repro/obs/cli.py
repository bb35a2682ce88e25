"""The ``python -m repro obs`` and ``python -m repro bench`` front ends.

Observability subcommands::

    python -m repro obs stats --workload hashtable --scheme SLPMT
    python -m repro obs stats ... --json run.json     # diffable snapshot
    python -m repro obs hist  --workload rbtree --scheme FG+LG
    python -m repro obs trace --cores 4 --ops 50 --out trace.json
    python -m repro obs trace ... --jsonl events.jsonl
    python -m repro obs diff a.json b.json            # two-run diff
    python -m repro obs passivity                     # CI gate, exit 1 on drift

Registered result documents (see :mod:`repro.artifacts`)::

    python -m repro bench                    # run + print slpmt_ycsb
    python -m repro bench NAME --check       # gate NAME vs its pinned copy
    python -m repro bench NAME --update      # re-pin NAME
    python -m repro obs equivalence NAME     # serial == --jobs N (== pinned)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Tuple

from repro import artifacts
from repro.obs.run import observed_multicore_ycsb, observed_run
from repro.obs.trace import (
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.parallel.engine import WorkerCrash, resolve_jobs


def _progress(done: int, total: int, label: str) -> None:
    print(f"[{done}/{total}] {label}", file=sys.stderr)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="hashtable")
    parser.add_argument("--scheme", default="SLPMT")
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--value-bytes", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2023)


def _cmd_stats(args: argparse.Namespace) -> int:
    run = observed_run(
        args.workload,
        args.scheme,
        num_ops=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(run.to_doc(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
        return 0
    print(
        f"{args.workload}/{args.scheme}: {run.result.cycles:,} cycles, "
        f"{run.result.pm_bytes:,} PM bytes over {args.ops} ops"
    )
    print(run.result.stats.report(show_zero=args.show_zero))
    print(run.profiler.format())
    return 0


def _cmd_hist(args: argparse.Namespace) -> int:
    run = observed_run(
        args.workload,
        args.scheme,
        num_ops=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    print(f"{args.workload}/{args.scheme} distributions ({args.ops} ops)")
    header = f"{'histogram':<18} {'n':>8} {'mean':>12} {'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
    print(header)
    print("-" * len(header))
    for name, hist in sorted(run.profiler.histograms.items()):
        if hist.count == 0:
            continue
        s = hist.summary()
        print(
            f"{name:<18} {s['count']:>8} {s['mean']:>12} {s['p50']:>10} "
            f"{s['p95']:>10} {s['p99']:>10} {s['max']:>10}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    system = observed_multicore_ycsb(
        num_cores=args.cores,
        scheme=args.scheme,
        ops_per_core=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    doc = write_chrome_trace(
        args.out,
        system.tracers(),
        metadata={
            "scheme": args.scheme,
            "cores": args.cores,
            "ops_per_core": args.ops,
            "seed": args.seed,
        },
    )
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    merged = system.merged_profiler()
    print(
        f"wrote {args.out}: {len(doc['traceEvents'])} events from "
        f"{args.cores} cores ({system.total_commits()} commits, "
        f"{system.total_aborts()} aborts) — open in ui.perfetto.dev"
    )
    print(merged.format())
    if args.jsonl:
        write_jsonl(args.jsonl, system.tracers())
        print(f"wrote {args.jsonl}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    with open(args.a) as fh:
        a = artifacts.flatten(json.load(fh))
    with open(args.b) as fh:
        b = artifacts.flatten(json.load(fh))
    keys = sorted(set(a) | set(b))
    changed = 0
    for key in keys:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        changed += 1
        if (
            isinstance(va, (int, float))
            and isinstance(vb, (int, float))
            and va
        ):
            delta = f" ({(vb - va) / va * 100.0:+.2f}%)"
        else:
            delta = ""
        print(f"{key}: {va} -> {vb}{delta}")
    if changed == 0:
        print("identical")
    return 0


def _cmd_passivity(args: argparse.Namespace) -> int:
    """The CI gate: observability on vs off must be bit-identical."""
    if args.telemetry:
        return _cmd_passivity_telemetry(args)
    from repro.harness.runner import run_workload
    from repro.obs.profiler import CycleProfiler
    from repro.core.tracing import Tracer

    failures: List[str] = []
    for workload, scheme in (
        (args.workload, args.scheme),
        ("rbtree", "FG+LG"),
        ("heap", "EDE"),
    ):
        bare = run_workload(
            workload, _scheme(scheme), num_ops=args.ops,
            value_bytes=args.value_bytes, seed=args.seed,
        )
        profiler = CycleProfiler()
        observed = run_workload(
            workload, _scheme(scheme), num_ops=args.ops,
            value_bytes=args.value_bytes, seed=args.seed,
            tracer=Tracer(), profiler=profiler,
        )
        if bare.stats.as_dict() != observed.stats.as_dict():
            diffs = {
                k: (v, observed.stats.as_dict()[k])
                for k, v in bare.stats.as_dict().items()
                if observed.stats.as_dict()[k] != v
            }
            failures.append(f"{workload}/{scheme}: counters drifted {diffs}")
        elif bare.cycles != observed.cycles:
            failures.append(
                f"{workload}/{scheme}: cycles {bare.cycles} != {observed.cycles}"
            )
        elif profiler.total_cycles() != observed.cycles:
            failures.append(
                f"{workload}/{scheme}: phase buckets sum to "
                f"{profiler.total_cycles()}, cycles are {observed.cycles}"
            )
        else:
            print(
                f"passive: {workload}/{scheme} "
                f"({observed.cycles:,} cycles bit-identical, "
                f"buckets sum exactly)"
            )
    for failure in failures:
        print(f"PASSIVITY VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_passivity_telemetry(args: argparse.Namespace) -> int:
    """The windowed-telemetry / request-tracing CI gate.

    Three proofs, exit 1 if any fails:

    1. a service run with telemetry + a request tracer attached is
       bit-identical (cycles, SimStats) to the bare run;
    2. same for a sharded cross-shard run;
    3. two half-runs' telemetry registries merged in submission order
       serialise byte-identically to the registry of recording both
       halves into one — the contract ``--jobs N`` sweeps rely on.
    """
    from repro.core.tracing import Tracer
    from repro.obs.telemetry import TelemetryWindows, merge_telemetry
    from repro.service.server import ServiceConfig, run_service
    from repro.shard.deployment import ShardedConfig, run_sharded

    failures: List[str] = []

    svc_cfg = ServiceConfig(
        workload=args.workload, scheme=args.scheme, seed=args.seed
    )
    bare = run_service(svc_cfg)
    telemetry = TelemetryWindows()
    observed = run_service(
        svc_cfg, telemetry=telemetry, request_tracer=Tracer()
    )
    if bare.stats.as_dict() != observed.stats.as_dict():
        failures.append(
            f"service {svc_cfg.workload}/{svc_cfg.scheme}: "
            "SimStats drifted with telemetry attached"
        )
    elif bare.cycles != observed.cycles:
        failures.append(
            f"service {svc_cfg.workload}/{svc_cfg.scheme}: cycles "
            f"{bare.cycles} != {observed.cycles}"
        )
    else:
        print(
            f"passive: service {svc_cfg.workload}/{svc_cfg.scheme} "
            f"telemetry+tracing attached, {observed.cycles:,} cycles "
            f"bit-identical ({telemetry.total('acked')} acks windowed)"
        )

    shard_cfg = ShardedConfig(
        workload=args.workload, scheme=args.scheme, seed=args.seed
    )
    bare_sh = run_sharded(shard_cfg)
    sh_tel = TelemetryWindows()
    observed_sh = run_sharded(
        shard_cfg, telemetry=sh_tel, request_tracer=Tracer()
    )
    if bare_sh.stats.as_dict() != observed_sh.stats.as_dict():
        failures.append(
            f"sharded {shard_cfg.workload}/{shard_cfg.scheme}: "
            "SimStats drifted with telemetry attached"
        )
    elif (bare_sh.cycles, bare_sh.pm_bytes) != (
        observed_sh.cycles, observed_sh.pm_bytes
    ):
        failures.append(
            f"sharded {shard_cfg.workload}/{shard_cfg.scheme}: "
            f"cycles/pm_bytes ({bare_sh.cycles}, {bare_sh.pm_bytes}) != "
            f"({observed_sh.cycles}, {observed_sh.pm_bytes})"
        )
    else:
        print(
            f"passive: sharded {shard_cfg.workload}/{shard_cfg.scheme} "
            f"telemetry+tracing attached, {observed_sh.cycles:,} cycles "
            f"bit-identical ({sh_tel.total('decisions')} 2PC decisions "
            "windowed)"
        )

    # Merge determinism: record two disjoint seeds into separate
    # registries, merge, compare byte-for-byte against one registry
    # that saw both runs.
    split_a, split_b = TelemetryWindows(), TelemetryWindows()
    serial = TelemetryWindows()
    for seed, part in ((args.seed, split_a), (args.seed + 1, split_b)):
        cfg = ServiceConfig(
            workload=args.workload, scheme=args.scheme, seed=seed
        )
        run_service(cfg, telemetry=part)
        run_service(cfg, telemetry=serial)
    merged = merge_telemetry([split_a, split_b])
    a = json.dumps(merged.to_dict(), sort_keys=True)
    b = json.dumps(serial.to_dict(), sort_keys=True)
    if a != b:
        failures.append(
            "telemetry merge: split registries merged != serial registry"
        )
    else:
        print(
            f"merge: split-vs-serial telemetry byte-identical "
            f"({len(merged)} windows, {len(a)} JSON bytes)"
        )

    for failure in failures:
        print(f"PASSIVITY VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _scheme(name: str):
    from repro.core.schemes import scheme_by_name

    return scheme_by_name(name)


def _cmd_equivalence(args: argparse.Namespace) -> int:
    """The parallel == serial gate for a registered document: a
    ``--jobs N`` run must be byte-identical to the serial run (modulo
    host timing).  A spec without a reduced equivalence shape runs the
    pinned document's own params, and both runs must also be
    bit-identical to it."""
    spec = artifacts.get(args.name)
    path = args.baseline or spec.path
    jobs = max(2, resolve_jobs(args.jobs))
    try:
        baseline = artifacts.load(spec.name, path)
        params = artifacts.params_of(spec, baseline)
        if spec.equivalence_shape is not None:
            params = dataclasses.replace(spec.params(), **spec.equivalence_shape)
        serial = artifacts.strip_host(artifacts.run(spec.name, params, jobs=1))
        parallel = artifacts.strip_host(
            artifacts.run(spec.name, params, jobs=jobs, progress=_progress)
        )
    except artifacts.ArtifactError as exc:
        print(f"obs equivalence {spec.name}: {exc}", file=sys.stderr)
        return 2
    except WorkerCrash as exc:
        print(f"obs equivalence {spec.name} failed: {exc}", file=sys.stderr)
        return 1
    pairs = [(f"serial vs --jobs {jobs}", parallel)]
    if spec.equivalence_shape is None:
        pairs.append((f"vs {path}", artifacts.strip_host(baseline)))
    failures = 0
    for what, other in pairs:
        drift = artifacts.diff_keys(serial, other)
        for key in drift[:20]:
            print(f"EQUIVALENCE VIOLATION {spec.name} {what}: {key}", file=sys.stderr)
        failures += bool(drift)
    if failures:
        return 1
    print(
        f"equivalence: {spec.name} --jobs {jobs} byte-identical to serial "
        "(modulo host timing)"
    )
    if spec.equivalence_shape is None:
        print(f"equivalence: simulated numbers bit-identical to {path}")
    return 0


def obs_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Observability: stats dumps, histograms, traces, diffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="run once, dump stats + attribution")
    _add_run_args(p_stats)
    p_stats.add_argument("--json", help="write a diffable JSON snapshot here")
    p_stats.add_argument(
        "--show-zero", action="store_true",
        help="include zero-valued counters (stable line set for diffing)",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_hist = sub.add_parser("hist", help="run once, print histogram summary")
    _add_run_args(p_hist)
    p_hist.set_defaults(func=_cmd_hist)

    p_trace = sub.add_parser(
        "trace", help="multicore YCSB run -> Perfetto trace JSON"
    )
    p_trace.add_argument("--cores", type=int, default=4)
    p_trace.add_argument("--scheme", default="SLPMT")
    p_trace.add_argument("--ops", type=int, default=50, help="inserts per core")
    p_trace.add_argument("--value-bytes", type=int, default=64)
    p_trace.add_argument("--seed", type=int, default=2023)
    p_trace.add_argument("--out", default="trace.json")
    p_trace.add_argument("--jsonl", help="also write a JSONL event stream")
    p_trace.set_defaults(func=_cmd_trace)

    p_diff = sub.add_parser("diff", help="diff two obs stats JSON snapshots")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=_cmd_diff)

    p_pass = sub.add_parser(
        "passivity",
        help="prove obs changes nothing (exit 1 on any counter drift)",
    )
    _add_run_args(p_pass)
    p_pass.add_argument(
        "--telemetry", action="store_true",
        help="gate the windowed-telemetry + request-tracing layer "
        "instead (service + sharded runs, plus split-vs-serial merge "
        "byte-identity)",
    )
    p_pass.set_defaults(func=_cmd_passivity)

    p_equiv = sub.add_parser(
        "equivalence",
        help="prove a registered document's --jobs N run is "
        "byte-identical to serial (and to the pinned copy; exit 1 on any "
        "diff)",
    )
    p_equiv.add_argument(
        "name", nargs="?", default="slpmt_ycsb", choices=artifacts.names(),
        help="registered document (default slpmt_ycsb)",
    )
    p_equiv.add_argument(
        "--jobs", type=int, default=None,
        help="parallel worker count to compare against serial "
        "(default REPRO_JOBS, at least 2)",
    )
    p_equiv.add_argument(
        "--baseline", default=None,
        help="pinned document path (default: the registered path)",
    )
    p_equiv.set_defaults(func=_cmd_equivalence)

    args = parser.parse_args(argv)
    return args.func(args)


def _int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


#: Run overrides: CLI flag -> the params fields it may set (the first
#: one the document's params have).
_OVERRIDES = {
    "ops": ("num_ops", "ops_per_core"),
    "seed": ("seed",),
    "cores": ("cores",),
}


def bench_main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run, gate (--check) or re-pin (--update) a registered "
        "result document.",
    )
    parser.add_argument(
        "name", nargs="?", default="slpmt_ycsb", choices=artifacts.names(),
        help="registered document (default slpmt_ycsb)",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="ops per run (slpmt_ycsb) or per core (multicore)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--cores", type=_int_list, default=None,
        help="comma-separated core counts (multicore)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="pinned document path (default: the registered path)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="gate the fresh run against the pinned document; exit 1 on "
        "drift",
    )
    mode.add_argument(
        "--update", action="store_true",
        help="write the fresh run over the pinned document",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default REPRO_JOBS or 1); output is "
        "byte-identical to serial modulo host timing",
    )
    parser.add_argument(
        "--out", default=None, help="also write the fresh document here"
    )
    args = parser.parse_args(argv)
    spec = artifacts.get(args.name)
    path = args.baseline or spec.path
    changes = {}
    for flag, candidates in _OVERRIDES.items():
        value = getattr(args, flag)
        if value is None:
            continue
        field = next((f for f in candidates if hasattr(spec.params, f)), None)
        if field is None:
            parser.error(f"--{flag} does not apply to {spec.name}")
        changes[field] = value
    params = dataclasses.replace(spec.params(), **changes)
    jobs = resolve_jobs(args.jobs)
    try:
        baseline = artifacts.load(spec.name, path) if args.check else None
        if baseline is not None and artifacts.params_of(spec, baseline) != params:
            raise artifacts.ArtifactError(
                path, "params differ from this run's; re-pin with --update"
            )
        doc = artifacts.run(
            spec.name, params, jobs=jobs,
            progress=_progress if jobs > 1 else None,
        )
    except artifacts.ArtifactError as exc:
        print(f"bench {spec.name}: {exc}", file=sys.stderr)
        return 2
    except WorkerCrash as exc:
        print(f"bench sweep failed: {exc}", file=sys.stderr)
        return 1
    targets = ([args.out] if args.out else []) + ([path] if args.update else [])
    for target in targets:
        for written in artifacts.write(spec.name, doc, target):
            print(f"wrote {written}")
    if baseline is not None:
        ok, lines = artifacts.check(spec.name, doc, baseline)
        print("\n".join(lines))
        return 0 if ok else 1
    if not args.update:
        print(artifacts.resolve(spec.format)(doc))
    return 0
