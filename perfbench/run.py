"""Host-performance benchmark of the SLPMT simulator, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload ycsb-load --seed 2023 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing:
throughput in the workload's unit of work per host second, set-up time
(the median of several fresh processes that import ``repro`` and build
the workload's first machine, service or deployment) and this process's
peak resident memory.  ``--trace 1`` runs the same cells untraced, then
once more with :mod:`tracing` wrapped around every layer's entry points,
and reports the per-layer metrics and the tracing overhead.

The workload's inputs derive from ``--seed`` alone.  Every run checks
that each cell's simulated results repeat exactly across reps and
between the untraced and the traced run; at the reference seed the
``ycsb-load`` and ``contention`` cells must also equal the checked-in
``BENCH_slpmt_ycsb.json`` / ``BENCH_multicore.json`` cells.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_SECONDS, HostSpeed, calibrate  # noqa: E402
from workloads import WORKLOADS, Cell, CellResult, check_reference  # noqa: E402

#: Fresh processes whose median set-up time is reported.
SETUP_PROBES = 5
#: Share of ``--seconds`` a traced run spends on untraced reps.
TRACE_UNTRACED_SHARE = 0.3
#: Where a traced run writes its kept spans (inside the checkout).
SPAN_DIR = ROOT / ".perfbench"

#: Every end-to-end metric a workload may define, in the order of the
#: printed row (``-`` where the workload does not define it).
ROW_METRICS = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
    ("sim_cycles_per_op", "cycles"),
    ("sim_pm_bytes_per_op", "B"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
    ("sim_acks_per_kcycle", "1/kcycle"),
    ("persist_coverage", "ratio"),
)


class Tally:
    """Attempted and failed units plus the problems behind the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        self.problems.append(problem)


def run_cell(cell: Cell, first: Dict[str, Dict[str, Any]], tally: Tally) -> "Optional[CellResult]":
    """Run one cell, check its simulated results against its first run."""
    try:
        result = cell.run()
    except Exception:  # a failed verify, RetryExhausted, ...: count, keep going
        tally.attempted += cell.nominal
        tally.fail(cell.nominal, f"{cell.label}: {traceback.format_exc(limit=3)}")
        return None
    tally.attempted += result.attempted
    tally.failed += result.failed
    tally.problems.extend(f"{cell.label}: {p}" for p in result.problems)
    if cell.label not in first:
        first[cell.label] = result.sim
    elif result.sim != first[cell.label]:
        tally.fail(result.units, f"{cell.label}: simulated results differ between runs")
    return result


class Reps:
    """Reference seconds (see :mod:`hostspeed`) of every timed run of every cell."""

    def __init__(self, cells: List[Cell]) -> None:
        self.times: Dict[str, List[float]] = {cell.label: [] for cell in cells}
        self.units: Dict[str, int] = {}

    def rep_seconds(self) -> float:
        """Reference seconds of one rep: the sum of each cell's median time."""
        return sum(statistics.median(self.times[label]) for label in self.units)

    def rate(self) -> float:
        """Units of work per reference second (0.0 when every run failed)."""
        seconds = self.rep_seconds()
        return sum(self.units.values()) / seconds if seconds > 0 else 0.0

    def samples(self) -> int:
        return min((len(self.times[label]) for label in self.units), default=0)


def timed_reps(cells: List[Cell], seconds: float, first: Dict[str, Dict[str, Any]], tally: Tally) -> Reps:
    """Warm up on the first cell, then cycle through the cells until
    *seconds* pass and every cell ran once.

    Cycling cell by cell spreads each cell's samples over the whole run,
    so a slow spell of the host lands on a few samples of many cells
    instead of every sample of one.
    """
    run_cell(cells[0], first, tally)
    reps = Reps(cells)
    speed = HostSpeed()
    deadline = time.perf_counter() + seconds
    runs = 0
    while runs < len(cells) or time.perf_counter() < deadline:
        cell = cells[runs % len(cells)]
        runs += 1
        result, _, elapsed = speed.time(lambda: run_cell(cell, first, tally))
        if result is not None:
            reps.times[cell.label].append(elapsed)
            reps.units[cell.label] = result.units
    return reps


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    Only one simulated core's thread runs at a time (the multicore
    scheduler hands a turn over per simulated instruction), so one CPU
    loses no parallelism; across two CPUs every handoff pays a
    cross-CPU wake-up whose latency varies from run to run by 2x.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time, in reference seconds, over
    :data:`SETUP_PROBES` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    WORKLOADS[workload].setup(seed)
    elapsed = time.perf_counter() - t0
    host = statistics.median(calibrate() for _ in range(3))
    print(f"{elapsed * REFERENCE_SECONDS / host:.6f}")


def provenance() -> str:
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                revision = loose.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + name):
                            revision = line.split()[0]
    return (
        f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"revision {revision}"
    )


def print_row(workload: str, values: Dict[str, Any]) -> None:
    header = ["workload"] + [f"{name}({unit})" for name, unit in ROW_METRICS]
    row = [workload]
    for name, _ in ROW_METRICS:
        value = values.get(name)
        row.append("-" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value)))
    widths = [max(len(h), len(r)) for h, r in zip(header, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join(r.ljust(w) for r, w in zip(row, widths)))


def check_references(workload: Any, seed: int, cells: List[Cell], first: Dict[str, Dict[str, Any]], tally: Tally) -> str:
    refs = workload.reference(ROOT, seed)
    if refs is None:
        return "references: none at this seed (verify, oracles and repeat checks only)"
    by_label = {cell.label: cell for cell in cells}
    for label, ref in refs.items():
        problems = check_reference(first[label], ref) if label in first else ["no result"]
        if problems:
            tally.fail(by_label[label].nominal, f"{label}: " + "; ".join(problems[:3]))
    return f"references: {len(refs)} cells compared with the checked-in BENCH file"


def end_to_end(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)  # compiles the bytecode the set-up probes load
    setup_s = setup_seconds(args.workload, args.seed)
    cells = workload.cells(args.seed)
    first: Dict[str, Dict[str, Any]] = {}
    tally = Tally()
    reps = timed_reps(cells, args.seconds, first, tally)
    print(check_references(workload, args.seed, cells, first, tally))
    throughput = reps.rate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    row: Dict[str, Any] = {
        "setup_s": setup_s,
        workload.rate_metric: throughput,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": tally.failed / max(1, tally.attempted),
    }
    if len(first) == len(cells):
        row.update(workload.summary(first))
    print(f"timed: {reps.samples()}+ runs of each of {len(cells)} cells, "
          f"median rep {reps.rep_seconds():.3f} reference seconds")
    if "sim_latency_samples" in row:
        print(f"latency samples: {row['sim_latency_samples']}")
    if "persist_points" in row:
        print(f"persist points crashed: {row['persist_points']}")
    print_row(args.workload, row)
    return {
        "tally": tally,
        "metrics": {
            "throughput_per_s": (throughput, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def per_layer(args: argparse.Namespace) -> Dict[str, Any]:
    from tracing import UNMEASURED_LAYERS, Tracer

    workload = WORKLOADS[args.workload]
    cells = workload.cells(args.seed)
    first: Dict[str, Dict[str, Any]] = {}
    tally = Tally()
    reps = timed_reps(cells, args.seconds * TRACE_UNTRACED_SHARE, first, tally)
    untraced = reps.rep_seconds()

    tracer = Tracer()
    speed = HostSpeed()
    traced_host = traced = 0.0
    tracer.install()
    try:
        for cell in cells:
            # Unequal simulated results count as failures here.
            _, host, reference = speed.time(lambda: run_cell(cell, first, tally))
            traced_host += host
            traced += reference
    finally:
        tracer.uninstall()
    print(check_references(workload, args.seed, cells, first, tally))
    print(f"layers not traced: {', '.join(UNMEASURED_LAYERS)}")
    # Span times are host seconds; scale them to reference seconds too.
    scale = traced / traced_host
    metrics = {}
    for name, (value, unit) in tracer.layer_metrics().items():
        if unit in ("s", "ms"):
            value *= scale
        elif unit == "instr/s":
            value /= scale
        metrics[name] = (value, unit)
    metrics["trace_overhead"] = (traced / untraced if untraced else 0.0, "ratio")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}.jsonl"
    kept = tracer.write_spans(span_file)
    print(f"traced rep {traced:.3f} s, untraced rep {untraced:.3f} s (reference seconds); "
          f"{kept} spans written to {span_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    return {"tally": tally, "metrics": metrics}


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Default-on observability would attach tracers to every machine.
    os.environ.pop("REPRO_OBS", None)
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    print(provenance())
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    out = per_layer(args) if args.trace else end_to_end(args)
    tally: Tally = out["tally"]
    for problem in dict.fromkeys(tally.problems):
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
