"""The four benchmark workloads, driven only through the package's public API.

A workload is a fixed list of *cells*; one *rep* runs every cell once.
Each cell returns a :class:`CellResult`: the work units it completed
(the throughput numerator), how many it attempted and how many failed,
and its simulated results.  The simulator is deterministic, so a cell's
simulated results must repeat exactly across reps and between the
untraced and the traced run; the runner checks that.

Every cell builds its machines, services and deployments from scratch,
so simulated caches start empty and no in-process memo (the harness's
``cached_run``) is ever consulted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

KERNELS = ("hashtable", "rbtree", "heap", "avl")
SCHEMES = ("FG", "FG+LG", "FG+LZ", "SLPMT", "ATOM", "EDE")
#: ``BENCH_slpmt_ycsb.json`` shape: 300 ycsb-load inserts of 256 B.
YCSB_OPS = 300
YCSB_VALUE_BYTES = 256

#: ``BENCH_multicore.json`` shape at 2 cores.
CONTENTION_SCHEMES = ("FG", "SLPMT")
CONTENTION_THETAS = (0.0, 0.9)
CONTENTION_CORES = 2
CONTENTION_OPS_PER_CORE = 100
CONTENTION_KEYS = 32
#: Input seeds per contention cell.  How many transactions abort and
#: retry depends on the seed, and so does the host time per committed
#: op; several seeds per run keep one unlucky draw from moving the rate.
CONTENTION_SEEDS = 4

#: Open-loop service shape: 8 clients offering 0.6 requests per
#: kilocycle in total, below the simulated knee of both structures, so
#: nothing is shed; sustained-run value size and key space.
SERVE_STRUCTURES = ("hashtable", "rbtree")
SERVE_CLIENTS = 8
SERVE_TARGET_LOAD = 0.6
SERVE_DURATION_CYCLES = 3_000_000
SERVE_WINDOW_CYCLES = 65_536
SERVE_VALUE_BYTES = 32
SERVE_KEYS = 128
SERVE_THETA = 0.6
SERVE_BATCH = 8

#: Crash-campaign case budget per cell.
CRASH_BUDGET = 40


@dataclass
class CellResult:
    """What one cell did: units of work, failures and simulated output."""

    units: int
    attempted: int
    failed: int
    #: Simulated results; must be equal on every run of the cell.
    sim: Dict[str, Any]
    #: Failure descriptions (empty when ``failed`` is 0).
    problems: List[str] = field(default_factory=list)


@dataclass
class Cell:
    label: str
    run: Callable[[], CellResult]
    #: Units counted as failed when the cell raises instead of returning.
    nominal: int


def geomean(values: "List[float]") -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sub_seed(seed: int, index: int) -> int:
    """The *index*-th input seed derived from *seed* (index 0 is *seed*)."""
    return seed if index == 0 else (seed * 1_000_003 + index) % 2**31


def _load_reference(root: Path, name: str) -> Dict[str, Any]:
    with open(root / name, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# ycsb-load
# ----------------------------------------------------------------------


class YcsbLoad:
    name = "ycsb-load"
    rate_metric = "ops_per_s"

    def setup(self, seed: int) -> None:
        from repro.core.machine import Machine
        from repro.core.schemes import scheme_by_name
        from repro.harness.runner import run_workload  # noqa: F401
        from repro.runtime.hints import MANUAL
        from repro.runtime.ptx import PTx
        from repro.workloads import WORKLOADS

        machine = Machine(scheme_by_name(SCHEMES[0]))
        WORKLOADS[KERNELS[0]](PTx(machine, policy=MANUAL), value_bytes=YCSB_VALUE_BYTES)

    def cells(self, seed: int) -> List[Cell]:
        from repro.core.schemes import scheme_by_name
        from repro.harness.runner import run_workload

        def make(kernel: str, scheme: str) -> Callable[[], CellResult]:
            def run() -> CellResult:
                res = run_workload(
                    kernel,
                    scheme_by_name(scheme),
                    num_ops=YCSB_OPS,
                    value_bytes=YCSB_VALUE_BYTES,
                    seed=seed,
                )
                return CellResult(
                    units=res.num_ops,
                    attempted=res.num_ops,
                    failed=0,
                    sim={
                        "cycles": res.cycles,
                        "pm_bytes": res.pm_bytes,
                        "stats": res.stats.as_dict(),
                    },
                )

            return run

        return [
            Cell(f"{k}/{s}", make(k, s), YCSB_OPS) for k in KERNELS for s in SCHEMES
        ]

    def reference(self, root: Path, seed: int) -> Optional[Dict[str, Dict[str, Any]]]:
        doc = _load_reference(root, "BENCH_slpmt_ycsb.json")
        params = doc["params"]
        if (
            seed != params["seed"]
            or params["num_ops"] != YCSB_OPS
            or params["value_bytes"] != YCSB_VALUE_BYTES
        ):
            return None
        return {label: doc["cells"][label] for label in doc["cells"]}

    def summary(self, sims: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "sim_cycles_per_op": geomean([s["cycles"] / YCSB_OPS for s in sims.values()]),
            "sim_pm_bytes_per_op": geomean(
                [s["pm_bytes"] / YCSB_OPS for s in sims.values()]
            ),
        }


# ----------------------------------------------------------------------
# contention
# ----------------------------------------------------------------------


class Contention:
    name = "contention"
    rate_metric = "ops_per_s"

    def setup(self, seed: int) -> None:
        from repro.core.schemes import scheme_by_name
        from repro.harness.runner import run_contention  # noqa: F401
        from repro.multicore.system import MultiCoreSystem
        from repro.workloads import WORKLOADS

        system = MultiCoreSystem(
            CONTENTION_CORES, scheme_by_name(CONTENTION_SCHEMES[0]), seed=seed
        )
        WORKLOADS["hashtable"](system.runtimes[0], value_bytes=YCSB_VALUE_BYTES)

    def cells(self, seed: int) -> List[Cell]:
        from repro.harness.runner import run_contention

        ops = CONTENTION_OPS_PER_CORE * CONTENTION_CORES

        def make(scheme: str, theta: float, cell_seed: int) -> Callable[[], CellResult]:
            def run() -> CellResult:
                res = run_contention(
                    "hashtable",
                    scheme,
                    cores=CONTENTION_CORES,
                    theta=theta,
                    ops_per_core=CONTENTION_OPS_PER_CORE,
                    num_keys=CONTENTION_KEYS,
                    value_bytes=YCSB_VALUE_BYTES,
                    seed=cell_seed,
                )
                return CellResult(
                    units=ops,
                    attempted=ops,
                    failed=0,
                    sim={
                        "cycles": res.cycles,
                        "pm_bytes": res.pm_bytes,
                        "conflicts": res.conflicts,
                        "aborts": res.aborts,
                        "commits": res.commits,
                        "stats": res.stats.as_dict(),
                    },
                )

            return run

        # Index 0 runs at *seed* itself, under the reference's cell label.
        return [
            Cell(
                f"hashtable/{s}/c{CONTENTION_CORES}/t{t:g}" + (f"#{i}" if i else ""),
                make(s, t, sub_seed(seed, i)),
                ops,
            )
            for i in range(CONTENTION_SEEDS)
            for s in CONTENTION_SCHEMES
            for t in CONTENTION_THETAS
        ]

    def reference(self, root: Path, seed: int) -> Optional[Dict[str, Dict[str, Any]]]:
        doc = _load_reference(root, "BENCH_multicore.json")
        params = doc["params"]
        if (
            seed != params["seed"]
            or params["ops_per_core"] != CONTENTION_OPS_PER_CORE
            or params["num_keys"] != CONTENTION_KEYS
            or params["value_bytes"] != YCSB_VALUE_BYTES
        ):
            return None
        return {
            label: cell
            for label, cell in doc["cells"].items()
            if f"/c{CONTENTION_CORES}/" in label
        }

    def summary(self, sims: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        ops = CONTENTION_OPS_PER_CORE * CONTENTION_CORES
        return {
            "sim_cycles_per_op": geomean([s["cycles"] / ops for s in sims.values()]),
            "sim_pm_bytes_per_op": geomean([s["pm_bytes"] / ops for s in sims.values()]),
        }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class Serve:
    name = "serve"
    rate_metric = "req_per_s"

    @staticmethod
    def _config(structure: str, seed: int):
        from repro.service.server import ServiceConfig
        from repro.service.tm import GroupCommitPolicy

        return ServiceConfig(
            workload=structure,
            scheme="SLPMT",
            num_clients=SERVE_CLIENTS,
            value_bytes=SERVE_VALUE_BYTES,
            num_keys=SERVE_KEYS,
            theta=SERVE_THETA,
            mode="open",
            target_load=SERVE_TARGET_LOAD,
            duration_cycles=SERVE_DURATION_CYCLES,
            keep_responses=False,
            batch=GroupCommitPolicy(batch_size=SERVE_BATCH),
            seed=seed,
        )

    def setup(self, seed: int) -> None:
        from repro.obs.steady import steady_summary  # noqa: F401
        from repro.obs.telemetry import TelemetryWindows
        from repro.service.server import TransactionService

        TransactionService(
            self._config(SERVE_STRUCTURES[0], seed),
            telemetry=TelemetryWindows(SERVE_WINDOW_CYCLES),
        )

    def cells(self, seed: int) -> List[Cell]:
        from repro.obs.steady import steady_summary
        from repro.obs.telemetry import TelemetryWindows
        from repro.service.server import TransactionService

        def make(structure: str) -> Callable[[], CellResult]:
            def run() -> CellResult:
                telemetry = TelemetryWindows(SERVE_WINDOW_CYCLES)
                res = TransactionService(
                    self._config(structure, seed), telemetry=telemetry
                ).run()
                steady = steady_summary(
                    telemetry, horizon_cycles=SERVE_DURATION_CYCLES
                )
                problems = [f"{res.shed} requests shed"] if res.shed else []
                return CellResult(
                    units=res.acked,
                    attempted=res.requests,
                    failed=res.shed,
                    sim={
                        "requests": res.requests,
                        "acked": res.acked,
                        "shed": res.shed,
                        "batches": res.batches,
                        "cycles": res.cycles,
                        "pm_bytes": res.pm_bytes,
                        "latency": res.latency.to_dict(),
                        "steady": steady,
                        "stats": res.stats.as_dict(),
                    },
                    problems=problems,
                )

            return run

        # A failed cell counts as many failed requests as its offered load.
        nominal = round(SERVE_TARGET_LOAD * SERVE_DURATION_CYCLES / 1000)
        return [Cell(f"{s}/SLPMT/b{SERVE_BATCH}", make(s), nominal) for s in SERVE_STRUCTURES]

    def reference(self, root: Path, seed: int) -> None:
        return None

    def summary(self, sims: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        from repro.obs.histogram import LogHistogram

        latency = LogHistogram()
        for s in sims.values():
            latency.merge(LogHistogram.from_dict(s["latency"]))
        return {
            "sim_p50_cycles": latency.p50,
            "sim_p99_cycles": latency.p99,
            "sim_latency_samples": latency.count,
            "sim_acks_per_kcycle": geomean(
                [s["steady"]["throughput_kcyc"] for s in sims.values()]
            ),
        }


# ----------------------------------------------------------------------
# crash
# ----------------------------------------------------------------------


class Crash:
    name = "crash"
    rate_metric = "cases_per_s"

    def setup(self, seed: int) -> None:
        from repro.fuzz.campaign import run_service_cell  # noqa: F401
        from repro.fuzz.twopc import run_twopc_cell  # noqa: F401
        from repro.shard.deployment import ShardedConfig, ShardedDeployment

        ShardedDeployment(ShardedConfig(num_shards=2, scheme="SLPMT", seed=seed))

    def cells(self, seed: int) -> List[Cell]:
        from repro.fuzz.campaign import ServiceCell, run_service_cell
        from repro.fuzz.twopc import TwoPCCell, run_twopc_cell

        def service(cell: "ServiceCell") -> Callable[[], CellResult]:
            def run() -> CellResult:
                rep = run_service_cell(cell, budget=CRASH_BUDGET, seed=seed)
                return CellResult(
                    units=rep.cases_run,
                    attempted=rep.cases_run,
                    failed=len(rep.violations),
                    sim={
                        "cases": rep.cases_run,
                        "persist_run": rep.persist_points_run,
                        "persist_total": rep.persist_points_total,
                        "instr_run": rep.instr_points_run,
                        "instr_total": rep.instr_points_total,
                        "requests": rep.num_requests,
                        "acked": rep.acked,
                        "batches": rep.batches,
                        "cycles": rep.cycles,
                        "pm_bytes": rep.pm_bytes,
                        "violations": [str(v) for v in rep.violations],
                    },
                    problems=[str(v) for v in rep.violations],
                )

            return run

        def twopc(cell: "TwoPCCell") -> Callable[[], CellResult]:
            def run() -> CellResult:
                rep = run_twopc_cell(cell, budget=CRASH_BUDGET, seed=seed)
                crash_cell = cell.fault == "crash"
                return CellResult(
                    units=rep.cases_run,
                    attempted=rep.cases_run,
                    failed=len(rep.violations),
                    sim={
                        "cases": rep.cases_run,
                        "persist_run": rep.persist_points_run if crash_cell else 0,
                        "persist_total": rep.persist_points_total if crash_cell else 0,
                        "step_run": rep.step_points_run,
                        "step_total": rep.step_points_total,
                        "fault_run": rep.fault_points_run,
                        "fault_total": rep.fault_points_total,
                        "requests": rep.num_requests,
                        "acked": rep.acked,
                        "xshard_commits": rep.xshard_commits,
                        "cycles": rep.cycles,
                        "pm_bytes": rep.pm_bytes,
                        "violations": [str(v) for v in rep.violations],
                    },
                    problems=[str(v) for v in rep.violations],
                )

            return run

        cells = [
            ServiceCell("hashtable", "SLPMT", 8),
            ServiceCell("multistruct", "SLPMT", 8, locking=True),
        ]
        faults = [TwoPCCell("hashtable", "SLPMT", 2, f) for f in ("crash", "torn-decision")]
        return [Cell(str(c), service(c), CRASH_BUDGET) for c in cells] + [
            Cell(str(c), twopc(c), CRASH_BUDGET) for c in faults
        ]

    def reference(self, root: Path, seed: int) -> None:
        return None

    def summary(self, sims: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        run = sum(s["persist_run"] for s in sims.values())
        total = sum(s["persist_total"] for s in sims.values())
        return {
            "persist_coverage": run / total,
            "persist_points": f"{run}/{total}",
        }


WORKLOADS = {w.name: w for w in (YcsbLoad(), Serve(), Contention(), Crash())}


def check_reference(
    sim: Dict[str, Any], ref: Dict[str, Any]
) -> List[str]:
    """Differences between a cell's simulated results and its reference."""
    problems = []
    for key in ("cycles", "pm_bytes"):
        if sim[key] != ref[key]:
            problems.append(f"{key} {sim[key]} != reference {ref[key]}")
    ref_stats = ref.get("stats", {})
    for key, want in ref_stats.items():
        got = sim["stats"].get(key)
        if got != want:
            problems.append(f"stats.{key} {got} != reference {want}")
    return problems
