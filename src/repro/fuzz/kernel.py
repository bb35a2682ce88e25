"""One crash-campaign kernel behind every fuzz family.

A *family* is one kind of crash campaign — single-core, media-fault,
multi-core contention, transaction service, cross-shard 2PC.  Each is
declared once, as data, in :data:`FAMILIES`: its cell grid, its CLI
axes and their defaults, the names of its cell and case functions, its
report header and columns, and its reproducer hooks.  Everything else
is written once, here and in :mod:`repro.fuzz.minimize`:

* :func:`run_campaign` fans a family's cells over
  :func:`repro.parallel.engine.run_tasks` (one
  :func:`repro.parallel.tasks.fuzz_cell` task) and returns one
  :class:`CampaignResult`; the ordered merge keeps a ``--jobs N``
  campaign byte-identical to a serial one;
* :func:`format_report` renders any family's table;
* :class:`~repro.fuzz.minimize.Reproducer` freezes, replays and shrinks
  a violation of any family that declares the hooks.

Cell and case functions are named ``"module:function"`` and looked up
on every call, so code that rebinds a module attribute (a tracer, a
test double) sees every cell and case the kernel runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults import FAULT_KINDS
from repro.fuzz import campaign
from repro.fuzz import faultcampaign as fault
from repro.fuzz import twopc
from repro.workloads import WORKLOADS

#: A report column: ``(header, width, getter over a cell report)``.
Column = Tuple[str, int, Callable[[Any], Any]]

_STRESS = "config=stress (512B/1KB/8KB caches)"


@dataclass(frozen=True)
class Family:
    """One crash-campaign family, declared as data."""

    name: str
    #: ``"module:function"`` of the cell sweep, called as
    #: ``cell_fn(cell, budget=..., seed=..., **params)``.
    cell_fn: str
    #: ``"module:function"`` of one crash case (used by replay).
    case_fn: str
    #: Default grid and per-cell case budget.
    cells: Tuple[Any, ...]
    budget: int
    #: Campaign parameters every cell receives, with their defaults.
    params: Dict[str, Any]
    #: Family-specific CLI grid axes (argparse dests) with defaults.
    axes: Dict[str, Any]
    #: Family-specific CLI options that set a campaign parameter:
    #: dest -> param name (the default is the param's).
    axis_params: Dict[str, str]
    #: Subjects a cell of this family can build.
    subjects: Tuple[str, ...]
    #: ``grid(workloads, schemes, axes)`` -> cells; None = no filter.
    grid: Callable[..., List[Any]]
    #: Report file under ``benchmarks/results`` (reproducers are
    #: written next to it as ``<prefix>_repro_<n>.json``).
    out: str
    title: str
    #: Header lines, formatted with the params plus budget and seed.
    header: Tuple[str, ...]
    columns: Tuple[Column, ...]
    #: ``(predicate, text)`` of the "cells: N (k text)" summary line.
    summary: Tuple[Callable[[Any], Any], str]
    #: ``freeze(cell, params, seed)`` -> the family's reproducer fields
    #: (None: violations are reported but not frozen).
    freeze: Optional[Callable[..., Dict[str, Any]]] = None
    #: ``replay(case_fn, rep, config)`` -> the reproducer's CaseResult.
    replay: Optional[Callable[..., Any]] = None
    #: ``points(rep, config)`` -> crash points of ``rep.crash_kind``
    #: (unused by fault plans, which are never re-scanned).
    points: Optional[Callable[..., int]] = None
    #: Shrink the request volume (True) instead of the op list.
    volume: bool = False


def resolve(path: str) -> Callable[..., Any]:
    """The current value of ``"module:function"``."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass
class CampaignResult:
    """A whole campaign of one family: parameters plus cell reports."""

    family: str
    budget: int
    seed: int
    params: Dict[str, Any]
    cells: List[Any] = field(default_factory=list)

    @property
    def total_cases(self) -> int:
        return sum(c.cases_run for c in self.cells)

    @property
    def violations(self) -> List[campaign.Violation]:
        return [v for c in self.cells for v in c.violations]


def run_campaign(
    family: str,
    cells: Optional[Sequence[Any]] = None,
    *,
    budget: Optional[int] = None,
    seed: int = 7,
    jobs: int = 1,
    progress=None,
    **params: Any,
) -> CampaignResult:
    """Run *family*'s cells (default: its grid) under a per-cell case
    *budget* (default: the family's).

    *params* override the family's campaign parameters.  Every cell is
    keyed by ``(cell, seed, params)`` alone — each worker process
    rebuilds its whole scenario from those scalars — so *jobs* > 1 fans
    cells out over worker processes and the ordered merge keeps the
    result identical to a serial campaign.
    """
    from repro.parallel import engine
    from repro.parallel.tasks import fuzz_cell

    spec = FAMILIES[family]
    unknown = set(params) - set(spec.params)
    if unknown:
        raise TypeError(f"{family} campaign takes no {sorted(unknown)}")
    cells = list(spec.cells if cells is None else cells)
    result = CampaignResult(
        family=family,
        budget=spec.budget if budget is None else budget,
        seed=seed,
        params={**spec.params, **params},
    )
    result.cells = engine.run_tasks(
        fuzz_cell,
        [
            dict(family=family, cell=cell, budget=result.budget, seed=seed,
                 **result.params)
            for cell in cells
        ],
        jobs=jobs,
        labels=[str(cell) for cell in cells],
        progress=progress,
    )
    return result


def format_report(result: CampaignResult) -> str:
    """The campaign table plus totals.

    Stable for a given ``(budget, seed)``: no timestamps, no
    machine-dependent fields, rows in fixed cell order — re-running the
    same command emits the identical file.
    """
    spec = FAMILIES[result.family]
    columns = spec.columns + (("violations", 10, lambda c: len(c.violations)),)

    def row(values: Sequence[Any]) -> str:
        return "  ".join(
            str(v).ljust(width) for (_, width, _), v in zip(columns, values)
        ).rstrip()

    values = dict(result.params, budget=result.budget, seed=result.seed)
    lines = [spec.title]
    lines += [line.format(**values) for line in spec.header]
    lines += [
        "",
        row([name for name, _, _ in columns]),
        row(["-" * min(width, 10) for _, width, _ in columns]),
    ]
    lines += [row([get(c) for _, _, get in columns]) for c in result.cells]
    counted, text = spec.summary
    lines += [
        "",
        f"cells: {len(result.cells)} "
        f"({sum(1 for c in result.cells if counted(c))} {text})",
        f"cases: {result.total_cases}",
        f"violations: {len(result.violations)}",
    ]
    lines += [f"  VIOLATION {v}" for v in result.violations]
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# report columns
# ----------------------------------------------------------------------


def _pts(kind: str, full: Callable[[Any], bool] = attrgetter("exhaustive")):
    """``run/total`` of one crash-point kind, suffixed " all" when
    *full* holds for the cell report."""

    def get(c: Any) -> str:
        text = f"{getattr(c, kind + '_points_run')}/{getattr(c, kind + '_points_total')}"
        return text + " all" if full(c) else text

    return get


def _never(_c: Any) -> bool:
    return False


_WORKLOAD = ("workload", 10, attrgetter("cell.workload"))
_CYCLES = (("cycles", 9, attrgetter("cycles")), ("pm-bytes", 9, attrgetter("pm_bytes")))


def _steady(c: Any) -> str:
    text = f"{c.window_lo}..{c.window_hi}/{c.windows}"
    return text if c.steady else text + "!"


# ----------------------------------------------------------------------
# grids: CLI filters and axes -> cells
# ----------------------------------------------------------------------


def _single_grid(workloads, schemes, axes) -> List[campaign.FuzzCell]:
    return [
        c for c in campaign.DEFAULT_CELLS
        if (workloads is None or c.workload in workloads)
        and (schemes is None or c.scheme in schemes)
    ]


def _fault_grid(workloads, schemes, axes) -> List[fault.FaultCell]:
    return fault.default_fault_cells(
        subjects=[s for s in campaign.SUBJECTS if workloads is None or s in workloads],
        schemes=schemes or fault.DEFAULT_FAULT_SCHEMES,
        kinds=axes["fault_kinds"],
    )


def _multicore_grid(workloads, schemes, axes) -> List[campaign.MultiCoreCell]:
    return [
        campaign.MultiCoreCell(w, s, c, t)
        for w in workloads or ["hashtable"]
        for s in schemes or campaign.MULTICORE_SCHEMES
        for c in axes["cores"]
        for t in axes["thetas"]
    ]


def _service_grid(workloads, schemes, axes) -> List[campaign.ServiceCell]:
    if workloads is None and schemes is None and tuple(axes["batches"]) == (1, 8):
        # No grid filters: the default grid, including the composite
        # multi-structure cells behind the wound-wait lock manager.
        return list(campaign.DEFAULT_SERVICE_CELLS)
    # Composite subjects declare multiple lock structures; their cells
    # run behind the lock manager so cross-structure atomicity is
    # judged through it.
    return [
        campaign.ServiceCell(w, s, b, locking=(w == "multistruct"))
        for w in workloads or ["hashtable"]
        for s in schemes or campaign.SERVICE_SCHEMES
        for b in axes["batches"]
    ]


def _twopc_grid(workloads, schemes, axes) -> List[twopc.TwoPCCell]:
    return [
        twopc.TwoPCCell(w, s, n, kind)
        for w in workloads or ["hashtable"]
        for s in schemes or twopc.TWOPC_FUZZ_SCHEMES
        for n in axes["shards"]
        for kind in twopc.TWOPC_FAULTS
    ]


# ----------------------------------------------------------------------
# reproducer hooks
# ----------------------------------------------------------------------


def _freeze_ops(cell, params, seed) -> Dict[str, Any]:
    return {
        "policy": getattr(cell, "policy", fault.FAULT_POLICY),
        "ops": campaign.generate_ops(cell.workload, params["num_ops"], seed),
    }


def _freeze_service(cell, params, seed) -> Dict[str, Any]:
    service = {
        "batch_size": cell.batch_size,
        "locking": cell.locking,
        "num_clients": params["num_clients"],
        "requests_per_client": params["requests_per_client"],
        "seed": seed,
    }
    if params["duration_cycles"] is not None:
        service["duration_cycles"] = params["duration_cycles"]
    return {"policy": "none", "ops": [], "service": service}


def _freeze_twopc(cell, params, seed) -> Dict[str, Any]:
    return {"policy": "none", "ops": [], "twopc": {
        "shards": cell.shards,
        "num_clients": params["num_clients"],
        "requests_per_client": params["requests_per_client"],
        "seed": seed,
    }}


def _replay_single(case, rep, config):
    return case(
        rep.workload, rep.scheme, rep.policy, rep.ops, rep.crash_kind,
        rep.crash_point, value_bytes=rep.value_bytes, config=config,
    )


def _replay_fault(case, rep, config):
    return case(
        rep.workload, rep.scheme, rep.policy, rep.ops, rep.fault,
        value_bytes=rep.value_bytes, config=config,
    )


def _service_case(rep) -> Tuple[campaign.ServiceCell, Dict[str, Any]]:
    """The cell and case kwargs a service reproducer replays."""
    s = rep.service
    cell = campaign.ServiceCell(
        rep.workload, rep.scheme, s["batch_size"], locking=s.get("locking", False)
    )
    return cell, dict(
        num_clients=s["num_clients"], requests_per_client=s["requests_per_client"],
        value_bytes=rep.value_bytes, seed=s["seed"],
        duration_cycles=s.get("duration_cycles"),
    )


def _twopc_case(rep) -> Tuple[twopc.TwoPCCell, Dict[str, Any]]:
    """The cell and case kwargs a 2PC reproducer replays."""
    t = rep.twopc
    cell = twopc.TwoPCCell(
        rep.workload, rep.scheme, t["shards"],
        "torn-decision" if rep.fault is not None else "crash",
    )
    return cell, dict(
        num_clients=t["num_clients"], requests_per_client=t["requests_per_client"],
        value_bytes=rep.value_bytes, seed=t["seed"],
    )


def _replay_service(case, rep, config):
    cell, kwargs = _service_case(rep)
    return case(cell, rep.crash_kind, rep.crash_point, config=config, **kwargs)


def _replay_twopc(case, rep, config):
    cell, kwargs = _twopc_case(rep)
    return case(
        cell, rep.crash_kind, rep.crash_point, fault=rep.fault, config=config,
        **kwargs,
    )


def _count(machine, crash_kind: str, run: Callable[[], Any]) -> int:
    """Durability events (``"persist"``) or instructions *run* adds."""
    events0, instrs0 = machine.wpq.total_inserts, machine.stats.instructions
    run()
    if crash_kind == "persist":
        return machine.wpq.total_inserts - events0
    return machine.stats.instructions - instrs0


def _points_single(rep, config) -> int:
    machine, _rt, subject = campaign._build(
        rep.workload, rep.scheme, rep.policy,
        value_bytes=rep.value_bytes, config=config,
    )

    def run() -> None:
        for op in rep.ops:
            campaign.apply_op(subject, op)

    return _count(machine, rep.crash_kind, run)


def _points_service(rep, config) -> int:
    cell, kwargs = _service_case(rep)
    svc = campaign._build_service(cell, config=config, **kwargs)
    return _count(svc.machine, rep.crash_kind, svc.serve)


def _points_twopc(rep, config) -> int:
    cell, kwargs = _twopc_case(rep)
    dep = twopc._build_twopc(cell, config=config, **kwargs)
    if rep.crash_kind == "step":
        dep.serve()
        return len(dep.coordinator.steps.names)
    if rep.crash_kind.startswith("persist:"):
        machine = dict(dep.all_machines())[rep.crash_kind.split(":", 1)[1]]
        return _count(machine, "persist", dep.serve)
    raise ValueError(f"unknown crash kind {rep.crash_kind!r}")


# ----------------------------------------------------------------------
# the family table
# ----------------------------------------------------------------------

FAMILIES: Dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            name="single",
            cell_fn="repro.fuzz.campaign:run_cell",
            case_fn="repro.fuzz.campaign:run_case",
            cells=campaign.DEFAULT_CELLS,
            budget=200,
            params={"num_ops": 10, "value_bytes": 32, "config": campaign.STRESS_CONFIG},
            axes={},
            axis_params={"ops": "num_ops"},
            subjects=campaign.SUBJECTS,
            grid=_single_grid,
            out="fuzz_campaign.txt",
            title="SLPMT crash-consistency fuzz campaign",
            header=(
                "budget={budget} per cell, seed={seed}, ops/cell={num_ops}, "
                f"value_bytes={{value_bytes}}, {_STRESS}",
            ),
            columns=(
                _WORKLOAD,
                ("scheme", 7, attrgetter("cell.scheme")),
                ("policy", 8, attrgetter("cell.policy")),
                ("ops", 4, attrgetter("num_ops")),
                ("persist-pts", 12, _pts("persist")),
                ("instr-pts", 12, _pts("instr", _never)),
                ("cases", 6, attrgetter("cases_run")),
                ("commits", 8, attrgetter("tx_commits")),
            ) + _CYCLES,
            summary=(attrgetter("exhaustive"),
                     "with exhaustive durability-point coverage"),
            freeze=_freeze_ops,
            replay=_replay_single,
            points=_points_single,
        ),
        Family(
            name="fault",
            cell_fn="repro.fuzz.faultcampaign:run_fault_cell",
            case_fn="repro.fuzz.faultcampaign:run_fault_case",
            cells=tuple(fault.default_fault_cells()),
            budget=24,
            params={"num_ops": 10, "value_bytes": 32, "config": campaign.STRESS_CONFIG},
            axes={"fault_kinds": FAULT_KINDS},
            axis_params={"ops": "num_ops"},
            subjects=campaign.SUBJECTS,
            grid=_fault_grid,
            out="fault_campaign.txt",
            title="SLPMT media-fault injection campaign",
            header=(
                "budget={budget} sampled cases per cell, seed={seed}, "
                f"ops/cell={{num_ops}}, value_bytes={{value_bytes}}, {_STRESS}",
                "torn-tail cells enumerate every word-boundary cut exhaustively",
            ),
            columns=(
                _WORKLOAD,
                ("scheme", 10, attrgetter("cell.scheme")),
                ("fault", 11, attrgetter("cell.fault_kind")),
                ("ops", 4, attrgetter("num_ops")),
                ("appends", 8, attrgetter("appends")),
                ("cases", 6, attrgetter("cases_run")),
                ("fired", 6, attrgetter("fired")),
                ("coverage", 10,
                 lambda c: "all-cuts" if c.exhaustive else "sampled"),
            ),
            summary=(attrgetter("exhaustive"), "with exhaustive torn-tail coverage"),
            freeze=_freeze_ops,
            replay=_replay_fault,
        ),
        Family(
            name="multicore",
            cell_fn="repro.fuzz.campaign:run_multicore_cell",
            case_fn="repro.fuzz.campaign:run_multicore_case",
            cells=campaign.DEFAULT_MULTICORE_CELLS,
            budget=60,
            # ops_per_core 10: the shape multicore_campaign.txt pins.
            params={"ops_per_core": 10, "num_keys": 16, "value_bytes": 32,
                    "config": campaign.STRESS_CONFIG},
            axes={"cores": (1, 2, 4), "thetas": (0.0, 0.9)},
            axis_params={"ops": "ops_per_core", "num_keys": "num_keys"},
            subjects=tuple(WORKLOADS),
            grid=_multicore_grid,
            out="multicore_campaign.txt",
            title="SLPMT multi-core contention crash campaign",
            header=(
                "budget={budget} crash points per cell, seed={seed}, "
                "ops/core={ops_per_core}, keys={num_keys}, "
                f"value_bytes={{value_bytes}}, {_STRESS}",
            ),
            columns=(
                _WORKLOAD,
                ("scheme", 7, attrgetter("cell.scheme")),
                ("cores", 5, attrgetter("cell.cores")),
                ("theta", 5, lambda c: f"{c.cell.theta:g}"),
                ("switch-pts", 12, _pts("switch")),
                ("cases", 6, attrgetter("cases_run")),
                ("conflicts", 9, attrgetter("conflicts")),
                ("aborts", 7, attrgetter("aborts")),
                ("commits", 8, attrgetter("commits")),
            ) + _CYCLES,
            summary=(attrgetter("exhaustive"), "with exhaustive switch-point coverage"),
        ),
        Family(
            name="service",
            cell_fn="repro.fuzz.campaign:run_service_cell",
            case_fn="repro.fuzz.campaign:run_service_case",
            cells=campaign.DEFAULT_SERVICE_CELLS,
            budget=150,
            params={"num_clients": 5, "requests_per_client": 16, "value_bytes": 32,
                    "duration_cycles": None, "config": campaign.STRESS_CONFIG},
            axes={"batches": (1, 8)},
            axis_params={"duration": "duration_cycles"},
            subjects=tuple(WORKLOADS),
            grid=_service_grid,
            out="service_campaign.txt",
            title="SLPMT transaction-service group-commit crash campaign",
            header=(
                "budget={budget} per cell, seed={seed}, "
                "clients={num_clients}x{requests_per_client} requests, "
                f"value_bytes={{value_bytes}}, {_STRESS}",
                "acceptance: every acked request durable; unacked requests "
                "absent or one whole in-flight batch",
            ),
            columns=(
                _WORKLOAD,
                ("scheme", 7, attrgetter("cell.scheme")),
                ("batch", 5, attrgetter("cell.batch_size")),
                ("reqs", 5, attrgetter("num_requests")),
                ("persist-pts", 12, _pts("persist")),
                ("instr-pts", 12, _pts("instr", _never)),
                ("cases", 6, attrgetter("cases_run")),
                ("commits", 8, attrgetter("batches")),
                ("acked", 6, attrgetter("acked")),
            ) + _CYCLES + (
                ("steady-win", 11, _steady),
                ("kcyc", 6, lambda c: f"{c.steady_kcyc:g}"),
            ),
            summary=(attrgetter("exhaustive"),
                     "with exhaustive durability-point coverage"),
            freeze=_freeze_service,
            replay=_replay_service,
            points=_points_service,
            volume=True,
        ),
        Family(
            name="twopc",
            cell_fn="repro.fuzz.twopc:run_twopc_cell",
            case_fn="repro.fuzz.twopc:run_twopc_case",
            cells=twopc.DEFAULT_TWOPC_CELLS,
            budget=70,
            params={"num_clients": 4, "requests_per_client": 12, "value_bytes": 32,
                    "config": campaign.STRESS_CONFIG},
            axes={"shards": (2, 3)},
            axis_params={},
            subjects=tuple(WORKLOADS),
            grid=_twopc_grid,
            out="twopc_campaign.txt",
            title="SLPMT cross-shard 2PC crash campaign",
            header=(
                "budget={budget} per cell, seed={seed}, "
                "clients={num_clients}x{requests_per_client} requests, "
                f"value_bytes={{value_bytes}}, {_STRESS}",
                "acceptance: acked => durable on every home shard; the "
                "in-flight global txn is all-or-nothing",
                "across shards (resolved commit => applied everywhere, "
                "presumed abort => applied nowhere)",
            ),
            columns=(
                _WORKLOAD,
                ("scheme", 7, attrgetter("cell.scheme")),
                ("shards", 6, attrgetter("cell.shards")),
                ("fault", 13, attrgetter("cell.fault")),
                ("reqs", 5, attrgetter("num_requests")),
                ("step-pts", 10, _pts(
                    "step", lambda c: c.exhaustive and c.cell.fault == "crash")),
                ("persist-pts", 12, _pts("persist", _never)),
                ("fault-pts", 10, _pts(
                    "fault", lambda c: c.exhaustive and c.cell.fault != "crash")),
                ("cases", 6, attrgetter("cases_run")),
                ("acked", 6, attrgetter("acked")),
                ("xcommits", 8, attrgetter("xshard_commits")),
            ),
            summary=(
                lambda c: c.cell.fault == "torn-decision" and c.fault_points_run,
                "attacking durable decision records",
            ),
            freeze=_freeze_twopc,
            replay=_replay_twopc,
            points=_points_twopc,
            volume=True,
        ),
    )
}
