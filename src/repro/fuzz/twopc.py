"""The cross-shard 2PC crash/fault campaign (``fuzz twopc``).

Every cell is a (workload × scheme × shard count × fault flavour)
quadruple over a deterministic :class:`~repro.shard.deployment.
ShardedDeployment`, and every case crashes (or media-damages) one
identically seeded deployment, runs
:func:`~repro.shard.recovery.recover_deployment`, and judges **global
atomicity**:

* **crash cells** sweep two surfaces:

  - **protocol steps** — the coordinator's :class:`~repro.shard.twopc.
    StepTracker` cuts ``commit_global`` at every named step a dry run
    enumerated: before any prepare, after each participant's prepared
    seal, immediately before the decision persist, after the durable
    decision but before any participant applied, and after each
    participant's apply (stratified sampling keeps every step *family*
    covered when the budget is smaller than the step count);
  - **persist points** — ``schedule_crash_after_persists`` on each
    labelled machine (``coord``, ``s0``, ``s1``, …) crashes that node
    mid-drain: participants die inside prepare-persist and group-commit
    drains, the coordinator inside its decision persist.

* **torn-decision cells** attack the durable protocol records
  themselves: every word-boundary cut of every protocol append
  (``prepare`` / ``prepared`` / ``decide-commit`` / ``decide-abort``)
  plus one seeded bit flip per append, injected through the node's
  :class:`~repro.faults.FaultModel` exactly as the media-fault campaign
  does, then judged under ``salvage`` recovery with the same strict
  probe / detection discipline.

The acceptance contract (module docstring of :mod:`repro.shard.
deployment`): every *acked* write durable on its home shard; the only
other legal per-shard image adds one whole in-flight group-commit
batch; the in-flight global transaction is all-or-nothing *across*
shards — resolved commit means its writes are durable on every
participant, presumed abort means they appear on none.

Everything derives from ``(cell, seed)``; cells fan out over
:func:`repro.parallel.engine.run_tasks` and the ordered merge keeps
reports byte-identical between serial and ``--jobs N`` campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import PowerFailure, RecoveryError, SimulationError
from repro.faults.model import tear_points
from repro.fuzz.campaign import (
    STRESS_CONFIG,
    CaseResult,
    Verdict,
    Violation,
    _diagnose,
    batch_states,
    clean_verdict,
    read_durable,
    record,
)
from repro.fuzz.faultcampaign import _plan_from_fault, probe_media
from repro.mem.logregion import TWOPC_KINDS
from repro.shard.deployment import ShardedConfig, ShardedDeployment
from repro.shard.recovery import recover_deployment
from repro.shard.router import home_shard
from repro.shard.twopc import GTX_BASE

#: Fault flavours a cell can carry.
TWOPC_FAULTS = ("crash", "torn-decision")

#: Scheme grid: the FG baseline and the full design.
TWOPC_FUZZ_SCHEMES: Tuple[str, ...] = ("FG", "SLPMT")

#: Shard counts the default campaign sweeps (2 = the minimal protocol,
#: 3 = majorities and partial prepare sets exist).
TWOPC_FUZZ_SHARDS: Tuple[int, ...] = (2, 3)

#: Traffic for the campaign: txn-heavy so cross-shard 2PC dominates.
TWOPC_FUZZ_MIX: Dict[str, float] = {
    "put": 0.35,
    "get": 0.10,
    "scan": 0.05,
    "txn": 0.50,
}


@dataclass(frozen=True)
class TwoPCCell:
    """One (workload × scheme × shards × fault flavour) campaign cell."""

    workload: str
    scheme: str
    shards: int
    fault: str

    def __str__(self) -> str:
        return f"2pc/{self.workload}/{self.scheme}/s{self.shards}/{self.fault}"


#: The default grid: 8 cells — both schemes × both shard counts ×
#: both fault flavours over the hashtable (O(1) paths keep per-case
#: cost low enough for the exhaustive step sweeps).
DEFAULT_TWOPC_CELLS: Tuple[TwoPCCell, ...] = tuple(
    TwoPCCell("hashtable", scheme, shards, fault)
    for scheme in TWOPC_FUZZ_SCHEMES
    for shards in TWOPC_FUZZ_SHARDS
    for fault in TWOPC_FAULTS
)


@dataclass
class TwoPCCellReport:
    """Coverage and outcome summary for one 2PC cell."""

    cell: TwoPCCell
    num_requests: int
    step_points_total: int
    step_points_run: int
    persist_points_total: int
    persist_points_run: int
    fault_points_total: int
    fault_points_run: int
    exhaustive: bool
    #: Clean-run witnesses (determinism anchors for the report).
    acked: int
    xshard_commits: int
    cycles: int = 0
    pm_bytes: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.step_points_run + self.persist_points_run + self.fault_points_run


# ----------------------------------------------------------------------
# one case
# ----------------------------------------------------------------------


def _build_twopc(
    cell: TwoPCCell,
    *,
    num_clients: int,
    requests_per_client: int,
    value_bytes: int,
    seed: int,
    config: SystemConfig,
) -> ShardedDeployment:
    """A fresh sharded deployment for one campaign case.

    Small key space with zipfian skew keeps multi-key transactions
    crossing shards; ``verify=False`` because the campaign applies its
    own two-state + global-atomicity judgement instead of the clean-run
    verify."""
    from repro.service.tm import GroupCommitPolicy

    return ShardedDeployment(
        ShardedConfig(
            num_shards=cell.shards,
            workload=cell.workload,
            scheme=cell.scheme,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            value_bytes=value_bytes,
            num_keys=24,
            theta=0.6,
            mix=dict(TWOPC_FUZZ_MIX),
            txn_keys=4,
            arrival_cycles=600,
            batch=GroupCommitPolicy(batch_size=4),
            seed=seed,
            verify=False,
        ),
        config=config,
    )


def _check_twopc_recovered(dep: ShardedDeployment, resolution) -> Verdict:
    """Post-recovery acceptance: per-shard structure, placement and
    two-state oracles, then the explicit cross-shard atomicity check on
    the in-flight global transaction (see module docstring)."""
    durable: Dict[int, Tuple] = {}
    for node in dep.nodes:
        state, failure = read_durable(node.subject, f"s{node.shard_id}: ")
        if failure is not None:
            return failure
        durable[node.shard_id] = state

    # Placement: the router is the only write path, so every durable
    # key must live on its home shard.
    for shard, state in sorted(durable.items()):
        for key, _value in state:
            home = home_shard(key, dep.cfg.num_shards)
            if home != shard:
                return (
                    f"key {key} durable on shard {shard} but homes to {home}",
                    "placement",
                )

    # Per-shard two-state acceptance: the acked oracle, or the oracle
    # plus one whole in-flight group-commit batch (its commit marker
    # may have turned durable on the crashing drain).
    for node in dep.nodes:
        inflight = None
        if dep.inflight_local is not None and dep.inflight_local[0] == node.shard_id:
            inflight = dep.inflight_local[1]
        acceptable = batch_states(node.rm.committed, inflight)
        if durable[node.shard_id] not in acceptable:
            message, check = _diagnose(durable[node.shard_id], acceptable[0])
            return f"s{node.shard_id}: {message}", check

    # Global atomicity of the in-flight global transaction: resolved
    # commit => its writes durable on *every* participant; presumed
    # abort => durable on *none* (beyond what the oracle already holds).
    if dep.inflight_gtx is not None:
        gtx, plan, _request = dep.inflight_gtx
        fate = resolution.fates.get(gtx, "abort")
        label = f"g{gtx - GTX_BASE}"
        if fate == "commit":
            missing = sorted(
                shard
                for shard, writes in plan.items()
                if any(
                    dict(durable[shard]).get(key) != tuple(value)
                    for key, value in writes
                )
            )
            if missing:
                return (
                    f"{label} resolved commit but shard(s) {missing} "
                    "lack its writes",
                    "atomicity",
                )
        else:
            for shard, writes in sorted(plan.items()):
                oracle = dep.nodes[shard].rm.committed
                leaked = sorted(
                    key
                    for key, value in writes
                    if dict(durable[shard]).get(key) == tuple(value)
                    and oracle.get(key) != tuple(value)
                )
                if leaked:
                    return (
                        f"{label} presumed abort but shard {shard} durably "
                        f"holds its write(s) {leaked[:4]}",
                        "atomicity",
                    )

    # Resolution sanity: the campaign never damages prepare records of
    # a *decided* transaction, so a commit over an unsealed stage means
    # the resolver mis-read the logs.
    if resolution.incomplete_stages:
        return (
            f"commit resolved over unsealed stage(s) "
            f"{resolution.incomplete_stages[:4]}",
            "resolution",
        )
    return None, ""


def run_twopc_case(
    cell: TwoPCCell,
    crash_kind: str,
    crash_point: int,
    *,
    fault: Optional[Dict] = None,
    num_clients: int = 4,
    requests_per_client: int = 12,
    value_bytes: int = 32,
    seed: int = 7,
    config: SystemConfig = STRESS_CONFIG,
) -> CaseResult:
    """One crash-inject-recover-judge case over a fresh deployment.

    *crash_kind* is ``"step"`` (coordinator protocol-step index),
    ``"persist:<node>"`` (the *crash_point*-th post-setup durability
    event on machine ``coord`` / ``s0`` / …), or ``"fault"`` with
    *fault* carrying media-fault coordinates
    ``{"node": label, "kind": "torn-tail", "append": i, "cut": c}`` or
    ``{"node": label, "kind": "bit-flip", "append": i, "word": w,
    "bit": b}`` on that node's global append clock."""
    dep = _build_twopc(
        cell,
        num_clients=num_clients,
        requests_per_client=requests_per_client,
        value_bytes=value_bytes,
        seed=seed,
        config=config,
    )
    machines = dict(dep.all_machines())
    if fault is not None:
        machines[fault["node"]].pm.fault_model = _plan_from_fault(fault)
    elif crash_kind == "step":
        dep.coordinator.steps.crash_at = crash_point
    elif crash_kind.startswith("persist:"):
        machines[crash_kind.split(":", 1)[1]].schedule_crash_after_persists(
            crash_point
        )
    else:
        raise ValueError(f"unknown crash kind {crash_kind!r}")

    def result(crashed: bool, violation: Optional[str], check: str) -> CaseResult:
        return CaseResult(
            crashed, len(dep.committed), dep.coordinator.committed_gtxs,
            violation, check,
        )

    try:
        dep.serve()
    except PowerFailure:
        pass
    else:
        # The armed point lay beyond this run (caller-chosen points
        # only): finish cleanly and judge like a clean run.
        for machine in machines.values():
            machine.cancel_scheduled_crash()
            machine.pm.fault_model = None
        dep.coordinator.steps.crash_at = None

        def finish() -> None:
            dep.finish()
            for node in dep.nodes:
                node.rm.sync_expected()
                node.subject.verify(durable=True)

        return result(False, *clean_verdict(finish))

    dep.crash()
    damaged = False
    if fault is not None:
        node = machines[fault["node"]]
        node.pm.fault_model = None
        damaged, failure = probe_media(
            node.pm, node.scheme.logging_mode, fault, fault["node"]
        )
        if failure is not None:
            return result(True, *failure)

    try:
        resolution = recover_deployment(
            dep,
            policy="salvage" if fault is not None else "strict",
            from_bytes=fault is not None,
        )
    except RecoveryError as exc:
        return result(
            True,
            f"deployment recovery failed: {exc}",
            "salvage" if fault is not None else "structure",
        )
    if fault is not None and damaged:
        report = resolution.reports.get(fault["node"])
        if report is not None and not report.damaged:
            return result(
                True,
                f"salvage recovery on {fault['node']} did not "
                "disclose the media damage",
                "report",
            )
    return result(True, *_check_twopc_recovered(dep, resolution))


# ----------------------------------------------------------------------
# cell driver
# ----------------------------------------------------------------------


def _step_family(name: str) -> str:
    """The protocol-step family of a step name (``prepared:g3:s1`` →
    ``prepared``) — the unit of stratified coverage."""
    return name.split(":", 1)[0]


def _stratified_steps(
    names: Sequence[str], budget: int, rng: random.Random
) -> List[int]:
    """Pick up to *budget* step indices covering every step family.

    Round-robin over families (each shuffled by the cell RNG) so even a
    small budget crashes the coordinator at least once per protocol
    step kind — the ISSUE's coverage floor."""
    if len(names) <= budget:
        return list(range(len(names)))
    families: Dict[str, List[int]] = {}
    for index, name in enumerate(names):
        families.setdefault(_step_family(name), []).append(index)
    pools = [families[f] for f in sorted(families)]
    for pool in pools:
        rng.shuffle(pool)
    picked: List[int] = []
    round_i = 0
    while len(picked) < budget and any(pools):
        for pool in pools:
            if round_i < len(pool) and len(picked) < budget:
                picked.append(pool[round_i])
        round_i += 1
        if all(round_i >= len(pool) for pool in pools):
            break
    return sorted(picked)


def run_twopc_cell(
    cell: TwoPCCell,
    *,
    budget: int,
    seed: int,
    num_clients: int = 4,
    requests_per_client: int = 12,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
) -> TwoPCCellReport:
    """Run one 2PC cell's sweep.

    A clean dry run of the identical deployment enumerates the
    coordinator's protocol steps, every machine's post-setup durability
    events, and (for torn-decision cells) the protocol appends in every
    node's log; the sweep then crashes a fresh, identically seeded
    deployment at each chosen coordinate.  Case failures that are *not*
    judged violations (a harness bug, not a consistency bug) re-raise
    with the dying node and protocol step attached, so the parallel
    engine's :class:`~repro.parallel.engine.WorkerCrash` names exactly
    which shard and step died."""
    dep = _build_twopc(
        cell,
        num_clients=num_clients,
        requests_per_client=requests_per_client,
        value_bytes=value_bytes,
        seed=seed,
        config=config,
    )
    machines = dep.all_machines()
    events0 = {label: m.wpq.total_inserts for label, m in machines}
    appends0 = {label: m.pm.log_appends for label, m in machines}
    cycles0 = sum(m.now for _, m in machines)
    pm0 = sum(m.stats.pm_bytes_written for _, m in machines)
    dep.serve()
    step_names = list(dep.coordinator.steps.names)
    events = {
        label: m.wpq.total_inserts - events0[label] for label, m in machines
    }
    protocol_appends: List[Tuple[str, int, int]] = []
    for label, m in machines:
        for index in range(appends0[label], m.pm.log_appends):
            extent = m.pm.log_extents[index]
            if extent.entry.kind in TWOPC_KINDS:
                protocol_appends.append((label, index, extent.nwords))
    clean = dep.result()
    cycles = sum(m.now for _, m in machines) - cycles0
    pm_bytes = sum(m.stats.pm_bytes_written for _, m in machines) - pm0
    # Clean-run sanity: the deployment's own durability verify must
    # pass before any crash case of this cell is trusted.
    dep.finish()
    for node in dep.nodes:
        node.rm.sync_expected()
        node.subject.verify(durable=True)

    rng = random.Random(f"2pc-cell:{seed}:{cell}")
    step_points: List[int] = []
    persist_points: List[Tuple[str, int]] = []
    faults: List[Dict] = []
    if cell.fault == "crash":
        step_points = _stratified_steps(step_names, max(1, budget // 2), rng)
        persist_pool = [
            (label, point)
            for label, _ in machines
            for point in range(events[label])
        ]
        persist_budget = max(0, budget - len(step_points))
        if len(persist_pool) <= persist_budget:
            persist_points = persist_pool
        else:
            persist_points = sorted(
                rng.sample(persist_pool, persist_budget)
            )
        exhaustive = (
            len(step_points) == len(step_names)
            and len(persist_points) == len(persist_pool)
        )
        fault_pool_total = 0
    else:
        for label, index, nwords in protocol_appends:
            for _, cut in tear_points([nwords]):
                faults.append(
                    {
                        "node": label,
                        "kind": "torn-tail",
                        "append": index,
                        "cut": cut,
                    }
                )
            flip_rng = random.Random(f"2pc-flip:{seed}:{cell}:{label}:{index}")
            faults.append(
                {
                    "node": label,
                    "kind": "bit-flip",
                    "append": index,
                    "word": flip_rng.randrange(nwords),
                    "bit": flip_rng.randrange(64),
                }
            )
        fault_pool_total = len(faults)
        if len(faults) > budget:
            faults = [faults[i] for i in sorted(rng.sample(range(len(faults)), budget))]
            exhaustive = False
        else:
            exhaustive = True

    report = TwoPCCellReport(
        cell=cell,
        num_requests=clean.requests,
        step_points_total=len(step_names),
        step_points_run=len(step_points),
        persist_points_total=sum(events.values()),
        persist_points_run=len(persist_points),
        fault_points_total=fault_pool_total,
        fault_points_run=len(faults),
        exhaustive=exhaustive,
        acked=clean.acked,
        xshard_commits=clean.xshard_commits,
        cycles=cycles,
        pm_bytes=pm_bytes,
    )

    def _run(crash_kind: str, crash_point: int, fault: Optional[Dict], where: str) -> None:
        try:
            result = run_twopc_case(
                cell,
                crash_kind,
                crash_point,
                fault=fault,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                value_bytes=value_bytes,
                seed=seed,
                config=config,
            )
        except Exception as exc:  # harness failure, not a judged violation
            raise SimulationError(
                f"2pc case died at {where}: {type(exc).__name__}: {exc}"
            ) from exc
        record(report, cell, crash_kind, crash_point, result, fault)

    for point in step_points:
        _run("step", point, None, f"step #{point} ({step_names[point]})")
    for label, point in persist_points:
        _run(f"persist:{label}", point, None, f"persist #{point} on {label}")
    for fault in faults:
        _run("fault", int(fault.get("cut", fault.get("bit", 0))), fault,
             f"{fault['kind']} on {fault['node']} append #{fault['append']}")
    return report
