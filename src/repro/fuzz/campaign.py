"""Crash-campaign cells: single-core, multi-core contention and service.

A campaign sweeps a grid of *cells* and, for each cell, crashes the same
deterministic execution at many points (the family table and driver
live in :mod:`repro.fuzz.kernel`).  This module holds the cell and case
functions of three families plus the judgement helpers every family
shares.

**Single-core** cells are (workload × scheme × annotation-policy)
triples crashed at two kinds of point:

* **durability-event points** (``crash_after_persists``): every WPQ
  insert is a potential crash point *inside* a commit sequence, exactly
  where the Figure-4 persist ordering matters.  For small op counts the
  driver enumerates every one of them (exhaustive); past the budget it
  samples from a seeded RNG.
* **instruction-boundary points**: sampled crash points between
  simulated memory instructions (the
  :class:`~repro.recovery.crashsim.InstructionLimit` checkpoint hook),
  covering mid-transaction volatile states that never reach the WPQ.

After each crash the machine recovers
(:func:`repro.recovery.engine.recover` plus the workload's own
recovery hook) and the durable image is checked three ways:

1. **structure** — the workload's integrity invariants;
2. **atomicity** — the durable logical state must be *exactly* one of
   two states: the committed prefix of the op sequence, or that prefix
   plus the in-flight operation (whose commit marker may have become
   durable before the crash reached the application);
3. **differential** — those two reference states come from a clean run
   of the **FG baseline** (no selective logging, no annotations), so any
   scheme/policy combination that diverges from FG's durable semantics
   is caught even if its state is self-consistent.

**Multi-core** cells crash N cores at scheduler turn switches;
**service** cells crash a group-commit transaction service at
durability events and instruction boundaries.

Everything is seeded and Date-free: the same ``(budget, seed)`` always
produces the identical campaign, which is what makes replay and
shrinking byte-for-byte reproducible.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import DEFAULT_CONFIG, CacheConfig, SystemConfig
from repro.common.errors import PowerFailure, RecoveryError, SimulationError
from repro.core.machine import Machine
from repro.core.schemes import scheme_by_name
from repro.fuzz.invariants import State, Subject, durable_state, make_subject
from repro.fuzz.oplog import OpLog
from repro.recovery.crashsim import InstructionLimit
from repro.recovery.engine import recover
from repro.runtime.hints import (
    COMPILER_DEFAULT,
    MANUAL,
    NO_ANNOTATIONS,
    AnnotationPolicy,
    Hint,
)
from repro.runtime.ptx import PTx
from repro.workloads import WORKLOADS

#: One op: ``[kind, key, value]`` — JSON-serialisable on purpose, so a
#: minimised reproducer round-trips through a file unchanged.
Op = List


# ----------------------------------------------------------------------
# annotation policies, including the deliberate §IV-A mis-annotation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _BuggyTombstonePolicy(AnnotationPolicy):
    """The Section IV-A hazard, on purpose.

    Treats tombstones like Pattern-1 new-allocation stores — log-free —
    instead of the correct lazy-but-logged combination.  The poisoned
    pre-existing node then persists in the LOGFREE_LINES commit phase
    *before* the commit marker, and a crash in that window rolls the
    transaction back around an already-clobbered node: the undo log has
    no pre-image to restore, so recovery resurrects a poisoned node.
    The campaign must catch this deterministically.
    """

    def flags(self, hint: Hint) -> Tuple[bool, bool]:
        if hint is Hint.TOMBSTONE:
            return (False, True)
        return super().flags(hint)


BUGGY_TOMBSTONE = _BuggyTombstonePolicy(
    name="manual-buggy-tombstone", honored=MANUAL.honored
)

#: Annotation policies addressable from cells and reproducer files.
POLICIES: Dict[str, AnnotationPolicy] = {
    "none": NO_ANNOTATIONS,
    "manual": MANUAL,
    "compiler": COMPILER_DEFAULT,
    "manual-buggy-tombstone": BUGGY_TOMBSTONE,
}


# ----------------------------------------------------------------------
# stress configuration: tiny caches force evictions, lazy-line drains,
# signature probes and WPQ pressure even at fuzz-sized op counts
# ----------------------------------------------------------------------

STRESS_CONFIG: SystemConfig = dataclasses.replace(
    DEFAULT_CONFIG,
    l1=CacheConfig(size_bytes=512, ways=2, latency_cycles=4),
    l2=CacheConfig(size_bytes=1024, ways=2, latency_cycles=12),
    l3=CacheConfig(size_bytes=8192, ways=4, latency_cycles=40),
)


# ----------------------------------------------------------------------
# results and judgement helpers shared by every family
# ----------------------------------------------------------------------


@dataclass
class Violation:
    """One invariant failure, with everything needed to reproduce it.

    *fault* carries the media-fault injection coordinates of fault
    cases (``crash_kind`` is then ``"fault"``) and is None otherwise.
    """

    cell: Any
    crash_kind: str
    crash_point: int
    check: str
    message: str
    fault: Optional[Dict] = None

    def __str__(self) -> str:
        where = f"@{self.crash_kind}:{self.crash_point}"
        if self.fault is not None:
            where = f"@{self.fault}"
        return f"{self.cell} {where} [{self.check}] {self.message}"


@dataclass
class CaseResult:
    """Outcome of one crash-inject-recover-check case."""

    crashed: bool
    committed_ops: int
    tx_commits: int
    violation: Optional[str] = None
    check: str = ""


#: A judgement: ``(violation message, check name)``, ``(None, "")`` if legal.
Verdict = Tuple[Optional[str], str]


def record(
    report: Any,
    cell: Any,
    crash_kind: str,
    crash_point: int,
    result: CaseResult,
    fault: Optional[Dict] = None,
) -> None:
    """Append *result*'s violation, if any, to the cell *report*."""
    if result.violation is not None:
        report.violations.append(
            Violation(cell, crash_kind, crash_point, result.check,
                      result.violation, fault)
        )


def read_durable(
    subject: Subject, prefix: str = ""
) -> Tuple[Optional[State], Optional[Tuple[str, str]]]:
    """The durable-state prologue of every post-crash judgement.

    Runs the workload's integrity check on the durable image, then reads
    its canonical durable state.  Returns ``(state, None)``, or
    ``(None, (message, check))`` when the image is structurally broken;
    *prefix* labels the message (a shard id, say).
    """
    try:
        if hasattr(subject, "check_integrity"):
            subject.check_integrity(subject.reader(durable=True))
        return durable_state(subject), None
    except RecoveryError as exc:
        return None, (f"{prefix}{exc}", "structure")
    except SimulationError as exc:
        # Traversal followed a corrupt pointer into unmapped PM.
        return None, (f"{prefix}durable traversal failed: {exc}", "structure")


def clean_verdict(verify: Callable[[], None]) -> Verdict:
    """Judge a run that completed without crashing: *verify* must pass."""
    try:
        verify()
    except RecoveryError as exc:
        return str(exc), "structure"
    return None, ""


def batch_states(committed: Dict, inflight: Optional[Sequence]) -> List[State]:
    """The acceptable durable states of a group-commit store: the acked
    oracle, or the oracle plus the *whole* in-flight batch applied in
    batch order (its commit marker may have become durable just before
    the crash surfaced)."""
    oracle = {k: tuple(v) for k, v in committed.items()}
    states = [tuple(sorted(oracle.items()))]
    if inflight:
        after = dict(oracle)
        for request in inflight:
            for key, value in zip(request.keys, request.values):
                after[key] = tuple(value)
        states.append(tuple(sorted(after.items())))
    return states


def arm_crash(machine: Machine, crash_kind: str, crash_point: int) -> None:
    """Arm a power failure at the *crash_point*-th post-setup durability
    event (``"persist"``) or memory instruction (``"instr"``)."""
    if crash_kind == "persist":
        machine.schedule_crash_after_persists(crash_point)
    elif crash_kind == "instr":
        machine.checkpoint = InstructionLimit(crash_point)
    else:
        raise ValueError(f"unknown crash kind {crash_kind!r}")


def plan_points(
    rng: random.Random,
    events: int,
    instrs: int,
    budget: int,
    persist_budget: Optional[int] = None,
    instr_budget: Optional[int] = None,
) -> Tuple[List[int], List[int], bool]:
    """Split a cell's case *budget* over crash points.

    Three quarters go to durability-event points — exhaustively when
    they fit, sampled otherwise — and the remainder to sampled
    instruction-boundary points; *persist_budget* / *instr_budget*
    override the split.  Returns ``(persist points, instruction points,
    exhaustive)``.
    """
    if persist_budget is None:
        persist_budget = max(1, (budget * 3) // 4)
    if events <= persist_budget:
        persist_points = list(range(events))
        exhaustive = True
    else:
        persist_points = sorted(rng.sample(range(events), persist_budget))
        exhaustive = False
    if instr_budget is None:
        instr_budget = max(0, budget - len(persist_points))
    instr_points = sorted(rng.sample(range(instrs), min(instr_budget, instrs)))
    return persist_points, instr_points, exhaustive


# ----------------------------------------------------------------------
# single-core cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzCell:
    """One (workload × scheme × annotation-policy) campaign cell."""

    workload: str
    scheme: str
    policy: str

    def __str__(self) -> str:
        return f"{self.workload}/{self.scheme}/{self.policy}"


#: All fuzzable subjects: the Table-II workloads plus the in-place table.
SUBJECTS: Tuple[str, ...] = tuple(WORKLOADS) + ("inplace",)

#: The default campaign grid: every subject under the FG baseline and
#: the three selective schemes the paper's soundness claim covers.
DEFAULT_CELLS: Tuple[FuzzCell, ...] = tuple(
    FuzzCell(workload, scheme, policy)
    for workload in SUBJECTS
    for scheme, policy in (
        ("FG", "none"),
        ("FG+LG", "manual"),
        ("FG+LZ", "manual"),
        ("SLPMT", "manual"),
    )
)


@dataclass
class CellReport:
    """Coverage and outcome summary for one campaign cell."""

    cell: FuzzCell
    num_ops: int
    persist_points_total: int
    persist_points_run: int
    exhaustive: bool
    instr_points_total: int
    instr_points_run: int
    tx_commits: int
    #: Clean-run perf of the cell's op sequence (post-setup deltas from
    #: the dry run) — ties each cell's crash coverage to the cost of the
    #: execution it swept.
    cycles: int = 0
    pm_bytes: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.persist_points_run + self.instr_points_run


def generate_ops(workload: str, num_ops: int, seed: int) -> List[Op]:
    """A deterministic op sequence for *workload*.

    The mix exercises every op kind the structure supports: fresh
    inserts, value-replacing re-inserts, removes of live keys, heap
    extracts, in-place slot updates and checkpoints.  Keys are drawn
    from a wide space so bucket/trie paths vary between seeds.
    """
    rng = random.Random(f"ops:{workload}:{seed}:{num_ops}")
    ops: List[Op] = []
    if workload == "inplace":
        for i in range(num_ops):
            if i > 0 and rng.random() < 0.1:
                ops.append(["checkpoint", 0, 0])
            else:
                ops.append(["update", rng.randrange(32), rng.randrange(1, 1 << 32)])
        return ops

    kinds = WORKLOADS[workload].fuzz_ops
    live: List[int] = []
    used = set()
    for _ in range(num_ops):
        r = rng.random()
        if "extract" in kinds and live and r < 0.35:
            ops.append(["extract", 0, 0])
            live.remove(max(live))
        elif "remove" in kinds and live and r < 0.35:
            key = rng.choice(live)
            ops.append(["remove", key, 0])
            live.remove(key)
        elif "remove" in kinds and live and r < 0.45:
            # Value-replacing re-insert of a live key.
            ops.append(["insert", rng.choice(live), 0])
        else:
            key = rng.randrange(1, 1 << 40)
            while key in used:
                key = rng.randrange(1, 1 << 40)
            used.add(key)
            ops.append(["insert", key, 0])
            live.append(key)
    return ops


def apply_op(subject: Subject, op: Op) -> None:
    """Apply one driver op to a live subject (one durable operation)."""
    kind, key, value = op[0], op[1], op[2]
    if kind == "insert":
        subject.insert(key)
    elif kind == "remove":
        subject.remove(key)
    elif kind == "extract":
        subject.extract_max()
    elif kind == "update":
        subject.update({key: value})
    elif kind == "checkpoint":
        subject.checkpoint()
    else:
        raise ValueError(f"unknown fuzz op kind {kind!r}")


def run_ops(rt: PTx, subject: Subject, ops: Sequence[Op]) -> Tuple[int, OpLog, bool]:
    """Apply *ops* in order under a fresh op log.

    Returns ``(committed ops, op log, crashed)``; a power failure stops
    the sequence at the op it interrupted.
    """
    oplog = OpLog()
    rt.op_log = oplog
    committed = 0
    try:
        for i, op in enumerate(ops):
            oplog.begin_op(i)
            apply_op(subject, op)
            committed += 1
    except PowerFailure:
        return committed, oplog, True
    return committed, oplog, False


def _build(
    workload: str,
    scheme: str,
    policy: str,
    *,
    value_bytes: int,
    config: SystemConfig,
) -> Tuple[Machine, PTx, Subject]:
    machine = Machine(scheme_by_name(scheme), config)
    rt = PTx(machine, policy=POLICIES[policy])
    subject = make_subject(workload, rt, value_bytes=value_bytes)
    return machine, rt, subject


def baseline_states(
    workload: str,
    ops: Sequence[Op],
    *,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
) -> List[State]:
    """Durable logical state after every committed prefix of *ops*,
    measured on the FG baseline (every store logged and eagerly
    persisted), so ``states[k]`` is the reference for "k ops committed".
    """
    machine, _rt, subject = _build(
        workload, "FG", "none", value_bytes=value_bytes, config=config
    )
    states: List[State] = [durable_state(subject)]
    for op in ops:
        apply_op(subject, op)
        states.append(durable_state(subject))
    return states


def run_case(
    workload: str,
    scheme: str,
    policy: str,
    ops: Sequence[Op],
    crash_kind: str,
    crash_point: int,
    *,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
    baseline: Optional[List[State]] = None,
) -> CaseResult:
    """One crash-inject-recover-check experiment.

    ``crash_kind`` is ``"persist"`` (the *crash_point*-th post-setup
    durability event) or ``"instr"`` (the *crash_point*-th post-setup
    memory instruction).  *baseline* is the FG reference from
    :func:`baseline_states`; when omitted it is computed on the fly.
    """
    if baseline is None:
        baseline = baseline_states(
            workload, ops, value_bytes=value_bytes, config=config
        )
    machine, rt, subject = _build(
        workload, scheme, policy, value_bytes=value_bytes, config=config
    )
    arm_crash(machine, crash_kind, crash_point)
    committed, oplog, crashed = run_ops(rt, subject, ops)
    machine.checkpoint = None
    if crashed:
        machine.crash()
        recover(machine.pm, mode=machine.scheme.logging_mode, hooks=[subject])
        violation, check = _check_recovered(subject, baseline, committed)
    else:
        machine.cancel_scheduled_crash()
        violation, check = clean_verdict(subject.verify)
    return CaseResult(crashed, committed, oplog.total_commits, violation, check)


def _check_recovered(
    subject: Subject, baseline: List[State], committed: int
) -> Verdict:
    """Structure + two-state atomicity/differential check: the durable
    image holds the *committed* prefix, or — the in-flight op's commit
    marker having become durable just before the crash reached the
    application — that prefix plus one."""
    state, failure = read_durable(subject)
    if failure is not None:
        return failure
    if state in baseline[committed:committed + 2]:
        return None, ""
    return _diagnose(state, baseline[committed])


def _diagnose(state: State, want: State) -> Tuple[str, str]:
    """Classify a state mismatch for the violation report."""
    got = dict(state)
    expect = dict(want)
    missing = sorted(k for k in expect if k not in got)
    if missing:
        return (
            f"committed key(s) {missing[:4]} missing from the durable state",
            "completeness",
        )
    extra = sorted(k for k in got if k not in expect)
    if extra:
        return (
            f"uncommitted/removed key(s) {extra[:4]} present in the durable state",
            "exactness",
        )
    wrong = sorted(k for k in expect if got.get(k) != expect[k])
    if wrong:
        return (
            f"key(s) {wrong[:4]} hold values diverging from the FG baseline",
            "differential",
        )
    return (
        "durable state diverges from the FG baseline (key multiplicity)",
        "differential",
    )


def _cell_dry_run(
    cell: FuzzCell,
    ops: Sequence[Op],
    *,
    value_bytes: int,
    config: SystemConfig,
) -> Tuple[int, int, int, int, int]:
    """Clean run of *ops* in this cell: post-setup durability-event and
    instruction totals, committed-transaction count (coverage), and the
    sequence's cycle / PM-byte cost (perf context for the report)."""
    machine, rt, subject = _build(
        cell.workload, cell.scheme, cell.policy,
        value_bytes=value_bytes, config=config,
    )
    events0 = machine.wpq.total_inserts
    instrs0 = machine.stats.instructions
    cycles0 = machine.now
    pm_bytes0 = machine.stats.pm_bytes_written
    _committed, oplog, _crashed = run_ops(rt, subject, ops)
    return (
        machine.wpq.total_inserts - events0,
        machine.stats.instructions - instrs0,
        oplog.total_commits,
        machine.now - cycles0,
        machine.stats.pm_bytes_written - pm_bytes0,
    )


def run_cell(
    cell: FuzzCell,
    *,
    budget: int,
    seed: int,
    ops: Optional[Sequence[Op]] = None,
    num_ops: int = 10,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
    baseline: Optional[List[State]] = None,
    persist_budget: Optional[int] = None,
    instr_budget: Optional[int] = None,
) -> CellReport:
    """Run one cell's crash-point sweep under a per-cell case budget
    (split by :func:`plan_points`; *persist_budget* / *instr_budget*
    override it — tests use this to force a purely exhaustive
    durability-event sweep).  Every scheme of a workload crashes the
    identical op sequence — that is what makes the differential check
    meaningful."""
    if ops is None:
        ops = generate_ops(cell.workload, num_ops, seed)
    if baseline is None:
        baseline = baseline_states(
            cell.workload, ops, value_bytes=value_bytes, config=config
        )
    events, instrs, tx_commits, cell_cycles, cell_pm_bytes = _cell_dry_run(
        cell, ops, value_bytes=value_bytes, config=config
    )
    rng = random.Random(f"cell:{seed}:{cell.workload}:{cell.scheme}:{cell.policy}")
    persist_points, instr_points, exhaustive = plan_points(
        rng, events, instrs, budget, persist_budget, instr_budget
    )
    report = CellReport(
        cell=cell,
        num_ops=len(ops),
        persist_points_total=events,
        persist_points_run=len(persist_points),
        exhaustive=exhaustive,
        instr_points_total=instrs,
        instr_points_run=len(instr_points),
        tx_commits=tx_commits,
        cycles=cell_cycles,
        pm_bytes=cell_pm_bytes,
    )
    for kind, points in (("persist", persist_points), ("instr", instr_points)):
        for point in points:
            result = run_case(
                cell.workload, cell.scheme, cell.policy, ops, kind, point,
                value_bytes=value_bytes, config=config, baseline=baseline,
            )
            record(report, cell, kind, point, result)
    return report


# ----------------------------------------------------------------------
# multi-core contention cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MultiCoreCell:
    """One (workload × scheme × cores × θ) contention-campaign cell."""

    workload: str
    scheme: str
    cores: int
    theta: float

    def __str__(self) -> str:
        return f"{self.workload}/{self.scheme}/c{self.cores}/t{self.theta:g}"


#: Schemes the contention campaign sweeps by default: the FG baseline,
#: lazy persistency (whose cross-core forcing is the paper's §III-C3
#: hazard surface) and the full SLPMT design.
MULTICORE_SCHEMES: Tuple[str, ...] = ("FG", "FG+LZ", "SLPMT")

#: Default contention grid: shared hashtable, N ∈ {1, 2, 4}, uniform
#: and hot-key skew.  N=1 keeps a no-contention control in every sweep.
DEFAULT_MULTICORE_CELLS: Tuple[MultiCoreCell, ...] = tuple(
    MultiCoreCell("hashtable", scheme, cores, theta)
    for scheme in MULTICORE_SCHEMES
    for cores in (1, 2, 4)
    for theta in (0.0, 0.9)
)


@dataclass
class MultiCoreCellReport:
    """Coverage and outcome summary for one contention cell."""

    cell: MultiCoreCell
    ops_per_core: int
    #: Turn switches in the clean run = the cell's interleaving points.
    switch_points_total: int
    switch_points_run: int
    exhaustive: bool
    #: Clean-run contention profile (determinism witnesses: byte-equal
    #: between serial and --jobs N sweeps, and across reruns).
    conflicts: int
    aborts: int
    commits: int
    cycles: int = 0
    pm_bytes: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.switch_points_run


def _build_contention(
    cell: MultiCoreCell,
    *,
    ops_per_core: int,
    num_keys: int,
    value_bytes: int,
    seed: int,
    config: SystemConfig,
):
    """A fresh system + subject + streams for one contention case."""
    from repro.multicore.system import MultiCoreSystem
    from repro.workloads.shared import generate_streams

    system = MultiCoreSystem(
        cell.cores, scheme_by_name(cell.scheme), config, seed=seed
    )
    subject = WORKLOADS[cell.workload](
        system.runtimes[0], value_bytes=value_bytes
    )
    streams = generate_streams(
        cell.cores,
        ops_per_core,
        theta=cell.theta,
        num_keys=num_keys,
        value_words=subject.value_words,
        seed=seed,
    )
    return system, subject, streams


def _check_multicore_recovered(subject: Subject, in_flight: "List") -> Verdict:
    """Post-crash acceptance check for an N-core contention run.

    With N cores there can be up to N transactions in flight at the
    crash, so the single-core two-state check generalises to a state
    *family*: the durable image must equal the committed oracle plus
    **any subset** of the in-flight operations.  Concretely:

    * ``structure`` — the workload's own integrity invariants hold;
    * ``completeness`` — every committed key is durable, holding either
      its committed value or the value of an in-flight op on that key
      (whose commit marker may have become durable just before the
      crash unwound the worker);
    * ``exactness`` — every durable key is committed or in flight, and
      no key appears twice (a torn or resurrected node can never hide
      behind contention).

    The oracle is exact because it is updated inside the committing
    worker's scheduler turn, after ``run_atomically`` returns — commit
    order and oracle order coincide by construction.
    """
    state, failure = read_durable(subject)
    if failure is not None:
        return failure

    committed = {k: tuple(v) for k, v in subject.expected.items()}
    pending: Dict[int, set] = {}
    for op in in_flight:
        if op is not None:
            pending.setdefault(op.key, set()).add(tuple(op.value))

    seen = set()
    for key, value in state:
        if key in seen:
            return f"key {key} appears twice in the durable structure", "exactness"
        seen.add(key)
        allowed = set()
        if key in committed:
            allowed.add(committed[key])
        allowed |= pending.get(key, set())
        if not allowed:
            return (
                f"uncommitted key {key} present in the durable state",
                "exactness",
            )
        if value not in allowed:
            return (
                f"key {key} holds a value that is neither its committed "
                f"nor any in-flight value",
                "completeness",
            )
    missing = sorted(k for k in committed if k not in seen)
    if missing:
        return (
            f"committed key(s) {missing[:4]} missing from the durable state",
            "completeness",
        )
    return None, ""


def run_multicore_case(
    cell: MultiCoreCell,
    crash_switch: int,
    *,
    ops_per_core: int,
    num_keys: int,
    value_bytes: int,
    seed: int,
    config: SystemConfig,
) -> CaseResult:
    """One contention crash case: run the cell's streams with a power
    failure armed at the *crash_switch*-th turn switch, recover the
    shared PM, and judge the durable image."""
    from repro.workloads.shared import replay_contention

    system, subject, streams = _build_contention(
        cell,
        ops_per_core=ops_per_core,
        num_keys=num_keys,
        value_bytes=value_bytes,
        seed=seed,
        config=config,
    )
    system.scheduler.crash_at_switch = crash_switch
    in_flight = replay_contention(system, subject, streams)
    crashed = system.scheduler.crashed
    if crashed:
        system.crash()
        recover(
            system.pm,
            mode=system.cores[0].scheme.logging_mode,
            hooks=[subject],
        )
        violation, check = _check_multicore_recovered(subject, in_flight)
    else:
        # The armed point lay beyond this run's switch count (can only
        # happen for caller-chosen points): a clean completion, judged
        # like one.
        system.fence_all()
        violation, check = clean_verdict(lambda: subject.verify(durable=True))
    return CaseResult(
        crashed, len(subject.expected), system.total_commits(), violation, check
    )


def run_multicore_cell(
    cell: MultiCoreCell,
    *,
    budget: int,
    seed: int,
    ops_per_core: int = 12,
    num_keys: int = 16,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
) -> MultiCoreCellReport:
    """Run one contention cell's crash-point sweep.

    A clean dry run measures the cell's interleaving-point count (the
    scheduler's ``switches`` total) and its contention profile; the
    sweep then crashes a fresh, identically seeded system at every
    switch when they fit the *budget*, or at a seeded sample otherwise.
    Everything derives from ``(cell, seed)``, so the report is
    byte-identical between serial and parallel campaigns.
    """
    from repro.workloads.shared import replay_contention

    system, subject, streams = _build_contention(
        cell,
        ops_per_core=ops_per_core,
        num_keys=num_keys,
        value_bytes=value_bytes,
        seed=seed,
        config=config,
    )
    cycles0 = sum(core.now for core in system.cores)
    pm0 = system.merged_stats().pm_bytes_written
    replay_contention(system, subject, streams)
    system.fence_all()
    subject.verify(durable=True)
    stats = system.merged_stats()
    switches = system.scheduler.switches

    rng = random.Random(f"mc:{seed}:{cell}")
    # Switch 1 is the pre-run turn draw; crashing there still exercises
    # the all-volatile-lost path, so the range starts at 1.
    if switches <= budget:
        points = list(range(1, switches + 1))
        exhaustive = True
    else:
        points = sorted(rng.sample(range(1, switches + 1), budget))
        exhaustive = False

    report = MultiCoreCellReport(
        cell=cell,
        ops_per_core=ops_per_core,
        switch_points_total=switches,
        switch_points_run=len(points),
        exhaustive=exhaustive,
        conflicts=system.conflicts,
        aborts=stats.aborts,
        commits=stats.commits,
        cycles=sum(core.now for core in system.cores) - cycles0,
        pm_bytes=stats.pm_bytes_written - pm0,
    )
    for point in points:
        result = run_multicore_case(
            cell,
            point,
            ops_per_core=ops_per_core,
            num_keys=num_keys,
            value_bytes=value_bytes,
            seed=seed,
            config=config,
        )
        record(report, cell, "switch", point, result)
    return report


# ----------------------------------------------------------------------
# transaction-service cells (group-commit durability)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceCell:
    """One (workload × scheme × group-commit batch size) service cell.

    ``locking`` routes write batches through the wound-wait lock
    manager with round-robin batch fill — the multi-structure
    configuration the composite workloads exercise.  The trailing
    default keeps ``ServiceCell(workload, scheme, batch_size)`` (and
    older reproducer files without the flag) working unchanged.
    """

    workload: str
    scheme: str
    batch_size: int
    locking: bool = False

    def __str__(self) -> str:
        suffix = "+lk" if self.locking else ""
        return f"svc/{self.workload}/{self.scheme}/b{self.batch_size}{suffix}"


#: Schemes the service campaign sweeps by default: the FG baseline and
#: the full design.
SERVICE_SCHEMES: Tuple[str, ...] = ("FG", "SLPMT")

#: Default service campaign grid: each scheme with and without group
#: commit over the hashtable (the structure whose O(1) paths keep
#: per-case cost low enough for exhaustive durability-event sweeps),
#: plus the composite multi-structure workload behind the wound-wait
#: lock manager — every ``multistruct`` insert spans map, queue and
#: counter, so these cells prove cross-structure atomicity through the
#: lock manager at every crash point.
DEFAULT_SERVICE_CELLS: Tuple[ServiceCell, ...] = tuple(
    ServiceCell("hashtable", scheme, batch)
    for scheme in SERVICE_SCHEMES
    for batch in (1, 8)
) + tuple(
    ServiceCell("multistruct", scheme, 8, locking=True)
    for scheme in SERVICE_SCHEMES
)

#: Service campaign traffic: write-heavy with multi-key transactions so
#: a group commit's all-or-nothing set spans clients and keys.
SERVICE_FUZZ_MIX: Dict[str, float] = {
    "put": 0.65,
    "get": 0.15,
    "scan": 0.05,
    "txn": 0.15,
}


@dataclass
class ServiceCellReport:
    """Coverage and outcome summary for one service cell."""

    cell: ServiceCell
    num_requests: int
    persist_points_total: int
    persist_points_run: int
    exhaustive: bool
    instr_points_total: int
    instr_points_run: int
    #: Clean-run service profile (determinism witnesses).
    batches: int
    acked: int
    cycles: int = 0
    pm_bytes: int = 0
    #: Clean-run windowed telemetry: steady-state detection over the
    #: acked-per-window series (see :mod:`repro.obs.steady`).
    windows: int = 0
    steady: bool = False
    window_lo: int = 0
    window_hi: int = 0
    steady_kcyc: float = 0.0
    violations: List[Violation] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return self.persist_points_run + self.instr_points_run


def _build_service(
    cell: ServiceCell,
    *,
    num_clients: int,
    requests_per_client: int,
    value_bytes: int,
    seed: int,
    config: SystemConfig,
    telemetry=None,
    duration_cycles: Optional[int] = None,
):
    """A fresh transaction service for one campaign case.

    ``block`` admission so every request eventually commits (maximum
    durability surface), open-loop arrivals fast enough to keep batches
    full, and ``verify=False`` — the campaign applies its own two-state
    acceptance check instead of the clean-run verify.  Locking cells
    route batches through the wound-wait lock manager with round-robin
    batch fill (the fill order the lock manager's deferral re-queueing
    is designed against)."""
    from repro.service.admission import AdmissionPolicy
    from repro.service.server import ServiceConfig, TransactionService
    from repro.service.tm import GroupCommitPolicy

    return TransactionService(
        ServiceConfig(
            workload=cell.workload,
            scheme=cell.scheme,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            value_bytes=value_bytes,
            num_keys=24,
            theta=0.6,
            mix=dict(SERVICE_FUZZ_MIX),
            arrival_cycles=600,
            batch=GroupCommitPolicy(batch_size=cell.batch_size),
            admission=AdmissionPolicy(
                max_depth=64,
                mode="block",
                fairness="round-robin" if cell.locking else "fifo",
            ),
            seed=seed,
            verify=False,
            locking=cell.locking,
            duration_cycles=duration_cycles,
        ),
        config=config,
        telemetry=telemetry,
    )


def _check_service_recovered(svc) -> Verdict:
    """Post-crash acceptance check for a transaction-service run.

    The service's durability contract is judged against its *committed
    oracle* (every acknowledged write, folded in at group commit) and
    the in-flight batch:

    * ``structure`` — the workload's integrity invariants hold;
    * **ack ⇒ durable** — the durable logical state contains every
      acknowledged write's exact effect (the oracle state);
    * **atomicity** — the only other legal image is the oracle plus the
      *entire* in-flight batch applied in batch order (see
      :func:`batch_states`).  A partial batch — some requests' effects
      durable, others' not — is a violation, as is any unacknowledged
      effect outside the in-flight batch.
    """
    subject = svc.subject
    state, failure = read_durable(subject)
    if failure is not None:
        return failure
    acceptable = batch_states(svc.rm.committed, svc.inflight)
    if state not in acceptable:
        return _diagnose(state, acceptable[0])

    # Cross-structure atomicity: on composite subjects the durable
    # queue chain and event counter must land on the same side of the
    # commit boundary as the map image — the acknowledged chain (queue
    # facet order) or that plus the whole in-flight batch, never a mix.
    if hasattr(subject, "queue_keys") and "queue" in getattr(
        svc.rm, "structures", {}
    ):
        read = subject.reader(durable=True)
        try:
            chain = tuple(subject.queue_keys(read))
            counter = subject.counter_value(read)
        except SimulationError as exc:
            return f"durable queue traversal failed: {exc}", "xstructure"
        acked_chain = tuple(svc.rm.structures["queue"].order)
        legal_chains = [acked_chain]
        if svc.inflight:
            legal_chains.append(
                acked_chain
                + tuple(k for r in svc.inflight for k in r.keys)
            )
        if chain not in legal_chains:
            return (
                f"durable queue chain ({len(chain)} nodes) matches "
                f"neither the acked chain ({len(acked_chain)}) nor "
                f"acked+inflight ({len(legal_chains[-1])})",
                "xstructure",
            )
        if counter != len(chain):
            return (
                f"durable counter {counter} != queue chain length "
                f"{len(chain)}",
                "xstructure",
            )
    return None, ""


def run_service_case(
    cell: ServiceCell,
    crash_kind: str,
    crash_point: int,
    *,
    num_clients: int = 5,
    requests_per_client: int = 16,
    value_bytes: int = 32,
    seed: int = 7,
    config: SystemConfig = STRESS_CONFIG,
    duration_cycles: Optional[int] = None,
) -> CaseResult:
    """One service crash case: serve with a power failure armed at the
    *crash_point*-th post-setup durability event (``"persist"``) or
    memory instruction (``"instr"``), recover, and judge the durable
    image against the acknowledgement oracle."""
    svc = _build_service(
        cell,
        num_clients=num_clients,
        requests_per_client=requests_per_client,
        value_bytes=value_bytes,
        seed=seed,
        config=config,
        duration_cycles=duration_cycles,
    )
    machine = svc.machine
    arm_crash(machine, crash_kind, crash_point)
    try:
        svc.serve()
        crashed = False
    except PowerFailure:
        crashed = True
    machine.checkpoint = None
    if crashed:
        machine.crash()
        recover(
            machine.pm, mode=machine.scheme.logging_mode, hooks=[svc.subject]
        )
        violation, check = _check_service_recovered(svc)
    else:
        # The armed point lay beyond this run's count (caller-chosen
        # points only): finish cleanly and judge like a clean run.
        machine.cancel_scheduled_crash()

        def finish() -> None:
            svc.finish()
            svc.rm.sync_expected()
            svc.subject.verify(durable=True)

        violation, check = clean_verdict(finish)
    return CaseResult(
        crashed, len(svc.rm.committed), svc.tm.commits, violation, check
    )


def run_service_cell(
    cell: ServiceCell,
    *,
    budget: int,
    seed: int,
    num_clients: int = 5,
    requests_per_client: int = 16,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
    duration_cycles: Optional[int] = None,
) -> ServiceCellReport:
    """Run one service cell's crash-point sweep.

    A clean dry run of the identical service measures its post-setup
    durability-event and instruction counts; the sweep then crashes a
    fresh, identically seeded service at each point planned by
    :func:`plan_points`.  Everything derives from ``(cell, seed)``.

    The clean run also carries a windowed telemetry registry (passive,
    so the crash points it derives are unaffected); its steady-state
    summary lands in the report — a campaign cell quoting cycles from a
    run that never settled says so in the table.
    """
    from repro.obs.steady import steady_summary
    from repro.obs.telemetry import TelemetryWindows

    fine = TelemetryWindows(window_cycles=1024)
    svc = _build_service(
        cell,
        num_clients=num_clients,
        requests_per_client=requests_per_client,
        value_bytes=value_bytes,
        seed=seed,
        config=config,
        telemetry=fine,
        duration_cycles=duration_cycles,
    )
    events0 = svc.machine.wpq.total_inserts
    instrs0 = svc.machine.stats.instructions
    cycles0 = svc.machine.now
    pm0 = svc.machine.stats.pm_bytes_written
    svc.serve()
    events = svc.machine.wpq.total_inserts - events0
    instrs = svc.machine.stats.instructions - instrs0
    clean = svc.result()
    # Clean-run sanity: the service's own fence + verify must pass
    # before any crash case of this cell is trusted.
    svc.finish()
    svc.rm.sync_expected()
    svc.subject.verify(durable=True)

    rng = random.Random(f"svc-cell:{seed}:{cell}")
    persist_points, instr_points, exhaustive = plan_points(
        rng, events, instrs, budget
    )
    telemetry = fine.rebinned(max(1, fine.num_windows // 8))
    steady = steady_summary(telemetry)
    report = ServiceCellReport(
        cell=cell,
        num_requests=clean.requests,
        persist_points_total=events,
        persist_points_run=len(persist_points),
        exhaustive=exhaustive,
        instr_points_total=instrs,
        instr_points_run=len(instr_points),
        batches=clean.batches,
        acked=clean.acked,
        cycles=svc.machine.now - cycles0,
        pm_bytes=svc.machine.stats.pm_bytes_written - pm0,
        windows=steady["windows_total"],
        steady=steady["steady"],
        window_lo=steady["window_lo"],
        window_hi=steady["window_hi"],
        steady_kcyc=steady["throughput_kcyc"],
    )
    for kind, points in (("persist", persist_points), ("instr", instr_points)):
        for point in points:
            result = run_service_case(
                cell,
                kind,
                point,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                value_bytes=value_bytes,
                seed=seed,
                config=config,
                duration_cycles=duration_cycles,
            )
            record(report, cell, kind, point, result)
    return report
