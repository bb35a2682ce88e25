"""Media-fault injection campaign: torn tails, bit flips, dropped drains.

The crash campaign (:mod:`repro.fuzz.campaign`) assumes the media is
honest — a crash loses volatile state but every durable word survives
intact.  This driver removes that assumption.  Each *fault cell* is a
(workload × scheme × fault-kind) triple, and every case runs the cell's
deterministic op sequence with one planned media fault from
:mod:`repro.faults`:

* ``torn-tail`` — the in-flight log append is cut at a word boundary;
  the sweep is **exhaustive**: every word-boundary cut of every op-phase
  append, including the zero-cut (append lost) and the full-cut
  (no-damage control) coordinates;
* ``bit-flip`` — one seeded-random bit of one op-phase append flips the
  moment the entry reaches media, then the power dies;
* ``drop-drains`` — the machine crashes at a sampled durability event
  and the last N WPQ drains are reverted (a broken ADR energy reserve),
  rewinding the media to an earlier durability boundary.

After injection, every case is judged twice:

1. **strict probe** (on a snapshot, no hooks): ``recover(policy=
   "strict")`` must raise a typed error *iff* the media is damaged —
   a silent pass over damage, or a spurious raise over a clean log, is
   a violation.  For bit flips, the damage must be *detected* at all
   (CRC-32 catches every single-bit error by construction; an escape
   means the codec is broken).
2. **salvage recovery** (real image, workload hooks): ``recover(policy=
   "salvage")`` must produce a durable state consistent with the FG
   baseline — the two-state oracle for in-flight damage, the
   committed-prefix family for dropped drains — and must disclose the
   damage in its report.

Everything is seeded and Date-free, so a ``(seed, ops)`` pair replays
byte-for-byte; violations serialize through the reproducer/minimizer
with a ``fault`` field carrying the exact injection coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import (
    LogChecksumError,
    RecoveryError,
    SimulationError,
    TornLogError,
)
from repro.faults import BitFlip, DropDrains, FaultModel, TornAppend
from repro.faults.model import tear_points
from repro.fuzz.campaign import (
    STRESS_CONFIG,
    SUBJECTS,
    CaseResult,
    Op,
    Verdict,
    Violation,
    _build,
    _check_recovered,
    apply_op,
    baseline_states,
    clean_verdict,
    generate_ops,
    read_durable,
    record,
    run_ops,
)
from repro.fuzz.invariants import State
from repro.recovery.engine import recover

#: Scheme grid of the default fault campaign: the full design under both
#: logging disciplines (":redo" resolves via the scheme-name suffix).
DEFAULT_FAULT_SCHEMES: Tuple[str, ...] = ("SLPMT", "SLPMT:redo")

#: Annotation policy used by every fault cell (same as the SLPMT crash
#: cells; the in-place table ignores it).
FAULT_POLICY = "manual"

#: Drop-drain depth sweep: how many trailing durability groups vanish.
DROP_COUNTS: Tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class FaultCell:
    """One (workload × scheme × fault-kind) campaign cell."""

    workload: str
    scheme: str
    fault_kind: str

    def __str__(self) -> str:
        return f"{self.workload}/{self.scheme}/{self.fault_kind}"


@dataclass
class FaultCellReport:
    """Coverage and outcome for one fault cell."""

    cell: FaultCell
    num_ops: int
    appends: int
    cases_run: int
    exhaustive: bool
    fired: int
    salvaged_txs: int
    violations: List[Violation] = field(default_factory=list)


# ----------------------------------------------------------------------
# wire layout (dry run)
# ----------------------------------------------------------------------


def wire_layout(
    workload: str,
    scheme: str,
    policy: str,
    ops: Sequence[Op],
    *,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
) -> Tuple[int, List[int], int]:
    """Clean dry run of *ops*: returns ``(first_op_append, wire word
    count of every op-phase append, post-setup durability events)``.

    Fault coordinates address the global append clock, so the campaign
    tears/flips only op-phase appends (index ``first_op_append`` on) —
    setup crashes are the plain crash campaign's territory.
    """
    machine, rt, subject = _build(
        workload, scheme, policy, value_bytes=value_bytes, config=config
    )
    append0 = machine.pm.log_appends
    events0 = machine.wpq.total_inserts
    for op in ops:
        apply_op(subject, op)
    lengths = [e.nwords for e in machine.pm.log_extents[append0:]]
    return append0, lengths, machine.wpq.total_inserts - events0


# ----------------------------------------------------------------------
# one fault case
# ----------------------------------------------------------------------


def _plan_from_fault(fault: Dict):
    kind = fault["kind"]
    if kind == "torn-tail":
        return FaultModel(TornAppend(fault["append"], fault["cut"]))
    if kind == "bit-flip":
        return FaultModel(BitFlip(fault["append"], fault["word"], fault["bit"]))
    if kind == "drop-drains":
        return FaultModel(DropDrains(fault["count"]))
    raise SimulationError(f"unknown fault kind {kind!r}")


def run_fault_case(
    workload: str,
    scheme: str,
    policy: str,
    ops: Sequence[Op],
    fault: Dict,
    *,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
    baseline: Optional[List[State]] = None,
) -> CaseResult:
    """One inject-crash-recover-check experiment.

    *fault* is the JSON-serialisable coordinate dict a reproducer
    carries: ``{"kind": "torn-tail", "append": i, "cut": c}``,
    ``{"kind": "bit-flip", "append": i, "word": w, "bit": b}`` or
    ``{"kind": "drop-drains", "crash_point": p, "count": n}``.
    """
    if baseline is None:
        baseline = baseline_states(
            workload, ops, value_bytes=value_bytes, config=config
        )
    machine, rt, subject = _build(
        workload, scheme, policy, value_bytes=value_bytes, config=config
    )
    model = _plan_from_fault(fault)
    machine.pm.fault_model = model
    if fault["kind"] == "drop-drains":
        machine.pm.arm_journal()
        machine.schedule_crash_after_persists(fault["crash_point"])
    committed, oplog, crashed = run_ops(rt, subject, ops)
    if not crashed:
        # The plan never fired (coordinates past the run's end): a clean
        # completion, verified like any non-crash case.
        machine.cancel_scheduled_crash()
        machine.pm.fault_model = None
        violation, check = clean_verdict(subject.verify)
    else:
        machine.checkpoint = None
        machine.crash()
        machine.pm.fault_model = None
        model.apply_post_crash(machine.pm)
        violation, check = _judge_recovery(
            machine, subject, fault, baseline, committed
        )
    return CaseResult(crashed, committed, oplog.total_commits, violation, check)


def probe_media(
    pm, mode, fault: Dict, node: Optional[str] = None
) -> Tuple[bool, Optional[Tuple[str, str]]]:
    """Detection and strict probe of a fault-injected, crashed image.

    Returns ``(damaged, failure)``: whether the tolerant byte parse sees
    damage, and the ``(message, check)`` of a failed probe or None.

    * **detection** — whenever the injection actually damaged the media
      (the structural damage ledger is the ground truth — a zero-cut
      tear and a full-cut tear leave it empty on purpose), the tolerant
      byte parse must see it too.  A fired bit flip that parses clean is
      a CRC escape; a fired partial tear that parses clean is a framing
      bug.
    * **strict** — ``recover(policy="strict")`` on a snapshot (so the
      real image stays recoverable) must raise a typed error *iff* the
      media is damaged.

    *node* names the machine of a multi-node deployment in messages.
    """
    damaged = not pm.parse_byte_log_tolerant().clean
    if pm.log_damage and not damaged:
        return damaged, (
            f"media damage escaped the tolerant parse ({fault})",
            "detection",
        )
    strict_err: Optional[RecoveryError] = None
    try:
        recover(pm.snapshot(), mode=mode, from_bytes=True, policy="strict")
    except (TornLogError, LogChecksumError) as err:
        strict_err = err
    on = "" if node is None else f" on {node}"
    if damaged and strict_err is None:
        log = "log" if node is None else f"protocol log{on}"
        return damaged, (
            f"strict recovery silently accepted a damaged {log}", "strict"
        )
    if not damaged and strict_err is not None:
        return damaged, (
            f"strict recovery rejected an undamaged log{on}: {strict_err}",
            "strict",
        )
    return damaged, None


def _judge_recovery(
    machine,
    subject,
    fault: Dict,
    baseline: List[State],
    committed: int,
) -> Verdict:
    """The double judgement described in the module docstring."""
    mode = machine.scheme.logging_mode
    damaged, failure = probe_media(machine.pm, mode, fault)
    if failure is not None:
        return failure

    # Salvage recovery on the real image, with the workload's hooks —
    # from the byte stream, the view a real post-crash controller has
    # (it also makes the full-cut control entry visible: the append
    # completed on media even though the crash beat the bookkeeping).
    try:
        report = recover(
            machine.pm, mode=mode, hooks=[subject], from_bytes=True,
            policy="salvage",
        )
    except RecoveryError as exc:
        return f"salvage recovery failed: {exc}", "salvage"
    if damaged and not report.damaged:
        return (
            "salvage recovery did not disclose the media damage",
            "report",
        )

    if fault["kind"] == "drop-drains":
        return _check_prefix_family(subject, baseline, committed)
    return _check_recovered(subject, baseline, committed)


def _check_prefix_family(
    subject, baseline: List[State], committed: int
) -> Verdict:
    """Dropped drains rewind the media to an earlier durability event,
    so recovery must land on *some* committed prefix — at most
    ``committed + 1`` (in-flight marker already durable), possibly far
    earlier (a dropped commit-marker drain un-commits its transaction)."""
    state, failure = read_durable(subject)
    if failure is not None:
        return failure
    top = min(committed + 1, len(baseline) - 1)
    if any(state == baseline[k] for k in range(top + 1)):
        return None, ""
    return (
        "durable state after dropped drains matches no committed prefix",
        "prefix",
    )


# ----------------------------------------------------------------------
# cell + campaign drivers
# ----------------------------------------------------------------------


def _case_fault_list(
    cell: FaultCell,
    *,
    budget: int,
    seed: int,
    append0: int,
    lengths: List[int],
    events: int,
) -> Tuple[List[Dict], bool]:
    """The cell's fault coordinates and whether they are exhaustive.

    Torn tails always enumerate every word-boundary cut of every
    op-phase append; bit flips and dropped drains sample *budget*
    coordinates from the cell's seeded RNG.
    """
    if cell.fault_kind == "torn-tail":
        return (
            [
                {"kind": "torn-tail", "append": append0 + i, "cut": cut}
                for i, cut in tear_points(lengths)
            ],
            True,
        )
    if cell.fault_kind == "bit-flip":
        model = FaultModel(seed=seed)
        seen = set()
        faults: List[Dict] = []
        total_bits = sum(lengths) * 64
        for case in range(max(budget * 3, budget)):
            if len(faults) >= min(budget, total_bits):
                break
            flip = model.choose_flip(lengths, case=f"{cell}:{case}")
            if flip is None:
                break
            coord = (flip.append_index, flip.word, flip.bit)
            if coord in seen:
                continue
            seen.add(coord)
            faults.append(
                {
                    "kind": "bit-flip",
                    "append": append0 + flip.append_index,
                    "word": flip.word,
                    "bit": flip.bit,
                }
            )
        return faults, False
    if cell.fault_kind == "drop-drains":
        rng = random.Random(f"drop:{seed}:{cell.workload}:{cell.scheme}")
        faults = []
        points = list(range(events))
        rng.shuffle(points)
        for point in points[: max(1, budget // len(DROP_COUNTS))]:
            for count in DROP_COUNTS:
                faults.append(
                    {"kind": "drop-drains", "crash_point": point, "count": count}
                )
        return faults[:budget] if budget < len(faults) else faults, False
    raise SimulationError(f"unknown fault kind {cell.fault_kind!r}")


def run_fault_cell(
    cell: FaultCell,
    *,
    budget: int,
    seed: int,
    ops: Optional[Sequence[Op]] = None,
    num_ops: int = 10,
    value_bytes: int = 32,
    config: SystemConfig = STRESS_CONFIG,
    baseline: Optional[List[State]] = None,
) -> FaultCellReport:
    """Run one fault cell's sweep."""
    if ops is None:
        ops = generate_ops(cell.workload, num_ops, seed)
    if baseline is None:
        baseline = baseline_states(
            cell.workload, ops, value_bytes=value_bytes, config=config
        )
    append0, lengths, events = wire_layout(
        cell.workload, cell.scheme, FAULT_POLICY, ops,
        value_bytes=value_bytes, config=config,
    )
    faults, exhaustive = _case_fault_list(
        cell, budget=budget, seed=seed,
        append0=append0, lengths=lengths, events=events,
    )
    report = FaultCellReport(
        cell=cell,
        num_ops=len(ops),
        appends=len(lengths),
        cases_run=0,
        exhaustive=exhaustive,
        fired=0,
        salvaged_txs=0,
    )
    for fault in faults:
        result = run_fault_case(
            cell.workload, cell.scheme, FAULT_POLICY, ops, fault,
            value_bytes=value_bytes, config=config, baseline=baseline,
        )
        report.cases_run += 1
        report.fired += result.crashed
        record(report, cell, "fault", int(fault.get("crash_point", 0)),
               result, fault)
    return report


def default_fault_cells(
    *,
    subjects: Sequence[str] = SUBJECTS,
    schemes: Sequence[str] = DEFAULT_FAULT_SCHEMES,
    kinds: Sequence[str] = ("torn-tail", "bit-flip", "drop-drains"),
) -> List[FaultCell]:
    return [
        FaultCell(workload, scheme, kind)
        for workload in subjects
        for scheme in schemes
        for kind in kinds
    ]
