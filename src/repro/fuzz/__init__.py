"""Deterministic crash-consistency fuzzing campaigns.

The modules layer on :mod:`repro.recovery.crashsim`:

* :mod:`repro.fuzz.oplog` — per-transaction outcome capture via the
  :class:`~repro.runtime.ptx.PTx` ``op_log`` hook;
* :mod:`repro.fuzz.invariants` — fuzz subjects and their canonical
  durable state;
* :mod:`repro.fuzz.campaign`, :mod:`repro.fuzz.faultcampaign`,
  :mod:`repro.fuzz.twopc` — the cell and case functions of the five
  campaign families (single-core, multicore and service; media faults;
  cross-shard 2PC) and the shared judgement helpers;
* :mod:`repro.fuzz.kernel` — the family table, the one campaign driver
  and the one report writer;
* :mod:`repro.fuzz.minimize` — violation freezing, shrinking and JSON
  replay;
* :mod:`repro.fuzz.cli` — ``python -m repro fuzz [FAMILY]``.
"""

from repro.fuzz.campaign import (
    DEFAULT_CELLS,
    POLICIES,
    STRESS_CONFIG,
    CaseResult,
    CellReport,
    FuzzCell,
    Violation,
    generate_ops,
    run_case,
    run_cell,
)
from repro.fuzz.invariants import durable_state, make_subject
from repro.fuzz.kernel import FAMILIES, CampaignResult, format_report, run_campaign
from repro.fuzz.minimize import Reproducer, minimize, replay
from repro.fuzz.oplog import OpLog

__all__ = [
    "DEFAULT_CELLS",
    "FAMILIES",
    "POLICIES",
    "STRESS_CONFIG",
    "CampaignResult",
    "CaseResult",
    "CellReport",
    "FuzzCell",
    "Violation",
    "OpLog",
    "Reproducer",
    "durable_state",
    "format_report",
    "generate_ops",
    "make_subject",
    "minimize",
    "replay",
    "run_campaign",
    "run_case",
    "run_cell",
]
