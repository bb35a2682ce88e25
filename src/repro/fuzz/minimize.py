"""Violation shrinking and byte-for-byte replay, for every family.

A :class:`Reproducer` freezes everything a violation needs to fire
again: workload, scheme, annotation policy, value size, the exact op
list (or the request-volume scalars of a service / 2PC run), the exact
crash point and any media-fault coordinates.  Because the whole
simulator is deterministic (no wall clock, no unseeded RNG anywhere in
the stack), re-running a reproducer executes the identical instruction
stream and produces the identical violation message.

Shrinking happens in two phases:

1. **input** — greedy delta-debugging over the op sequence (dropping
   chunks, halving chunk sizes down to single ops), or for service and
   2PC reproducers halving the per-client request count and then
   peeling off clients; a candidate is kept when it still violates
   *somewhere* in its crash-point sweep;
2. **crash point** — over the shrunk input, take the smallest crash
   point of the same kind that still violates.  A media-fault plan is
   held fixed instead: its coordinates address the physical wire
   layout, so it cannot be re-scanned independently of the input.

The family-specific parts — which fields a violation freezes into, how
a reproducer replays, how many crash points it has — are hooks of the
family table (:data:`repro.fuzz.kernel.FAMILIES`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.fuzz.campaign import STRESS_CONFIG, CaseResult, Op, Violation
from repro.fuzz.kernel import FAMILIES, Family, resolve


@dataclass
class Reproducer:
    """A self-contained, JSON-serialisable violation reproducer.

    *fault* is None for plain crash violations.  For media-fault
    violations it carries the exact injection coordinates and
    ``crash_kind`` is ``"fault"``; *crash_point* is then meaningful only
    for drop-drain plans (it is mirrored inside the fault dict).

    *service* / *twopc* switch the replay target from an op sequence to
    a whole deterministic workload: a transaction-service run or a
    sharded 2PC deployment.  They carry the generation scalars (clients,
    requests per client, seed, batch size / shard count); *ops* is then
    empty and shrinking reduces the request volume instead of the op
    list.  A 2PC reproducer may also carry *fault* (a torn/flipped
    protocol record, with its node label).
    """

    workload: str
    scheme: str
    policy: str
    value_bytes: int
    ops: List[Op]
    crash_kind: str
    crash_point: int
    violation: str
    check: str
    fault: Optional[Dict] = None
    service: Optional[Dict] = None
    twopc: Optional[Dict] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Reproducer":
        """Parse a reproducer file; files written before the ``fault``,
        ``service`` or ``twopc`` fields existed load with them None."""
        data = json.loads(text)
        data["ops"] = [list(op) for op in data["ops"]]
        return cls(**data)

    @classmethod
    def from_violation(
        cls, family: str, violation: Violation, *, seed: int, **params: Any
    ) -> "Reproducer":
        """Freeze a *family* violation found by a campaign run with
        *seed* and *params* (missing params take the family defaults)."""
        spec = FAMILIES[family]
        if spec.freeze is None:
            raise ValueError(f"{family} violations have no reproducer")
        params = {**spec.params, **params}
        return cls(
            workload=violation.cell.workload,
            scheme=violation.cell.scheme,
            value_bytes=params["value_bytes"],
            crash_kind=violation.crash_kind,
            crash_point=violation.crash_point,
            violation=violation.message,
            check=violation.check,
            fault=dict(violation.fault) if violation.fault else None,
            **spec.freeze(violation.cell, params, seed),
        )

    @property
    def family(self) -> Family:
        """The family whose case this reproducer replays."""
        if self.twopc is not None:
            return FAMILIES["twopc"]
        if self.service is not None:
            return FAMILIES["service"]
        return FAMILIES["fault" if self.fault is not None else "single"]


def replay(
    rep: Reproducer, *, config: SystemConfig = STRESS_CONFIG
) -> CaseResult:
    """Re-run a reproducer exactly; deterministic by construction."""
    spec = rep.family
    return spec.replay(resolve(spec.case_fn), rep, config)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

#: Safety cap on crash points scanned per shrink candidate.
_SCAN_CAP = 800

#: A first violation: ``(crash point, message, check)``.
Found = Optional[Tuple[int, str, str]]


def first_violation(
    rep: Reproducer, *, config: SystemConfig = STRESS_CONFIG
) -> Found:
    """Scan *rep*'s crash points of its kind in ascending order and
    return the first violating ``(point, message, check)``, or None.
    A fault plan is not scanned: it is re-run as is."""
    if rep.fault is not None:
        points = [rep.crash_point]
    else:
        points = range(min(rep.family.points(rep, config), _SCAN_CAP))
    for point in points:
        result = replay(dataclasses.replace(rep, crash_point=point), config=config)
        if result.violation is not None:
            return point, result.violation, result.check
    return None


def _shrink_ops(rep: Reproducer, first: Callable[[Reproducer], Found]) -> Reproducer:
    """Greedy delta-debugging over the op list."""
    ops = [list(op) for op in rep.ops]
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        start = 0
        while start < len(ops) and len(ops) > 1:
            candidate = ops[:start] + ops[start + chunk:]
            if candidate and first(dataclasses.replace(rep, ops=candidate)):
                ops = candidate
            else:
                start += chunk
        chunk //= 2
    return dataclasses.replace(rep, ops=ops)


def _shrink_volume(
    rep: Reproducer, first: Callable[[Reproducer], Found]
) -> Reproducer:
    """Greedy request-volume shrinking: halve the per-client request
    count while the violation survives, then peel clients off one at a
    time."""
    key = "twopc" if rep.twopc is not None else "service"
    scalars = getattr(rep, key)

    def at(clients: int, requests: int) -> Reproducer:
        return dataclasses.replace(rep, **{key: dict(
            scalars, num_clients=clients, requests_per_client=requests
        )})

    clients, requests = scalars["num_clients"], scalars["requests_per_client"]
    while requests > 1 and first(at(clients, max(1, requests // 2))):
        requests = max(1, requests // 2)
    while clients > 1 and first(at(clients - 1, requests)):
        clients -= 1
    return at(clients, requests)


def minimize(
    rep: Reproducer, *, config: SystemConfig = STRESS_CONFIG
) -> Reproducer:
    """Shrink *rep* to a minimal reproducer (input first, then the crash
    point), re-verifying the violation at every step."""

    def first(candidate: Reproducer) -> Found:
        return first_violation(candidate, config=config)

    if rep.fault is None and rep.crash_point >= _SCAN_CAP:
        # No scan reaches the point: keep the reproducer as found.
        shrunk = rep
        result = replay(rep, config=config)
        found = None
        if result.violation is not None:
            found = rep.crash_point, result.violation, result.check
    else:
        shrink = _shrink_volume if rep.family.volume else _shrink_ops
        shrunk = shrink(rep, first)
        found = first(shrunk)
        if found is None:
            # Shrinking never removes the original failure: the unshrunk
            # input still violates, so fall back to it wholesale.
            shrunk, found = rep, first(rep)
    if found is None:
        raise AssertionError(
            "reproducer no longer violates — non-deterministic subject?"
        )
    point, message, check = found
    return dataclasses.replace(
        shrunk, crash_point=point, violation=message, check=check
    )
