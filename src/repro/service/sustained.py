"""Campaign-scale sustained service load: sharded client populations.

One sustained run is *P* client populations served concurrently, one
:class:`~repro.service.server.TransactionService` per population.  Every
population gets the same :class:`~repro.service.server.ServiceConfig`
scalars and the same seed but a disjoint global client-id slice
(``client_base = p * clients_per_population``); streams and arrival
times hash the global client id, so the populations generate disjoint,
collision-free traffic and the whole run is a pure function of the
document parameters.

Populations are independent simulated machines (each with its own clock
starting at zero), which is exactly what lets the run ride the parallel
engine: each population is one
:func:`run_population` cell, and the parent
folds the per-population :class:`~repro.obs.telemetry.TelemetryWindows`
registries **in population order** via
:func:`~repro.obs.telemetry.merge_telemetry` — the byte-identical
ordered-merge contract every other sweep honours, so a ``--jobs N`` run
produces the same artifact as a serial one, byte for byte.

Duration mode does the sizing: every population serves until the
simulated clock passes ``duration_cycles`` (arrivals stop at the
horizon, the queue drains), so total request volume scales with the
horizon instead of a fixed per-client count.  The artifact quotes the
steady-state throughput of the *merged* registry with the straddled
tail window trimmed (:func:`~repro.obs.steady.steady_summary` with
``horizon_cycles``).

The checked-in artifact is registered as ``sustained_service`` in
:mod:`repro.artifacts`: ``python -m repro bench sustained_service
--check`` gates it (exact compare, modulo host timing) and ``python -m
repro obs equivalence sustained_service`` proves serial == ``--jobs N``
on a reduced shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List

from repro.obs.steady import steady_summary
from repro.obs.telemetry import TelemetryWindows, merge_telemetry

#: The merged registry is rebinned to ~this many windows for the
#: checked-in series and the steady detection.
TARGET_SUSTAINED_WINDOWS = 24

#: Counters every population cell carries into the artifact totals.
_TOTAL_FIELDS = (
    "requests",
    "acked",
    "shed",
    "reads",
    "batches",
    "committed_writes",
    "pm_bytes",
    "lock_grants",
    "lock_wounds",
    "lock_waits",
)


def population_cells(params) -> List[Dict[str, Any]]:
    """One cell per population, each on its own global client-id slice;
    every other param passes through unchanged."""
    shared = dataclasses.asdict(params)
    size = shared.pop("clients_per_population")
    count = shared.pop("populations")
    return [
        dict(shared, population=p, client_base=p * size, clients=size)
        for p in range(count)
    ]


def run_population(
    *, population, client_base, clients, batch_size, window_cycles, **kwargs
) -> Dict[str, Any]:
    """One client population: a full duration-mode service with its own
    machine, clock and telemetry registry.

    The slice is identified purely by ``client_base``: every stream and
    arrival seed hashes the *global* client id, so the population
    simulated serially or in a worker produces the identical request
    sequence.  The registry comes back in its ``to_dict`` form.
    """
    from repro.service.server import ServiceConfig, run_service
    from repro.service.tm import GroupCommitPolicy

    telemetry = TelemetryWindows(window_cycles)
    res = run_service(
        ServiceConfig(
            num_clients=clients,
            client_base=client_base,
            mode="open",
            keep_responses=False,
            batch=GroupCommitPolicy(batch_size=batch_size),
            **kwargs,
        ),
        telemetry=telemetry,
    )
    cell = {"population": population, "client_base": client_base, "clients": clients}
    for name in _TOTAL_FIELDS + ("cycles",):
        cell[name] = getattr(res, name)
    cell["telemetry"] = telemetry.to_dict()
    return cell


def reduce_sustained(params, rows) -> Dict[str, Any]:
    """Fold the populations **in population order** (the byte-identical
    ordered-merge contract) and quote the merged steady state."""
    cells = [dict(cell) for _, _, cell in rows]
    merged = merge_telemetry(
        [TelemetryWindows.from_dict(cell.pop("telemetry")) for cell in cells]
    )
    rebinned = merged.rebinned(
        max(1, merged.num_windows // TARGET_SUSTAINED_WINDOWS)
    )
    return {
        "totals": {
            name: sum(cell[name] for cell in cells) for name in _TOTAL_FIELDS
        },
        "per_population": [
            {k: v for k, v in cell.items() if k != "host_ms"} for cell in cells
        ],
        "steady": steady_summary(rebinned, horizon_cycles=params.duration_cycles),
        "acked_series": rebinned.series("acked"),
        "series_window_cycles": rebinned.window_cycles,
        # Exact fingerprint of the *fine* merged registry: the document
        # only carries the rebinned series, so this digest pins the
        # byte-identical merge at full resolution.
        "telemetry_sha256": hashlib.sha256(
            json.dumps(merged.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
    }


def format_sustained(doc: Dict[str, Any]) -> str:
    """Human-readable summary of a sustained-run document."""
    params = doc["params"]
    totals = doc["totals"]
    steady = doc["steady"]
    lat = steady["latency"]
    lines = [
        f"--- sustained service load ({params['workload']}/"
        f"{params['scheme']}, seed {params['seed']}) ---",
        f"  {params['populations']} populations x "
        f"{params['clients_per_population']} clients, "
        f"duration {params['duration_cycles']:,} cycles, "
        f"arrival {params['arrival_cycles']} "
        + (
            f"(target load {params['target_load']:g}/kcyc/pop), "
            if params.get("target_load")
            else ""
        )
        + f"batch<={params['batch_size']}"
        + (", locking" if params.get("locking") else ""),
        f"  served {totals['acked']:,}/{totals['requests']:,} requests "
        f"({totals['reads']:,} reads, {totals['committed_writes']:,} "
        f"committed writes in {totals['batches']:,} group commits, "
        f"{totals['shed']:,} shed)",
        f"  steady throughput {steady['throughput_kcyc']:g}/kcyc over "
        f"windows [{steady['window_lo']}, {steady['window_hi']}) of "
        f"{steady['windows_total']} "
        f"({'settled' if steady['steady'] else 'NOT settled'}), "
        f"latency p50={lat['p50']:,} p95={lat['p95']:,} p99={lat['p99']:,}",
    ]
    if params.get("locking"):
        lines.append(
            f"  lock manager: {totals['lock_grants']:,} grants, "
            f"{totals['lock_wounds']:,} wounds, "
            f"{totals['lock_waits']:,} waits"
        )
    lines.append(f"  telemetry sha256 {doc['telemetry_sha256'][:16]}…")
    return "\n".join(lines)
