"""Throughput-vs-latency curves: arrival-rate sweeps per scheme.

The serving papers this repo reproduces (Giles et al., Marathe et al.)
evaluate designs on load curves: sweep the offered arrival rate, quote
the *steady-state* sustained throughput against the tail latency at
each point, and read off the knee — the last load point that buys
throughput without paying the latency blow-up.  This module is that
pipeline over the PR 6 service:

1. one :func:`run_curve_cell` per (scheme, arrival rate): a full
   deterministic service run with a
   :class:`~repro.obs.telemetry.TelemetryWindows` attached;
2. warm-up trimming + steady-state detection per cell
   (:func:`repro.obs.steady.steady_summary` — every quoted number comes
   from the detected steady window range, and the range is reported);
3. :func:`repro.obs.steady.knee_index` across each scheme's load
   points, marked in the artifact.

Cells record at a fine base window, then deterministically rebin
(:meth:`~repro.obs.telemetry.TelemetryWindows.rebinned`) so every cell
analyses ~:data:`TARGET_WINDOWS` windows regardless of how far past the
arrival horizon an overloaded run drains — each analysed window then
holds enough completions for the windowed-mean convergence test.
Windows are a *per-cell* unit, which is fine because steady detection
and merging only ever happen within a cell.

Artifacts: a JSON document (full per-cell summaries + window series)
and a gnuplot-friendly table (one dataset block per scheme), written
under ``benchmarks/results/`` by ``python -m repro bench curve_service``
and checked in — the determinism suite re-derives them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.steady import curve_table, knee_index, steady_summary
from repro.obs.telemetry import TelemetryWindows

#: Curve-cell service shape: small enough for CI, long enough that
#: every analysed window holds ~25-40 completions.  The batch size is
#: halved from the service default so group-commit ack bursts don't
#: dominate per-window variance (a burst of 8 against ~30 acks/window
#: is ±27% quantisation noise — more than the convergence tolerance).
CURVE_CLIENTS = 4
CURVE_REQUESTS = 80
CURVE_VALUE_BYTES = 32
CURVE_NUM_KEYS = 48
CURVE_THETA = 0.6
CURVE_BATCH_SIZE = 4


def curve_cell_config(
    scheme: str,
    arrival_cycles: int,
    *,
    workload: str = "hashtable",
    seed: int = 2023,
    duration_cycles: "Optional[int]" = None,
):
    """The :class:`~repro.service.server.ServiceConfig` of one cell.

    With *duration_cycles* the cell runs in duration mode: the fixed
    request count is ignored and arrivals stop at the horizon."""
    from repro.service.server import ServiceConfig
    from repro.service.tm import GroupCommitPolicy

    return ServiceConfig(
        workload=workload,
        scheme=scheme,
        num_clients=CURVE_CLIENTS,
        requests_per_client=CURVE_REQUESTS,
        value_bytes=CURVE_VALUE_BYTES,
        num_keys=CURVE_NUM_KEYS,
        theta=CURVE_THETA,
        mode="open",
        arrival_cycles=arrival_cycles,
        batch=GroupCommitPolicy(batch_size=CURVE_BATCH_SIZE),
        seed=seed,
        duration_cycles=duration_cycles,
    )


#: Recording granularity; cells rebin from here to ~TARGET_WINDOWS.
BASE_WINDOW_CYCLES = 1024
TARGET_WINDOWS = 10


def run_curve_cell(
    scheme: str,
    arrival_cycles: int,
    *,
    workload: str = "hashtable",
    seed: int = 2023,
    window_cycles: int = BASE_WINDOW_CYCLES,
    duration_cycles: "Optional[int]" = None,
) -> Dict[str, Any]:
    """One load point: run the service, trim warm-up, quote steady
    numbers.  Fully deterministic from the arguments.  In duration mode
    the straddled tail window past the horizon is trimmed before
    detection (see :func:`~repro.obs.steady.steady_summary`)."""
    from repro.service.server import run_service

    cfg = curve_cell_config(
        scheme, arrival_cycles, workload=workload, seed=seed,
        duration_cycles=duration_cycles,
    )
    fine = TelemetryWindows(window_cycles)
    res = run_service(cfg, telemetry=fine)
    telemetry = fine.rebinned(max(1, fine.num_windows // TARGET_WINDOWS))
    summary = steady_summary(telemetry, horizon_cycles=duration_cycles)
    latency = summary["latency"]
    cell = {
        "scheme": scheme,
        "workload": workload,
        "arrival_cycles": arrival_cycles,
        "offered_kcyc": round(1000.0 * CURVE_CLIENTS / arrival_cycles, 4),
        "requests": res.requests,
        "acked": res.acked,
        "shed": res.shed,
        "cycles": res.cycles,
        "throughput_kcyc": summary["throughput_kcyc"],
        "p50": latency["p50"],
        "p95": latency["p95"],
        "p99": latency["p99"],
        "steady": summary["steady"],
        "window_cycles": telemetry.window_cycles,
        "windows_total": summary["windows_total"],
        "window_lo": summary["window_lo"],
        "window_hi": summary["window_hi"],
        "latency": latency,
        "acked_series": telemetry.series("acked"),
    }
    if duration_cycles is not None:
        cell["duration_cycles"] = duration_cycles
    return cell


def reduce_curve(params, rows) -> Dict[str, Any]:
    """The curve document body: every (scheme, arrival) cell in
    ascending offered load, knees marked per scheme."""
    points: List[Dict[str, Any]] = []
    knees: Dict[str, Dict[str, Any]] = {}
    for scheme in params.schemes:
        # host_ms is wall-clock; the document holds simulated numbers only.
        mine = [
            {k: v for k, v in cell.items() if k != "host_ms"}
            for _, _, cell in rows
            if cell["scheme"] == scheme
        ]
        # Ascending offered load, the order knee_index requires.
        mine.sort(key=lambda c: c["offered_kcyc"])
        knee = knee_index(
            [p["throughput_kcyc"] for p in mine], [p["p95"] for p in mine]
        )
        for i, point in enumerate(mine):
            point["knee"] = i == knee
        points.extend(mine)
        knees[scheme] = {
            key: mine[knee][key]
            for key in ("arrival_cycles", "offered_kcyc", "throughput_kcyc", "p95")
        }
    return {"knee_metric": "p95", "knees": knees, "points": points}


def curve_to_table(doc: Dict[str, Any]) -> str:
    """The gnuplot table form of a curve document."""
    return curve_table(doc["points"])


def format_curve(doc: Dict[str, Any]) -> str:
    """Human-readable curve summary (knee per scheme + the table)."""
    lines = [
        f"--- throughput-vs-latency curves ({doc['workload']}, "
        f"seed {doc['seed']}) ---"
    ]
    for scheme, knee in doc["knees"].items():
        lines.append(
            f"  {scheme:>6}: knee at arrival {knee['arrival_cycles']} "
            f"(offered {knee['offered_kcyc']:g}/kcyc) -> "
            f"{knee['throughput_kcyc']:g}/kcyc at p95 {knee['p95']}"
        )
    lines.append("")
    lines.append(curve_to_table(doc))
    return "\n".join(lines)
