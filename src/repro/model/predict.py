"""Load a fitted cost model and predict grids in milliseconds.

Prediction is deterministic arithmetic only: a feature vector per cell,
one fixed-order dot product per phase, negatives clamped to zero, and
the total defined as the sum of the per-phase predictions — so the
phase-partition invariant (``sum(phases) == total``, every phase ≥ 0)
holds *by construction*, mirroring the profiler's exact partition of
``machine.now``.

Cells whose knobs fall outside the training range are still predicted
(linear models extrapolate) but flagged ``extrapolated`` so consumers
— and the spot-check sampler — can treat them with suspicion.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import artifacts
from repro.harness.metrics import geomean
from repro.model.features import (
    FEATURE_NAMES,
    CellSpec,
    feature_vector,
)
from repro.model.fit import (
    DEFAULT_MAX_ERROR,
    DEFAULT_MODEL_PATH,
    KIND,
    SCHEMA_VERSION,
    _mix64,
    geomean_error,
)
from repro.obs.profiler import PHASES
from repro.workloads import KERNELS


class ModelSchemaError(ValueError):
    """The artifact does not match this build's phases or features."""


def check_schema(doc: Dict[str, Any]) -> None:
    """Validate an artifact against the *current* profiler taxonomy.

    The phase list and every pair's coefficient keys must match
    :data:`repro.obs.profiler.PHASES` exactly — a phase added to the
    profiler makes stale artifacts (and stale fitters) fail loudly here
    instead of silently predicting zero for the new bucket.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ModelSchemaError(
            f"cost model schema {doc.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if doc.get("kind") != KIND:
        raise ModelSchemaError(
            f"artifact kind {doc.get('kind')!r}, expected {KIND!r}"
        )
    if tuple(doc.get("phases", ())) != tuple(PHASES):
        raise ModelSchemaError(
            "artifact phases do not match the profiler taxonomy: "
            f"{list(doc.get('phases', ()))} vs {list(PHASES)} — refit "
            "the model against this build"
        )
    if tuple(doc.get("features", ())) != tuple(FEATURE_NAMES):
        raise ModelSchemaError(
            f"artifact features {list(doc.get('features', ()))} do not "
            f"match this build's {list(FEATURE_NAMES)} — refit"
        )
    n = len(FEATURE_NAMES)
    for pair, model in doc.get("models", {}).items():
        coeffs = model.get("phase_coefficients", {})
        # JSON round-trips sort keys, so lockstep means same *set* of
        # phases (a phase added to or removed from the profiler still
        # fails); the canonical order lives in doc["phases"] above.
        if sorted(coeffs) != sorted(PHASES):
            raise ModelSchemaError(
                f"{pair}: coefficient keys out of lockstep with PHASES "
                f"({sorted(coeffs)} vs {sorted(PHASES)})"
            )
        for phase, vector in coeffs.items():
            if len(vector) != n:
                raise ModelSchemaError(
                    f"{pair}/{phase}: {len(vector)} coefficients for "
                    f"{n} features"
                )
        if len(model.get("pm_bytes_coefficients", ())) != n:
            raise ModelSchemaError(
                f"{pair}: pm_bytes coefficient arity mismatch"
            )


class CostModel:
    """A fitted model ready to predict cells."""

    def __init__(self, doc: Dict[str, Any]) -> None:
        check_schema(doc)
        self.doc = doc
        self.train_range = doc["train_range"]
        # Pre-resolve the nonzero phase rows per pair: most pairs only
        # exercise a few phases, and skipping all-zero rows keeps big
        # grid predictions inside the <1s model-time budget.
        self._pair_rows: Dict[str, List[Tuple[str, List[float]]]] = {}
        self._pair_pm: Dict[str, List[float]] = {}
        for pair, model in doc["models"].items():
            rows = [
                (phase, coeffs)
                for phase, coeffs in model["phase_coefficients"].items()
                if any(coeffs)
            ]
            self._pair_rows[pair] = rows
            self._pair_pm[pair] = model["pm_bytes_coefficients"]

    @property
    def pairs(self) -> List[str]:
        return sorted(self._pair_rows)

    def extrapolated(self, spec: CellSpec) -> bool:
        ops_lo, ops_hi = self.train_range["num_ops"]
        vb_lo, vb_hi = self.train_range["value_bytes"]
        return not (
            ops_lo <= spec.num_ops <= ops_hi
            and vb_lo <= spec.value_bytes <= vb_hi
        )

    def predict_cell(self, spec: CellSpec) -> Dict[str, Any]:
        """Predict one cell: per-phase cycles, total, pm_bytes, flag.

        ``cycles`` is exactly ``sum(phases.values())`` (float, fixed
        summation order) and every phase is ≥ 0 — the partition
        invariant the property tests pin.
        """
        pair = spec.pair
        rows = self._pair_rows.get(pair)
        if rows is None:
            raise KeyError(
                f"no fitted model for {pair!r} "
                f"(have {', '.join(self.pairs)})"
            )
        row = feature_vector(spec)
        phases: Dict[str, float] = {}
        total = 0.0
        for phase, coeffs in rows:
            acc = 0.0
            for c, f in zip(coeffs, row):
                acc += c * f
            if acc > 0.0:
                phases[phase] = acc
                total += acc
        pm_acc = 0.0
        for c, f in zip(self._pair_pm[pair], row):
            pm_acc += c * f
        return {
            "phases": phases,
            "cycles": total,
            "pm_bytes": max(0.0, pm_acc),
            "extrapolated": self.extrapolated(spec),
        }

    def predict_grid(
        self,
        *,
        workloads: Sequence[str],
        schemes: Sequence[str],
        ops_grid: Sequence[int],
        value_bytes_grid: Sequence[int],
    ) -> Dict[str, Dict[str, Any]]:
        """Predict every cell of a grid; keys match bench cell naming."""
        out: Dict[str, Dict[str, Any]] = {}
        for workload in workloads:
            for scheme in schemes:
                for ops in ops_grid:
                    for vb in value_bytes_grid:
                        spec = CellSpec(workload, scheme, ops, vb)
                        out[spec.key] = self.predict_cell(spec)
        return out


def load_model(path: str) -> CostModel:
    with open(path) as fh:
        doc = json.load(fh)
    return CostModel(doc)


#: ``model bench`` default prediction grid: two orders of magnitude
#: denser than the training grid (120 op counts × 8 value sizes × the
#: 24 workload/scheme pairs = 23 040 cells vs 504 training cells) —
#: the campaign scale the simulator cannot sweep per push.
MODEL_OPS_GRID = tuple(range(25, 3001, 25))
MODEL_VALUE_BYTES_GRID = (16, 32, 64, 128, 256, 512, 1024, 2048)
#: Simulator spot-checks per ``model bench`` run (seeded sample of
#: interpolation cells, each gated against *max_error*).
DEFAULT_SPOT_CHECKS = 6
#: Spot-checked cells stay at or below this op count so the audit costs
#: seconds, not the campaign the model exists to avoid.
SPOT_CHECK_OPS_CAP = 600

MODEL_BENCH_KIND = "model-bench"
#: Shares the bench documents' schema generation (not the fit's).
MODEL_BENCH_SCHEMA_VERSION = 2


def run_model_bench(
    *,
    model_path: "Optional[str]" = None,
    workloads: "Sequence[str]" = KERNELS,
    schemes: "Sequence[str]" = artifacts.BENCH_SCHEMES,
    ops_grid: "Sequence[int]" = MODEL_OPS_GRID,
    value_bytes_grid: "Sequence[int]" = MODEL_VALUE_BYTES_GRID,
    seed: int = 2023,
    spot_checks: int = DEFAULT_SPOT_CHECKS,
    max_error: "Optional[float]" = None,
    jobs: int = 1,
    progress=None,
) -> Dict[str, Any]:
    """Predict a campaign-scale grid from the fitted cost model, then
    audit a seeded sample of cells against the real simulator.

    The document combines both tiers: every grid cell's predicted
    cycles / PM bytes (cells outside the training range flagged
    ``extrapolated``), plus ``spot_check`` — fresh simulator runs of a
    deterministic hash-ranked sample of interpolation cells, each
    scored by relative error and gated against *max_error*.  One
    extrapolated cell is probed informationally (reported, never
    gated).  ``doc["spot_check"]["ok"]`` is the verdict.

    Everything except ``host`` is deterministic in (model artifact,
    grid, seed): prediction is fixed-order arithmetic and the sample is
    hash-ranked, so serial and ``--jobs N`` documents are byte-identical
    modulo :func:`repro.artifacts.strip_host`.
    """
    model_path = model_path or DEFAULT_MODEL_PATH
    max_error = DEFAULT_MAX_ERROR if max_error is None else max_error
    model = load_model(model_path)

    t0 = time.perf_counter()
    specs = [
        CellSpec(w, s, ops, vb)
        for w in workloads
        for s in schemes
        for ops in ops_grid
        for vb in value_bytes_grid
    ]
    cells: Dict[str, Any] = {}
    scheme_cycles: Dict[str, List[float]] = {s: [] for s in schemes}
    scheme_pm: Dict[str, List[float]] = {s: [] for s in schemes}
    extrapolated_count = 0
    for spec in specs:
        predicted = model.predict_cell(spec)
        cells[spec.key] = {
            "cycles": round(predicted["cycles"], 3),
            "pm_bytes": round(predicted["pm_bytes"], 3),
            "extrapolated": predicted["extrapolated"],
        }
        extrapolated_count += predicted["extrapolated"]
        scheme_cycles[spec.scheme].append(predicted["cycles"])
        scheme_pm[spec.scheme].append(predicted["pm_bytes"])
    model_seconds = time.perf_counter() - t0
    # Deep-extrapolation cells can clamp every phase to zero; keep the
    # per-scheme geomean defined by aggregating positive predictions
    # only (the count of excluded cells is visible via the cells block).
    geomeans = {
        scheme: {
            "cycles": round(
                geomean(v for v in scheme_cycles[scheme] if v > 0), 1
            ),
            "pm_bytes": round(
                geomean(v for v in scheme_pm[scheme] if v > 0), 1
            ),
        }
        for scheme in schemes
    }

    # Seeded hash-ranked spot-check sample: interpolation cells only
    # (the model is contractually accurate there), capped in op count,
    # ordering independent of dict/iteration order.
    interior = [
        spec
        for spec in specs
        if not cells[spec.key]["extrapolated"]
        and spec.num_ops <= SPOT_CHECK_OPS_CAP
    ]
    interior.sort(key=lambda spec: spec.key)
    ranked = sorted(
        (_mix64(index + 1, seed), spec) for index, spec in enumerate(interior)
    )
    picks = [spec for _, spec in ranked[: max(0, spot_checks)]]
    exterior = [
        spec
        for spec in specs
        if cells[spec.key]["extrapolated"] and spec.num_ops <= SPOT_CHECK_OPS_CAP
    ]
    exterior.sort(key=lambda spec: spec.key)
    probe = None
    if exterior:
        probe = min(
            (_mix64(index + 1, seed), spec)
            for index, spec in enumerate(exterior)
        )[1]

    audit_specs = picks + ([probe] if probe is not None else [])
    t1 = time.perf_counter()
    simulated = artifacts.run_cells(
        "cost_model",
        [
            {
                "workload": spec.workload,
                "scheme": spec.scheme,
                "num_ops": spec.num_ops,
                "value_bytes": spec.value_bytes,
                "seed": seed,
            }
            for spec in audit_specs
        ],
        jobs=jobs,
        progress=progress,
    )
    spot_seconds = time.perf_counter() - t1

    spot_cells: Dict[str, Any] = {}
    errors: List[float] = []
    for spec, sim in zip(picks, simulated):
        actual = sim["cycles"]
        predicted = cells[spec.key]["cycles"]
        rel = abs(predicted - actual) / actual if actual else 0.0
        spot_cells[spec.key] = {
            "actual_cycles": actual,
            "predicted_cycles": predicted,
            "rel_error": round(rel, 6),
        }
        errors.append(rel)
    spot_check: Dict[str, Any] = {
        "cells": spot_cells,
        "geomean_rel_error": round(geomean_error(errors), 6),
        "max_rel_error": round(max(errors), 6) if errors else 0.0,
        "max_error": max_error,
        "ok": (max(errors) if errors else 0.0) <= max_error,
    }
    if probe is not None:
        sim = simulated[-1]
        actual = sim["cycles"]
        predicted = cells[probe.key]["cycles"]
        spot_check["extrapolated_probe"] = {
            "cell": probe.key,
            "actual_cycles": actual,
            "predicted_cycles": predicted,
            "rel_error": round(
                abs(predicted - actual) / actual if actual else 0.0, 6
            ),
        }

    return {
        "schema_version": MODEL_BENCH_SCHEMA_VERSION,
        "kind": MODEL_BENCH_KIND,
        "name": "model",
        "params": {
            "workloads": list(workloads),
            "schemes": list(schemes),
            "ops_grid": list(ops_grid),
            "value_bytes_grid": list(value_bytes_grid),
            "seed": seed,
            "spot_checks": spot_checks,
            "max_error": max_error,
            "model_path": model_path,
        },
        # Provenance of the predictions: the artifact's own fit params
        # and held-out score (deterministic — included in strip_host
        # comparisons, unlike host timing).
        "model": {
            "params": model.doc["params"],
            "train_range": model.doc["train_range"],
            "holdout_geomean_rel_error": model.doc["validation"][
                "geomean_rel_error"
            ],
        },
        "cells": cells,
        "extrapolated_cells": extrapolated_count,
        "geomean": geomeans,
        "spot_check": spot_check,
        "host": {
            "model_seconds": round(model_seconds, 3),
            "spot_check_seconds": round(spot_seconds, 3),
            "cells_per_sec": round(len(specs) / model_seconds, 1)
            if model_seconds > 0
            else 0.0,
            "jobs": jobs,
        },
    }


def format_model_bench(doc: Dict[str, Any]) -> str:
    """Human summary of a ``model bench`` document."""
    spot = doc["spot_check"]
    lines = [
        f"model bench: {len(doc['cells'])} cells predicted in "
        f"{doc['host']['model_seconds']:.3f}s "
        f"({doc['extrapolated_cells']} extrapolated, flagged)",
    ]
    for scheme, geo in doc["geomean"].items():
        lines.append(
            f"{scheme:<8} geomean cycles={geo['cycles']:>14,.0f}  "
            f"pm_bytes={geo['pm_bytes']:>12,.0f}"
        )
    lines.append(
        f"spot-check ({len(spot['cells'])} simulated cells, gate "
        f"≤{spot['max_error'] * 100:.1f}%): "
        + ("PASS" if spot["ok"] else "FAIL")
    )
    for key, cell in spot["cells"].items():
        lines.append(
            f"  {key:<34} rel error {cell['rel_error'] * 100:6.3f}%"
        )
    probe = spot.get("extrapolated_probe")
    if probe:
        lines.append(
            f"  {probe['cell']:<34} rel error "
            f"{probe['rel_error'] * 100:6.3f}% (extrapolated, not gated)"
        )
    return "\n".join(lines)
