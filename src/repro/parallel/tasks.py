"""Top-level, spawn-safe task functions for the parallel engine.

Each function is one sweep cell: it receives plain picklable scalars,
rebuilds whatever simulator state it needs inside the worker process,
and returns a picklable result for the ordered merge.  The heavy
imports happen lazily inside the functions so a freshly spawned worker
pays the import cost once, on its first cell.

Every task honours the ``REPRO_POISON_CELL`` environment variable: when
it names the cell's label, the task raises.  Spawned workers inherit
the parent's environment, so the crash-propagation regression tests can
poison exactly one cell of a parallel sweep and assert that the CLI
exits non-zero instead of writing a partial artifact.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Tuple

#: Poison hook: a cell label that must crash (tests only).
POISON_ENV = "REPRO_POISON_CELL"


def _poison_check(label: str) -> None:
    if os.environ.get(POISON_ENV) == label:
        raise RuntimeError(f"cell {label!r} poisoned via {POISON_ENV}")


# ----------------------------------------------------------------------
# registered result documents
# ----------------------------------------------------------------------


def artifact_cell(*, name: str, **kwargs: Any) -> Dict[str, Any]:
    """One cell of the registered result document *name*.

    The spec's label over *kwargs* is the poison-hook name; ``host_ms``
    is wall-clock and therefore excluded from every gated comparison
    (see :func:`repro.artifacts.strip_host`).
    """
    from repro.artifacts import get, resolve

    spec = get(name)
    _poison_check(spec.label.format(**kwargs))
    cell = resolve(spec.cell)
    t0 = time.perf_counter()
    result = cell(**kwargs)
    result["host_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return result


def runner_cell(*, key: "Tuple") -> Any:
    """Warm one :func:`repro.harness.runner.cached_run` memo entry.

    *key* is a :func:`repro.harness.runner.cache_key` tuple; the
    returned :class:`~repro.harness.runner.RunResult` is seeded into
    the parent's memo so the figure-regeneration benchmarks reuse it.
    """
    _poison_check(f"{key[0]}/{key[1]}")
    from repro.harness.runner import _cached

    return _cached(*key)


# ----------------------------------------------------------------------
# crash campaigns
# ----------------------------------------------------------------------


def fuzz_cell(*, family: str, cell, **kwargs) -> Any:
    """One cell of a crash campaign of *family* (see
    :data:`repro.fuzz.kernel.FAMILIES`): runs its full crash-point
    sweep."""
    _poison_check(str(cell))
    from repro.fuzz.kernel import FAMILIES, resolve

    return resolve(FAMILIES[family].cell_fn)(cell, **kwargs)


# ----------------------------------------------------------------------
# observed runs (trace export)
# ----------------------------------------------------------------------


def trace_cell(
    *,
    workload: str,
    scheme: str,
    num_ops: int,
    value_bytes: int,
    seed: int,
    capacity: int = 100_000,
) -> Dict[str, Any]:
    """One observed run; returns the tracer ring as picklable dicts.

    :func:`repro.parallel.merge.rewrap_tracers` rebuilds real
    :class:`~repro.core.tracing.Tracer` objects from these payloads in
    submission order, so the merged Perfetto document is byte-identical
    to one exported from the same runs done serially.
    """
    _poison_check(f"{workload}/{scheme}")
    from repro.obs.run import observed_run

    run = observed_run(
        workload,
        scheme,
        num_ops=num_ops,
        value_bytes=value_bytes,
        seed=seed,
        capacity=capacity,
    )
    return {
        "events": [e.to_dict() for e in run.tracer.events()],
        "total_emitted": run.tracer.total_emitted,
        "capacity": run.tracer.capacity,
    }
