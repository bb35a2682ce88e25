"""One registry behind every checked-in result document.

Each document that pins the evaluation is declared once, as an
:class:`ArtifactSpec` in :data:`REGISTRY`: where it lives, the params
dataclass that round-trips its ``params`` block, how its cells are
enumerated and computed, how the cells reduce to the document, how it
prints and how a fresh run is gated against the pinned copy.  One grid
driver (:func:`run`), one writer/loader pair (:func:`write`/:func:`load`)
and one gate (:func:`check`) serve every name::

    python -m repro bench NAME [--check | --update | --out PATH]
    python -m repro obs equivalence NAME [--jobs N]

Every run is deterministic from its params: cells go through the
parallel engine's ordered merge, so serial and ``--jobs N`` documents
are byte-identical once :func:`strip_host` removes wall-clock fields.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.harness.metrics import geomean
from repro.workloads import KERNELS

#: ``--check`` drift tolerance for the ``drift``-gated grids.
DEFAULT_THRESHOLD = 0.02

#: Every artifact cell of one run: ``(label, cell kwargs, cell result)``.
Rows = List[Tuple[str, Dict[str, Any], Dict[str, Any]]]


class ArtifactError(ReproError):
    """A result document is missing, malformed or inconsistent."""

    def __init__(self, path: str, problem: str) -> None:
        super().__init__(f"{path}: {problem}")
        self.path = path
        self.problem = problem


# ----------------------------------------------------------------------
# params dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Params:
    """Base of the per-artifact params: an exact JSON block round-trip.

    Sequence fields are tuples here and lists in the block.
    :meth:`from_block` refuses unknown, missing or inconsistent keys by
    requiring ``from_block(b).to_block() == b``.
    """

    #: Leave ``None`` fields out of the block (the curve document writes
    #: its optional horizon only when one is set).
    omit_none: ClassVar[bool] = False

    def derived(self) -> Dict[str, Any]:
        """Keys the block records but no cell takes as input."""
        return {}

    def to_block(self) -> Dict[str, Any]:
        block: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and self.omit_none:
                continue
            block[f.name] = list(value) if isinstance(value, tuple) else value
        block.update(self.derived())
        return block

    @classmethod
    def from_block(cls, block: Any) -> "Params":
        if not isinstance(block, dict):
            raise ValueError("params must be a JSON object")
        names = {f.name for f in fields(cls)}
        params = cls(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in block.items()
            if key in names
        })
        wrong = diff_keys(params.to_block(), block)
        if wrong:
            raise ValueError(f"params keys missing, unknown or inconsistent: {wrong}")
        return params


#: The Figure-8 scheme order.
BENCH_SCHEMES = ("FG", "FG+LG", "FG+LZ", "SLPMT", "ATOM", "EDE")


@dataclass(frozen=True)
class YcsbParams(Params):
    """The Figure-8 scheme grid over the YCSB kernels."""

    workloads: Tuple[str, ...] = KERNELS
    schemes: Tuple[str, ...] = BENCH_SCHEMES
    num_ops: int = 300
    value_bytes: int = 256
    seed: int = 2023


@dataclass(frozen=True)
class MulticoreParams(Params):
    """Shared-key contention: FG vs SLPMT over core counts and skews."""

    workloads: Tuple[str, ...] = ("hashtable",)
    schemes: Tuple[str, ...] = ("FG", "SLPMT")
    cores: Tuple[int, ...] = (1, 2, 4)
    thetas: Tuple[float, ...] = (0.0, 0.9)
    ops_per_core: int = 100
    num_keys: int = 32
    value_bytes: int = 256
    seed: int = 2023


#: Put-heavy service mix: batch size 1 really means one write per
#: commit (``txn`` requests would smuggle mini-batches into the b1
#: baseline and flatten the amortization signal).
SERVICE_MIX: Dict[str, float] = {"put": 0.80, "get": 0.14, "scan": 0.06}


@dataclass(frozen=True)
class ServiceParams(Params):
    """Group commit: workload x scheme x batch size, block admission so
    every cell commits the identical request set."""

    workloads: Tuple[str, ...] = ("hashtable", "rbtree")
    schemes: Tuple[str, ...] = ("FG", "SLPMT")
    batches: Tuple[int, ...] = (1, 8, 16)
    num_clients: int = 6
    requests_per_client: int = 25
    value_bytes: int = 32
    #: 48 keys over 150 requests: deep batches coalesce repeated lines.
    num_keys: int = 48
    theta: float = 0.6
    arrival_cycles: int = 800
    max_wait_cycles: int = 4000
    max_depth: int = 64
    seed: int = 2023
    duration_cycles: Optional[int] = None
    target_load: Optional[float] = None


#: Txn-heavy mix: the cross-shard protocol dominates the write path.
TWOPC_MIX: Dict[str, float] = {"put": 0.30, "get": 0.10, "scan": 0.05, "txn": 0.55}


@dataclass(frozen=True)
class TwoPCParams(Params):
    """Cross-shard 2PC: workload x scheme x transaction span (txn_keys)
    at a fixed shard count."""

    workloads: Tuple[str, ...] = ("hashtable", "rbtree")
    schemes: Tuple[str, ...] = ("FG", "SLPMT")
    spans: Tuple[int, ...] = (2, 4, 8)
    num_shards: int = 4
    num_clients: int = 6
    requests_per_client: int = 25
    value_bytes: int = 32
    num_keys: int = 48
    theta: float = 0.6
    arrival_cycles: int = 800
    batch_size: int = 8
    max_wait_cycles: int = 4000
    seed: int = 2023


@dataclass(frozen=True)
class CurveParams(Params):
    """Throughput-vs-latency curves: arrival-rate sweep per scheme
    (descending interarrival gap = ascending offered load)."""

    omit_none: ClassVar[bool] = True

    workload: str = "hashtable"
    seed: int = 2023
    schemes: Tuple[str, ...] = ("FG", "SLPMT")
    arrivals: Tuple[int, ...] = (4000, 2000, 1200, 800, 500)
    duration_cycles: Optional[int] = None


@dataclass(frozen=True)
class SustainedParams(Params):
    """Sharded client populations in duration mode: 4 x 8 clients at
    ~75% of capacity for 320M cycles, just over a million requests."""

    populations: int = 4
    clients_per_population: int = 8
    workload: str = "hashtable"
    scheme: str = "SLPMT"
    value_bytes: int = 32
    num_keys: int = 128
    theta: float = 0.6
    arrival_cycles: int = 9600
    #: Requests per kilocycle *per population*; overrides the gap.
    target_load: Optional[float] = None
    batch_size: int = 8
    duration_cycles: int = 320_000_000
    window_cycles: int = 262_144
    locking: bool = False
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.populations < 1:
            raise ValueError("populations must be at least 1")

    def derived(self) -> Dict[str, Any]:
        return {"num_clients": self.populations * self.clients_per_population}


@dataclass(frozen=True)
class CostModelParams(Params):
    """The cost model's seeded training grid and held-out split."""

    workloads: Tuple[str, ...] = KERNELS
    schemes: Tuple[str, ...] = BENCH_SCHEMES
    ops_grid: Tuple[int, ...] = (40, 80, 120, 160, 200, 240, 300)
    value_bytes_grid: Tuple[int, ...] = (64, 128, 256)
    seed: int = 2023
    holdout_seed: int = 2023

    def derived(self) -> Dict[str, Any]:
        from repro.model.fit import HOLDOUT_FRACTION

        return {"holdout_fraction": HOLDOUT_FRACTION}


# ----------------------------------------------------------------------
# the spec and the registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactSpec:
    """One checked-in result document, declared once.

    Callables are ``"module:function"`` references, resolved lazily so
    importing the registry never imports the service or model stacks.
    """

    name: str
    #: The JSON document; ``companions`` sit next to it (same stem).
    path: str
    params: type
    #: Cell function, called with one cell's kwargs in a worker.
    cell: str
    #: Cell label (progress, crash reports, poison hook and grid keys):
    #: a format string over the cell kwargs.
    label: str
    #: ``reduce(params, rows) -> body``; ``None`` is the scheme grid
    #: reducer (cells, per-scheme geomeans, optional amortization).
    reduce: Optional[str] = None
    format: str = "repro.artifacts:format_grid"
    #: ``drift``: the ±2% geomean/cell gate; ``exact``: equality
    #: outside host timing.
    gate: str = "drift"
    #: ``(cell kwarg, params field)`` axes swept as a product, in order;
    #: every other params field (minus ``exclude``) is passed to every
    #: cell unchanged.
    axes: Tuple[Tuple[str, str], ...] = (("workload", "workloads"), ("scheme", "schemes"))
    exclude: Tuple[str, ...] = ()
    #: Custom cell enumerator ``cells(params) -> [kwargs]``.
    cells: Optional[str] = None
    #: ``(axis kwarg, cell metric, key tag)``: per-scheme ratio of the
    #: metric at the smallest over the largest axis value.
    amortize: Optional[Tuple[str, str, str]] = None
    schema_version: Optional[int] = 2
    kind: Optional[str] = None
    named: bool = False
    #: ``None``: the params are top-level document fields.
    params_key: Optional[str] = "params"
    #: ``(suffix, render(doc) -> text)`` files written beside the JSON.
    companions: Tuple[Tuple[str, str], ...] = ()
    host: bool = True
    #: Reduced params overrides for ``obs equivalence``; ``None`` runs
    #: the pinned document's own params and also compares against it.
    equivalence_shape: Optional[Dict[str, Any]] = None
    #: Extra structural check on load and write (raises ``ValueError``).
    validate: Optional[str] = None


REGISTRY: Dict[str, ArtifactSpec] = {
    spec.name: spec
    for spec in (
        ArtifactSpec(
            name="slpmt_ycsb",
            path="BENCH_slpmt_ycsb.json",
            params=YcsbParams,
            cell="repro.artifacts:ycsb_cell",
            label="{workload}/{scheme}",
            named=True,
        ),
        ArtifactSpec(
            name="multicore",
            path="BENCH_multicore.json",
            params=MulticoreParams,
            cell="repro.artifacts:contention_cell",
            label="{workload}/{scheme}/c{cores}/t{theta:g}",
            axes=(
                ("workload", "workloads"),
                ("scheme", "schemes"),
                ("cores", "cores"),
                ("theta", "thetas"),
            ),
            named=True,
        ),
        ArtifactSpec(
            name="service",
            path="BENCH_service.json",
            params=ServiceParams,
            cell="repro.artifacts:service_cell",
            label="{workload}/{scheme}/b{batch_size}",
            axes=(
                ("workload", "workloads"),
                ("scheme", "schemes"),
                ("batch_size", "batches"),
            ),
            amortize=("batch_size", "commit_persist_per_write", "batch"),
            named=True,
        ),
        ArtifactSpec(
            name="twopc",
            path="BENCH_twopc.json",
            params=TwoPCParams,
            cell="repro.artifacts:twopc_cell",
            label="{workload}/{scheme}/k{txn_keys}",
            axes=(
                ("workload", "workloads"),
                ("scheme", "schemes"),
                ("txn_keys", "spans"),
            ),
            amortize=("txn_keys", "decide_persist_per_xwrite", "span"),
            named=True,
        ),
        ArtifactSpec(
            name="curve_service",
            path="benchmarks/results/curve_service.json",
            params=CurveParams,
            cell="repro.service.curve:run_curve_cell",
            label="curve/{scheme}/a{arrival_cycles}",
            reduce="repro.service.curve:reduce_curve",
            format="repro.service.curve:format_curve",
            gate="exact",
            axes=(("scheme", "schemes"), ("arrival_cycles", "arrivals")),
            schema_version=None,
            kind="curve",
            params_key=None,
            companions=((".tsv", "repro.service.curve:curve_to_table"),),
            host=False,
        ),
        ArtifactSpec(
            name="sustained_service",
            path="benchmarks/results/sustained_service.json",
            params=SustainedParams,
            cell="repro.service.sustained:run_population",
            label="sustained/p{population}",
            cells="repro.service.sustained:population_cells",
            reduce="repro.service.sustained:reduce_sustained",
            format="repro.service.sustained:format_sustained",
            gate="exact",
            kind="sustained",
            # 300000 / 8192 = 36.6 windows: every population's final
            # window straddles the horizon, so the merge is exercised on
            # misaligned registries.
            equivalence_shape=dict(
                populations=3,
                clients_per_population=3,
                duration_cycles=300_000,
                window_cycles=8192,
                arrival_cycles=2500,
                num_keys=48,
                locking=True,
            ),
        ),
        ArtifactSpec(
            name="cost_model",
            path="benchmarks/results/cost_model.json",
            params=CostModelParams,
            cell="repro.artifacts:train_cell",
            label="{workload}/{scheme}/ops{num_ops}/vb{value_bytes}",
            reduce="repro.model.fit:fit_cells",
            format="repro.model.fit:format_fit",
            gate="exact",
            axes=(
                ("workload", "workloads"),
                ("scheme", "schemes"),
                ("num_ops", "ops_grid"),
                ("value_bytes", "value_bytes_grid"),
            ),
            exclude=("holdout_seed",),
            schema_version=1,
            kind="cost-model",
            named=True,
            equivalence_shape=dict(
                workloads=("hashtable", "rbtree"),
                schemes=("FG", "SLPMT"),
                ops_grid=(40, 80, 120, 160),
                value_bytes_grid=(64, 128),
            ),
            validate="repro.model.predict:check_schema",
        ),
    )
}


def names() -> List[str]:
    return list(REGISTRY)


def get(name: str) -> ArtifactSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown artifact {name!r} (choose from {', '.join(REGISTRY)})"
        ) from None


def resolve(ref: str) -> Callable[..., Any]:
    module, _, attr = ref.partition(":")
    return getattr(importlib.import_module(module), attr)


# ----------------------------------------------------------------------
# the grid driver
# ----------------------------------------------------------------------


def cell_kwargs(spec: ArtifactSpec, params: Params) -> List[Dict[str, Any]]:
    """Every cell's kwargs, in document order."""
    if spec.cells is not None:
        return resolve(spec.cells)(params)
    swept = {source for _, source in spec.axes}
    fixed = {
        f.name: getattr(params, f.name)
        for f in fields(params)
        if f.name not in swept and f.name not in spec.exclude
    }
    return [
        {**dict(zip((kwarg for kwarg, _ in spec.axes), point)), **fixed}
        for point in itertools.product(
            *(getattr(params, source) for _, source in spec.axes)
        )
    ]


def run_cells(
    name: str,
    kwargs_list: List[Dict[str, Any]],
    *,
    jobs: int = 1,
    progress: "Optional[Callable[[int, int, str], None]]" = None,
) -> List[Dict[str, Any]]:
    """Run cells of artifact *name* on the parallel engine (ordered)."""
    from repro.parallel.engine import run_tasks
    from repro.parallel.tasks import artifact_cell

    spec = get(name)
    return run_tasks(
        artifact_cell,
        [{"name": name, **kwargs} for kwargs in kwargs_list],
        jobs=jobs,
        labels=[spec.label.format(**kwargs) for kwargs in kwargs_list],
        progress=progress,
    )


def run(
    name: str,
    params: "Optional[Params]" = None,
    *,
    jobs: int = 1,
    progress: "Optional[Callable[[int, int, str], None]]" = None,
) -> Dict[str, Any]:
    """Run artifact *name* at *params* (default: its registered
    defaults, which equal the checked-in document's) and build the
    document."""
    spec = get(name)
    params = params if params is not None else spec.params()
    kwargs_list = cell_kwargs(spec, params)
    t0 = time.perf_counter()
    results = run_cells(name, kwargs_list, jobs=jobs, progress=progress)
    seconds = time.perf_counter() - t0
    rows = [
        (spec.label.format(**kwargs), kwargs, result)
        for kwargs, result in zip(kwargs_list, results)
    ]
    if spec.reduce is None:
        body = reduce_grid(spec, params, rows)
    else:
        body = resolve(spec.reduce)(params, rows)
    doc: Dict[str, Any] = {}
    if spec.schema_version is not None:
        doc["schema_version"] = spec.schema_version
    if spec.kind is not None:
        doc["kind"] = spec.kind
    if spec.named:
        doc["name"] = spec.name
    if spec.params_key is None:
        doc.update(params.to_block())
    else:
        doc[spec.params_key] = params.to_block()
    doc.update(body)
    if spec.host:
        # Wall-clock context, never gated: strip_host() removes it (and
        # every per-cell host_ms) before any comparison.
        doc["host"] = {
            "seconds": round(seconds, 3),
            "cells_per_sec": round(len(rows) / seconds, 3) if seconds > 0 else 0.0,
            "jobs": jobs,
        }
    return doc


def reduce_grid(spec: ArtifactSpec, params: Params, rows: Rows) -> Dict[str, Any]:
    """Cells keyed by label, per-scheme geomeans and the amortization
    headline of the scheme grids."""
    cells = {label: result for label, _, result in rows}
    geomeans = {}
    for scheme in params.schemes:
        mine = [result for _, kwargs, result in rows if kwargs["scheme"] == scheme]
        geomeans[scheme] = {
            "cycles": round(geomean(c["cycles"] for c in mine), 1),
            "pm_bytes": round(geomean(c["pm_bytes"] for c in mine), 1),
        }
    body: Dict[str, Any] = {"cells": cells, "geomean": geomeans}
    if spec.amortize is not None:
        axis, metric, tag = spec.amortize
        by_point = {
            (kw["workload"], kw["scheme"], kw[axis]): result for _, kw, result in rows
        }
        lo = min(kw[axis] for _, kw, _ in rows)
        hi = max(kw[axis] for _, kw, _ in rows)
        body["amortization"] = {}
        for scheme in params.schemes:
            per_workload = {}
            for w in params.workloads:
                base = by_point[(w, scheme, lo)][metric]
                deep = by_point[(w, scheme, hi)][metric]
                per_workload[w] = round(base / deep, 3) if deep else 0.0
            body["amortization"][scheme] = {
                f"{tag}_lo": lo,
                f"{tag}_hi": hi,
                "per_workload": per_workload,
                "geomean": round(geomean(per_workload.values()), 3),
            }
    return body


def format_grid(doc: Dict[str, Any]) -> str:
    lines = [
        f"{scheme:<8} geomean cycles={geo['cycles']:>14,.0f}  "
        f"pm_bytes={geo['pm_bytes']:>12,.0f}"
        for scheme, geo in doc["geomean"].items()
    ]
    for scheme, amort in doc.get("amortization", {}).items():
        tag = next(key[: -len("_lo")] for key in amort if key.endswith("_lo"))
        lines.append(
            f"{scheme:<8} {tag} {amort[tag + '_lo']}->{amort[tag + '_hi']} "
            f"amortization: {amort['geomean']:.2f}x geomean "
            + " ".join(f"{w}={r:.2f}x" for w, r in amort["per_workload"].items())
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# cells of the simulator grids
# ----------------------------------------------------------------------


def _pick(res: Any, *names: str, rounded: str) -> Dict[str, Any]:
    """Result attributes by name, the *rounded* one to 3 places, and the
    full SimStats dump."""
    out = {name: getattr(res, name) for name in names}
    out[rounded] = round(getattr(res, rounded), 3)
    out["stats"] = json.loads(res.stats.to_json())
    return out


def ycsb_cell(*, workload, scheme, **kwargs) -> Dict[str, Any]:
    from repro.harness.runner import cached_run

    res = cached_run(workload, scheme, **kwargs)
    return _pick(
        res, "cycles", "pm_bytes", "pm_log_bytes", "pm_data_bytes",
        rounded="cycles_per_op",
    )


def contention_cell(*, workload, scheme, **kwargs) -> Dict[str, Any]:
    from repro.harness.runner import run_contention

    res = run_contention(workload, scheme, **kwargs)
    return _pick(
        res, "cycles", "pm_bytes", "conflicts", "aborts", "commits",
        rounded="cycles_per_op",
    )


def service_cell(*, batch_size, max_wait_cycles, max_depth, **kwargs) -> Dict[str, Any]:
    from repro.service.admission import AdmissionPolicy
    from repro.service.server import ServiceConfig, run_service
    from repro.service.tm import GroupCommitPolicy

    res = run_service(
        ServiceConfig(
            mix=dict(SERVICE_MIX),
            batch=GroupCommitPolicy(batch_size=batch_size, max_wait_cycles=max_wait_cycles),
            admission=AdmissionPolicy(max_depth=max_depth, mode="block"),
            **kwargs,
        )
    )
    return dict(
        _pick(
            res, "cycles", "pm_bytes", "requests", "acked", "shed", "reads",
            "batches", "committed_writes", "commit_persist_cycles",
            rounded="commit_persist_per_write",
        ),
        latency=res.latency.summary(),
        batch_occupancy=res.batch_occupancy.summary(),
        queue_depth=res.queue_depth.summary(),
        phases=dict(res.phases),
    )


def twopc_cell(*, batch_size, max_wait_cycles, **kwargs) -> Dict[str, Any]:
    from repro.service.tm import GroupCommitPolicy
    from repro.shard.deployment import ShardedConfig, run_sharded

    res = run_sharded(
        ShardedConfig(
            mix=dict(TWOPC_MIX),
            batch=GroupCommitPolicy(batch_size=batch_size, max_wait_cycles=max_wait_cycles),
            **kwargs,
        )
    )
    return dict(
        _pick(
            res, "cycles", "pm_bytes", "requests", "acked", "aborted", "reads",
            "batches", "committed_writes", "xshard_commits", "xshard_aborts",
            "xshard_writes", "prepare_retries", "prepare_persist_cycles",
            "decide_persist_cycles",
            rounded="decide_persist_per_xwrite",
        ),
        phases=dict(res.phases),
    )


def train_cell(*, workload, scheme, num_ops, value_bytes, seed) -> Dict[str, Any]:
    """A profiled run: the phase buckets exactly partition ``cycles``."""
    from repro.core.schemes import scheme_by_name
    from repro.harness.runner import run_workload
    from repro.obs.profiler import PHASES, CycleProfiler

    profiler = CycleProfiler()
    res = run_workload(
        workload,
        scheme_by_name(scheme),
        num_ops=num_ops,
        value_bytes=value_bytes,
        seed=seed,
        profiler=profiler,
    )
    return {
        "cycles": res.cycles,
        "pm_bytes": res.pm_bytes,
        "phases": {p: profiler.phase_cycles.get(p, 0) for p in PHASES},
    }


# ----------------------------------------------------------------------
# one writer, one loader
# ----------------------------------------------------------------------


def write_json(path: str, doc: Dict[str, Any]) -> None:
    """The one serialisation every document uses: sorted keys, indent 1."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write(name: str, doc: Dict[str, Any], path: "Optional[str]" = None) -> List[str]:
    """Write the document (and its companions) at *path*; returns the
    paths written."""
    spec = get(name)
    path = path or spec.path
    if spec.validate is not None:
        resolve(spec.validate)(doc)
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    write_json(path, doc)
    written = [path]
    for suffix, render in spec.companions:
        companion = os.path.splitext(path)[0] + suffix
        with open(companion, "w") as fh:
            fh.write(resolve(render)(doc))
        written.append(companion)
    return written


def params_of(spec: ArtifactSpec, doc: Dict[str, Any]) -> Params:
    if spec.params_key is None:
        block = {f.name: doc[f.name] for f in fields(spec.params) if f.name in doc}
    else:
        block = doc[spec.params_key]
    return spec.params.from_block(block)


def load(name: str, path: "Optional[str]" = None) -> Dict[str, Any]:
    """Load and validate a pinned document; every problem raises
    :class:`ArtifactError` naming the path."""
    spec = get(name)
    path = path or spec.path
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ArtifactError(path, f"cannot read: {exc.strerror}") from None
    except ValueError as exc:
        raise ArtifactError(path, f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ArtifactError(path, "not a JSON object")
    for key, want in (("schema_version", spec.schema_version), ("kind", spec.kind)):
        if doc.get(key) != want:
            raise ArtifactError(path, f"{key} {doc.get(key)!r}, expected {want!r}")
    required = [spec.params_key] if spec.params_key else []
    if spec.gate == "drift":
        required += ["cells", "geomean"]
    for key in required:
        if key not in doc:
            raise ArtifactError(path, f"no {key!r} block")
    try:
        params_of(spec, doc)
        if spec.validate is not None:
            resolve(spec.validate)(doc)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(path, str(exc)) from None
    return doc


# ----------------------------------------------------------------------
# comparison and the gates
# ----------------------------------------------------------------------

#: Keys that carry host wall-clock, at any nesting depth.
_HOST_KEYS = frozenset({"host", "host_ms"})


def strip_host(doc: Any) -> Any:
    """A deep copy of *doc* without any host-timing field, recursively:
    the comparison form of every determinism and equivalence check."""
    if isinstance(doc, dict):
        return {k: strip_host(v) for k, v in doc.items() if k not in _HOST_KEYS}
    if isinstance(doc, list):
        return [strip_host(v) for v in doc]
    return doc


def flatten(doc: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in doc.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def diff_keys(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Dotted paths whose values differ between two documents."""
    fa, fb = flatten(a), flatten(b)
    return [k for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]


@dataclass(frozen=True)
class Drift:
    """One metric's movement against the baseline."""

    where: str  # "geomean/SLPMT" or "cells/hashtable/SLPMT"
    metric: str  # "cycles" | "pm_bytes"
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.where} {self.metric}: {self.baseline:,.0f} -> "
            f"{self.current:,.0f} ({(self.ratio - 1.0) * 100.0:+.2f}%)"
        )


@dataclass
class CheckResult:
    """Outcome of one drift comparison."""

    regressions: List[Drift]
    improvements: List[Drift]

    @property
    def ok(self) -> bool:
        return not self.regressions


def check_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> CheckResult:
    """A **regression** is a geomean or per-cell cycles/pm_bytes that grew
    beyond ``baseline * (1 + threshold)``; shrinking past the same margin
    is an improvement (the gate passes — re-pin to lock it in)."""
    if current["params"] != baseline["params"]:
        raise ValueError(
            "bench parameters differ from the baseline "
            f"({current['params']} vs {baseline['params']})"
        )
    regressions: List[Drift] = []
    improvements: List[Drift] = []
    for block in ("geomean", "cells"):
        for where, base in baseline[block].items():
            cur = current[block].get(where)
            if cur is None:
                continue
            for metric in ("cycles", "pm_bytes"):
                drift = Drift(f"{block}/{where}", metric, base[metric], cur[metric])
                if cur[metric] > base[metric] * (1.0 + threshold):
                    regressions.append(drift)
                elif cur[metric] < base[metric] * (1.0 - threshold):
                    improvements.append(drift)
    return CheckResult(regressions=regressions, improvements=improvements)


def format_check(result: CheckResult, *, threshold: float = DEFAULT_THRESHOLD) -> str:
    lines = [
        f"bench check (threshold ±{threshold * 100.0:.1f}%): "
        + ("PASS" if result.ok else "FAIL"),
    ]
    lines += [f"  REGRESSION {drift}" for drift in result.regressions]
    lines += [f"  improvement {drift} (consider --update)" for drift in result.improvements]
    if not result.regressions and not result.improvements:
        lines.append("  all metrics within threshold")
    return "\n".join(lines)


def check(name: str, doc: Dict[str, Any], baseline: Dict[str, Any]) -> Tuple[bool, List[str]]:
    """Gate a fresh document against the pinned one: ``(ok, report lines)``."""
    spec = get(name)
    if spec.gate == "drift":
        result = check_bench(doc, baseline)
        return result.ok, format_check(result).splitlines()
    drift = diff_keys(strip_host(doc), strip_host(baseline))
    if drift:
        return False, [f"DRIFT {name}: {key}" for key in drift[:20]] + [
            f"{name}: fresh run differs in {len(drift)} keys"
        ]
    return True, [f"{name}: fresh run byte-identical to the pinned document (modulo host timing)"]
