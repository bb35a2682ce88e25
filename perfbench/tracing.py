"""Passive, thread-aware span tracer wrapped around each layer's entry points.

Nothing inside ``src/`` is instrumented: :meth:`Tracer.install` replaces
the entry points listed in :data:`ENTRY_POINTS` (class methods, on the
class and on every subclass that overrides them, and module functions,
in every ``repro`` module that imported them by name) with wrappers
that time each call, and :meth:`Tracer.uninstall` puts the originals
back.  The wrappers only read clocks, so the simulation is bit-identical
with them installed; the benchmark checks that on every traced run.

Spans are keyed by thread: each thread keeps its own span stack, so the
multicore scheduler's worker threads are traced where their work runs.
A span's *self time* is its duration minus the time its child spans on
the same thread cover.  Spans that belong to one op, request batch or
crash case share a *unit* id.  Coarse spans are kept in memory and
written out once the run ends; per-access spans (``keep=False``) are
only aggregated, so a traced run stays small.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

LAYERS = (
    "core",
    "mem",
    "runtime",
    "alloc",
    "workloads",
    "multicore",
    "service",
    "shard",
    "recovery",
    "fuzz",
    "obs",
)

#: Packages under ``src/repro`` the benchmark deliberately does not trace.
UNMEASURED_LAYERS = ("parallel", "model", "compiler", "faults")


@dataclass(frozen=True)
class Spec:
    """Entry points of one layer: ``owner`` is ``module:Class`` or ``module``."""

    layer: str
    owner: str
    names: Tuple[str, ...]
    #: Starts a new unit id when no unit is open on the thread.
    unit: bool = False
    #: A crash case: a unit whose machines and re-execution are tallied.
    case: bool = False
    #: Rebuild / re-execution step of a crash case.
    reexec: bool = False
    #: Time blocked (wall minus thread CPU) is waiting, not self time.
    wait: bool = False
    #: Keep each span in memory (False: aggregate only).
    keep: bool = True
    #: The function returns a context manager; the span covers its scope.
    cm: bool = False
    #: Post-``__init__`` registration: "stats" or "scheduler".
    register: str = ""


def _s(layer: str, owner: str, *names: str, **flags: Any) -> Spec:
    return Spec(layer, owner, names, **flags)


ENTRY_POINTS: Tuple[Spec, ...] = (
    _s("core", "repro.core.machine:Machine", "__init__", keep=False, register="stats"),
    _s(
        "core",
        "repro.core.machine:Machine",
        "exec_load", "exec_store", "exec_storeT", "exec_store_run",
        "exec_load_run", "execute", "run", "tx_begin", "tx_end", "tx_abort",
        "fence", "crash", "finalize",
        keep=False,
    ),
    _s(
        "mem",
        "repro.mem.pm:PersistentMemory",
        "read_word", "write_word", "read_line", "write_line", "log_append",
        keep=False,
    ),
    _s("mem", "repro.mem.wpq:WritePendingQueue", "insert", keep=False),
    _s("mem", "repro.mem.cache:SetAssocCache", "lookup", "insert", keep=False),
    _s("runtime", "repro.runtime.ptx:PTx", "transaction", cm=True),
    _s("runtime", "repro.runtime.ptx:PTx", "run_with_retries", "run_empty_transactions"),
    _s(
        "runtime",
        "repro.runtime.ptx:PTx",
        "load", "store", "write_words", "read_words", "read_field",
        "write_field", "alloc", "alloc_struct", "free",
        keep=False,
    ),
    _s("alloc", "repro.alloc.allocator:PersistentAllocator", "alloc", "free", keep=False),
    _s("alloc", "repro.alloc.allocator:PersistentAllocator", "rebuild_from_reachable"),
    _s("workloads", "repro.workloads.base:Workload", "insert", "get", "remove", unit=True),
    _s("workloads", "repro.workloads.base:Workload", "_insert", "_remove", "verify", "recover"),
    _s("workloads", "repro.workloads.base:Workload", "lookup", keep=False),
    _s("multicore", "repro.multicore.system", "run_atomically", unit=True),
    _s("multicore", "repro.multicore.system:MultiCoreSystem", "run", "fence_all", "finalize_all", "crash"),
    _s("multicore", "repro.multicore.system:MultiCoreSystem", "before_read", "before_write", keep=False),
    _s("multicore", "repro.multicore.scheduler:InterleavedScheduler", "__init__", register="scheduler"),
    _s("multicore", "repro.multicore.scheduler:InterleavedScheduler", "run", wait=True),
    _s("multicore", "repro.multicore.scheduler:InterleavedScheduler", "checkpoint", wait=True, keep=False),
    _s("multicore", "repro.multicore.scheduler:InterleavedScheduler", "backoff", "finish", keep=False),
    _s("service", "repro.service.server:TransactionService", "serve", reexec=True),
    _s("service", "repro.service.server:TransactionService", "finish"),
    _s("service", "repro.service.server:TransactionService", "_admit_due", keep=False),
    _s("service", "repro.service.tm:TransactionManager", "commit_batch", unit=True),
    _s("service", "repro.service.rm:ResourceManager", "read_get", "read_scan", unit=True),
    _s("service", "repro.service.rm:ResourceManager", "apply_write", "commit_write", "sync_expected", keep=False),
    _s(
        "service",
        "repro.service.admission:AdmissionQueue",
        "admit", "take_batch", "pop_ready_reads", "readmit_front",
        keep=False,
    ),
    _s("service", "repro.service.locks:LockManager", "resolve", keep=False),
    _s("shard", "repro.shard.deployment:ShardedDeployment", "serve", reexec=True),
    _s("shard", "repro.shard.deployment:ShardedDeployment", "finish", "crash"),
    _s("shard", "repro.shard.deployment:ShardNode", "prepare", "commit", "apply_staged", "abort"),
    _s("shard", "repro.shard.twopc:Coordinator", "new_gtx", "persist_decision", "commit_global"),
    _s("shard", "repro.shard.router:HashRouter", "home", "split", "spans", keep=False),
    _s("shard", "repro.shard.router", "home_shard", keep=False),
    _s("shard", "repro.shard.recovery", "recover_deployment"),
    _s("recovery", "repro.recovery.engine", "recover"),
    _s("recovery", "repro.recovery.engine:PmView", "read", "write", keep=False),
    _s("recovery", "repro.recovery.crashsim", "run_with_crash", "dry_run"),
    _s("fuzz", "repro.fuzz.campaign", "run_service_cell"),
    _s("fuzz", "repro.fuzz.campaign", "run_service_case", unit=True, case=True),
    _s("fuzz", "repro.fuzz.campaign", "_build_service", reexec=True),
    _s("fuzz", "repro.fuzz.twopc", "run_twopc_cell"),
    _s("fuzz", "repro.fuzz.twopc", "run_twopc_case", unit=True, case=True),
    _s("fuzz", "repro.fuzz.twopc", "_build_twopc", reexec=True),
    _s("obs", "repro.obs.histogram:LogHistogram", "record", "merge", keep=False),
    _s("obs", "repro.obs.telemetry:TelemetryWindows", "count", "record", keep=False),
    _s(
        "obs",
        "repro.obs.profiler:CycleProfiler",
        "bind", "begin", "end", "reattribute", "unwind", "finalize", "count",
        "record", "note_tx_begin", "note_tx_end",
        keep=False,
    ),
    _s("obs", "repro.obs.steady", "steady_summary"),
)

# Per-key aggregate slots.
_CALLS, _TOTAL, _SELF, _WAIT, _ENTRIES, _INCL = range(6)


@dataclass
class _Entry:
    index: int
    key: str
    layer_index: int
    spec: Spec


class _ThreadState:
    """One thread's span stack and aggregates (touched only by that thread)."""

    def __init__(self, index: int, num_keys: int) -> None:
        self.index = index
        #: Open spans: ``[child_seconds, key_index]``.
        self.stack: List[List[Any]] = []
        #: Open spans per layer (0: the next span is an entry into it).
        self.depth = [0] * len(LAYERS)
        self.agg = [[0, 0.0, 0.0, 0.0, 0, 0.0] for _ in range(num_keys)]
        self.unit = 0
        #: SimStats of the machines the open crash case built (None: no case).
        self.case_stats: "Optional[List[Any]]" = None
        self.reexec_depth = 0
        self.reexec_s = 0.0
        #: ``(seconds, simulated instructions)`` per finished crash case.
        self.cases: List[Tuple[float, int]] = []
        #: Kept spans: ``(unit, key_index, parent_key_index, t0, t1)``.
        self.spans: List[Tuple[int, int, int, float, float]] = []


class _SpanCM:
    """Context-manager proxy whose span covers the wrapped scope."""

    __slots__ = ("_tracer", "_entry", "_cm", "_token")

    def __init__(self, tracer: "Tracer", entry: _Entry, cm: Any) -> None:
        self._tracer = tracer
        self._entry = entry
        self._cm = cm

    def __enter__(self) -> Any:
        self._token = self._tracer._begin(self._entry)
        try:
            return self._cm.__enter__()
        except BaseException:
            self._tracer._end(self._token, self._entry)
            raise

    def __exit__(self, *exc: Any) -> Any:
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer._end(self._token, self._entry)


class Tracer:
    """Wraps :data:`ENTRY_POINTS`, records spans per thread, reports layers."""

    def __init__(self) -> None:
        self._entries: List[_Entry] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._units = itertools.count(1)
        #: SimStats of every Machine built while installed.
        self.machine_stats: List[Any] = []
        #: Every InterleavedScheduler built while installed.
        self.schedulers: List[Any] = []

    # --- installation -------------------------------------------------

    def install(self) -> None:
        # Load every subclass that might override a wrapped method first.
        for package in ("repro.workloads", "repro.service", "repro.shard", "repro.fuzz.twopc"):
            importlib.import_module(package)
        for spec in ENTRY_POINTS:
            module_name, _, class_name = spec.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                for cls in _with_subclasses(getattr(module, class_name)):
                    for name in spec.names:
                        if name in cls.__dict__:
                            self._patch_method(cls, name, spec)
            else:
                for name in spec.names:
                    self._patch_function(module, name, spec)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _new_entry(self, key: str, spec: Spec) -> _Entry:
        entry = _Entry(len(self._entries), key, LAYERS.index(spec.layer), spec)
        self._entries.append(entry)
        return entry

    def _patch_method(self, cls: type, name: str, spec: Spec) -> None:
        original = cls.__dict__[name]
        entry = self._new_entry(f"{spec.layer}.{cls.__name__}.{name}", spec)
        setattr(cls, name, self._wrap(original, entry))
        self._patches.append((cls, name, original))

    def _patch_function(self, module: Any, name: str, spec: Spec) -> None:
        original = getattr(module, name)
        entry = self._new_entry(f"{spec.layer}.{name}", spec)
        wrapper = self._wrap(original, entry)
        # Rebind every ``from module import name`` copy as well.
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name.startswith("repro") and vars(mod).get(name) is original:
                setattr(mod, name, wrapper)
                self._patches.append((mod, name, original))

    # --- span recording -----------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states), len(self._entries))
                self._states.append(state)
            self._local.state = state
            return state

    def _wrap(self, fn: Any, entry: _Entry) -> Any:
        spec = entry.spec
        if spec.cm:
            def cm_wrapper(*args: Any, **kwargs: Any) -> Any:
                return _SpanCM(self, entry, fn(*args, **kwargs))

            return cm_wrapper
        plain = not (
            spec.unit or spec.case or spec.reexec or spec.wait or spec.keep or spec.register
        )
        if not plain:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                token = self._begin(entry)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(token, entry)
                if spec.register:
                    self._register(spec.register, args[0])
                return result

            return wrapper

        # Per-access fast path: the same bookkeeping as _begin/_end,
        # inlined because these wrappers run millions of times.
        perf = time.perf_counter
        local = self._local
        state_of = self._state
        ki = entry.index
        li = entry.layer_index

        def fast(*args: Any, **kwargs: Any) -> Any:
            try:
                st = local.state
            except AttributeError:
                st = state_of()
            depth = st.depth
            outer = depth[li] == 0
            depth[li] += 1
            frame = [0.0, ki]
            stack = st.stack
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                depth[li] -= 1
                agg = st.agg[ki]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if outer:
                    agg[4] += 1
                    agg[5] += dur
                if stack:
                    stack[-1][0] += dur

        return fast

    def _begin(self, entry: _Entry) -> Tuple[Any, ...]:
        spec = entry.spec
        st = self._state()
        li = entry.layer_index
        outer = st.depth[li] == 0
        st.depth[li] += 1
        parent = st.stack[-1][1] if st.stack else -1
        frame = [0.0, entry.index]
        st.stack.append(frame)
        new_unit = spec.unit and st.unit == 0
        if new_unit:
            st.unit = next(self._units)
        if spec.case:
            st.case_stats = []
        counted = False
        if spec.reexec:
            counted = st.case_stats is not None and st.reexec_depth == 0
            st.reexec_depth += 1
        cpu0 = time.thread_time() if spec.wait else 0.0
        return (st, frame, outer, new_unit, counted, parent, cpu0, time.perf_counter())

    def _end(self, token: Tuple[Any, ...], entry: _Entry) -> None:
        t1 = time.perf_counter()
        st, frame, outer, new_unit, counted, parent, cpu0, t0 = token
        spec = entry.spec
        dur = t1 - t0
        st.stack.pop()
        st.depth[entry.layer_index] -= 1
        wait = 0.0
        if spec.wait:
            wait = max(0.0, dur - frame[0] - (time.thread_time() - cpu0))
        agg = st.agg[entry.index]
        agg[_CALLS] += 1
        agg[_TOTAL] += dur
        agg[_SELF] += dur - frame[0] - wait
        agg[_WAIT] += wait
        if outer:
            agg[_ENTRIES] += 1
            agg[_INCL] += dur
        if st.stack:
            st.stack[-1][0] += dur
        if spec.reexec:
            st.reexec_depth -= 1
            if counted:
                st.reexec_s += dur
        if spec.keep:
            st.spans.append((st.unit, entry.index, parent, t0, t1))
        if spec.case:
            instructions = sum(s.instructions for s in st.case_stats or ())
            st.cases.append((dur, instructions))
            st.case_stats = None
        if new_unit:
            st.unit = 0

    def _register(self, kind: str, obj: Any) -> None:
        if kind == "stats":
            self.machine_stats.append(obj.stats)
            st = self._state()
            if st.case_stats is not None:
                st.case_stats.append(obj.stats)
        else:
            self.schedulers.append(obj)

    # --- reporting ----------------------------------------------------

    def _merged(self) -> List[List[float]]:
        merged = [[0, 0.0, 0.0, 0.0, 0, 0.0] for _ in self._entries]
        for st in self._states:
            for row, agg in zip(merged, st.agg):
                for i, value in enumerate(agg):
                    row[i] += value
        return merged

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        agg = self._merged()

        def keys(layer: str, *names: str) -> List[int]:
            return [
                e.index
                for e in self._entries
                if e.spec.layer == layer
                and (not names or e.key.rsplit(".", 1)[1] in names)
            ]

        def total(slot: int, indices: List[int]) -> float:
            return sum(agg[i][slot] for i in indices)

        def stat(name: str) -> int:
            return sum(getattr(s, name) for s in self.machine_stats)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        cases = [c for st in self._states for c in st.cases]
        case_ms = sorted(seconds * 1000.0 for seconds, _ in cases)
        case_s = sum(seconds for seconds, _ in cases)
        reexec_s = sum(st.reexec_s for st in self._states)
        core = keys("core")
        work = [i for i in keys("workloads") if not self._entries[i].key.endswith(".verify")]
        out: Dict[str, Tuple[float, str]] = {
            "core.calls": (total(_ENTRIES, core), "count"),
            "core.self_s": (total(_SELF, core), "s"),
            "core.tx_end_s": (total(_TOTAL, keys("core", "tx_end")), "s"),
            "core.sim_instr_per_s": (
                ratio(stat("instructions"), total(_SELF, core)), "instr/s"
            ),
            "core.log_coalesce_ratio": (
                ratio(stat("log_records_coalesced"), stat("log_records_created")), "ratio"
            ),
            "core.lazy_forced_ratio": (
                ratio(stat("lazy_lines_forced"), stat("lazy_lines_deferred")), "ratio"
            ),
            "mem.self_s": (total(_SELF, keys("mem")), "s"),
            "mem.pm_write_calls": (
                total(_CALLS, keys("mem", "write_word", "write_line", "log_append")),
                "count",
            ),
            "mem.l1_hit_ratio": (
                ratio(stat("l1_hits"), stat("l1_hits") + stat("l1_misses")), "ratio"
            ),
            "mem.wpq_stall_cycles": (stat("wpq_stall_cycles"), "cycles"),
            "runtime.self_s": (total(_SELF, keys("runtime")), "s"),
            "runtime.tx": (total(_CALLS, keys("runtime", "transaction")), "count"),
            "runtime.commit_ratio": (
                ratio(stat("commits"), stat("commits") + stat("aborts")), "ratio"
            ),
            "runtime.backoff_cycles": (stat("backoff_cycles"), "cycles"),
            "alloc.calls": (total(_ENTRIES, keys("alloc")), "count"),
            "alloc.self_s": (total(_SELF, keys("alloc")), "s"),
            "workloads.self_s": (total(_SELF, work), "s"),
            "workloads.verify_s": (total(_INCL, keys("workloads", "verify")), "s"),
            "multicore.self_s": (total(_SELF, keys("multicore")), "s"),
            "multicore.switches": (sum(s.switches for s in self.schedulers), "count"),
            "multicore.handoff_wait_s": (
                total(_WAIT, keys("multicore", "checkpoint")), "s"
            ),
            "multicore.conflicts": (stat("conflicts"), "count"),
            "service.loop_self_s": (total(_SELF, keys("service", "serve")), "s"),
            "service.admission_s": (total(_TOTAL, keys("service", "_admit_due")), "s"),
            "service.commit_batch_s": (
                total(_TOTAL, keys("service", "commit_batch")), "s"
            ),
            "service.rm_read_s": (
                total(_TOTAL, keys("service", "read_get", "read_scan")), "s"
            ),
            "service.batch_occupancy": (
                ratio(stat("service_batched_writes"), stat("service_batches")),
                "writes/batch",
            ),
            "service.shed": (stat("service_rejected"), "count"),
            "shard.self_s": (total(_SELF, keys("shard")), "s"),
            "shard.recover_s": (
                total(_TOTAL, keys("shard", "recover_deployment")), "s"
            ),
            "recovery.calls": (total(_ENTRIES, keys("recovery")), "count"),
            "recovery.self_s": (total(_SELF, keys("recovery")), "s"),
            "fuzz.cases": (len(cases), "count"),
            "fuzz.case_p50_ms": (_quantile(case_ms, 0.50), "ms"),
            "fuzz.case_p99_ms": (_quantile(case_ms, 0.99), "ms"),
            "fuzz.reexec_share": (ratio(reexec_s, case_s), "ratio"),
            "fuzz.sim_instr_per_case": (
                ratio(sum(instr for _, instr in cases), len(cases)), "instr/case"
            ),
            "obs.calls": (total(_ENTRIES, keys("obs")), "count"),
            "obs.self_s": (total(_SELF, keys("obs")), "s"),
        }
        return out

    def write_spans(self, path: Any) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"keys": [e.key for e in self._entries]}) + "\n")
            for st in self._states:
                for unit, key, parent, t0, t1 in st.spans:
                    fh.write(
                        json.dumps([st.index, unit, key, parent, round(t0, 7), round(t1, 7)])
                        + "\n"
                    )
                    count += 1
        return count


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out
