"""The determinism contract: parallel sweeps == serial sweeps, byte for
byte, for every artifact kind (bench JSON, fuzz report, fault report,
Perfetto trace).  These are the checked-in form of the CI equivalence
gate."""

import json

import pytest

from repro.fuzz.campaign import FuzzCell
from repro.fuzz.faultcampaign import FaultCell
from repro.fuzz.kernel import format_report, run_campaign
from repro import artifacts as bench
from repro.artifacts import YcsbParams
from repro.obs.run import observed_run
from repro.obs.trace import chrome_trace
from repro.parallel import engine
from repro.parallel.merge import rewrap_tracers
from repro.parallel.tasks import trace_cell

BENCH_PARAMS = YcsbParams(
    workloads=("hashtable", "rbtree"),
    schemes=("FG", "SLPMT"),
    num_ops=40,
    value_bytes=64,
    seed=11,
)


class TestBenchEquivalence:
    def test_jobs_matches_serial_modulo_host(self):
        serial = bench.run("slpmt_ycsb", BENCH_PARAMS, jobs=1)
        parallel = bench.run("slpmt_ycsb", BENCH_PARAMS, jobs=4)
        # Byte-identical: compare the serialised artifact form.
        a = json.dumps(bench.strip_host(serial), indent=1, sort_keys=True)
        b = json.dumps(bench.strip_host(parallel), indent=1, sort_keys=True)
        assert a == b

    def test_host_block_reflects_jobs(self):
        doc = bench.run("slpmt_ycsb", BENCH_PARAMS, jobs=1)
        assert doc["host"]["jobs"] == 1
        assert doc["host"]["seconds"] >= 0.0
        assert all("host_ms" in cell for cell in doc["cells"].values())

    def test_check_bench_ignores_host_fields(self):
        # The regression gate must not see wall-clock: two runs with
        # wildly different host timings still compare clean.
        doc = bench.run("slpmt_ycsb", BENCH_PARAMS, jobs=1)
        other = bench.strip_host(doc)
        other["host"] = {"seconds": 9999.0, "cells_per_sec": 0.001, "jobs": 64}
        for cell in other["cells"].values():
            cell["host_ms"] = 123456.0
        result = bench.check_bench(other, doc)
        assert result.ok
        assert result.improvements == []


class TestCampaignEquivalence:
    CELLS = (
        FuzzCell("hashtable", "FG", "none"),
        FuzzCell("hashtable", "SLPMT", "manual"),
        FuzzCell("dlist", "SLPMT", "manual"),
    )

    def test_fuzz_report_identical(self):
        serial = run_campaign("single", self.CELLS, budget=6, seed=7, num_ops=4)
        parallel = run_campaign(
            "single", self.CELLS, budget=6, seed=7, num_ops=4, jobs=2
        )
        assert serial == parallel
        assert format_report(serial) == format_report(parallel)

    def test_fault_report_identical(self):
        cells = [
            FaultCell("hashtable", "SLPMT", "torn-tail"),
            FaultCell("hashtable", "SLPMT", "drop-drains"),
        ]
        serial = run_campaign("fault", cells, budget=4, seed=7, num_ops=3)
        parallel = run_campaign(
            "fault", cells, budget=4, seed=7, num_ops=3, jobs=2
        )
        assert serial == parallel
        assert format_report(serial) == format_report(parallel)


class TestEquivalenceCommand:
    def test_passes_on_fresh_tiny_baseline(self, tmp_path, capsys):
        from repro.obs.cli import obs_main

        doc = bench.run("slpmt_ycsb", BENCH_PARAMS, jobs=1)
        path = tmp_path / "BENCH_equiv.json"
        bench.write("slpmt_ycsb", doc, str(path))
        rc = obs_main(
            ["equivalence", "--jobs", "2", "--baseline", str(path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "byte-identical to serial" in out
        assert "bit-identical" in out

    def test_fails_on_drifted_baseline(self, tmp_path, capsys):
        from repro.obs.cli import obs_main

        doc = bench.run("slpmt_ycsb", BENCH_PARAMS, jobs=1)
        cell = doc["cells"]["hashtable/SLPMT"]
        cell["cycles"] += 1
        path = tmp_path / "BENCH_equiv.json"
        bench.write("slpmt_ycsb", doc, str(path))
        rc = obs_main(
            ["equivalence", "--jobs", "2", "--baseline", str(path)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "EQUIVALENCE VIOLATION" in err


class TestTraceEquivalence:
    def test_merged_trace_identical(self):
        cells = ("hashtable", "rbtree")
        descriptors = [
            {
                "workload": w,
                "scheme": "SLPMT",
                "num_ops": 30,
                "value_bytes": 64,
                "seed": 5,
                "capacity": 1000,
            }
            for w in cells
        ]
        payloads = engine.run_tasks(trace_cell, descriptors, jobs=2)
        merged = chrome_trace(rewrap_tracers(payloads))
        serial_tracers = [
            observed_run(
                w, "SLPMT", num_ops=30, value_bytes=64, seed=5, capacity=1000
            ).tracer
            for w in cells
        ]
        reference = chrome_trace(serial_tracers)
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_rewrap_preserves_drop_accounting(self):
        payloads = engine.run_tasks(
            trace_cell,
            [
                {
                    "workload": "hashtable",
                    "scheme": "SLPMT",
                    "num_ops": 30,
                    "value_bytes": 64,
                    "seed": 5,
                    # Tiny ring: events must fall off, and the dropped
                    # count must survive the process boundary.
                    "capacity": 4,
                }
            ],
            jobs=1,
        )
        (tracer,) = rewrap_tracers(payloads)
        assert len(tracer.events()) == 4
        assert tracer.total_emitted > 4
        assert tracer.dropped == tracer.total_emitted - 4
