"""Worker-process crashes must surface as non-zero CLI exits.

The ``REPRO_POISON_CELL`` hook makes exactly one named cell raise.
Spawned workers inherit the environment, so poisoning works identically
for serial (in-process) and parallel (worker-process) sweeps — both
must abort the run instead of writing a partial artifact.
"""

import pytest

from repro.fuzz.cli import fuzz_main
from repro.obs.cli import bench_main
from repro.parallel.tasks import POISON_ENV

BENCH_ARGS = ["--ops", "20"]
FUZZ_ARGS = [
    "--budget", "4", "--ops", "3", "--workloads", "hashtable",
]


@pytest.fixture()
def fuzz_out(tmp_path):
    return ["--out", str(tmp_path / "fuzz.txt")]


class TestBenchPoison:
    def test_serial_poisoned_cell_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv(POISON_ENV, "hashtable/SLPMT")
        assert bench_main(BENCH_ARGS + ["--jobs", "1"]) == 1
        assert "hashtable/SLPMT" in capsys.readouterr().err

    def test_parallel_poisoned_cell_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv(POISON_ENV, "hashtable/SLPMT")
        assert bench_main(BENCH_ARGS + ["--jobs", "2"]) == 1
        assert "hashtable/SLPMT" in capsys.readouterr().err

    def test_unpoisoned_run_still_passes(self, monkeypatch, tmp_path):
        monkeypatch.delenv(POISON_ENV, raising=False)
        out = tmp_path / "BENCH_poison_smoke.json"
        assert bench_main(BENCH_ARGS + ["--out", str(out)]) == 0
        assert out.exists()


class TestFuzzPoison:
    def test_serial_poisoned_cell_exits_nonzero(
        self, monkeypatch, capsys, fuzz_out
    ):
        monkeypatch.setenv(POISON_ENV, "hashtable/SLPMT/manual")
        assert fuzz_main(FUZZ_ARGS + fuzz_out + ["--jobs", "1"]) == 2
        assert "hashtable/SLPMT/manual" in capsys.readouterr().err

    def test_parallel_poisoned_cell_exits_nonzero(
        self, monkeypatch, capsys, fuzz_out
    ):
        monkeypatch.setenv(POISON_ENV, "hashtable/SLPMT/manual")
        assert fuzz_main(FUZZ_ARGS + fuzz_out + ["--jobs", "2"]) == 2
        assert "hashtable/SLPMT/manual" in capsys.readouterr().err
