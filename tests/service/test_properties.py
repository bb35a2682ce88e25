"""Service-level conformance properties over randomized client streams.

For every (scheme × group-commit policy) cell and several stream seeds:

* **ack => durable** — after a crash at any sampled durability point,
  the recovered image contains every acknowledged write's exact effect;
* **no-ack => absent or atomic** — unacknowledged writes are either
  wholly absent or exactly the one in-flight batch, never partial;
* **per-client FIFO** — responses come back in each client's submission
  order, under both fairness disciplines and both loop modes.

The properties reuse the campaign's acceptance machinery
(:func:`repro.fuzz.campaign.run_service_case`), so a failure here is a
failure of the same contract ``python -m repro fuzz service`` sweeps
at scale.
"""

import random

import pytest

from repro.fuzz.campaign import STRESS_CONFIG, ServiceCell, run_service_case
from repro.fuzz.invariants import durable_state
from repro.service.admission import AdmissionPolicy
from repro.service.server import ServiceConfig, TransactionService
from repro.service.tm import GroupCommitPolicy

pytestmark = pytest.mark.fuzz

CELLS = [
    ServiceCell("hashtable", scheme, batch)
    for scheme in ("FG", "SLPMT")
    for batch in (1, 8)
]


def interleaved_config(seed, **overrides):
    """Randomized interleaved streams: open-loop arrivals tight enough
    that several clients' requests overlap in every batch window."""
    base = dict(
        workload="hashtable",
        scheme="SLPMT",
        num_clients=4,
        requests_per_client=10,
        value_bytes=32,
        num_keys=24,
        theta=0.6,
        arrival_cycles=500,
        admission=AdmissionPolicy(max_depth=64, mode="block"),
        seed=seed,
        verify=False,
    )
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.mark.parametrize("cell", CELLS, ids=str)
@pytest.mark.parametrize("seed", [3, 17])
class TestCrashProperties:
    def _sampled_points(self, cell, seed, count):
        svc = TransactionService(
            interleaved_config(
                seed,
                scheme=cell.scheme,
                batch=GroupCommitPolicy(batch_size=cell.batch_size),
            ),
            config=STRESS_CONFIG,
        )
        events0 = svc.machine.wpq.total_inserts
        svc.serve()
        events = svc.machine.wpq.total_inserts - events0
        rng = random.Random(f"svc-props:{seed}:{cell}")
        return sorted(rng.sample(range(events), min(count, events)))

    def test_ack_durable_and_atomic_at_sampled_points(self, cell, seed):
        for point in self._sampled_points(cell, seed, count=8):
            result = run_service_case(
                cell,
                "persist",
                point,
                num_clients=4,
                requests_per_client=10,
                seed=seed,
            )
            assert result.violation is None, (
                f"{cell} persist point {point}: "
                f"[{result.check}] {result.violation}"
            )


@pytest.mark.parametrize("cell", CELLS, ids=str)
@pytest.mark.parametrize("seed", [3, 17])
def test_clean_run_durable_equals_oracle(cell, seed):
    svc = TransactionService(
        interleaved_config(
            seed,
            scheme=cell.scheme,
            batch=GroupCommitPolicy(batch_size=cell.batch_size),
        ),
        config=STRESS_CONFIG,
    )
    svc.serve()
    svc.finish()
    committed = tuple(
        sorted((k, tuple(v)) for k, v in svc.rm.committed.items())
    )
    assert durable_state(svc.subject) == committed


@pytest.mark.parametrize("fairness", ["fifo", "round-robin"])
@pytest.mark.parametrize("mode", ["open", "closed"])
@pytest.mark.parametrize("batch", [1, 8])
def test_per_client_fifo_under_all_policies(fairness, mode, batch):
    svc = TransactionService(
        interleaved_config(
            23,
            mode=mode,
            batch=GroupCommitPolicy(batch_size=batch),
            admission=AdmissionPolicy(
                max_depth=64, mode="block", fairness=fairness
            ),
        ),
        config=STRESS_CONFIG,
    )
    svc.serve()
    svc.finish()
    assert len(svc.responses) == 4 * 10
    for client in range(4):
        seqs = [r.seq for r in svc.responses if r.client == client]
        assert seqs == sorted(seqs), (
            f"client {client} out of order under {fairness}/{mode}/b{batch}"
        )
