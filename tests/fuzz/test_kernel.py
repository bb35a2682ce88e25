"""Family conformance: every crash-campaign family behind the one kernel.

For each family of :data:`repro.fuzz.kernel.FAMILIES`:

* a tiny-shape CLI campaign writes a byte-identical report serial and
  at ``--jobs 2``;
* a violation frozen at a fixed point survives a JSON round-trip, and
  replaying it returns the same :class:`CaseResult` as calling the
  family's case function directly (a family without reproducer hooks
  refuses to freeze);
* a reproducer file written before the newer optional keys existed
  still loads and replays;
* ``minimize`` shrinks through the family's hooks to a reproducer that
  replays (with a stand-in judge, since a clean campaign has no real
  violation to shrink).

Plus the fail-closed CLI: bad input exits 2 with one line, before any
cell runs.
"""

import dataclasses
import importlib
import json

import pytest

from repro.fuzz.campaign import (
    FuzzCell,
    MultiCoreCell,
    ServiceCell,
    Violation,
    generate_ops,
    run_case,
    run_service_case,
)
from repro.fuzz.cli import fuzz_main
from repro.fuzz.faultcampaign import FaultCell, run_fault_case
from repro.fuzz.kernel import FAMILIES
from repro.fuzz.minimize import Reproducer, minimize, replay
from repro.fuzz.twopc import TwoPCCell, run_twopc_case

#: Per family: CLI arguments of a tiny two-cell campaign.
TINY_ARGS = {
    "single": ["--budget", "3", "--ops", "3", "--workloads", "hashtable",
               "--schemes", "FG,SLPMT"],
    "fault": ["--budget", "3", "--ops", "3", "--workloads", "inplace",
              "--schemes", "SLPMT", "--fault-kinds", "torn-tail,bit-flip"],
    "multicore": ["--budget", "3", "--ops", "3", "--cores", "2",
                  "--thetas", "0,0.9", "--schemes", "SLPMT"],
    "service": ["--budget", "3", "--batches", "1,4", "--schemes", "SLPMT"],
    "twopc": ["--budget", "2", "--shards", "2", "--schemes", "SLPMT"],
}

OPS = [list(op) for op in generate_ops("hashtable", 4, 7)]
SMALL = dict(num_clients=2, requests_per_client=4, value_bytes=32, seed=7)
DROP = {"kind": "drop-drains", "crash_point": 5, "count": 1}

#: Per family: (cell, crash kind, point, fault, freeze params, direct case).
FROZEN = {
    "single": (
        FuzzCell("hashtable", "SLPMT", "manual"), "persist", 5, None,
        dict(num_ops=4),
        lambda: run_case("hashtable", "SLPMT", "manual", OPS, "persist", 5),
    ),
    "fault": (
        FaultCell("hashtable", "SLPMT", "drop-drains"), "fault", 5, DROP,
        dict(num_ops=4),
        lambda: run_fault_case("hashtable", "SLPMT", "manual", OPS, DROP),
    ),
    "multicore": (
        MultiCoreCell("hashtable", "SLPMT", 2, 0.9), "switch", 5, None,
        dict(ops_per_core=3), None,
    ),
    "service": (
        ServiceCell("hashtable", "SLPMT", 4), "persist", 5, None,
        dict(num_clients=2, requests_per_client=4, duration_cycles=6000),
        lambda: run_service_case(
            ServiceCell("hashtable", "SLPMT", 4), "persist", 5,
            duration_cycles=6000, **SMALL
        ),
    ),
    "twopc": (
        TwoPCCell("hashtable", "SLPMT", 2, "crash"), "step", 3, None,
        dict(num_clients=2, requests_per_client=4),
        lambda: run_twopc_case(
            TwoPCCell("hashtable", "SLPMT", 2, "crash"), "step", 3, **SMALL
        ),
    ),
}

#: ``fuzz_repro_hazard.json`` as checked in before the ``service`` and
#: ``twopc`` keys existed.
LEGACY_HAZARD = """{
  "check": "structure",
  "crash_kind": "persist",
  "crash_point": 8,
  "fault": null,
  "ops": [["insert", 845669297255, 0], ["remove", 845669297255, 0]],
  "policy": "manual-buggy-tombstone",
  "scheme": "SLPMT",
  "value_bytes": 32,
  "violation": "hashtable: key 57005 in wrong bucket 10",
  "workload": "hashtable"
}"""


def test_every_family_is_covered():
    assert set(TINY_ARGS) == set(FROZEN) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tiny_report_identical_serial_and_parallel(family, tmp_path, capsys):
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.txt"
        args = [family] + TINY_ARGS[family] + ["--jobs", jobs, "--out", str(out)]
        assert fuzz_main(args) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert "violations: 0" in texts[0]
    assert len(texts[0].splitlines()) > 8


def frozen(family):
    cell, kind, point, fault, params, _direct = FROZEN[family]
    violation = Violation(cell, kind, point, "completeness", "synthetic", fault)
    return Reproducer.from_violation(family, violation, seed=7, **params)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_frozen_violation_round_trips_and_replays(family):
    direct = FROZEN[family][-1]
    if FAMILIES[family].freeze is None:
        with pytest.raises(ValueError, match="no reproducer"):
            frozen(family)
        return
    rep = frozen(family)
    back = Reproducer.from_json(rep.to_json())
    assert back == rep
    assert back.family is FAMILIES[family]
    assert replay(back) == direct()


@pytest.mark.parametrize(
    "family", sorted(f for f in FAMILIES if FAMILIES[f].freeze is not None)
)
def test_files_without_newer_keys_still_load(family):
    rep = frozen(family)
    data = json.loads(rep.to_json())
    for key in ("fault", "service", "twopc"):
        if data[key] is None:
            del data[key]
    old = Reproducer.from_json(json.dumps(data))
    assert old == rep
    assert replay(old) == replay(rep)


#: Per family: (judge to replace, a fake judge that flags every case
#: crashing with at least two committed operations).
SYNTHETIC = {
    "fault": (
        "repro.fuzz.faultcampaign._check_prefix_family",
        lambda subject, baseline, committed: (
            ("synthetic", "prefix") if committed >= 2 else (None, "")
        ),
    ),
    "service": (
        "repro.fuzz.campaign._check_service_recovered",
        lambda svc: (
            ("synthetic", "completeness") if len(svc.rm.committed) >= 2
            else (None, "")
        ),
    ),
    "twopc": (
        "repro.fuzz.twopc._check_twopc_recovered",
        lambda dep, resolution: (
            ("synthetic", "atomicity") if len(dep.committed) >= 2
            else (None, "")
        ),
    ),
}


@pytest.mark.parametrize("family", sorted(SYNTHETIC))
def test_minimize_shrinks_to_a_replaying_first_point(family, monkeypatch):
    """Drive the shrinker through each family's hooks: the result
    replays to its recorded violation, is no bigger than the input, and
    (for scanned kinds) sits at the first violating point."""
    target, judge = SYNTHETIC[family]
    monkeypatch.setattr(target, judge)
    rep = frozen(family)
    if family == "fault":
        drop = dict(DROP, crash_point=10)
        rep = dataclasses.replace(rep, fault=drop, crash_point=10)
    if family == "service":
        # Batch 1: every acked write commits on its own, so a smaller
        # request volume still reaches two committed writes.
        rep = dataclasses.replace(rep, service=dict(rep.service, batch_size=1))
    shrunk = minimize(rep)
    result = replay(shrunk)
    assert (result.violation, result.check) == (shrunk.violation, shrunk.check)
    assert result.violation == "synthetic"
    if FAMILIES[family].volume:
        def volume(r):
            scalars = getattr(r, family)
            return scalars["num_clients"] * scalars["requests_per_client"]

        assert volume(shrunk) < volume(rep)
        if shrunk.crash_point > 0:
            earlier = dataclasses.replace(shrunk, crash_point=shrunk.crash_point - 1)
            assert replay(earlier).violation is None
    else:
        assert len(shrunk.ops) <= len(rep.ops)
        assert shrunk.fault == rep.fault


def test_point_past_the_scan_cap_is_kept_as_found(monkeypatch):
    """No shrink scan reaches a point past the cap: the reproducer is
    kept as found, after its violation is re-verified."""
    # The package re-exports the function ``minimize``, which shadows
    # the module's dotted name; patch the module object itself.
    minimize_module = importlib.import_module("repro.fuzz.minimize")
    monkeypatch.setattr(minimize_module, "_SCAN_CAP", 3)
    monkeypatch.setattr(*SYNTHETIC["service"])
    rep = frozen("service")
    rep = dataclasses.replace(
        rep, service=dict(rep.service, batch_size=1), crash_point=20
    )
    assert minimize(rep) == rep


def test_legacy_hazard_reproducer_replays():
    rep = Reproducer.from_json(LEGACY_HAZARD)
    assert rep.family is FAMILIES["single"]
    result = replay(rep)
    assert (result.check, result.violation) == (rep.check, rep.violation)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["service", "--shards", "4"], "--shards"),
        (["twopc", "--ops", "3"], "--ops"),
        (["single", "--cores", "2"], "--cores"),
        (["fault", "--batches", "8"], "--batches"),
        (["multicore", "--duration", "1000"], "--duration"),
        (["multicore", "--hazard-demo"], "--hazard-demo"),
        (["multicore", "--workloads", "inplace"], "inplace"),
        (["service", "--workloads", "inplace"], "inplace"),
        (["single", "--workloads", "btree"], "btree"),
        (["single", "--schemes", "NOPE"], "NOPE"),
        (["service", "--schemes", "FG,NOPE"], "NOPE"),
        (["twopc", "--shards", "1"], "--shards"),
        (["fault", "--fault-kinds", "melt"], "melt"),
    ],
)
def test_bad_input_exits_2_before_any_cell(argv, named, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert fuzz_main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0]
    assert not out.exists()
