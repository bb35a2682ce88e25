"""The artifact registry: every checked-in result document conforms to
its spec, and malformed documents fail closed with one line."""

import json
import os

import pytest

from repro import artifacts
from repro.artifacts import (
    CurveParams,
    MulticoreParams,
    ServiceParams,
    SustainedParams,
    TwoPCParams,
    YcsbParams,
    strip_host,
)
from repro.obs.cli import bench_main, obs_main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One-cell (sustained: one-population) shapes of every simulated grid.
TINY = {
    "slpmt_ycsb": YcsbParams(
        workloads=("hashtable",), schemes=("SLPMT",), num_ops=10
    ),
    "multicore": MulticoreParams(
        schemes=("SLPMT",), cores=(2,), thetas=(0.9,), ops_per_core=5
    ),
    "service": ServiceParams(
        workloads=("hashtable",), schemes=("SLPMT",), batches=(4,),
        num_clients=2, requests_per_client=4,
    ),
    "twopc": TwoPCParams(
        workloads=("hashtable",), schemes=("SLPMT",), spans=(2,),
        num_shards=2, num_clients=2, requests_per_client=4,
    ),
    "curve_service": CurveParams(schemes=("SLPMT",), arrivals=(4000,)),
    "sustained_service": SustainedParams(
        populations=1, clients_per_population=2, duration_cycles=40_000,
        window_cycles=4096, arrival_cycles=1200, num_keys=32,
    ),
}


def pinned(name):
    spec = artifacts.get(name)
    return spec, artifacts.load(name, os.path.join(REPO, spec.path))


@pytest.mark.parametrize("name", artifacts.names())
class TestConformance:
    def test_params_round_trip_the_pinned_block(self, name):
        spec, doc = pinned(name)
        params = artifacts.params_of(spec, doc)
        block = doc[spec.params_key] if spec.params_key else {
            key: doc[key] for key in params.to_block()
        }
        assert params.to_block() == block
        # The registered defaults are the pinned document's params, so
        # `bench NAME --check` needs no flags.
        assert params == spec.params()

    def test_reduced_run_has_the_pinned_keys(self, name):
        spec, doc = pinned(name)
        if name == "cost_model":
            # No simulation: refit from the pinned training cells, which
            # must reproduce the pinned fit exactly.
            params = artifacts.params_of(spec, doc)
            rows = [
                (label, {}, cell) for label, cell in doc["training_cells"].items()
            ]
            body = artifacts.resolve(spec.reduce)(params, rows)
            assert {k: doc[k] for k in body} == body
            fresh_keys = set(body) | {"schema_version", "kind", "name", "params"}
        else:
            fresh_keys = set(strip_host(artifacts.run(name, TINY[name])))
        assert fresh_keys == set(strip_host(doc))

    def test_companions_render_from_the_document(self, name):
        spec, doc = pinned(name)
        for suffix, render in spec.companions:
            path = os.path.join(REPO, os.path.splitext(spec.path)[0] + suffix)
            with open(path) as fh:
                assert artifacts.resolve(render)(doc) == fh.read()


@pytest.mark.parametrize("argv", [["bench", "nope"], ["obs", "equivalence", "nope"]])
def test_unknown_name_lists_the_registry(argv, capsys):
    main = bench_main if argv[0] == "bench" else obs_main
    with pytest.raises(SystemExit) as exc:
        main(argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in artifacts.names():
        assert name in err


def _truncated(path):
    with open(os.path.join(REPO, "BENCH_twopc.json")) as fh:
        path.write_text(fh.read()[:200])


def _without_params(path):
    with open(os.path.join(REPO, "BENCH_twopc.json")) as fh:
        doc = json.load(fh)
    del doc["params"]
    path.write_text(json.dumps(doc))


def _schema_one(path):
    with open(os.path.join(REPO, "BENCH_twopc.json")) as fh:
        doc = json.load(fh)
    doc["schema_version"] = 1
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "damage,problem",
    [
        (_truncated, "malformed JSON"),
        (_without_params, "no 'params' block"),
        (_schema_one, "schema_version 1, expected 2"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["bench", "twopc", "--check"], ["obs", "equivalence", "twopc", "--jobs", "2"]],
)
def test_malformed_baseline_fails_closed(tmp_path, capsys, damage, problem, argv):
    path = tmp_path / "bad.json"
    damage(path)
    main = bench_main if argv[0] == "bench" else obs_main
    assert main(argv[1:] + ["--baseline", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(path) in err[0] and problem in err[0]
