"""Fitting over a seeded grid: document shape, determinism, holdout."""

import math

import pytest

from repro.model.features import FEATURE_NAMES
from repro.model.fit import (
    HOLDOUT_FRACTION,
    fit_model,
    geomean_error,
    holdout_points,
)
from repro.artifacts import strip_host
from repro.obs.profiler import PHASES

from .conftest import SMALL_GRID


class TestHoldout:
    def test_deterministic(self):
        a = holdout_points((40, 80, 120, 160), (64, 128), 2023)
        b = holdout_points((40, 80, 120, 160), (64, 128), 2023)
        assert a == b

    def test_size(self):
        points = holdout_points((40, 80, 120, 160), (64, 128), 2023)
        assert len(points) == max(1, round(8 * HOLDOUT_FRACTION))

    def test_at_least_one_even_on_tiny_grids(self):
        assert len(holdout_points((40,), (64,), 1)) == 1

    def test_rotation_covers_the_grid(self):
        # Different seeds select different splits; over many seeds the
        # union approaches the whole grid (the nightly's premise).
        grid = [(ops, vb) for ops in (40, 80, 120, 160) for vb in (64, 128)]
        union = set()
        splits = set()
        for seed in range(30):
            held = tuple(holdout_points((40, 80, 120, 160), (64, 128), seed))
            splits.add(held)
            union.update(held)
        assert len(splits) > 5
        assert union == set(grid)

    def test_points_come_from_the_grid(self):
        held = holdout_points((40, 80), (64, 128, 256), 7)
        for ops, vb in held:
            assert ops in (40, 80) and vb in (64, 128, 256)


class TestGeomeanError:
    def test_empty(self):
        assert geomean_error([]) == 0.0

    def test_uniform(self):
        assert geomean_error([0.1, 0.1, 0.1]) == pytest.approx(0.1)

    def test_zero_cells_do_not_collapse(self):
        # log1p form: zero errors pull the geomean down, not to zero.
        assert 0.0 < geomean_error([0.0, 0.1]) < 0.1

    def test_monotone(self):
        assert geomean_error([0.01, 0.02]) < geomean_error([0.02, 0.04])


class TestFitDocument:
    def test_shape(self, small_doc):
        assert small_doc["kind"] == "cost-model"
        assert small_doc["phases"] == list(PHASES)
        assert small_doc["features"] == list(FEATURE_NAMES)
        assert set(small_doc["models"]) == {
            "hashtable/FG", "hashtable/SLPMT", "rbtree/FG", "rbtree/SLPMT",
        }
        assert len(small_doc["training_cells"]) == 2 * 2 * 4 * 2

    def test_every_pair_has_every_phase(self, small_doc):
        for pair, model in small_doc["models"].items():
            assert sorted(model["phase_coefficients"]) == sorted(PHASES)
            for vector in model["phase_coefficients"].values():
                assert len(vector) == len(FEATURE_NAMES)
            assert len(model["pm_bytes_coefficients"]) == len(FEATURE_NAMES)

    def test_unexercised_phase_fits_to_exact_zeros(self, small_doc):
        # Single-core ycsb-load never aborts or recovers; those phase
        # rows must be exact zeros (and so predict exact zero).
        coeffs = small_doc["models"]["hashtable/FG"]["phase_coefficients"]
        assert coeffs["abort"] == [0.0] * len(FEATURE_NAMES)
        assert coeffs["recovery"] == [0.0] * len(FEATURE_NAMES)

    def test_training_cells_phases_partition_cycles(self, small_doc):
        for key, cell in small_doc["training_cells"].items():
            assert sum(cell["phases"].values()) == cell["cycles"], key

    def test_validation_block(self, small_doc):
        validation = small_doc["validation"]
        held = validation["holdout_points"]
        assert len(held) == 2
        assert len(validation["cells"]) == 4 * len(held)
        assert 0.0 <= validation["geomean_rel_error"]
        assert validation["geomean_rel_error"] <= validation["max_rel_error"]
        for errs in validation["per_pair"].values():
            assert errs["geomean_rel_error"] <= errs["max_rel_error"]

    def test_holdout_cells_not_special_cased(self, small_doc):
        # Held-out cells were simulated (they live in training_cells)
        # but must score as honest predictions: every validation cell's
        # actual matches the simulated cycles for that key.
        for key, cell in small_doc["validation"]["cells"].items():
            assert cell["actual_cycles"] == (
                small_doc["training_cells"][key]["cycles"]
            )

    def test_finite_numbers_everywhere(self, small_doc):
        for model in small_doc["models"].values():
            for vector in model["phase_coefficients"].values():
                assert all(math.isfinite(c) for c in vector)
            assert all(
                math.isfinite(c) for c in model["pm_bytes_coefficients"]
            )


@pytest.mark.slow
def test_parallel_fit_byte_identical_to_serial(small_doc):
    parallel = fit_model(jobs=2, **SMALL_GRID)
    assert strip_host(parallel) == strip_host(small_doc)


def test_refit_byte_identical(small_doc):
    again = fit_model(**SMALL_GRID)
    assert strip_host(again) == strip_host(small_doc)
