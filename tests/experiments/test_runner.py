"""Tests for the experiment runner machinery."""

import numpy as np
import pytest

from repro.core.centroid import CentroidLearning
from repro.experiments.runner import (
    ConvergenceBands,
    ExperimentResult,
    run_replicated,
    run_single,
)
from repro.optimizers.random_search import RandomSearch
from repro.sparksim.noise import no_noise
from repro.workloads.dynamics import LinearGrowth
from repro.workloads.synthetic import default_synthetic_objective


@pytest.fixture
def objective():
    return default_synthetic_objective(noise=no_noise(), seed=2)


class TestConvergenceBands:
    def test_percentile_ordering(self, rng):
        bands = ConvergenceBands(rng.normal(size=(100, 20)))
        assert np.all(bands.p5 <= bands.median)
        assert np.all(bands.median <= bands.p95)

    def test_shapes(self, rng):
        bands = ConvergenceBands(rng.normal(size=(10, 7)))
        assert bands.n_runs == 10
        assert bands.n_iterations == 7
        assert bands.median.shape == (7,)

    def test_final_median_uses_tail(self):
        runs = np.tile(np.arange(10.0), (3, 1))  # every run: 0..9
        bands = ConvergenceBands(runs)
        assert bands.final_median(tail=2) == pytest.approx(8.5)

    def test_single_run_accepted(self):
        bands = ConvergenceBands(np.arange(5.0))
        assert bands.n_runs == 1

    def test_caches_percentiles(self):
        runs = np.random.default_rng(0).normal(size=(20, 30))
        bands = ConvergenceBands(runs)
        median = bands.median
        assert bands.median is median  # same frozen array, not a recomputation
        assert not median.flags.writeable
        assert not bands.runs.flags.writeable
        np.testing.assert_allclose(median, np.percentile(runs, 50.0, axis=0))
        np.testing.assert_allclose(bands.p5, np.percentile(runs, 5.0, axis=0))
        np.testing.assert_allclose(bands.p95, np.percentile(runs, 95.0, axis=0))

    def test_copy_is_isolated(self):
        source = np.ones((3, 4))
        bands = ConvergenceBands(source)
        source[:] = 99.0  # mutating the caller's array must not leak in
        np.testing.assert_array_equal(bands.runs, np.ones((3, 4)))


class TestRunSingle:
    def test_track_true(self, objective, rng):
        values = run_single(RandomSearch(objective.space, seed=0), objective, 10, rng=rng)
        assert values.shape == (10,)
        assert np.all(values >= objective.optimal_value - 1e-9)

    def test_track_gap(self, objective, rng):
        gaps = run_single(RandomSearch(objective.space, seed=0), objective, 10,
                          rng=rng, track="gap")
        assert np.all(gaps >= 0)

    def test_track_normed_scales_with_size(self, objective, rng):
        normed = run_single(
            RandomSearch(objective.space, seed=0), objective, 10,
            size_process=LinearGrowth(initial=1000.0, slope=100.0),
            rng=rng, track="normed",
        )
        assert np.all(normed > 0)

    def test_unknown_track_rejected(self, objective, rng):
        with pytest.raises(ValueError):
            run_single(RandomSearch(objective.space), objective, 5, rng=rng,
                       track="banana")


class TestRunReplicated:
    def test_shape_and_determinism(self, objective):
        factory = lambda i: RandomSearch(objective.space, seed=i)
        a = run_replicated(factory, objective, 8, 4, seed=1)
        b = run_replicated(factory, objective, 8, 4, seed=1)
        assert a.runs.shape == (4, 8)
        assert np.allclose(a.runs, b.runs)

    def test_different_noise_seeds_differ_for_adaptive_optimizer(self, objective):
        from repro.optimizers.flow2 import FLOW2

        rs_factory = lambda i: RandomSearch(objective.space, seed=100 + i)
        a = run_replicated(rs_factory, objective, 8, 4, seed=1)
        b = run_replicated(rs_factory, objective, 8, 4, seed=2)
        # Random search ignores observations: the noise seed cannot matter.
        assert np.allclose(a.runs, b.runs)
        # An adaptive optimizer reacts to the noisy observations, so the
        # noise seed shifts its trajectory.
        noisy = default_synthetic_objective(seed=2)
        flow_factory = lambda i: FLOW2(noisy.space, seed=100 + i)
        c = run_replicated(flow_factory, noisy, 12, 4, seed=1)
        d = run_replicated(flow_factory, noisy, 12, 4, seed=2)
        assert not np.allclose(c.runs, d.runs)

    def test_validation(self, objective):
        with pytest.raises(ValueError):
            run_replicated(lambda i: RandomSearch(objective.space), objective, 0, 1)

    @pytest.mark.parametrize(
        "make", [RandomSearch, CentroidLearning],
        ids=["random_search", "centroid_learning"],
    )
    def test_rejects_empty(self, objective, make):
        factory = lambda i: make(objective.space, seed=i)
        with pytest.raises(ValueError, match=">= 1"):
            run_replicated(factory, objective, 0, 1)
        with pytest.raises(ValueError, match=">= 1"):
            run_replicated(factory, objective, 1, 0)


def test_experiment_result_scalar_access():
    result = ExperimentResult(name="x", description="d", scalars={"a": 1.0})
    assert result.scalar("a") == 1.0
    with pytest.raises(KeyError):
        result.scalar("b")
