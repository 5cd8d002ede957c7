"""Tests for the SparkSimulator."""

import math

import numpy as np
import pytest

from repro.sparksim.cost_model import CostModel
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.plan import PhysicalPlan
from repro.sparksim.noise import high_noise, no_noise
from repro.workloads.tpch import tpch_plan


class TestSimulator:
    def test_true_time_matches_noiseless_run(self, q3_plan, spark_space):
        sim = SparkSimulator(noise=no_noise(), seed=0)
        config = spark_space.default_dict()
        result = sim.run(q3_plan, config)
        assert result.elapsed_seconds == pytest.approx(result.true_seconds)
        assert result.true_seconds == pytest.approx(sim.true_time(q3_plan, config))

    def test_noisy_run_at_least_true(self, q3_plan, spark_space):
        sim = SparkSimulator(noise=high_noise(), seed=1)
        for _ in range(20):
            result = sim.run(q3_plan, spark_space.default_dict())
            assert result.elapsed_seconds >= result.true_seconds

    def test_same_seed_replays_noise(self, q3_plan, spark_space):
        config = spark_space.default_dict()
        a = SparkSimulator(noise=high_noise(), seed=7)
        b = SparkSimulator(noise=high_noise(), seed=7)
        times_a = [a.run(q3_plan, config).elapsed_seconds for _ in range(5)]
        times_b = [b.run(q3_plan, config).elapsed_seconds for _ in range(5)]
        assert times_a == times_b

    def test_data_scale_scales_size_and_time(self, q3_plan, spark_space):
        sim = SparkSimulator(noise=no_noise(), seed=0)
        config = spark_space.default_dict()
        r1 = sim.run(q3_plan, config, data_scale=1.0)
        r3 = sim.run(q3_plan, config, data_scale=3.0)
        assert r3.data_size == pytest.approx(3.0 * r1.data_size)
        assert r3.true_seconds > r1.true_seconds

    def test_run_count_increments(self, q3_plan, spark_space):
        sim = SparkSimulator(noise=no_noise(), seed=0)
        for i in range(3):
            sim.run(q3_plan, spark_space.default_dict())
        assert sim.run_count == 3

    def test_result_carries_signature_and_metrics(self, q3_plan, spark_space):
        sim = SparkSimulator(noise=no_noise(), seed=0)
        result = sim.run(q3_plan, spark_space.default_dict())
        assert result.plan_signature == q3_plan.signature()
        assert result.metrics["tasks"] > 0

    def test_run_to_event_round_trips_fields(self, q3_plan, spark_space):
        sim = SparkSimulator(noise=no_noise(), seed=0)
        embedding = np.array([1.0, 2.0, 3.0])
        event = sim.run_to_event(
            q3_plan, spark_space.default_dict(),
            app_id="app", artifact_id="art", user_id="u", iteration=4,
            embedding=embedding, region="eu",
        )
        assert event.app_id == "app"
        assert event.iteration == 4
        assert event.embedding == [1.0, 2.0, 3.0]
        assert event.query_signature == q3_plan.signature()
        assert event.region == "eu"
        assert event.duration_seconds > 0


class TestScaledRuns:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_rejected_scale_raises(self, q3_plan, spark_space, scale):
        sim = SparkSimulator(noise=no_noise(), seed=0)
        config = spark_space.default_dict()
        match = f"finite and > 0, got {scale}"
        with pytest.raises(ValueError, match=match):
            sim.run(q3_plan, config, data_scale=scale)
        with pytest.raises(ValueError, match=match):
            sim.true_time(q3_plan, config, data_scale=scale)
        with pytest.raises(ValueError, match=match):
            sim.run_to_event(
                q3_plan, config, app_id="app", artifact_id="art", user_id="u",
                iteration=0, data_scale=scale,
            )
        with pytest.raises(ValueError, match=match):
            sim.cost_model.estimate(q3_plan, config, data_scale=scale)
        with pytest.raises(ValueError, match=match):
            sim.true_time_batch(q3_plan, [config], data_scale=scale)
        with pytest.raises(ValueError, match=match):
            sim.run_batch(q3_plan, [config], data_scale=scale)
        assert sim.run_count == 0

    def test_keeps_no_scaled_copy(self, q3_plan, spark_space, monkeypatch):
        built = []
        scaled = PhysicalPlan.scaled

        def recording(plan, factor):
            built.append(factor)
            return scaled(plan, factor)

        monkeypatch.setattr(PhysicalPlan, "scaled", recording)
        sim = SparkSimulator(noise=no_noise(), seed=0)
        config = spark_space.default_dict()
        for i in range(1, 1001):
            sim.run(q3_plan, config, data_scale=1.0 + i / 1000)
            sim.true_time(q3_plan, config, data_scale=1.0 + i / 1000)
        # The cost model applies the scale itself: no run builds a copy.
        assert built == []

    def test_scaled_results_equal_a_scaled_plan(self, q3_plan, spark_space):
        space = spark_space
        configs = [space.to_dict(v)
                   for v in space.latin_hypercube(4, np.random.default_rng(3))]
        sim = SparkSimulator(noise=no_noise(), seed=0)
        model = CostModel()
        for scale in [0.37, 2.5, 1e3, 0.37, 1.0]:
            expected = [model.estimate(q3_plan.scaled(scale), c) for c in configs]
            totals = [e.total_seconds for e in expected]
            for config, want in zip(configs, expected):
                result = sim.run(q3_plan, config, data_scale=scale)
                assert result.true_seconds == want.total_seconds
                assert result.metrics == want.metrics
                assert sim.true_time(q3_plan, config, data_scale=scale) == want.total_seconds
            batch = sim.true_time_batch(q3_plan, configs, data_scale=scale)
            assert batch.tolist() == totals
            ran = sim.run_batch(q3_plan, configs, data_scale=scale)
            assert [r.true_seconds for r in ran] == totals
            assert [r.metrics for r in ran] == [e.metrics for e in expected]
