"""Tests for TuningSession / TuningTrace."""

import numpy as np
import pytest

from repro.core.centroid import CentroidLearning
from repro.core.session import IterationRecord, TuningSession, TuningTrace
from repro.embedding.embedder import WorkloadEmbedder
from repro.optimizers.random_search import RandomSearch
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import low_noise, no_noise
from repro.sparksim.plan import PhysicalPlan
from repro.workloads.dynamics import LinearGrowth
from repro.workloads.tpch import tpch_plan


@pytest.fixture
def session(q3_plan):
    space = query_level_space()
    return TuningSession(
        q3_plan,
        SparkSimulator(noise=no_noise(), seed=0),
        CentroidLearning(space, seed=0),
        embedder=WorkloadEmbedder(),
    )


class TestTuningTrace:
    def test_views(self):
        trace = TuningTrace()
        for i in range(4):
            trace.append(IterationRecord(
                iteration=i, config={}, observed_seconds=10.0 - i,
                true_seconds=9.0 - i, data_size=100.0,
            ))
        assert len(trace) == 4
        assert trace.observed.tolist() == [10.0, 9.0, 8.0, 7.0]
        assert trace.best_true_so_far().tolist() == [9.0, 8.0, 7.0, 6.0]
        assert np.allclose(trace.normalized_true(), trace.true / 100.0)

    def test_speedup_vs(self):
        trace = TuningTrace()
        for i in range(10):
            trace.append(IterationRecord(
                iteration=i, config={}, observed_seconds=5.0,
                true_seconds=5.0, data_size=1.0,
            ))
        assert trace.speedup_vs(10.0) == pytest.approx(1.0)  # 2x faster = +100%
        with pytest.raises(ValueError):
            TuningTrace().speedup_vs(1.0)


class TestTuningSession:
    def test_run_produces_trace(self, session):
        trace = session.run(5)
        assert len(trace) == 5
        assert np.all(trace.true > 0)
        assert np.all(trace.observed >= trace.true - 1e-9)  # no-noise: equal

    def test_invalid_iterations(self, session):
        with pytest.raises(ValueError):
            session.run(0)

    def test_records_contain_config_dict(self, session):
        record = session.step()
        assert set(record.config) == set(query_level_space().names)

    def test_default_true_time_positive(self, session):
        assert session.default_true_time() > 0

    def test_scale_fn_changes_data_size(self, q3_plan):
        space = query_level_space()
        session = TuningSession(
            q3_plan,
            SparkSimulator(noise=no_noise(), seed=0),
            RandomSearch(space, seed=0),
            scale_fn=lambda t: 1.0 + t,
        )
        trace = session.run(3)
        assert trace.data_sizes[1] > trace.data_sizes[0]
        assert trace.data_sizes[2] > trace.data_sizes[1]

    def test_drifting_step_scales_its_plan_once(self, q3_plan, monkeypatch):
        # The embedding and the size estimate read one scaled copy per step;
        # the simulator prices the run from the scale without building one.
        built = []
        scaled = PhysicalPlan.scaled

        def counting(plan, factor):
            built.append(factor)
            return scaled(plan, factor)

        monkeypatch.setattr(PhysicalPlan, "scaled", counting)
        scales = [1.25 + 0.1 * t for t in range(10)]
        session = TuningSession(
            q3_plan,
            SparkSimulator(noise=no_noise(), seed=0),
            RandomSearch(query_level_space(), seed=0),
            embedder=WorkloadEmbedder(),
            scale_fn=lambda t: scales[t],
        )
        session.run(10)
        assert built == scales

    def test_noisy_observed_at_least_true(self, q3_plan):
        space = query_level_space()
        session = TuningSession(
            q3_plan,
            SparkSimulator(noise=low_noise(), seed=0),
            RandomSearch(space, seed=0),
        )
        trace = session.run(10)
        # Eq.-8 noise only slows down: observed >= true always.
        assert np.all(trace.observed >= trace.true - 1e-9)

    def test_tuning_improves_over_default_noiseless(self, q3_plan):
        space = query_level_space()
        session = TuningSession(
            tpch_plan(3, 10.0),
            SparkSimulator(noise=no_noise(), seed=0),
            CentroidLearning(space, seed=0),
            embedder=WorkloadEmbedder(),
        )
        trace = session.run(30)
        assert trace.best_true_so_far()[-1] < session.default_true_time()
