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


class _CountingEmbedder(WorkloadEmbedder):
    def __init__(self):
        super().__init__()
        self.plans = []

    def embed(self, plan):
        self.plans.append(plan)
        return super().embed(plan)


class _EmbedEveryStep(TuningSession):
    """The reference: embed on every step, as before the per-plan memo."""

    def _embed(self, plan):
        return self.embedder.embed(plan)


class TestEmbeddingMemo:
    @pytest.mark.parametrize("scale_fn", [None, lambda t: 1.0 + 0.05 * t],
                             ids=["steady", "drifting"])
    def test_one_embed_per_plan_object_and_the_same_trail(self, q3_plan, scale_fn):
        from repro.verify.diff import session_trail, twin_run

        space = query_level_space()
        embedders = []

        def arm(session_type):
            def run():
                embedder = _CountingEmbedder()
                embedders.append(embedder)
                optimizer = CentroidLearning(space, seed=3)
                session = session_type(
                    q3_plan, SparkSimulator(noise=low_noise(), seed=4), optimizer,
                    embedder=embedder, scale_fn=scale_fn,
                )
                return [session.run(12)], [optimizer]
            return run

        report = twin_run("embedding_memo", arm(TuningSession), arm(_EmbedEveryStep),
                          session_trail, ignore_counters=())
        assert report.equivalent, report.summary()
        memo, reference = embedders
        assert len(reference.plans) == 12
        assert len(memo.plans) == len({id(p) for p in reference.plans})
        if scale_fn is None:
            assert memo.plans == [q3_plan]
        else:
            assert len(memo.plans) == 12

    def test_shared_embedding_is_read_only(self, session):
        session.run(3)
        embeddings = {id(o.embedding) for o in session.optimizer.observations.history}
        assert len(embeddings) == 1
        embedding = session.optimizer.observations.latest.embedding
        with pytest.raises(ValueError):
            embedding[0] = 1.0
