"""Sharded service: routing, batched drains, rebalance handoff, failover."""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core.centroid import CentroidLearning
from repro.core.config_space import ConfigSpace, Parameter
from repro.core.find_best import FindBestMode
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.core.selectors import RandomSelector, SurrogateSelector
from repro.core.switch import SafeExplorationGate, TaskSwitchDetector
from repro.ml.acquisition import ExpectedImprovement
from repro.ml.linear import PolynomialFeatures, RidgeRegression
from repro.ml.scaler import Pipeline, StandardScaler
from repro.service.admission import Priority, ShedError
from repro.service.batch_exec import BatchProfile, batch_profile_for
from repro.service.sharded import ShardedAutotuneService, TuneRequest
from repro.sparksim.configs import query_level_space

pytestmark = pytest.mark.service

SPACE = query_level_space()


def seed_of(workload_id: str, signature: str) -> int:
    digest = hashlib.blake2b(
        f"{workload_id}/{signature}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def optimizer_factory(workload_id: str, signature: str) -> CentroidLearning:
    return CentroidLearning(SPACE, seed=seed_of(workload_id, signature))


def guarded_factory(workload_id: str, signature: str) -> CentroidLearning:
    """A guardrail that trips on ``drive``'s rising costs, then re-enables."""
    guardrail = Guardrail(
        min_iterations=3, threshold=0.005, patience=1, fit_window=3, cooldown=2
    )
    return CentroidLearning(
        SPACE, guardrail=guardrail, seed=seed_of(workload_id, signature)
    )


FACTORIES = {"plain": optimizer_factory, "guarded": guarded_factory}


def fresh_service(n_shards=3, **kwargs):
    kwargs.setdefault("queue_capacity", 256)
    return ShardedAutotuneService(n_shards, optimizer_factory, **kwargs)


def observation_for(vector, iteration):
    vector = np.asarray(vector, dtype=float)
    return Observation(
        config=vector,
        performance=10.0 + 0.1 * iteration,
        data_size=1000.0,
        iteration=iteration,
    )


def drive(service, workloads, n_iterations=6):
    """Phased suggest/observe rounds; returns per-session trails."""
    for t in range(n_iterations):
        requests = [TuneRequest.suggest(w, f"{w}/q0") for w in workloads]
        for request in requests:
            assert service.submit(request).accepted
        service.drain_all()
        for w, request in zip(workloads, requests):
            obs = observation_for(request.result, t)
            assert service.submit(TuneRequest.observe(w, f"{w}/q0", obs)).accepted
        service.drain_all()
    return {
        key: [tuple(o.config) for o in s.optimizer.observations.history]
        for key, s in service.sessions().items()
    }


WORKLOADS = [f"artifact-{i:04d}" for i in range(12)]


class TestRouting:
    def test_requests_land_on_ring_owner(self):
        service = fresh_service()
        request = TuneRequest.suggest("artifact-0000", "artifact-0000/q0")
        assert service.submit(request).accepted
        assert request.shard_id == service.ring.owner("artifact-0000")

    def test_sessions_stick_to_one_shard(self):
        service = fresh_service()
        drive(service, WORKLOADS, n_iterations=3)
        for shard_id in service.shard_ids:
            host = service.shard(shard_id).host
            for workload_id, _sig in host.sessions:
                assert service.ring.owner(workload_id) == shard_id

    def test_call_returns_result_or_raises_shed(self):
        service = fresh_service(n_shards=1, queue_capacity=1)
        vector = service.call(TuneRequest.suggest("w", "w/q0"))
        assert vector is not None and len(vector) == SPACE.dim
        # Fill the queue, then a blocking call must surface backpressure.
        assert service.submit(TuneRequest.suggest("w", "w/q0")).accepted
        with pytest.raises(ShedError) as exc_info:
            service.call(TuneRequest.suggest("w", "w/q0"))
        assert exc_info.value.retry_after > 0


class TestBatchedDrainEquivalence:
    @pytest.mark.parametrize("factory", sorted(FACTORIES))
    def test_coalesced_equals_scalar_trails(self, factory):
        def run(n_shards, coalesce):
            service = ShardedAutotuneService(
                n_shards, FACTORIES[factory], queue_capacity=256, coalesce=coalesce
            )
            with telemetry.capture() as cap:
                trails = drive(service, WORKLOADS, n_iterations=12)
            sessions = service.sessions()
            state = {
                key: (
                    s.optimizer.centroid.tolist(),
                    s.optimizer.guardrail.decisions if s.optimizer.guardrail else None,
                )
                for key, s in sessions.items()
            }
            counters = {
                name: value for name, value in cap.counters().items()
                if not name.startswith("service.")
            }
            return sessions, trails, state, counters

        sessions, trails, state, counters = run(3, coalesce=True)
        _, *scalar = run(1, coalesce=False)
        assert [trails, state, counters] == scalar
        # Every session, guarded or not, took the batched drain.
        assert all(isinstance(s.batch_profile, BatchProfile) for s in sessions.values())
        if factory == "guarded":
            # The guardrail really disabled and re-enabled tuning.
            assert counters["guardrail.disables"] >= len(WORKLOADS)
            assert counters["guardrail.reenables"] >= len(WORKLOADS)
            assert counters["centroid.updates_skipped{reason=guardrail}"] > 0
        assert counters["centroid.updates"] > 0

    def test_distinct_session_runs_split_repeats(self):
        batch = [
            TuneRequest.suggest("a", "a/q0"),
            TuneRequest.suggest("b", "b/q0"),
            TuneRequest.suggest("a", "a/q0"),
            TuneRequest.suggest("c", "c/q0"),
            TuneRequest.suggest("a", "a/q0"),
        ]
        runs = list(ShardedAutotuneService._distinct_session_runs(batch))
        assert [len(r) for r in runs] == [2, 2, 1]
        # FIFO across runs: flattening recovers the original order.
        assert [r for run in runs for r in run] == batch

    def test_same_session_requests_apply_in_fifo_order(self):
        service = fresh_service(n_shards=1, coalesce=True)
        first = TuneRequest.suggest("w", "w/q0")
        second = TuneRequest.suggest("w", "w/q0")
        service.submit(first)
        service.submit(second)
        service.drain_all()
        reference = CentroidLearning(SPACE, seed=seed_of("w", "w/q0"))
        assert np.array_equal(first.result, reference.suggest())
        assert np.array_equal(second.result, reference.suggest())

    def test_fallback_sessions_counted_once_and_served_scalar(self):
        def factory(workload_id, signature):
            if workload_id == "gated":
                return CentroidLearning(
                    SPACE, safe_gate=SafeExplorationGate(),
                    seed=seed_of(workload_id, signature),
                )
            return optimizer_factory(workload_id, signature)

        workloads = ["gated", "plain-0", "plain-1"]
        service = ShardedAutotuneService(1, factory, queue_capacity=64)
        reference = ShardedAutotuneService(1, factory, queue_capacity=64, coalesce=False)
        with telemetry.capture() as cap:
            trails = drive(service, workloads, n_iterations=4)
        assert trails == drive(reference, workloads, n_iterations=4)
        counters = cap.counters()
        assert counters["service.batch.fallback_sessions{reason=safe_gate}"] == 1
        assert sum(
            v for k, v in counters.items() if k.startswith("service.batch.")
        ) == 1
        shard = service.metrics()["service"]["shards"]["shard-0"]
        assert shard["batched_sessions"] == 2
        assert shard["fallback_sessions"] == 1
        # The scalar reference probes nothing.
        ref_shard = reference.metrics()["service"]["shards"]["shard-0"]
        assert ref_shard["batched_sessions"] == ref_shard["fallback_sessions"] == 0


def _window_model():
    return Pipeline([
        ("scale", StandardScaler()),
        ("poly", PolynomialFeatures(degree=2, interaction_only=True)),
        ("ridge", RidgeRegression(alpha=0.5)),
    ])


def _exploding_factory():
    raise RuntimeError("no model")


class _CustomCentroidLearning(CentroidLearning):
    pass


WIDE_SPACE = ConfigSpace([Parameter(f"k{i}", 0.0, 1.0, 0.5) for i in range(13)])


class TestBatchProfileFor:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"guardrail": Guardrail()},
        {"guardrail": Guardrail(robust=True, cooldown=3)},
        {"alpha_decay": 0.1, "window_size": 5, "n_candidates": 7},
    ], ids=["plain", "guardrail", "robust_cooldown_guardrail", "hyperparameters"])
    def test_accepts_production_shapes(self, kwargs):
        profile = batch_profile_for(CentroidLearning(SPACE, seed=0, **kwargs))
        assert isinstance(profile, BatchProfile)
        assert profile.dim == SPACE.dim
        assert (profile.alpha, profile.degree, profile.interaction_only) == (1.0, 2, False)
        assert np.array_equal(profile.span, profile.bounds_high - profile.bounds_low)

    def test_accepts_custom_ridge_pipeline(self):
        profile = batch_profile_for(
            CentroidLearning(SPACE, model_factory=_window_model, seed=0)
        )
        assert isinstance(profile, BatchProfile)
        assert (profile.alpha, profile.degree, profile.interaction_only) == (0.5, 2, True)

    @pytest.mark.parametrize("build, reason", [
        (lambda: _CustomCentroidLearning(SPACE), "optimizer"),
        (lambda: CentroidLearning(SPACE, switch_detector=TaskSwitchDetector()),
         "switch_detector"),
        (lambda: CentroidLearning(
            SPACE, guardrail=Guardrail(), switch_detector=TaskSwitchDetector()),
         "switch_detector"),
        (lambda: CentroidLearning(SPACE, safe_gate=SafeExplorationGate()), "safe_gate"),
        (lambda: CentroidLearning(SPACE, find_best_mode=FindBestMode.RAW),
         "find_best_mode"),
        (lambda: CentroidLearning(SPACE, gradient_mode="linear"), "gradient"),
        (lambda: CentroidLearning(SPACE, probe="multiplicative"), "gradient"),
        (lambda: CentroidLearning(WIDE_SPACE), "dim"),
        (lambda: CentroidLearning(SPACE, selector=RandomSelector()), "selector"),
        (lambda: CentroidLearning(SPACE, selector=SurrogateSelector(
            _window_model, acquisition=ExpectedImprovement())), "selector"),
        (lambda: CentroidLearning(SPACE, selector=SurrogateSelector(_window_model)),
         "selector"),
        (lambda: CentroidLearning(SPACE, model_factory=_exploding_factory), "model"),
        (lambda: CentroidLearning(SPACE, model_factory=RidgeRegression), "model"),
        (lambda: CentroidLearning(SPACE, model_factory=lambda: Pipeline([
            ("scale", StandardScaler()), ("ridge", RidgeRegression()),
        ])), "model"),
    ], ids=[
        "subclass", "switch_detector", "guardrail_and_switch_detector", "safe_gate",
        "raw_find_best", "linear_gradient", "multiplicative_probe", "wide_space",
        "random_selector", "ei_acquisition", "foreign_selector_model",
        "exploding_factory", "bare_ridge", "two_step_pipeline",
    ])
    def test_rejects_with_reason(self, build, reason):
        assert batch_profile_for(build()) == reason


class TestRebalance:
    def test_add_shard_moves_only_into_new_shard(self):
        service = fresh_service(n_shards=3)
        drive(service, WORKLOADS, n_iterations=2)
        before = {w: service.ring.owner(w) for w in WORKLOADS}
        new_shard = service.add_shard()
        for w in WORKLOADS:
            after = service.ring.owner(w)
            if after != before[w]:
                assert after == new_shard
            key = (w, f"{w}/q0")
            assert key in service.shard(after).host.sessions

    def test_resize_mid_run_is_bit_identical(self):
        reference = drive(fresh_service(n_shards=3), WORKLOADS, n_iterations=6)

        service = fresh_service(n_shards=3)
        for t in range(6):
            if t == 3:
                service.resize(5)
            requests = [TuneRequest.suggest(w, f"{w}/q0") for w in WORKLOADS]
            for request in requests:
                service.submit(request)
            service.drain_all()
            for w, request in zip(WORKLOADS, requests):
                service.submit(
                    TuneRequest.observe(w, f"{w}/q0", observation_for(request.result, t))
                )
            service.drain_all()
        resized = {
            key: [tuple(o.config) for o in s.optimizer.observations.history]
            for key, s in service.sessions().items()
        }
        assert resized == reference
        assert service.n_shards == 5

    def test_remove_last_shard_forbidden(self):
        service = fresh_service(n_shards=1)
        with pytest.raises(ValueError):
            service.remove_shard("shard-0")

    def test_shrink_hands_sessions_to_survivors(self):
        service = fresh_service(n_shards=4)
        drive(service, WORKLOADS, n_iterations=2)
        total_before = len(service.sessions())
        service.resize(2)
        assert service.n_shards == 2
        assert len(service.sessions()) == total_before


class TestMisroute:
    def test_misroute_violates_stickiness(self):
        service = fresh_service(n_shards=3)
        victim = WORKLOADS[0]
        owner = service.ring.owner(victim)
        wrong = next(s for s in service.shard_ids if s != owner)
        service.plant_misroute(victim, wrong, after=0)
        request = TuneRequest.suggest(victim, f"{victim}/q0")
        service.submit(request)
        assert request.shard_id == wrong

    def test_misroute_to_unknown_shard_rejected(self):
        with pytest.raises(KeyError):
            fresh_service().plant_misroute("w", "shard-99")


class TestMetrics:
    def test_metrics_shape_and_totals(self):
        service = fresh_service(n_shards=3)
        drive(service, WORKLOADS, n_iterations=2)
        payload = service.metrics()["service"]
        assert payload["n_shards"] == 3
        assert payload["submitted"] == 12 * 2 * 2
        assert payload["shed"] == 0
        assert payload["utilization_skew"] >= 1.0
        processed = sum(s["processed"] for s in payload["shards"].values())
        assert processed == payload["submitted"]
        batched = sum(s["batched_sessions"] for s in payload["shards"].values())
        assert batched == len(WORKLOADS)
        assert all(s["fallback_sessions"] == 0 for s in payload["shards"].values())

    def test_service_counters_namespaced(self):
        with telemetry.capture() as cap:
            drive(fresh_service(n_shards=2), WORKLOADS[:4], n_iterations=1)
        names = set(cap.counters())
        assert any(n.startswith("service.requests") for n in names)
        assert any(n.startswith("service.shard.processed") for n in names)


class TestTuneRequestValidation:
    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            TuneRequest("fetch", "w", "q")

    def test_observe_requires_observation(self):
        with pytest.raises(ValueError):
            TuneRequest("observe", "w", "q")

    def test_priority_defaults_to_batch(self):
        assert TuneRequest.suggest("w", "q").priority is Priority.BATCH
