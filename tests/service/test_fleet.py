"""Fleet driver: deterministic fleet construction and the phased run loop."""

import pytest

from repro.core.guardrail import Guardrail
from repro.service.fleet import (
    FleetReport,
    build_fleet,
    default_optimizer_factory,
    fleet_user_map,
    run_fleet,
)
from repro.service.sharded import ShardedAutotuneService
from repro.workloads.customer import fleet_priority_class

pytestmark = pytest.mark.service


def small_service(fleet, n_shards=2, **kwargs):
    kwargs.setdefault("queue_capacity", max(64, 4 * len(fleet)))
    return ShardedAutotuneService(
        n_shards,
        default_optimizer_factory(fleet, base_seed=0),
        user_id_fn=fleet_user_map(fleet),
        **kwargs,
    )


class TestBuildFleet:
    def test_deterministic_construction(self):
        a = build_fleet(6, seed=3, max_queries_per_workload=2)
        b = build_fleet(6, seed=3, max_queries_per_workload=2)
        assert [s.signature for s in a] == [s.signature for s in b]
        assert [s.workload_id for s in a] == [s.workload_id for s in b]
        assert [s.priority for s in a] == [s.priority for s in b]

    def test_signatures_unique_across_fleet(self):
        fleet = build_fleet(8, seed=0, max_queries_per_workload=3)
        signatures = [s.signature for s in fleet]
        assert len(signatures) == len(set(signatures))

    def test_priority_mix_follows_workload_cycle(self):
        fleet = build_fleet(8, seed=1, max_queries_per_workload=1)
        for session in fleet:
            expected = fleet_priority_class(session.workload_index)
            assert session.priority.name.lower() == expected

    def test_optimizer_seeds_unique(self):
        fleet = build_fleet(10, seed=5, max_queries_per_workload=3)
        seeds = [s.optimizer_seed(5) for s in fleet]
        assert len(seeds) == len(set(seeds))

    def test_max_queries_caps_fleet_size(self):
        fleet = build_fleet(4, seed=0, max_queries_per_workload=2)
        per_workload = {}
        for session in fleet:
            per_workload[session.workload_id] = (
                per_workload.get(session.workload_id, 0) + 1
            )
        assert all(count <= 2 for count in per_workload.values())


class TestRunFleet:
    def test_report_fields_consistent(self):
        fleet = build_fleet(6, seed=0, max_queries_per_workload=2)
        service = small_service(fleet)
        report = run_fleet(service, fleet, n_iterations=3)
        assert isinstance(report, FleetReport)
        assert report.n_sessions == len(fleet)
        assert report.n_iterations == 3
        # suggest + observe per session per iteration, nothing lost.
        assert report.n_requests == len(fleet) * 3 * 2
        assert report.lost_requests == 0
        assert report.shed_events == 0
        assert report.service_throughput_rps > 0
        assert report.sessions_per_sec > 0
        assert 0 < report.latency_p50_ms <= report.latency_p99_ms
        assert report.utilization_skew >= 1.0

    def test_sessions_trained_after_run(self):
        fleet = build_fleet(5, seed=2, max_queries_per_workload=1)
        service = small_service(fleet)
        run_fleet(service, fleet, n_iterations=4)
        sessions = service.sessions()
        assert len(sessions) == len(fleet)
        for session in sessions.values():
            assert len(session.optimizer.observations.history) == 4

    def test_overload_sheds_then_recovers(self):
        fleet = build_fleet(12, seed=1, max_queries_per_workload=2)
        # Tiny queues force admission control to engage.
        service = small_service(fleet, n_shards=2, queue_capacity=4)
        report = run_fleet(service, fleet, n_iterations=2)
        assert report.shed_events > 0
        assert report.shed_rate > 0
        # Shed-retry drains recover every request within the retry budget.
        assert report.lost_requests == 0
        assert report.n_requests == len(fleet) * 2 * 2

    def test_guardrail_factory_gives_each_session_its_own_guardrail(self):
        fleet = build_fleet(4, seed=4, max_queries_per_workload=2)
        factory = default_optimizer_factory(fleet, guardrail_factory=Guardrail)
        service = ShardedAutotuneService(
            2, factory, user_id_fn=fleet_user_map(fleet), queue_capacity=64,
        )
        run_fleet(service, fleet, n_iterations=3)
        guardrails = [s.optimizer.guardrail for s in service.sessions().values()]
        assert all(isinstance(g, Guardrail) for g in guardrails)
        assert len({id(g) for g in guardrails}) == len(fleet)
        assert all(g.n_observations == 3 for g in guardrails)
        shards = service.metrics()["service"]["shards"].values()
        assert sum(s["batched_sessions"] for s in shards) == len(fleet)

    def test_to_dict_round_trips_scalars(self):
        fleet = build_fleet(4, seed=0, max_queries_per_workload=1)
        report = run_fleet(small_service(fleet), fleet, n_iterations=2)
        payload = report.to_dict()
        assert payload["n_sessions"] == 4
        assert payload["n_requests"] == 4 * 2 * 2
        assert set(payload) >= {
            "service_throughput_rps",
            "sessions_per_sec",
            "latency_p50_ms",
            "latency_p99_ms",
            "shed_events",
            "shed_rate",
            "lost_requests",
            "utilization_skew",
        }
