"""Fleet-scale driver: thousands of tenant sessions against the service.

The driver materializes a population of recurring customer notebooks
(:func:`repro.workloads.customer.generate_population`), opens one tuning
session per ``(workload, query)`` pair, and runs them *phased* against a
:class:`~repro.service.sharded.ShardedAutotuneService`:

1. every session submits its ``suggest`` for round *t* (shed requests back
   off and resubmit after a drain, like a client honoring ``retry_after``);
2. the service drains — co-tenant requests coalesce into batched model
   calls on each shard;
3. the fleet executes the suggested configs on its client-side simulators;
4. every session submits its ``observe`` (+ ``QueryEndEvent``), and the
   service drains again.

:class:`FleetReport` carries the headline numbers the benchmark publishes:
service throughput (requests per second of drain wall time — the number
the ≥3× sharded-vs-single guard compares), end-to-end sessions/sec,
p50/p99 request latency (queue wait + batch wait + shed backoff included),
shed rate, and shard-utilization skew.

Determinism contract: every seed derives arithmetically from
``(base_seed, workload index, query index)`` — the same fleet spec produces
the same request stream no matter how the service is sharded, which is what
lets the ``diff_sharded_single`` oracle re-run one fleet against different
deployments and demand bit-identical per-session trails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.centroid import CentroidLearning
from ..core.guardrail import Guardrail
from ..core.observation import Observation
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.plan import PhysicalPlan
from ..workloads.customer import CustomerWorkload, fleet_priority_class, generate_population
from .admission import Priority
from .sharded import ShardedAutotuneService, TuneRequest

__all__ = [
    "FleetReport",
    "FleetSession",
    "build_fleet",
    "default_optimizer_factory",
    "fleet_user_map",
    "run_fleet",
]

_PRIORITY_BY_NAME = {
    "interactive": Priority.INTERACTIVE,
    "batch": Priority.BATCH,
    "best_effort": Priority.BEST_EFFORT,
}

# Workload-index seed stride: keeps per-workload seed families disjoint while
# staying composable with the fig15 per-query derivations (seed*13+q, *101+q).
_WORKLOAD_SEED_STRIDE = 1000003


@dataclass
class FleetSession:
    """One tenant tuning session the fleet drives."""

    workload: CustomerWorkload
    workload_index: int
    query_index: int
    plan: PhysicalPlan
    signature: str
    simulator: SparkSimulator
    priority: Priority

    @property
    def workload_id(self) -> str:
        return self.workload.workload_id

    @property
    def user_id(self) -> str:
        return self.workload.user_id

    @property
    def app_id(self) -> str:
        return f"{self.workload_id}:{self.signature}"

    def optimizer_seed(self, base_seed: int) -> int:
        return (base_seed * _WORKLOAD_SEED_STRIDE + self.workload_index) * 13 + self.query_index


def _session_seed(base_seed: int, w_index: int, q_index: int, stream: int) -> int:
    return (base_seed * _WORKLOAD_SEED_STRIDE + w_index) * stream + q_index


def build_fleet(
    n_workloads: int,
    seed: int = 0,
    max_queries_per_workload: Optional[int] = None,
) -> List[FleetSession]:
    """Materialize the session population for a fleet run.

    Session keys are ``(workload_id, "<workload_id>/q<j>")`` — the query
    signature embeds the workload id so session keys stay globally unique
    even though :func:`generate_population` shares user ids across
    workloads.  Priorities follow :func:`fleet_priority_class` (a fixed
    interactive / batch / best-effort mix by workload index).
    """
    sessions: List[FleetSession] = []
    for w_index, workload in enumerate(generate_population(n_workloads, seed=seed)):
        priority = _PRIORITY_BY_NAME[fleet_priority_class(w_index)]
        plans = workload.plans
        if max_queries_per_workload is not None:
            plans = plans[:max_queries_per_workload]
        for q_index, plan in enumerate(plans):
            sessions.append(FleetSession(
                workload=workload,
                workload_index=w_index,
                query_index=q_index,
                plan=plan,
                signature=f"{workload.workload_id}/q{q_index}",
                simulator=SparkSimulator(
                    noise=workload.noise,
                    seed=_session_seed(seed, w_index, q_index, 101),
                ),
                priority=priority,
            ))
    return sessions


def default_optimizer_factory(
    fleet: Sequence[FleetSession],
    base_seed: int = 0,
    guardrail_factory: Optional[Callable[[], Guardrail]] = None,
) -> Callable[[str, str], CentroidLearning]:
    """The fleet's per-session optimizer builder.

    Looks the session up by key and derives its seed arithmetically, so any
    shard — or the single-backend reference — constructs the identical
    optimizer for a given key (the host's determinism contract).  With
    ``guardrail_factory`` every session gets its own guardrail, the
    production configuration (paper Sec. 4.3).
    """
    space = query_level_space()
    by_key = {(s.workload_id, s.signature): s for s in fleet}

    def factory(workload_id: str, query_signature: str) -> CentroidLearning:
        session = by_key[(workload_id, query_signature)]
        return CentroidLearning(
            space,
            guardrail=guardrail_factory() if guardrail_factory else None,
            seed=session.optimizer_seed(base_seed),
        )

    return factory


def fleet_user_map(fleet: Sequence[FleetSession]) -> Callable[[str], str]:
    """``workload_id -> user_id`` resolver for the service's backends."""
    users = {s.workload_id: s.user_id for s in fleet}
    return lambda workload_id: users[workload_id]


@dataclass
class FleetReport:
    """Headline numbers from one fleet run."""

    n_sessions: int
    n_iterations: int
    n_requests: int
    duration_seconds: float
    drain_seconds: float
    service_throughput_rps: float
    sessions_per_sec: float
    latency_p50_ms: float
    latency_p99_ms: float
    shed_events: int
    shed_rate: float
    lost_requests: int
    utilization_skew: float
    shard_metrics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_sessions": self.n_sessions,
            "n_iterations": self.n_iterations,
            "n_requests": self.n_requests,
            "duration_seconds": self.duration_seconds,
            "drain_seconds": self.drain_seconds,
            "service_throughput_rps": self.service_throughput_rps,
            "sessions_per_sec": self.sessions_per_sec,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "shed_events": self.shed_events,
            "shed_rate": self.shed_rate,
            "lost_requests": self.lost_requests,
            "utilization_skew": self.utilization_skew,
        }


def run_fleet(
    service: ShardedAutotuneService,
    fleet: Sequence[FleetSession],
    n_iterations: int,
    *,
    events: bool = False,
    max_shed_retries: int = 8,
    clock: Callable[[], float] = time.perf_counter,
) -> FleetReport:
    """Drive ``fleet`` for ``n_iterations`` phased rounds and report.

    Args:
        service: the deployment under test (any shard count / coalesce
            setting — the request stream is deployment-independent).
        events: also forward a ``QueryEndEvent`` per observation (exercises
            the per-shard backend pipeline; leave off for pure service
            micro-benchmarks).
        max_shed_retries: per-request resubmission budget.  A shed request
            backs off exactly like a client ``RetryPolicy`` honoring
            ``retry_after`` — the driver drains the service (time passes,
            queues empty) and resubmits; past the budget it counts as lost.
    """
    space = query_level_space()
    started = clock()
    drain_seconds = 0.0
    latencies: List[float] = []
    shed_events = 0
    lost = 0
    completed = 0

    def timed_drain() -> None:
        nonlocal drain_seconds
        t0 = clock()
        service.drain_all()
        drain_seconds += clock() - t0

    def submit_all(requests: List[TuneRequest]) -> None:
        nonlocal shed_events, lost
        pending = list(requests)
        for request in pending:
            request.submitted_at = clock()
        attempts = {id(r): 0 for r in pending}
        while pending:
            still_shed: List[TuneRequest] = []
            for request in pending:
                if service.submit(request).accepted:
                    continue
                shed_events += 1
                attempts[id(request)] += 1
                if attempts[id(request)] > max_shed_retries:
                    lost += 1
                else:
                    still_shed.append(request)
            if still_shed:
                # Back off: draining is the service-time analogue of
                # sleeping retry_after — the overloaded queues empty out.
                timed_drain()
            pending = still_shed

    for t in range(n_iterations):
        suggests = [
            TuneRequest.suggest(s.workload_id, s.signature, priority=s.priority)
            for s in fleet
        ]
        submit_all(suggests)
        timed_drain()

        observes: List[TuneRequest] = []
        for session, request in zip(fleet, suggests):
            if not request.done:
                continue  # lost to shedding under overload
            latencies.append(request.completed_at - request.submitted_at)
            completed += 1
            vector = np.asarray(request.result, dtype=float)
            scale = session.workload.data_scale(t)
            if events:
                event = session.simulator.run_to_event(
                    session.plan, space.to_dict(vector),
                    app_id=session.app_id, artifact_id=session.workload_id,
                    user_id=session.user_id, iteration=t, data_scale=scale,
                )
                observation = Observation(
                    config=vector, performance=event.duration_seconds,
                    data_size=event.data_size, iteration=t,
                )
            else:
                result = session.simulator.run(
                    session.plan, space.to_dict(vector), data_scale=scale
                )
                event = None
                observation = Observation(
                    config=vector, performance=result.elapsed_seconds,
                    data_size=result.data_size, iteration=t,
                )
            observes.append(TuneRequest.observe(
                session.workload_id, session.signature, observation,
                event=event, priority=session.priority,
            ))
        submit_all(observes)
        timed_drain()
        for request in observes:
            if request.done:
                latencies.append(request.completed_at - request.submitted_at)
                completed += 1
            else:
                lost += 1

    duration = clock() - started
    latency_array = np.asarray(latencies) if latencies else np.zeros(1)
    submitted_total = completed + lost
    metrics = service.metrics()["service"]
    return FleetReport(
        n_sessions=len(fleet),
        n_iterations=n_iterations,
        n_requests=completed,
        duration_seconds=duration,
        drain_seconds=drain_seconds,
        service_throughput_rps=completed / drain_seconds if drain_seconds > 0 else 0.0,
        sessions_per_sec=(
            len(fleet) * n_iterations / duration if duration > 0 else 0.0
        ),
        latency_p50_ms=float(np.percentile(latency_array, 50) * 1e3),
        latency_p99_ms=float(np.percentile(latency_array, 99) * 1e3),
        shed_events=shed_events,
        shed_rate=shed_events / max(1, submitted_total + shed_events),
        lost_requests=lost,
        utilization_skew=float(metrics["utilization_skew"]),
        shard_metrics=metrics["shards"],
    )
