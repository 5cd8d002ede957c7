"""The sharded, queue-driven multi-tenant Autotune service.

Request path::

    submit(request)                       drain_shard / drain_all
    ────────────────►  ConsistentHashRing ──► ShardQueue ──► batched drain
       workload id          (routing)       (admission +      (coalesced
                                            load shedding)    model calls)

* **Routing** — a :class:`~repro.service.ring.ConsistentHashRing` maps the
  request's workload id to one shard, so a tenant's sessions always land
  where their optimizer state lives.
* **Admission** — each shard fronts a bounded
  :class:`~repro.service.admission.ShardQueue`; overloaded shards shed
  lower :class:`~repro.service.admission.Priority` classes first and answer
  with a ``retry_after`` hint (:class:`~repro.service.admission.ShedError`
  on the blocking :meth:`ShardedAutotuneService.call` path).
* **Batched drain** — :meth:`drain_shard` splits the FIFO backlog into runs
  of pairwise-distinct sessions and hands each run to
  :func:`repro.service.batch_exec.execute_run`, which coalesces the
  co-tenant window-model fits and predictions into batched kernel calls
  while reproducing the scalar request path bit-for-bit.  Shards drain
  one after another: on 1- and 2-CPU hosts thread-parallel drains
  measured slower than serial ones.  :meth:`metrics` reports how many
  sessions each shard batches and how many take the scalar path.
* **Rebalance** — :meth:`add_shard` / :meth:`remove_shard` /
  :meth:`resize` recompute the ring and hand live sessions to their new
  owners (bounded movement, optimizer state intact);
  :meth:`fail_shard` is the outage path: the dead shard's sessions fail
  over the same way and its queued requests are re-routed (re-admitted,
  possibly shed).

All ``service.*`` telemetry is namespaced so the ``diff_sharded_single``
oracle can compare sharded-vs-single counter trails while ignoring the
deployment-shaped counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import telemetry
from ..core.observation import Observation
from ..sparksim.events import QueryEndEvent
from .admission import AdmissionController, Priority, ShardQueue, ShedError, ShedVerdict
from .backend import AutotuneBackend
from .batch_exec import BatchProfile, apply_scalar, execute_run
from .ring import ConsistentHashRing
from .sessions import OptimizerFactory, SessionKey, TenantSession, TenantSessionHost

__all__ = ["ShardedAutotuneService", "TuneRequest"]


@dataclass
class TuneRequest:
    """One tuning request enqueued at a shard.

    ``result`` is filled at drain time: the suggested internal vector for
    ``op="suggest"``, ``None`` for ``op="observe"``.  ``submitted_at`` /
    ``completed_at`` are service-clock stamps (queue wait included), the
    fleet benchmark's latency source.
    """

    op: str
    workload_id: str
    query_signature: str
    priority: Priority = Priority.BATCH
    data_size: Optional[float] = None
    observation: Optional[Observation] = None
    event: Optional[QueryEndEvent] = None
    result: object = None
    done: bool = False
    shard_id: Optional[str] = None
    submitted_at: float = 0.0
    completed_at: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("suggest", "observe"):
            raise ValueError(f"op must be 'suggest' or 'observe', got {self.op!r}")
        if self.op == "observe" and self.observation is None:
            raise ValueError("observe requests need an observation")

    @classmethod
    def suggest(cls, workload_id: str, query_signature: str,
                data_size: Optional[float] = None,
                priority: Priority = Priority.BATCH) -> "TuneRequest":
        return cls("suggest", workload_id, query_signature,
                   priority=priority, data_size=data_size)

    @classmethod
    def observe(cls, workload_id: str, query_signature: str,
                observation: Observation, event: Optional[QueryEndEvent] = None,
                priority: Priority = Priority.BATCH) -> "TuneRequest":
        return cls("observe", workload_id, query_signature, priority=priority,
                   observation=observation, event=event)


@dataclass
class _Shard:
    shard_id: str
    host: TenantSessionHost
    queue: ShardQueue
    processed: int = 0
    runs: int = 0
    drain_seconds: float = 0.0
    down: bool = False


class ShardedAutotuneService:
    """N session-hosting shards behind consistent hashing and bounded queues.

    Args:
        n_shards: initial shard count.
        optimizer_factory: per-session optimizer builder (must derive all
            state, seeds included, from the session key — see
            :class:`~repro.service.sessions.TenantSessionHost`).
        queue_capacity: per-shard ingress queue bound.
        coalesce: batch co-tenant requests per drain run (the tentpole
            fast path); ``False`` processes every request scalar — the
            single-backend reference behavior behind the same queues.
        backend_factory: optional ``shard_id -> AutotuneBackend``; when
            given, each shard forwards observed events through its own
            backend pipeline.
        admission_factory: optional ``capacity -> AdmissionController`` to
            customize shed thresholds.
        ring_replicas: virtual nodes per shard.
        clock: injectable monotonic clock for latency stamps.
    """

    def __init__(
        self,
        n_shards: int,
        optimizer_factory: OptimizerFactory,
        *,
        queue_capacity: int = 1024,
        coalesce: bool = True,
        backend_factory: Optional[Callable[[str], AutotuneBackend]] = None,
        user_id_fn: Optional[Callable[[str], str]] = None,
        admission_factory: Optional[Callable[[int], AdmissionController]] = None,
        ring_replicas: int = 64,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.optimizer_factory = optimizer_factory
        self.queue_capacity = queue_capacity
        self.coalesce = coalesce
        self.backend_factory = backend_factory
        self.user_id_fn = user_id_fn
        self.admission_factory = admission_factory or AdmissionController
        self.clock = clock
        self._next_index = 0
        self._shards: Dict[str, _Shard] = {}
        self.ring = ConsistentHashRing(replicas=ring_replicas)
        for _ in range(n_shards):
            self._spawn_shard()
        self.submitted = 0
        self.shed = 0
        self.outages = 0

    # -- shard lifecycle ---------------------------------------------------------

    def _spawn_shard(self) -> _Shard:
        shard_id = f"shard-{self._next_index}"
        self._next_index += 1
        backend = self.backend_factory(shard_id) if self.backend_factory else None
        shard = _Shard(
            shard_id=shard_id,
            host=TenantSessionHost(
                shard_id, self.optimizer_factory, backend=backend,
                user_id_fn=self.user_id_fn,
            ),
            queue=ShardQueue(self.queue_capacity, self.admission_factory(self.queue_capacity)),
        )
        self._shards[shard_id] = shard
        self.ring.add_shard(shard_id)
        return shard

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._shards))

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard(self, shard_id: str) -> _Shard:
        return self._shards[shard_id]

    # -- routing -----------------------------------------------------------------

    def route(self, workload_id: str) -> str:
        """The shard that should serve ``workload_id``."""
        return self.ring.owner(workload_id)

    # -- request intake ----------------------------------------------------------

    def submit(self, request: TuneRequest) -> ShedVerdict:
        """Route + admit ``request``; never blocks, sheds under overload."""
        request.submitted_at = request.submitted_at or self.clock()
        shard = self._shards[self.route(request.workload_id)]
        verdict = shard.queue.offer(request, request.priority)
        self.submitted += 1
        if verdict.accepted:
            request.shard_id = shard.shard_id
            telemetry.counter(
                "service.requests", op=request.op, result="admitted"
            ).inc()
        else:
            self.shed += 1
            telemetry.counter("service.requests", op=request.op, result="shed").inc()
        return verdict

    def call(self, request: TuneRequest):
        """Blocking single-request path: submit, drain the shard, reply.

        Raises :class:`ShedError` (a retryable
        :class:`~repro.service.resilience.TransientServiceError`) when
        admission sheds the request — callers run this under their
        :class:`~repro.service.resilience.RetryPolicy`, which honors the
        verdict's ``retry_after``.
        """
        verdict = self.submit(request)
        if not verdict.accepted:
            raise ShedError(verdict, shard_id=self.route(request.workload_id))
        self.drain_shard(request.shard_id)
        return request.result

    # -- drain (the batched execution cycle) -------------------------------------

    def drain_shard(self, shard_id: str, max_batch: Optional[int] = None) -> int:
        """Process up to ``max_batch`` queued requests on one shard."""
        shard = self._shards[shard_id]
        batch = shard.queue.drain(max_batch)
        if not batch:
            return 0
        started = self.clock()
        for run in self._distinct_session_runs(batch):
            pairs = [
                (shard.host.session(r.workload_id, r.query_signature), r)
                for r in run
            ]
            if self.coalesce:
                execute_run(shard.host, pairs)
            else:
                for session, request in pairs:
                    apply_scalar(shard.host, session, request)
            now = self.clock()
            for request in run:
                request.completed_at = now
                request.done = True
            shard.runs += 1
        shard.processed += len(batch)
        shard.drain_seconds += self.clock() - started
        telemetry.counter("service.shard.processed", shard=shard_id).inc(len(batch))
        return len(batch)

    @staticmethod
    def _distinct_session_runs(batch: List[TuneRequest]) -> Iterator[List[TuneRequest]]:
        """Split a FIFO backlog into maximal runs of pairwise-distinct sessions.

        Within a run no session appears twice, so batched execution may
        reorder freely; across runs FIFO order is preserved, so a tenant's
        own requests still apply in submission order.
        """
        run: List[TuneRequest] = []
        seen: set = set()
        for request in batch:
            key: SessionKey = (request.workload_id, request.query_signature)
            if key in seen:
                yield run
                run, seen = [], set()
            run.append(request)
            seen.add(key)
        if run:
            yield run

    def drain_all(self) -> int:
        """Drain every shard once, one after another."""
        return sum(self.drain_shard(shard_id) for shard_id in list(self._shards))

    # -- rebalance / failover ----------------------------------------------------

    def _handoff_to_owners(self, sessions: List[TenantSession]) -> int:
        for session in sessions:
            owner = self._shards[self.ring.owner(session.workload_id)]
            owner.host.adopt(session)
        if sessions:
            telemetry.counter("service.shard.handoffs").inc(len(sessions))
        return len(sessions)

    def add_shard(self) -> str:
        """Scale out by one shard; steals only the keys it now owns."""
        self.drain_all()
        shard = self._spawn_shard()
        moved = 0
        for other in self._shards.values():
            if other.shard_id == shard.shard_id:
                continue
            workloads = {key[0] for key in other.host.sessions}
            stolen = [
                wid for wid in workloads
                if self.ring.owner(wid) == shard.shard_id
            ]
            moved += self._handoff_to_owners(other.host.export_sessions(stolen))
        telemetry.counter("service.ring.rebalances", kind="add").inc()
        return shard.shard_id

    def remove_shard(self, shard_id: str) -> int:
        """Scale in: hand the shard's sessions to their new owners."""
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self.drain_all()
        shard = self._shards[shard_id]
        self.ring.remove_shard(shard_id)
        del self._shards[shard_id]
        moved = self._handoff_to_owners(
            shard.host.export_sessions({key[0] for key in shard.host.sessions})
        )
        telemetry.counter("service.ring.rebalances", kind="remove").inc()
        return moved

    def resize(self, n_shards: int) -> None:
        """Grow or shrink to ``n_shards`` with state handoff at each step."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        while len(self._shards) < n_shards:
            self.add_shard()
        while len(self._shards) > n_shards:
            self.remove_shard(sorted(self._shards)[-1])

    def fail_shard(self, shard_id: str) -> List[TuneRequest]:
        """Outage: fail the shard over without touching other tenants.

        The dead shard leaves the ring, its live sessions move (optimizer
        state intact — surviving *and* failed-over tenants keep bit-identical
        trails), and its queued requests are re-routed through admission;
        requests the survivors shed are returned to the caller.
        """
        if len(self._shards) == 1:
            raise ValueError("cannot fail the last shard")
        shard = self._shards[shard_id]
        shard.down = True
        self.ring.remove_shard(shard_id)
        del self._shards[shard_id]
        stranded = shard.queue.drain()
        self._handoff_to_owners(
            shard.host.export_sessions({key[0] for key in shard.host.sessions})
        )
        self.outages += 1
        telemetry.counter("service.shard.outages").inc()
        lost: List[TuneRequest] = []
        for request in stranded:
            request.shard_id = None
            if not self.submit(request).accepted:
                lost.append(request)
        if stranded:
            telemetry.counter("service.shard.failover_requeued").inc(
                len(stranded) - len(lost)
            )
        return lost

    # -- introspection -----------------------------------------------------------

    def sessions(self) -> Dict[SessionKey, TenantSession]:
        """Every hosted session across shards (for trail collection).

        Raises:
            RuntimeError: when one session key is hosted on two shards — a
                routing bug that a plain merge would hide by keeping only
                one of the copies.
        """
        merged: Dict[SessionKey, TenantSession] = {}
        hosts: Dict[SessionKey, str] = {}
        for shard_id, shard in self._shards.items():
            for key in shard.host.sessions:
                if key in hosts:
                    raise RuntimeError(
                        f"session {key!r} is hosted on both "
                        f"{hosts[key]} and {shard_id}"
                    )
                hosts[key] = shard_id
            merged.update(shard.host.sessions)
        return merged

    def metrics(self) -> Dict[str, object]:
        """Service-level metrics: per-shard stats + fleet aggregates.

        ``batched_sessions`` / ``fallback_sessions`` count the sessions the
        batched drain has probed and found eligible / ineligible (a
        ``coalesce=False`` service probes none); the
        ``service.batch.fallback_sessions{reason=}`` counter says why.
        """
        per_shard = {}
        processed = []
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            profiles = [s.batch_profile for s in shard.host.sessions.values()]
            per_shard[shard_id] = {
                "sessions": len(shard.host.sessions),
                "queue_depth": shard.queue.depth,
                "queue_high_watermark": shard.queue.high_watermark,
                "enqueued": shard.queue.enqueued,
                "shed": shard.queue.shed,
                "shed_by_reason": dict(shard.queue.shed_by_reason),
                "processed": shard.processed,
                "runs": shard.runs,
                "drain_seconds": shard.drain_seconds,
                "batched_sessions": sum(isinstance(p, BatchProfile) for p in profiles),
                "fallback_sessions": sum(isinstance(p, str) for p in profiles),
            }
            processed.append(shard.processed)
        total = sum(processed)
        mean = total / len(processed) if processed else 0.0
        skew = (max(processed) / mean) if mean > 0 else 1.0
        return {
            "service": {
                "n_shards": len(self._shards),
                "submitted": self.submitted,
                "shed": self.shed,
                "shed_rate": self.shed / self.submitted if self.submitted else 0.0,
                "outages": self.outages,
                "utilization_skew": skew,
                "coalesce": self.coalesce,
                "shards": per_shard,
            }
        }
