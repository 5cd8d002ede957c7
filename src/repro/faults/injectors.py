"""Fault injectors: decorators around the real service components.

Each injector wraps an existing component (backend, storage, simulator,
model factory) and consults a :class:`~repro.faults.plan.FaultPlan` at every
injection point — there are no forked code paths, so a chaos run exercises
exactly the production logic plus scheduled failures.

Injection-point map (one :class:`FaultKind` opportunity per call):

====================  =========================================================
``FaultyBackend``     ``submit_events`` → TOKEN_EXPIRY, STORAGE_WRITE_ERROR,
                      DROP_EVENT (partial write + error), DUPLICATE_EVENT
                      (at-least-once re-delivery), REORDER_EVENTS;
                      ``submit_app_end`` → TOKEN_EXPIRY, DUPLICATE_EVENT;
                      ``fetch_model`` → TOKEN_EXPIRY, STORAGE_READ_ERROR,
                      MODEL_CORRUPTION;
                      ``fetch_warm_start`` → TOKEN_EXPIRY, STORAGE_READ_ERROR.
``FaultyStorage``     ``append_events``/``write_model``/
                      ``write_retrieval_corpus`` → STORAGE_WRITE_ERROR;
                      ``read_model``/``read_*_events``/
                      ``read_retrieval_corpus`` → STORAGE_READ_ERROR
                      (+ MODEL_CORRUPTION on the corpus payload).
``FaultySimulator``   ``run``/``run_batch`` (one opportunity per result, in
                      batch order)/``run_to_event`` → LATENCY_SPIKE
                      (multiplies the *observed* time by the spec magnitude;
                      true time is untouched, mirroring an Eq.-8 spike).
``flaky_model_factory``  ``fit`` → TRAIN_ERROR.
``FaultyShardedService``  ``drain_all`` → SHARD_OUTAGE (one opportunity per
                      drain; kills a deterministically chosen shard via
                      ``fail_shard`` — ring removal, session failover, and
                      requeue run the production path);
                      ``submit`` → QUEUE_OVERFLOW (the request is shed with
                      a synthetic ``queue_full`` verdict before admission).
====================  =========================================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

import numpy as np

from ..service.auth import SasToken, TokenError
from ..service.resilience import TransientServiceError
from ..sparksim.events import AppEndEvent, QueryEndEvent
from .plan import FaultKind, FaultPlan

__all__ = [
    "FaultyBackend",
    "FaultyStorage",
    "FaultySimulator",
    "FaultyShardedService",
    "flaky_model_factory",
    "corrupt_payload",
]


def corrupt_payload(payload: str, rng: np.random.Generator) -> str:
    """Deterministically mangle a serialized-model payload."""
    mode = int(rng.integers(0, 3))
    if mode == 0:
        return payload[: max(len(payload) // 2, 1)]          # truncation
    if mode == 1:
        return "{" + payload[1:][::-1]                       # scrambled body
    return '{"__model__": "corrupted", "weights": "\\x00"}'  # wrong schema


class _Delegate:
    """Forward unknown attributes to the wrapped component."""

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan

    def __getattr__(self, name):
        return getattr(self.inner, name)


class FaultyBackend(_Delegate):
    """Wraps an :class:`~repro.service.backend.AutotuneBackend` with a flaky
    transport: the client talks to this exactly as to the real backend."""

    def register_job(self, app_id: str, artifact_id: str, user_id: str):
        return self.inner.register_job(app_id, artifact_id, user_id)

    def submit_events(
        self, token: SasToken, app_id: str, artifact_id: str,
        events: Sequence[QueryEndEvent],
    ) -> int:
        if self.plan.should_fire(FaultKind.TOKEN_EXPIRY):
            raise TokenError("injected: event-write token rejected")
        if self.plan.should_fire(FaultKind.STORAGE_WRITE_ERROR):
            raise TransientServiceError("injected: event upload failed")
        batch = list(events)
        if batch and self.plan.should_fire(FaultKind.REORDER_EVENTS):
            order = self.plan.rng_for(FaultKind.REORDER_EVENTS).permutation(len(batch))
            batch = [batch[i] for i in order]
        if batch and self.plan.should_fire(FaultKind.DUPLICATE_EVENT):
            # At-least-once transport: the whole batch is delivered twice.
            batch = batch + batch
        if batch and self.plan.should_fire(FaultKind.DROP_EVENT):
            # Partial write: a prefix lands, then the connection dies.  The
            # caller sees an error and must retry the full batch; the
            # backend's sequence dedup makes that retry exactly-once.
            rng = self.plan.rng_for(FaultKind.DROP_EVENT)
            kept = int(rng.integers(0, len(batch)))
            if kept:
                self.inner.submit_events(token, app_id, artifact_id, batch[:kept])
            raise TransientServiceError(
                f"injected: transport failed after {kept}/{len(batch)} events"
            )
        return self.inner.submit_events(token, app_id, artifact_id, batch)

    def submit_app_end(self, token: SasToken, event: AppEndEvent) -> None:
        if self.plan.should_fire(FaultKind.TOKEN_EXPIRY):
            raise TokenError("injected: event-write token rejected")
        if self.plan.should_fire(FaultKind.DUPLICATE_EVENT):
            self.inner.submit_app_end(token, event)
        self.inner.submit_app_end(token, event)

    def fetch_model(
        self, token: SasToken, user_id: str, query_signature: str
    ) -> Optional[str]:
        if self.plan.should_fire(FaultKind.TOKEN_EXPIRY):
            raise TokenError("injected: model-read token rejected")
        if self.plan.should_fire(FaultKind.STORAGE_READ_ERROR):
            raise TransientServiceError("injected: model fetch failed")
        payload = self.inner.fetch_model(token, user_id, query_signature)
        if payload is not None and self.plan.should_fire(FaultKind.MODEL_CORRUPTION):
            return corrupt_payload(payload, self.plan.rng_for(FaultKind.MODEL_CORRUPTION))
        return payload

    def fetch_warm_start(self, token, user_id, query_signature, embedding, **kwargs):
        if self.plan.should_fire(FaultKind.TOKEN_EXPIRY):
            raise TokenError("injected: model-read token rejected")
        if self.plan.should_fire(FaultKind.STORAGE_READ_ERROR):
            raise TransientServiceError("injected: warm-start fetch failed")
        return self.inner.fetch_warm_start(
            token, user_id, query_signature, embedding, **kwargs
        )


class FaultyStorage(_Delegate):
    """Wraps a :class:`~repro.service.storage.StorageManager` with flaky IO —
    for exercising the *backend's* tolerance of its own storage tier."""

    def append_events(self, app_id, artifact_id, events) -> None:
        if self.plan.should_fire(FaultKind.STORAGE_WRITE_ERROR):
            raise TransientServiceError("injected: event append failed")
        self.inner.append_events(app_id, artifact_id, events)

    def write_model(self, user_id, query_signature, payload):
        if self.plan.should_fire(FaultKind.STORAGE_WRITE_ERROR):
            raise TransientServiceError("injected: model write failed")
        return self.inner.write_model(user_id, query_signature, payload)

    def read_model(self, user_id, query_signature):
        if self.plan.should_fire(FaultKind.STORAGE_READ_ERROR):
            raise TransientServiceError("injected: model read failed")
        return self.inner.read_model(user_id, query_signature)

    def read_app_events(self, app_id):
        if self.plan.should_fire(FaultKind.STORAGE_READ_ERROR):
            raise TransientServiceError("injected: event read failed")
        return self.inner.read_app_events(app_id)

    def read_artifact_events(self, artifact_id):
        if self.plan.should_fire(FaultKind.STORAGE_READ_ERROR):
            raise TransientServiceError("injected: event read failed")
        return self.inner.read_artifact_events(artifact_id)

    def write_retrieval_corpus(self, payload):
        if self.plan.should_fire(FaultKind.STORAGE_WRITE_ERROR):
            raise TransientServiceError("injected: corpus write failed")
        return self.inner.write_retrieval_corpus(payload)

    def read_retrieval_corpus(self):
        if self.plan.should_fire(FaultKind.STORAGE_READ_ERROR):
            raise TransientServiceError("injected: corpus read failed")
        payload = self.inner.read_retrieval_corpus()
        if payload is not None and self.plan.should_fire(FaultKind.MODEL_CORRUPTION):
            return corrupt_payload(payload, self.plan.rng_for(FaultKind.MODEL_CORRUPTION))
        return payload


class FaultySimulator(_Delegate):
    """Wraps a :class:`~repro.sparksim.executor.SparkSimulator`, injecting
    Eq.-8-style latency spikes into *observed* durations only."""

    def run(self, plan, config, data_scale: float = 1.0):
        result = self.inner.run(plan, config, data_scale)
        if self.plan.should_fire(FaultKind.LATENCY_SPIKE):
            result = replace(
                result,
                elapsed_seconds=result.elapsed_seconds
                * self.plan.magnitude(FaultKind.LATENCY_SPIKE),
            )
        return result

    def observe_true(self, true_seconds: float) -> float:
        # Mirror run(): the inner simulator draws the noise first, then one
        # LATENCY_SPIKE opportunity multiplies the observed time — so a
        # lock-step engine feeding precomputed true times through here sees
        # the same per-session fault stream as sequential run() calls.
        observed = self.inner.observe_true(true_seconds)
        if self.plan.should_fire(FaultKind.LATENCY_SPIKE):
            observed = observed * self.plan.magnitude(FaultKind.LATENCY_SPIKE)
        return observed

    def run_batch(self, plan, configs, *, space=None, data_scale: float = 1.0):
        # The fault schedule is consulted once per result, in batch order, so
        # a batch of N sees exactly the spikes that N sequential run() calls
        # would (fault-stream equivalence).
        results = self.inner.run_batch(
            plan, configs, space=space, data_scale=data_scale
        )
        out = []
        for result in results:
            if self.plan.should_fire(FaultKind.LATENCY_SPIKE):
                result = replace(
                    result,
                    elapsed_seconds=result.elapsed_seconds
                    * self.plan.magnitude(FaultKind.LATENCY_SPIKE),
                )
            out.append(result)
        return out

    def run_to_event(self, plan, config, **kwargs) -> QueryEndEvent:
        event = self.inner.run_to_event(plan, config, **kwargs)
        if self.plan.should_fire(FaultKind.LATENCY_SPIKE):
            event = replace(
                event,
                duration_seconds=event.duration_seconds
                * self.plan.magnitude(FaultKind.LATENCY_SPIKE),
            )
        return event

    def true_time(self, plan, config, data_scale: float = 1.0) -> float:
        return self.inner.true_time(plan, config, data_scale)

    def true_time_batch(
        self, plan, configs, *, space=None, data_scale: float = 1.0,
        data_scales=None,
    ):
        # True times are never spiked (the injection targets observations).
        return self.inner.true_time_batch(
            plan, configs, space=space, data_scale=data_scale,
            data_scales=data_scales,
        )


class FaultyShardedService(_Delegate):
    """Wraps a :class:`~repro.service.sharded.ShardedAutotuneService` with
    scheduled shard outages and forced queue overflows.

    * ``SHARD_OUTAGE`` — one opportunity per :meth:`drain_all`.  On firing,
      the victim shard (chosen deterministically from the kind's payload
      RNG) is killed through the service's own ``fail_shard``, so the ring
      removal, live-session failover, and requeue of its backlog are the
      production code path, not a shortcut.  The last shard is never
      killed (the service forbids it).
    * ``QUEUE_OVERFLOW`` — one opportunity per :meth:`submit`.  On firing,
      the request is rejected with a synthetic ``queue_full`` shed verdict
      *before* admission, exercising every caller's shed-handling path
      even when the real queues have headroom.
    """

    def submit(self, request):
        from ..service.admission import ShedVerdict

        if self.plan.should_fire(FaultKind.QUEUE_OVERFLOW):
            verdict = ShedVerdict(False, "queue_full", retry_after=0.05)
            self.inner.shed += 1
            self.inner.submitted += 1
            return verdict
        return self.inner.submit(request)

    def drain_all(self):
        if self.plan.should_fire(FaultKind.SHARD_OUTAGE) and self.inner.n_shards > 1:
            rng = self.plan.rng_for(FaultKind.SHARD_OUTAGE)
            shard_ids = self.inner.shard_ids
            victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
            self.inner.fail_shard(victim)
        return self.inner.drain_all()

    def call(self, request):
        from ..service.admission import ShedError

        verdict = self.submit(request)
        if not verdict.accepted:
            raise ShedError(verdict)
        self.inner.drain_shard(request.shard_id)
        return request.result


def flaky_model_factory(
    inner_factory: Callable[[], object], plan: FaultPlan
) -> Callable[[], object]:
    """A model factory whose products fail to ``fit`` on schedule.

    The returned models are the *real* estimator instances (so trained
    models still serialize through ``ml.serialize``); only ``fit`` is
    shadowed with the scheduled :class:`TransientServiceError`.
    """

    def factory():
        model = inner_factory()
        original_fit = model.fit

        def fit(X, y):
            if plan.should_fire(FaultKind.TRAIN_ERROR):
                raise TransientServiceError("injected: surrogate training failed")
            return original_fit(X, y)

        model.fit = fit
        return model

    return factory
