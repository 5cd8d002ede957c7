"""The benchmark's workloads: one closed loop each, all in one process.

Every workload runs *episodes*: a fresh, seeded population tuned for a fixed
number of steps or rounds.  Two episodes at one seed do identical work, so
the benchmark repeats them until its time is up and checks that every
episode leaves the same observation trail.  Each client (a session, a
fleet slot or a tenant) sends its next step or request only after the
previous one completed.

Units of work, which per-layer metrics are normalised by:

* ``session_scalar`` — one ``TuningSession.step``;
* ``fleet_lockstep`` — one ``LockstepSessions.step`` (every session advances);
* ``service_fleet`` / ``service_fleet_guarded`` — one round: every tenant
  sends a suggest, runs the config on its own simulator, sends an observe.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.centroid import CentroidLearning, default_window_model_factory
from repro.core.guardrail import Guardrail
from repro.core.selectors import BaselineModelAdapter, SurrogateSelector
from repro.core.session import TuningSession
from repro.embedding.embedder import WorkloadEmbedder
from repro.experiments.lockstep import LockstepSessions, SessionSpec, run_sequential
from repro.offline.baseline import BaselineModelTrainer
from repro.offline.etl import build_training_table
from repro.offline.flighting import FlightingConfig, FlightingPipeline
from repro.service.batch_exec import BatchProfile
from repro.service.fleet import (
    FleetSession,
    build_fleet,
    default_optimizer_factory,
    fleet_user_map,
    run_fleet,
)
from repro.service.sharded import ShardedAutotuneService, TuneRequest
from repro.sparksim.cluster import ExecutorLayout
from repro.sparksim.configs import query_level_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel
from repro.workloads.tpcds import tpcds_plan
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_plan

__all__ = ["Episode", "WORKLOADS", "FULL_SIZES", "make_workload"]

# Fig.-14 production noise: fluctuation level 0.25, spike level 0.3.
FIG14_NOISE = (0.25, 0.3)

# The service fleets' notebook population; see ``ServiceFleet._build_fleet``.
FLEET_POPULATION_SEED = 0

FULL_SIZES: Dict[str, Dict[str, int]] = {
    "session_scalar": {
        "queries": len(TPCH_QUERY_IDS), "iterations": 50,
        "flight_queries": 24, "flight_configs": 12,
    },
    "fleet_lockstep": {"sessions": 256, "steps": 60, "check_sessions": 4},
    # A request waits for its shard's whole drain, so a larger fleet makes
    # every latency longer and more exposed to a shared host's slow periods:
    # at 60 notebooks runs spread 12-20% across seeds, at 24 about 6%.
    "service_fleet": {"workloads": 24, "rounds": 6, "shards": 4},
    "service_fleet_guarded": {"workloads": 24, "rounds": 6, "shards": 4},
}


@dataclass
class Episode:
    """What one episode measured and produced."""

    unit_s: List[float]   # wall time of each unit of work, in a fixed order
    op_s: List[float]     # latency of each operation, in a fixed order
    round_s: List[float]  # wall time of each pass over all clients
    work: int             # operations completed
    busy_s: List[float]   # wall time of each busy period, in a fixed order
    attempted: int
    failed: int
    fingerprint: str
    active_share: float
    speedup: Optional[float] = None
    checks: Dict[str, bool] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)


def _hash_floats(h, values) -> None:
    h.update(np.asarray(values, dtype=np.float64).tobytes())


def _hash_records(h, records) -> None:
    """Feed a session's ``IterationRecord`` trail into ``h``, bit-exactly."""
    if not records:
        return
    _hash_floats(h, [list(r.config.values()) for r in records])
    _hash_floats(h, [
        (r.iteration, r.observed_seconds, r.true_seconds, r.data_size, r.tuning_active)
        for r in records
    ])


class Workload:
    """``setup`` builds everything the first step needs; ``run_episode``
    tunes a population (the one ``setup`` built when ``first``, else a
    fresh one) and reports what it measured."""

    name = ""
    unit = ""
    setup_repeats = 9

    def __init__(self, seed: int, sizes: Dict[str, int]):
        self.seed = seed
        self.sizes = sizes
        self.space = query_level_space()
        self.offline_s: Dict[str, List[float]] = {"flight": [], "train": []}

    def setup(self) -> None:
        raise NotImplementedError

    def run_episode(self, recorder=None, first: bool = False) -> Episode:
        raise NotImplementedError


class SessionScalar(Workload):
    """Fig.-14 production shape: 22 TPC-H SF100 queries, one
    ``TuningSession`` each, stepped round-robin on the scalar path."""

    name = "session_scalar"
    unit = "session step"
    setup_repeats = 3  # flighting and baseline training take seconds

    def setup(self) -> None:
        sizes = self.sizes
        self.embedder = WorkloadEmbedder()
        t0 = time.perf_counter()
        flight = FlightingPipeline(
            FlightingConfig(
                benchmark="tpcds",
                query_ids=list(range(1, sizes["flight_queries"] + 1)),
                scale_factors=[10.0, 100.0],
                n_configs=sizes["flight_configs"],
                seed=self.seed,
            ),
            space=self.space,
            embedder=self.embedder,
        )
        events = flight.execute()
        t1 = time.perf_counter()
        baseline = BaselineModelTrainer().train(build_training_table(events, self.space))
        t2 = time.perf_counter()
        self.offline_s["flight"].append(t1 - t0)
        self.offline_s["train"].append(t2 - t1)
        self.adapter = BaselineModelAdapter(baseline, self.embedder.dim)
        self.plans = [tpch_plan(q, 100.0) for q in TPCH_QUERY_IDS[: sizes["queries"]]]
        self.sessions = self._build_sessions()

    def _build_sessions(self) -> List[TuningSession]:
        noise = NoiseModel(*FIG14_NOISE)
        sessions = []
        for k, plan in enumerate(self.plans):
            selector = SurrogateSelector(
                default_window_model_factory, baseline=self.adapter, min_observations=4
            )
            optimizer = CentroidLearning(
                self.space, alpha=0.08, beta=0.15, n_candidates=30,
                selector=selector, guardrail=Guardrail(), seed=self.seed * 1000 + k,
            )
            simulator = SparkSimulator(noise=noise, seed=self.seed * 1000 + 500 + k)
            sessions.append(TuningSession(plan, simulator, optimizer, embedder=self.embedder))
        return sessions

    def _wrap(self, recorder, sessions) -> None:
        recorder.wrap(self.embedder, "embed", "embedding.embed")
        recorder.wrap(self.adapter, "predict", "ml.baseline_predict")
        for s in sessions:
            recorder.wrap(s.simulator, "run", "sparksim.run")
            recorder.wrap(s.simulator.cost_model, "estimate", "sparksim.estimate")
            recorder.wrap(s.optimizer, "suggest", "core.suggest")
            recorder.wrap(s.optimizer, "observe", "core.observe")
            recorder.wrap(s.optimizer.selector, "select", "core.select")
            recorder.wrap(s.optimizer.guardrail, "update", "core.guardrail")

    def run_episode(self, recorder=None, first: bool = False) -> Episode:
        sessions = self.sessions if first else self._build_sessions()
        unit_s: List[float] = []
        round_s: List[float] = []
        failed = 0
        clock = time.perf_counter
        if recorder is not None:
            self._wrap(recorder, sessions)
        try:
            for _ in range(self.sizes["iterations"]):
                r0 = clock()
                for session in sessions:
                    t0 = clock()
                    try:
                        if recorder is None:
                            session.step()
                        else:
                            with recorder.span("session.step"):
                                session.step()
                    except Exception:  # noqa: BLE001 — counted as a failed step
                        failed += 1
                    unit_s.append(clock() - t0)
                round_s.append(clock() - r0)
        finally:
            if recorder is not None:
                recorder.unwrap_all()

        h = hashlib.blake2b(digest_size=16)
        for s in sessions:
            _hash_records(h, s.trace.records)
        episode = Episode(
            unit_s=unit_s,
            op_s=unit_s,
            round_s=round_s,
            work=len(unit_s),
            busy_s=unit_s,
            attempted=len(unit_s),
            failed=failed,
            fingerprint=h.hexdigest(),
            active_share=float(np.mean([s.optimizer.tuning_active for s in sessions])),
        )
        if first:
            episode.speedup = self._speedup(sessions)
            episode.checks["cost_matches_scalar_reference"] = self._check_costs(sessions)
        return episode

    def _speedup(self, sessions) -> float:
        """Mean over all session steps of default true time / true time."""
        reference = SparkSimulator()
        default = self.space.default_dict()
        return float(np.mean([
            reference.true_time(s.plan, default) / s.trace.true for s in sessions
        ]))

    @staticmethod
    def _check_costs(sessions) -> bool:
        """Each session's last true time equals the legacy per-operator
        cost loop (``CostModel.estimate_scalar``) bit for bit."""
        reference = CostModel()
        for s in sessions:
            record = s.trace.records[-1]
            layout = ExecutorLayout.from_config(record.config, s.simulator.pool)
            expected = reference.estimate_scalar(s.plan, record.config, layout)
            if expected.total_seconds != record.true_seconds:
                return False
        return True


class FleetLockstep(Workload):
    """K CL sessions with default guardrails on one TPC-DS plan, advanced
    together by ``LockstepSessions`` (the struct-of-arrays path)."""

    name = "fleet_lockstep"
    unit = "fleet step"

    def _specs(self, indices) -> List[SessionSpec]:
        noise = NoiseModel(*FIG14_NOISE)
        base = self.seed * 100_003
        return [
            SessionSpec(
                plan=self.plan,
                simulator=SparkSimulator(noise=noise, seed=base + 101 * k + 7),
                optimizer=CentroidLearning(
                    self.space, guardrail=Guardrail(), seed=base + 13 * k + 1
                ),
            )
            for k in indices
        ]

    def setup(self) -> None:
        self.plan = tpcds_plan(23, 100.0)
        self.specs = self._specs(range(self.sizes["sessions"]))
        self.engine = LockstepSessions(self.specs)

    def run_episode(self, recorder=None, first: bool = False) -> Episode:
        if not first:
            self.setup()
        engine = self.engine
        k_total = engine.k
        unit_s: List[float] = []
        failed = 0
        clock = time.perf_counter
        if recorder is not None:
            recorder.wrap(engine, "step", "lockstep.step")
            for spec in self.specs:
                recorder.wrap(
                    spec.simulator.cost_model, "estimate_batch", "sparksim.estimate_batch",
                    rows=lambda plan, configs, *args, **kwargs: len(configs),
                )
        try:
            for _ in range(self.sizes["steps"]):
                t0 = clock()
                try:
                    if recorder is None:
                        engine.step()
                    else:
                        with recorder.span("fleet.step"):
                            engine.step()
                except Exception:  # noqa: BLE001 — every session's step failed
                    failed += k_total
                unit_s.append(clock() - t0)
        finally:
            if recorder is not None:
                recorder.unwrap_all()

        traces = engine.traces()
        h = hashlib.blake2b(digest_size=16)
        for trace in traces:
            _hash_records(h, trace.records)
        episode = Episode(
            unit_s=unit_s,
            op_s=unit_s,
            round_s=unit_s,
            work=k_total * len(unit_s),
            busy_s=unit_s,
            attempted=k_total * len(unit_s),
            failed=failed,
            fingerprint=h.hexdigest(),
            active_share=float(np.mean(engine.tuning_active)),
        )
        if first:
            default = SparkSimulator().true_time(self.plan, self.space.default_dict())
            episode.speedup = float(np.mean([default / trace.true for trace in traces]))
            episode.checks["sample_matches_sequential"] = self._check_sequential(traces)
        return episode

    def _check_sequential(self, traces) -> bool:
        """A sample of sessions, re-run one by one, is record-identical."""
        n, m = self.sizes["sessions"], self.sizes["check_sessions"]
        sample = sorted({round(i * (n - 1) / max(1, m - 1)) for i in range(m)})
        sequential = run_sequential(self._specs(sample), self.sizes["steps"])
        return all(
            seq.records == traces[k].records for k, seq in zip(sample, sequential)
        )


class ServiceFleet(Workload):
    """A recurring-notebook tenant fleet against a sharded
    ``ShardedAutotuneService`` with ample queues and serial drains."""

    name = "service_fleet"
    unit = "round"
    guarded = False

    def _factory(self, fleet):
        if self.guarded:
            by_key = {(s.workload_id, s.signature): s for s in fleet}

            def build(workload_id: str, signature: str) -> CentroidLearning:
                session = by_key[(workload_id, signature)]
                return CentroidLearning(
                    self.space, guardrail=Guardrail(),
                    seed=session.optimizer_seed(self.seed),
                )
        else:
            build = default_optimizer_factory(fleet, base_seed=self.seed)

        def factory(workload_id: str, signature: str) -> CentroidLearning:
            optimizer = build(workload_id, signature)
            recorder = self._recorder
            if recorder is not None:
                # Only the drain's scalar fallback calls these; the batched
                # path works on the optimizer's state directly.
                recorder.wrap(optimizer, "suggest", "core.suggest")
                recorder.wrap(optimizer, "observe", "core.observe")
                if optimizer.guardrail is not None:
                    recorder.wrap(optimizer.guardrail, "update", "core.guardrail")
            return optimizer

        return factory

    def _build_fleet(self) -> List[FleetSession]:
        """The notebook population (query counts, plans, users) is fixed, as
        the 22 TPC-H plans are on ``session_scalar``: drawn from the seed it
        would change the amount of work per round.
        The seed drives every session's noise stream and optimizer."""
        return [
            replace(s, simulator=SparkSimulator(
                noise=s.workload.noise, seed=s.optimizer_seed(self.seed) * 101 + 7,
            ))
            for s in build_fleet(self.sizes["workloads"], seed=FLEET_POPULATION_SEED)
        ]

    def setup(self) -> None:
        self._recorder = None
        self.fleet = self._build_fleet()
        self.service = ShardedAutotuneService(
            self.sizes["shards"],
            self._factory(self.fleet),
            user_id_fn=fleet_user_map(self.fleet),
            queue_capacity=max(4096, 4 * len(self.fleet)),
        )

    def _wrap(self, recorder, waits: List[float]) -> None:
        service = self.service
        recorder.wrap(service, "submit", "service.submit")
        recorder.wrap(service, "drain_shard", "service.drain")
        clock = service.clock

        def record_wait(batch) -> None:
            now = clock()
            waits.extend(now - r.submitted_at for r in batch)

        for shard_id in service.shard_ids:
            recorder.wrap(service.shard(shard_id).queue, "drain", "service.queue_drain",
                          after=record_wait)
        for s in self.fleet:
            recorder.wrap(s.simulator, "run", "sparksim.run")
            recorder.wrap(s.simulator.cost_model, "estimate", "sparksim.estimate")

    def run_episode(self, recorder=None, first: bool = False) -> Episode:
        if not first:
            self.setup()
        rounds = self.sizes["rounds"]
        waits: List[float] = []
        # Every request and every drain's wall time are recorded, traced or
        # not; the next episode builds a new service, so nothing is unwrapped.
        requests: List[TuneRequest] = []
        submit = self.service.submit

        def collect(request: TuneRequest):
            requests.append(request)
            return submit(request)

        drains: List[float] = []
        drain_all = self.service.drain_all

        def timed_drain_all(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return drain_all(*args, **kwargs)
            finally:
                drains.append(time.perf_counter() - t0)

        self.service.submit = collect
        self.service.drain_all = timed_drain_all
        self._recorder = recorder
        if recorder is not None:
            self._wrap(recorder, waits)
        try:
            if recorder is None:
                report = run_fleet(self.service, self.fleet, rounds)
            else:
                with recorder.span("service.rounds"):
                    report = run_fleet(self.service, self.fleet, rounds)
        finally:
            self._recorder = None
            if recorder is not None:
                recorder.unwrap_all()
        # Requests go out in a fixed order: per round, every suggest, then
        # every observe.
        per_round = 2 * len(self.fleet)
        round_s = [
            max(r.completed_at for r in requests[i:i + per_round])
            - min(r.submitted_at for r in requests[i:i + per_round])
            for i in range(0, len(requests), per_round)
        ]

        sessions = self.service.sessions()
        h = hashlib.blake2b(digest_size=16)
        batched = total = 0
        for key in sorted(sessions):
            session = sessions[key]
            history = session.optimizer.observations.history
            _hash_floats(h, [o.config for o in history])
            _hash_floats(h, [(o.iteration, o.data_size, o.performance) for o in history])
            _hash_floats(h, session.optimizer.centroid)
            total += session.requests
            if isinstance(session.batch_profile, BatchProfile):
                batched += session.requests
        shards = self.service.metrics()["service"]["shards"].values()
        episode = Episode(
            unit_s=round_s,
            op_s=[r.completed_at - r.submitted_at for r in requests],
            round_s=round_s,
            work=report.n_requests,
            busy_s=drains,
            attempted=self.service.submitted,
            failed=report.shed_events + report.lost_requests,
            fingerprint=h.hexdigest(),
            active_share=float(np.mean(
                [s.optimizer.tuning_active for s in sessions.values()]
            )),
            layer={
                "batched_share": batched / total if total else 0.0,
                "requests_per_run": (
                    sum(s["processed"] for s in shards) / max(1, sum(s["runs"] for s in shards))
                ),
                "utilization_skew": report.utilization_skew,
                "queue_wait_ms": float(np.mean(waits)) * 1e3 if waits else 0.0,
            },
        )
        episode.checks["all_requests_completed"] = (
            report.n_requests == len(self.fleet) * rounds * 2
        )
        episode.checks["no_lost_requests"] = report.lost_requests == 0
        if first:
            episode.speedup = self._speedup(sessions)
        return episode

    def _speedup(self, sessions) -> float:
        """Mean over all session steps of default true time / true time,
        both at the step's input scale."""
        reference = SparkSimulator()
        default = self.space.default_vector()
        ratios = []
        for s in self.fleet:
            history = sessions[(s.workload_id, s.signature)].optimizer.observations.history
            scales = np.array([s.workload.data_scale(o.iteration) for o in history])
            tuned = reference.true_time_batch(
                s.plan, np.array([o.config for o in history]),
                space=self.space, data_scales=scales,
            )
            base = reference.true_time_batch(
                s.plan, np.tile(default, (len(history), 1)),
                space=self.space, data_scales=scales,
            )
            ratios.append(base / tuned)
        return float(np.mean(np.concatenate(ratios)))


class ServiceFleetGuarded(ServiceFleet):
    """The same fleet with a default ``Guardrail()`` on every session, which
    sends every request down the drain's scalar fallback."""

    name = "service_fleet_guarded"
    guarded = True


WORKLOADS = {
    cls.name: cls
    for cls in (SessionScalar, FleetLockstep, ServiceFleet, ServiceFleetGuarded)
}


def make_workload(name: str, seed: int, sizes: Optional[Dict[str, int]] = None) -> Workload:
    return WORKLOADS[name](seed, dict(sizes or FULL_SIZES[name]))
