"""Differential oracles: one seeded workload, two redundant paths, diffed.

The repo maintains eight pairs of execution paths that must agree:

==========================  ==============================================  =========
pair                        contract                                        compare
==========================  ==============================================  =========
scalar vs. batch            ``SparkSimulator.run`` × N element-wise equals  bitwise
                            one ``run_batch`` (noise stream included)
refit vs. incremental       ``GaussianProcessRegressor.update`` tracks a    atol
                            frozen-hyper full ``fit`` (rank-1 Cholesky
                            vs. O(n³) factorization — numerically equal,
                            not bit-equal)
live vs. replay             a JSONL-stored trace replays to the live        bitwise
                            observation history and guardrail verdicts,
                            through reordered/duplicated deliveries
lockstep vs. sequential     ``LockstepSessions`` advances a K-session       bitwise,
                            fleet (noisy, guardrailed, fault-injected)      session
                            identically to K independent                    trail
                            ``TuningSession`` loops
index vs. brute force       ``FlatIndex`` / full-probe ``IVFIndex`` top-k   ids exact,
                            equals an einsum brute-force stable sort over   atol dist
                            the same corpus (dgemm vs. einsum kernels —
                            equal ranking, distances to tolerance)
armed vs. unarmed detector  a ``TaskSwitchDetector``-armed session on a     bitwise,
                            drift-free stream is indistinguishable from     session
                            its detector-free twin — the detector is        trail
                            inert unless a regime actually changes
sharded vs. single          a guardrailed fleet served by the sharded,      bitwise,
                            queue-driven service (consistent-hash           session
                            routing, batched shard drains, per-shard        rows +
                            backends) is indistinguishable from the         requests
                            single-backend scalar deployment — counters
                            minus ``service.*`` (deployment-shaped)
pruned vs. frozen full      a ``TuningSession`` over a ``PrunedSpace``      bitwise,
                            (kept knobs tuned, dropped knobs pinned to      session
                            defaults) is indistinguishable from the same    trail
                            session tuning the kept knobs directly with
                            the dropped knobs frozen in the config dict
==========================  ==============================================  =========

Each oracle is two *arms* — closures running one path each from the same
seed — and a *trail* that flattens an arm's result into rows of comparable
fields.  :func:`twin_run` runs both arms, each under its own telemetry
capture, and returns the :class:`DiffReport` naming the first divergent row
and field; where counters are part of the contract it diffs both arms'
counter maps too, minus namespaces that legitimately differ between the
paths (e.g. ``sparksim.*`` batch-path cache counters).

The four oracles over tuning sessions share one trail,
:func:`session_trail`: one row per iteration across the sessions, then per
session one row per observation and a summary of the state a step carries
to the next (centroid, update count, last c* and Δ, re-anchor count, and
the guardrail's decision log, active flag and reset count).  So every
session oracle checks the same fields on every engine.

``run_all`` sweeps all eight drivers — the one command any change can run
to show "the paths still agree".
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core.centroid import CentroidLearning
from ..core.config_space import ConfigSpace
from ..core.guardrail import Guardrail
from ..core.observation import Observation
from ..core.switch import TaskSwitchDetector
from ..experiments.fig15_internal_customers import workload_specs
from ..experiments.lockstep import LockstepSessions, SessionSpec, run_sequential
from ..faults.injectors import FaultySimulator
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..ml.gp import GaussianProcessRegressor
from ..ml.kernels import Matern52Kernel
from ..service.replay import audit_guardrail, replay_artifact
from ..service.storage import StorageManager
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import low_noise
from ..workloads.customer import generate_population
from ..workloads.tpch import tpch_plan

__all__ = [
    "DiffReport",
    "Divergence",
    "diff_live_replay",
    "diff_lockstep_sequential",
    "diff_pruned_full",
    "diff_refit_incremental",
    "diff_retrieval_bruteforce",
    "diff_scalar_batch",
    "diff_sharded_single",
    "diff_switch_inert",
    "diff_trails",
    "run_all",
    "session_trail",
    "twin_run",
]


@dataclass(frozen=True)
class Divergence:
    """The first step/field where two trails disagree."""

    step: int
    field: str
    lhs: object
    rhs: object

    def __str__(self) -> str:
        return f"step {self.step}: {self.field}: {self.lhs!r} != {self.rhs!r}"


@dataclass
class DiffReport:
    """Outcome of one differential-oracle run."""

    name: str
    steps_compared: int
    tolerance: float = 0.0
    divergence: Optional[Divergence] = None
    length_mismatch: Optional[Tuple[int, int]] = None
    counter_diffs: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        return (
            self.divergence is None
            and self.length_mismatch is None
            and not self.counter_diffs
        )

    def summary(self) -> str:
        if self.equivalent:
            return (
                f"{self.name}: equivalent over {self.steps_compared} steps"
                + (f" (atol={self.tolerance:g})" if self.tolerance else "")
            )
        parts = [f"{self.name}: NOT equivalent"]
        if self.length_mismatch is not None:
            parts.append(f"trail lengths {self.length_mismatch[0]} != {self.length_mismatch[1]}")
        if self.divergence is not None:
            parts.append(str(self.divergence))
        if self.counter_diffs:
            parts.append(f"{len(self.counter_diffs)} counter(s) diverge: "
                         + ", ".join(sorted(self.counter_diffs)))
        return "; ".join(parts)


def _values_equal(a, b, tolerance: float) -> bool:
    """Field-level comparison: exact by default, atol for float payloads."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a) != set(b):
            return False
        return all(_values_equal(a[k], b[k], tolerance) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if tolerance:
            return bool(np.allclose(a, b, rtol=0.0, atol=tolerance, equal_nan=True))
        return bool(np.array_equal(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
        if tolerance:
            return abs(a - b) <= tolerance
        return a == b
    return a == b


def diff_trails(
    name: str,
    trail_a: Sequence[Mapping[str, object]],
    trail_b: Sequence[Mapping[str, object]],
    tolerance: float = 0.0,
    counters_a: Optional[Mapping[str, float]] = None,
    counters_b: Optional[Mapping[str, float]] = None,
    ignore_counter_prefixes: Sequence[str] = (),
) -> DiffReport:
    """Diff two per-step trails (and optionally two counter maps).

    Steps are compared field-by-field in sorted field order; the first
    mismatch is recorded as the report's :class:`Divergence`.  A length
    mismatch is reported alongside whatever common prefix compared clean.
    """
    report = DiffReport(
        name=name,
        steps_compared=min(len(trail_a), len(trail_b)),
        tolerance=tolerance,
    )
    if len(trail_a) != len(trail_b):
        report.length_mismatch = (len(trail_a), len(trail_b))
    for step, (sa, sb) in enumerate(zip(trail_a, trail_b)):
        for fname in sorted(set(sa) | set(sb)):
            if fname not in sa or fname not in sb:
                report.divergence = Divergence(
                    step, fname, sa.get(fname, "<missing>"), sb.get(fname, "<missing>")
                )
                break
            if not _values_equal(sa[fname], sb[fname], tolerance):
                report.divergence = Divergence(step, fname, sa[fname], sb[fname])
                break
        if report.divergence is not None:
            break
    if counters_a is not None or counters_b is not None:
        counters_a = dict(counters_a or {})
        counters_b = dict(counters_b or {})
        for key in sorted(set(counters_a) | set(counters_b)):
            if any(key.startswith(prefix) for prefix in ignore_counter_prefixes):
                continue
            va, vb = counters_a.get(key, 0.0), counters_b.get(key, 0.0)
            if va != vb:
                report.counter_diffs[key] = (va, vb)
    telemetry.counter(
        "verify.diffs",
        driver=name,
        outcome="equivalent" if report.equivalent else "divergent",
    ).inc()
    return report


# -- the harness and the session trail ----------------------------------------------


Trail = List[Dict[str, object]]


def twin_run(
    name: str,
    arm_a: Callable[[], object],
    arm_b: Callable[[], object],
    trail: Callable[[object], Trail],
    tolerance: float = 0.0,
    ignore_counters: Optional[Sequence[str]] = None,
) -> DiffReport:
    """Run two arms, each under its own telemetry capture, and diff them.

    Each arm is a zero-argument closure running one path; ``trail``
    flattens an arm's result into the rows :func:`diff_trails` compares.
    The two counter maps are diffed minus the ``ignore_counters`` prefixes;
    ``None`` leaves counters out of the contract.
    """
    with telemetry.capture() as cap_a:
        result_a = arm_a()
    with telemetry.capture() as cap_b:
        result_b = arm_b()
    counted = ignore_counters is not None
    return diff_trails(
        name,
        trail(result_a),
        trail(result_b),
        tolerance=tolerance,
        counters_a=cap_a.counters() if counted else None,
        counters_b=cap_b.counters() if counted else None,
        ignore_counter_prefixes=ignore_counters or (),
    )


def session_trail(run) -> Trail:
    """The shared trail of one tuning-session population's run.

    ``run`` is an arm's ``(traces, optimizers)``: one trace and one
    :class:`CentroidLearning` per session, in session order.  The rows are
    one per iteration across the sessions — so a divergence in the run
    names its iteration — then each session's :func:`_session_rows`.
    """
    traces, optimizers = run
    rows: Trail = [
        {
            "config": [r.config for r in records],
            "observed_seconds": np.array([r.observed_seconds for r in records]),
            "true_seconds": np.array([r.true_seconds for r in records]),
            "data_size": np.array([r.data_size for r in records]),
            "tuning_active": [r.tuning_active for r in records],
        }
        for records in zip(*(trace.records for trace in traces))
    ]
    for key, optimizer in enumerate(optimizers):
        rows.extend(_session_rows(key, optimizer))
    return rows


def _session_rows(key, optimizer: CentroidLearning, **extra) -> Trail:
    """One row per observation, then a summary row of the session's state.

    The summary holds what a step carries to the next: centroid, update
    count, the last c* and Δ, the re-anchor count and, with a guardrail,
    its decision log, active flag and reset count.  ``extra`` adds
    arm-specific summary fields.
    """
    rows: Trail = [
        {
            "session": key,
            "index": index,
            "config": obs.config,
            "performance": obs.performance,
            "data_size": obs.data_size,
            "iteration": obs.iteration,
        }
        for index, obs in enumerate(optimizer.observations.history)
    ]
    summary = {
        "session": key,
        "index": "summary",
        "centroid": optimizer._centroid,
        "n_updates": optimizer._n_updates,
        "last_best": optimizer._last_best,
        "last_gradient": optimizer._last_gradient,
        "reanchors": optimizer.reanchor_count,
        **extra,
    }
    guardrail = optimizer.guardrail
    if guardrail is not None:
        summary.update(
            decisions=list(guardrail.decisions),
            guardrail_active=guardrail.active,
            guardrail_resets=guardrail.reset_count,
        )
    rows.append(summary)
    return rows


def _session_guardrail(cooldown: Optional[int] = None) -> Guardrail:
    """The guardrail every session-oracle population runs with."""
    return Guardrail(min_iterations=4, threshold=0.15, patience=2, cooldown=cooldown)


# -- driver 1: scalar vs. batch -----------------------------------------------------


def diff_scalar_batch(
    plan=None,
    space=None,
    n_configs: int = 32,
    seed: int = 0,
    data_scale: float = 1.0,
    noise=None,
) -> DiffReport:
    """N sequential ``run()`` calls vs. one ``run_batch`` — bitwise.

    Two identically-seeded simulators consume the same sampled configs; the
    batch side must reproduce observed/true seconds, configs, and metrics
    element-for-element (the noise stream advances per element, in batch
    order).  Counter trails are compared minus ``sparksim.*`` (batch-path
    cache counters differ by design).
    """
    plan = plan if plan is not None else tpch_plan(3)
    space = space if space is not None else query_level_space()
    noise = noise if noise is not None else low_noise()
    vectors = space.sample_vectors(n_configs, np.random.default_rng(seed))

    def scalar():
        simulator = SparkSimulator(noise=noise, seed=seed)
        return [
            simulator.run(plan, space.to_dict(v), data_scale=data_scale)
            for v in vectors
        ]

    def batch():
        return SparkSimulator(noise=noise, seed=seed).run_batch(
            plan, vectors, space=space, data_scale=data_scale
        )

    def trail(results) -> Trail:
        return [
            {
                "observed_seconds": r.elapsed_seconds,
                "true_seconds": r.true_seconds,
                "data_size": r.data_size,
                "config": r.config,
                "metrics": r.metrics,
                "plan_signature": r.plan_signature,
            }
            for r in results
        ]

    return twin_run(
        "scalar_vs_batch", scalar, batch, trail, ignore_counters=("sparksim.",)
    )


# -- driver 2: full refit vs. incremental update ------------------------------------


def diff_refit_incremental(
    seed: int = 0,
    n_points: int = 40,
    n_init: int = 8,
    dim: int = 3,
    n_probes: int = 16,
    tolerance: float = 1e-7,
) -> DiffReport:
    """Rank-1 ``update`` vs. full ``fit`` after every appended point.

    Hyperparameters and normalization are frozen (``normalize_y=False``,
    ``optimize_hypers=False``) so both paths solve the same linear system;
    the rank-1 Cholesky append is numerically — not bitwise — equal to the
    full factorization, hence the atol.  Counters are not compared: the two
    paths increment ``gp.fits`` vs. ``gp.updates`` by design.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n_points, dim))
    w = rng.normal(size=dim)
    y = np.sin(X @ w) + 0.1 * np.sum(X * X, axis=1)
    probes = rng.uniform(-1.0, 1.0, size=(n_probes, dim))

    def fresh_gp() -> GaussianProcessRegressor:
        return GaussianProcessRegressor(
            kernel=Matern52Kernel(),
            noise=1e-4,
            normalize_y=False,
            optimize_hypers=False,
        )

    def incremental():
        gp = fresh_gp().fit(X[:n_init], y[:n_init])
        predictions = []
        for m in range(n_init, n_points):
            gp.update(X[m:m + 1], float(y[m]))
            predictions.append(gp.predict_with_std(probes))
        return predictions

    def refit():
        return [
            fresh_gp().fit(X[:m + 1], y[:m + 1]).predict_with_std(probes)
            for m in range(n_init, n_points)
        ]

    def trail(predictions) -> Trail:
        return [
            {"n": n, "mean": mean, "std": std}
            for n, (mean, std) in enumerate(predictions, n_init + 1)
        ]

    return twin_run(
        "refit_vs_incremental", incremental, refit, trail, tolerance=tolerance
    )


# -- driver 3: live session vs. JSONL-trace replay ----------------------------------


def diff_live_replay(
    seed: int = 0,
    n_iterations: int = 40,
    cooldown: int = 5,
) -> DiffReport:
    """A live tuning loop vs. its trajectory replayed from stored events.

    The live loop emits sequenced ``QueryEndEvent``s into a file-backed
    :class:`StorageManager` — deliberately reversed, split across batches,
    and with a duplicated prefix — and ``replay_artifact`` must canonicalize
    that back to the exact live history.  The guardrail is then re-run over
    the replayed trajectory (``audit_guardrail``) and its full decision
    trail must match the live guardrail's, verdict for verdict.  The replay
    arm consumes the live arm's events, so this driver diffs its trails
    directly rather than through :func:`twin_run`.
    """
    plan = tpch_plan(6)
    space = query_level_space()

    def make_guardrail() -> Guardrail:
        return Guardrail(min_iterations=10, patience=2, cooldown=cooldown)

    simulator = SparkSimulator(noise=low_noise(), seed=seed)
    optimizer = CentroidLearning(
        space, window_size=8, seed=seed, guardrail=make_guardrail()
    )
    estimated = max(plan.total_leaf_cardinality, 1.0)
    events = []
    for t in range(n_iterations):
        vector = optimizer.suggest(data_size=estimated)
        config = space.to_dict(vector)
        event = simulator.run_to_event(
            plan, config,
            app_id="app-000", artifact_id="artifact-000", user_id="user-0",
            iteration=t,
        )
        event = replace(event, sequence=t)
        events.append(event)
        optimizer.observe(Observation(
            config=vector,
            data_size=event.data_size,
            performance=event.duration_seconds,
            iteration=t,
        ))

    with tempfile.TemporaryDirectory() as root:
        storage = StorageManager(root)
        # Adversarial delivery: reversed order, two batches, duplicated
        # prefix — replay must canonicalize all of it away.
        shuffled = list(reversed(events))
        half = len(shuffled) // 2
        storage.append_events("app-000", "artifact-000", shuffled[:half])
        storage.append_events("app-000", "artifact-000", shuffled[half:])
        storage.append_events("app-000", "artifact-000", events[:3])
        trajectories = replay_artifact(storage, "artifact-000")
    trajectory = trajectories[plan.signature()]
    audit = audit_guardrail(trajectory, space, guardrail_factory=make_guardrail)

    live_trail: Trail = [
        {
            "iteration": obs.iteration,
            "duration_seconds": obs.performance,
            "data_size": obs.data_size,
            "config": event.config,
        }
        for obs, event in zip(optimizer.observations.history, events)
    ]
    replay_trail: Trail = [
        {
            "iteration": e.iteration,
            "duration_seconds": e.duration_seconds,
            "data_size": e.data_size,
            "config": e.config,
        }
        for e in trajectory.events
    ]
    live_trail.append({"decisions": list(optimizer.guardrail.decisions)})
    replay_trail.append({"decisions": list(audit.decisions)})
    return diff_trails("live_vs_replay", live_trail, replay_trail)


# -- driver 4: lock-step fleet vs. sequential sessions ------------------------------


def diff_lockstep_sequential(
    seed: int = 0,
    n_workloads: int = 26,
    n_iterations: int = 12,
    fault_every: int = 5,
    lockstep_factory=None,
) -> DiffReport:
    """A lock-step session fleet vs. its K independent sequential twins.

    The population is fig-15-shaped: customer workloads with per-query
    plans, heteroscedastic noise, drifting data sizes, ``variance``/``drift``
    pathologies, a guardrail on every session, and every ``fault_every``-th
    session's simulator wrapped in a :class:`FaultySimulator` scheduling
    latency spikes.  Both engines build the population from the same seeds;
    their :func:`session_trail` rows compare bitwise — the first divergent
    *step* names the iteration where lock-step left the sequential
    trajectory, or the session whose synced state differs — and so do the
    telemetry counters, minus ``sparksim.*`` (the batched estimator path
    legitimately counts one batch where sequential counts K calls).

    ``lockstep_factory`` swaps the engine under test (the sensitivity suite
    passes a deliberately-broken subclass to prove the oracle catches a
    single-session perturbation at the faulting step).
    """
    def build_specs():
        population = generate_population(
            n_workloads, seed=seed, pathological_fraction=0.3,
            base_noise=(0.2, 0.5),
        )
        specs = []
        for i, workload in enumerate(population):
            for spec in workload_specs(
                workload, seed * 7 + i, guardrail_factory=_session_guardrail
            ):
                q = len(specs)
                if fault_every and q % fault_every == 0:
                    plan = FaultPlan(
                        [FaultSpec(FaultKind.LATENCY_SPIKE, at=(2, 7),
                                   magnitude=4.0)],
                        seed=seed * 31 + q,
                    )
                    spec = replace(
                        spec, simulator=FaultySimulator(spec.simulator, plan)
                    )
                specs.append(spec)
        return specs

    def sequential():
        specs = build_specs()
        return run_sequential(specs, n_iterations), [s.optimizer for s in specs]

    def lockstep():
        specs = build_specs()
        engine = (lockstep_factory or LockstepSessions)(specs)
        return engine.run(n_iterations), [s.optimizer for s in specs]

    return twin_run(
        "lockstep_vs_sequential", sequential, lockstep, session_trail,
        ignore_counters=("sparksim.",),
    )


# -- driver 6: switch detector inert on drift-free streams --------------------------


def diff_switch_inert(
    seed: int = 0,
    n_sessions: int = 4,
    n_iterations: int = 16,
    detector_factory=None,
) -> DiffReport:
    """Detector-armed sessions vs. detector-free twins on drift-free streams.

    The task-switch detector must be *inert* when nothing switches: on a
    stationary workload (constant data scale, Eq.-8 noise only) a session
    with a :class:`~repro.core.switch.TaskSwitchDetector` attached must be
    bitwise identical to the same session without one — its whole
    :func:`session_trail`.  The detector consumes no RNG and a
    non-detection changes no optimizer state, so any divergence means the
    detector fired a false alarm (or mutated state it must not touch).
    Counter trails are compared minus ``switch.*`` (the armed side
    legitimately counts its per-step checks).

    ``detector_factory`` (``(session_index) -> TaskSwitchDetector``) swaps
    the detector under test — the sensitivity suite passes one rigged to
    fire at a planted step and pins the first divergence to the very next
    suggestion.
    """
    space = query_level_space()
    factory = detector_factory or (lambda q: TaskSwitchDetector())

    def arm(armed: bool):
        def run():
            specs = [
                SessionSpec(
                    plan=tpch_plan(1 + 2 * q),
                    simulator=SparkSimulator(noise=low_noise(), seed=seed * 101 + q),
                    optimizer=CentroidLearning(
                        space,
                        guardrail=_session_guardrail(),
                        seed=seed * 13 + q,
                        switch_detector=factory(q) if armed else None,
                    ),
                )
                for q in range(n_sessions)
            ]
            return run_sequential(specs, n_iterations), [s.optimizer for s in specs]
        return run

    return twin_run(
        "switch_inert", arm(False), arm(True), session_trail,
        ignore_counters=("switch.",),
    )


# -- driver 5: ANN index vs. brute force --------------------------------------------


def diff_retrieval_bruteforce(
    seed: int = 0,
    n_entries: int = 400,
    n_queries: int = 12,
    dim: int = 24,
    k: int = 10,
    tolerance: float = 1e-9,
) -> DiffReport:
    """ANN index search vs. an einsum brute-force reference — both metrics.

    The reference ranks the full corpus with the shape-independent einsum
    kernel of :mod:`repro.offline.similarity` and a stable
    ``lexsort(ids, distance)``; the :class:`~repro.retrieval.index
    .FlatIndex` (and an :class:`~repro.retrieval.index.IVFIndex` probing
    *every* list, whose candidate set is then the whole corpus) rank with
    the fast ``dgemm`` kernel.  The contract: identical neighbor ids —
    ordering and deterministic tie-breaks included (the corpus carries
    duplicated rows and self-queries to force exact ties) — with distances
    agreeing to ``tolerance`` (the two kernels reassociate differently, so
    distances are numerically, not bitwise, equal).  Euclidean distances
    are compared *squared*: the index recovers them from the norm
    expansion ``sqrt(|q|^2 - score)``, whose cancellation error near zero
    (~``sqrt(eps)·|q|``) dwarfs ``tolerance`` even when the squared
    distances agree to machine precision.  One trail covers every
    ``(metric, index)`` case; each row names its case.
    """
    from ..retrieval.index import FlatIndex, IVFIndex

    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(n_entries, dim))
    entries[n_entries // 2] = entries[0]       # duplicate rows → exact score ties
    entries[n_entries // 2 + 1] = entries[0]
    queries = rng.normal(size=(n_queries, dim))
    queries[0] = entries[0]                    # self-query over the duplicates
    ids = np.arange(n_entries)
    metrics = ("cosine", "euclidean")

    def case_rows(metric: str, kind: str, found_ids, dists) -> Trail:
        if metric == "euclidean":
            dists = dists * dists
        return [
            {"case": f"{metric},{kind}", "ids": found_ids[row], "distances": dists[row]}
            for row in range(n_queries)
        ]

    def indexed() -> Trail:
        rows: Trail = []
        for metric in metrics:
            flat = FlatIndex(dim, metric=metric)
            ivf = IVFIndex(dim, n_lists=8, metric=metric, nprobe=8, seed=seed)
            for kind, index in (("flat", flat), ("ivf", ivf)):
                index.add(entries)
                rows += case_rows(metric, kind, *index.search(queries, k))
        return rows

    def brute_force() -> Trail:
        rows: Trail = []
        for metric in metrics:
            if metric == "euclidean":
                dists = np.linalg.norm(entries[None, :, :] - queries[:, None, :], axis=2)
            else:
                dots = np.einsum("nd,qd->qn", entries, queries)
                norms = np.sqrt(np.einsum("nd,nd->n", entries, entries))
                qnorms = np.sqrt(np.einsum("qd,qd->q", queries, queries))
                dists = 1.0 - dots / np.maximum(norms[None, :] * qnorms[:, None], 1e-12)
            order = np.stack([np.lexsort((ids, row))[:k] for row in dists])
            ranked = np.take_along_axis(dists, order, axis=1)
            for kind in ("flat", "ivf"):
                rows += case_rows(metric, kind, ids[order], ranked)
        return rows

    return twin_run(
        "retrieval_vs_bruteforce", indexed, brute_force, list, tolerance=tolerance
    )


# -- driver 7: sharded service vs. single backend -----------------------------------


def diff_sharded_single(
    seed: int = 0,
    n_workloads: int = 8,
    n_iterations: int = 8,
    n_shards: int = 4,
    events: bool = True,
    service_factory=None,
) -> DiffReport:
    """One fleet, two deployments: sharded batched service vs. single scalar.

    The same fleet spec (customer workload population, derived seeds) runs
    once against an ``n_shards``-way :class:`ShardedAutotuneService` with
    batched drains and per-shard backends, and once against the
    single-shard, scalar (``coalesce=False``) reference with one backend.
    Every session runs the production shape: its own guardrail, with a
    cooldown so disabled sessions come back on probation.  The contract:
    every tenant session's rows of :func:`session_trail` plus its request
    count — and the whole telemetry counter map minus ``service.*`` (shard
    counts, queue stats, and handoffs are deployment-shaped by design) —
    are **bitwise identical**.  This is what makes sharding and request
    coalescing safe to deploy: a tenant cannot tell how the fleet is
    sharded.

    Each row carries a ``session`` field, so a divergence names the
    offending tenant session and observation index directly.

    ``service_factory`` swaps the sharded arm's service class (the
    sensitivity suite passes a subclass with a planted hash-ring misroute —
    a session landing on the wrong shard without state handoff — to prove
    it is caught and pinned to the first divergent session/step).
    """
    from ..service.backend import AutotuneBackend
    from ..service.auth import SasTokenIssuer
    from ..service.fleet import (
        build_fleet, default_optimizer_factory, fleet_user_map, run_fleet,
    )
    from ..service.sharded import ShardedAutotuneService

    def arm(arm_shards: int, coalesce: bool, factory=ShardedAutotuneService):
        def run():
            fleet = build_fleet(n_workloads, seed=seed)
            with tempfile.TemporaryDirectory() as root:
                service = factory(
                    arm_shards,
                    default_optimizer_factory(
                        fleet, base_seed=seed,
                        guardrail_factory=lambda: _session_guardrail(cooldown=2),
                    ),
                    coalesce=coalesce,
                    backend_factory=(lambda shard_id: AutotuneBackend(
                        storage=StorageManager(f"{root}/{shard_id}"),
                        issuer=SasTokenIssuer(f"secret-{shard_id}"),
                        query_space=query_level_space(),
                        min_events_for_model=3,
                    )) if events else None,
                    user_id_fn=fleet_user_map(fleet),
                    queue_capacity=max(4096, 4 * len(fleet)),
                )
                run_fleet(service, fleet, n_iterations, events=events)
            return service
        return run

    def trail(service) -> Trail:
        rows: Trail = []
        for key, session in sorted(service.sessions().items()):
            rows += _session_rows(key, session.optimizer, requests=session.requests)
        return rows

    return twin_run(
        "sharded_vs_single",
        arm(n_shards, True, service_factory or ShardedAutotuneService),
        arm(1, False),
        trail,
        ignore_counters=("service.",),
    )


# -- driver 8: pruned subspace vs. frozen full space --------------------------------


class _FrozenFullSpace(ConfigSpace):
    """Independent reference arm for :func:`diff_pruned_full`.

    An ordinary :class:`ConfigSpace` over the kept parameters whose
    ``to_dict`` merges the frozen natural values of the dropped knobs back
    in, walking the full space's name order.  Deliberately *not* built on
    :class:`~repro.core.importance.PrunedSpace` — it shares no decode code
    with the arm under test, so agreement is evidence, not tautology.
    """

    def __init__(self, full_space, keep, frozen: Mapping[str, float]):
        keep = set(keep)
        super().__init__([p for p in full_space if p.name in keep])
        self._full_names = list(full_space.names)
        self._frozen = dict(frozen)

    def to_dict(self, vector):
        kept = super().to_dict(vector)
        return {
            name: kept[name] if name in kept else self._frozen[name]
            for name in self._full_names
        }

    def default_dict(self):
        return self.to_dict(self.default_vector())


def diff_pruned_full(
    seed: int = 0,
    n_iterations: int = 20,
    top_k: int = 3,
    pruned_space_factory=None,
) -> DiffReport:
    """Pruned-subspace tuning vs. frozen-knob full-space tuning — bitwise.

    A knob ranking (noiseless OAT + radial-Morris sweep) selects the
    ``top_k`` knobs of the 8-knob catalog.  Arm A runs a
    :class:`~repro.core.session.TuningSession` over a
    :class:`~repro.core.importance.PrunedSpace` (dropped knobs pinned at
    their defaults through the decode path); arm B runs the *same* session
    over a :class:`_FrozenFullSpace` — the kept parameters as a plain
    space, with the dropped knobs' natural defaults merged into every
    config dict by an independent code path.  Both optimizers see
    identical kept-knob spaces, so their RNG streams align; the contract
    is that the whole :func:`session_trail` — every materialized
    full-space config, observation, guardrail verdict and centroid move —
    and every counter match bitwise.  Any decode misalignment — a pruned
    knob silently unpinned, a kept coordinate perturbed — breaks the
    config dict at the first step it materializes.

    ``pruned_space_factory`` (``(full_space, keep) -> PrunedSpace``) swaps
    arm A's space — the sensitivity suite passes a subclass that silently
    unpins one dropped knob from a planted step onward and pins the first
    divergence to exactly that step, on the ``config`` field.
    """
    from ..core.importance import PrunedSpace, rank_knobs
    from ..core.session import TuningSession
    from ..sparksim.configs import full_space as full_space_factory

    space = full_space_factory()
    plan = tpch_plan(3)
    ranking = rank_knobs(
        plan, space,
        simulator=SparkSimulator(noise=low_noise(), seed=seed),
        seed=seed,
    )
    keep = ranking.top(top_k)
    factory = pruned_space_factory or (
        lambda full, kept: PrunedSpace(full, kept)
    )
    pruned = factory(space, keep)
    frozen = _FrozenFullSpace(space, keep, pruned.pinned_dict())

    def arm(arm_space):
        def run():
            optimizer = CentroidLearning(
                arm_space, window_size=8, seed=seed * 13 + 7,
                guardrail=_session_guardrail(),
            )
            simulator = SparkSimulator(noise=low_noise(), seed=seed * 101 + 1)
            trace = TuningSession(plan, simulator, optimizer).run(n_iterations)
            return [trace], [optimizer]
        return run

    return twin_run(
        "pruned_vs_full", arm(pruned), arm(frozen), session_trail,
        ignore_counters=(),
    )


def run_all(seed: int = 0) -> Dict[str, DiffReport]:
    """Run every differential driver; keys are the report names."""
    reports: List[DiffReport] = [
        diff_scalar_batch(seed=seed),
        diff_refit_incremental(seed=seed),
        diff_live_replay(seed=seed),
        diff_lockstep_sequential(seed=seed),
        diff_retrieval_bruteforce(seed=seed),
        diff_switch_inert(seed=seed),
        diff_sharded_single(seed=seed),
        diff_pruned_full(seed=seed),
    ]
    return {report.name: report for report in reports}
