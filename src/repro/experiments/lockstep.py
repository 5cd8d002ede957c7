"""Lock-step vectorized session engine.

Runs K independent Centroid Learning tuning sessions one *step* at a time
in struct-of-arrays form: per step there is **one**
``true_time_batch``/``estimate_batch`` call per distinct (plan, cost
parameters, pool) group covering every session, one batched ridge-pipeline
fit for every session whose window model is stale, one stacked guardrail
trend solve, and one batched centroid update — instead of K of each.  The
CL step itself (shape rule, fits, scoring, Alg.-1 update) is
:mod:`repro.core.batched_step`, shared with the shard drains.  The
guardrail state machine is each session's own
:class:`~repro.core.guardrail.Guardrail`: the engine drives its
``_record`` and ``_judge`` halves around the stacked solve, so the
guardrails are live after every step.

**Bit-identity contract.**  The engine is not an approximation: every
floating-point operation is arranged so that session *k*'s observation
trail, telemetry counters, guardrail decisions, and final optimizer state
are bitwise identical to running ``SessionSpec.to_session().run(n)``
sequentially.  The ingredients:

* per-session RNG streams — each session draws candidates, cold-start
  choices and observation noise from its own optimizer/simulator
  generators, in the same order as the sequential loop;
* :func:`repro.core.candidates.draw_candidates`, step β for every active
  session in one call, whose row *k* is bitwise the scalar draw;
* :mod:`repro.core.batched_step`, whose row *k* is bitwise the scalar
  ``CentroidLearning`` arithmetic, and the guardrail's :func:`ols_predict`;
* the per-config ``data_scales`` path of
  :meth:`repro.sparksim.executor.SparkSimulator.true_time_batch`, bitwise
  equal to scalar estimates on per-session scaled plans;
* :meth:`SparkSimulator.observe_true` (and its
  :class:`~repro.faults.injectors.FaultySimulator` wrapper), which applies
  exactly the per-run noise/fault tail of ``run()`` to precomputed true
  times.

Nothing re-anchors a session, so every window holds the last
``min(t, window_size)`` steps and the suggest, guardrail and centroid
phases each make one stacked call for the whole population.

``repro.verify.diff.diff_lockstep_sequential`` pins the contract end to
end on fig15-style populations; Hypothesis properties in
``tests/verify/test_properties.py`` pin the K=1 reduction and permutation
invariance.

Sessions outside :func:`~repro.core.batched_step.batch_profile_for`'s
shape (a task-switch detector or a safe-exploration gate included: those
run only in the scalar :mod:`repro.core.switch` classes), stale or
non-uniform populations, robust guardrails, and optimizers or guardrails
shared by two sessions raise
:class:`LockstepCompatibilityError` — callers fall back to the sequential
path rather than silently getting different numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core.batched_step import (
    BatchProfile,
    acquisition_scores,
    batch_profile_for,
    centroid_step,
    fit_window_models,
    window_means,
)
from ..core.candidates import draw_candidates
from ..core.centroid import CentroidLearning
from ..core.guardrail import Guardrail
from ..core.observation import Observation
from ..core.session import IterationRecord, TuningSession, TuningTrace
from ..ml.acquisition import AcquisitionFunction
from ..ml.batched import BatchedRidgePipeline, ols_predict, polynomial_features_batch

__all__ = [
    "LockstepCompatibilityError",
    "SessionSpec",
    "LockstepSessions",
    "LockstepReplicatedRuns",
    "run_sequential",
]


class LockstepCompatibilityError(ValueError):
    """A session population cannot be run in lock-step bit-identically."""


@dataclass
class SessionSpec:
    """One session of a lock-step population.

    Mirrors the :class:`~repro.core.session.TuningSession` constructor
    arguments the engine supports; :meth:`to_session` builds the sequential
    twin the differential oracle compares against.
    """

    plan: object
    simulator: object
    optimizer: CentroidLearning
    scale_fn: Optional[Callable[[int], float]] = None
    observe_transform: Optional[Callable[[int, float], float]] = None

    def to_session(self) -> TuningSession:
        return TuningSession(
            plan=self.plan,
            simulator=self.simulator,
            optimizer=self.optimizer,
            scale_fn=self.scale_fn,
            observe_transform=self.observe_transform,
        )


def run_sequential(
    specs: Sequence[SessionSpec], n_iterations: int
) -> List[TuningTrace]:
    """The sequential reference: run each spec's session to completion."""
    return [spec.to_session().run(n_iterations) for spec in specs]


@dataclass
class _Uniform:
    """Settings required to be identical across the population."""

    window_size: int
    n_candidates: int
    min_update_obs: int
    sel_min_obs: int
    # Session 0's profile and acquisition: its window-model shape, FIND_BEST
    # mode, probe, acquisition and space geometry are the population's.
    profile: BatchProfile
    acquisition: AcquisitionFunction
    # Session 0's guardrail: the stacked trend solve's fit_window.
    guardrail: Optional[Guardrail]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LockstepCompatibilityError(message)


class LockstepSessions:
    """K Centroid Learning sessions advanced in lock-step.

    Args:
        specs: the population; every optimizer must be a fresh
            :class:`CentroidLearning` in the batched step's shape
            (:func:`~repro.core.batched_step.batch_profile_for`).
            Per-session ``alpha``, ``beta``, ``alpha_decay``, ridge
            strength, seeds, noise models and fault plans may vary; window
            sizes, candidate counts, window-model shape, FIND_BEST mode,
            probe, acquisition and guardrail *parameters* must be uniform.

    Raises:
        LockstepCompatibilityError: when the population cannot be run
            bit-identically to the sequential loop.
    """

    def __init__(self, specs: Sequence[SessionSpec]):
        specs = list(specs)
        _require(len(specs) >= 1, "lock-step needs at least one session")
        self.specs = specs
        opts = [spec.optimizer for spec in specs]
        self._sims = [spec.simulator for spec in specs]
        self._scale_fns = [spec.scale_fn for spec in specs]
        self._transforms = [spec.observe_transform for spec in specs]
        self._observe_fns = [spec.simulator.observe_true for spec in specs]
        self._scale_idx = [
            k for k, fn in enumerate(self._scale_fns) if fn is not None
        ]

        # Plan geometry + evaluation groups (one batched kernel call per
        # distinct (plan, cost parameters, pool) combination per step).
        self._leaf_rows = [
            tuple(op.est_rows_in for op in spec.plan.leaves) for spec in specs
        ]
        self._leaf_totals = np.array(
            [spec.plan.total_leaf_cardinality for spec in specs]
        )
        self._est_default = np.maximum(self._leaf_totals, 1.0)
        self._plan_ids = [id(spec.plan) for spec in specs]
        groups: dict = {}
        for k, spec in enumerate(specs):
            sim = spec.simulator
            key = (id(spec.plan), sim.cost_model.params, sim.pool)
            groups.setdefault(key, (spec.plan, sim, []))[2].append(k)
        self._groups = [
            (plan, sim, np.array(idx)) for plan, sim, idx in groups.values()
        ]

        self._init_core(opts)

    def _init_core(self, opts: Sequence[CentroidLearning]) -> None:
        """Validate and build the optimizer-state SoA shared by all drivers."""
        self.k = len(opts)
        self._opts = opts
        self._u, self._ridge_alphas = self._validate(opts)
        u = self._u
        self.space = opts[0].space
        self.dim = self.space.dim
        self._default = self.space.default_vector()

        # Per-session scalar hyperparameters (allowed to vary).
        self._alphas = np.array([o.alpha for o in opts])
        self._alpha_decays = np.array([o.alpha_decay for o in opts])
        self._betas = np.array([o.beta for o in opts])
        self._rngs = [o._rng for o in opts]
        # Prebound per-session callables: the per-step Python floor is one
        # candidate draw plus one observe_true call per session, so shaving
        # the attribute lookups off both is worth it at K=256.
        self._randoms = [rng.random for rng in self._rngs]
        self._unit_scales = np.ones(self.k)

        # Centroid Learning state, struct-of-arrays.
        self._centroids = np.stack([o._centroid for o in opts])
        self._n_updates = np.zeros(self.k)
        self._last_best = np.zeros((self.k, self.dim))
        self._last_delta = np.zeros((self.k, self.dim))
        self._ever_updated = np.zeros(self.k, dtype=bool)

        # Window model store: one fitted ridge pipeline per session, refit
        # lazily when a session's window version moves past the cached one
        # (mirrors find_best.fit_window_model's memoization).
        n_base = self.dim + 1
        degree, interaction_only = u.profile.degree, u.profile.interaction_only
        n_feat = polynomial_features_batch(
            np.zeros(n_base), degree, interaction_only
        ).shape[-1]
        self._model = BatchedRidgePipeline(
            mean=np.zeros((self.k, n_base)),
            scale=np.ones((self.k, n_base)),
            coef=np.zeros((self.k, n_feat)),
            intercept=np.zeros(self.k),
            degree=degree,
            interaction_only=interaction_only,
        )
        self._model_version = np.full(self.k, -1)

        # Each session's own guardrail, its two halves prebound like the
        # draws above: a step makes one _record per session and one _judge
        # per due check.
        self._guardrails: Optional[List[Guardrail]] = None
        if u.guardrail is not None:
            self._guardrails = [o.guardrail for o in opts]
            self._records = [g._record for g in self._guardrails]
            self._judges = [g._judge for g in self._guardrails]

        # Step-indexed history buffers, grown on demand.
        self._t = 0
        self._capacity = 0
        self._synced_obs = 0
        self._vectors = np.empty((self.k, 0, self.dim))
        self._truth = np.empty((self.k, 0))
        self._perfs = np.empty((self.k, 0))
        self._sizes = np.empty((self.k, 0))
        self._active = np.empty((self.k, 0), dtype=bool)

    # -- validation --------------------------------------------------------------

    def _validate(
        self, opts: Sequence[CentroidLearning]
    ) -> Tuple[_Uniform, np.ndarray]:
        """The population's uniform settings and per-session ridge strengths.

        Each session must have the batched step's shape
        (:func:`~repro.core.batched_step.batch_profile_for`); the rules here
        are the ones lock-step adds: fresh state, uniform settings,
        non-robust guardrails, and one optimizer and guardrail per session.
        """
        profiles = []
        for opt in opts:
            profile = batch_profile_for(opt)
            if not isinstance(profile, BatchProfile):
                raise LockstepCompatibilityError(
                    f"lock-step runs the batched CentroidLearning step; a "
                    f"{type(opt).__name__} session is out of shape ({profile})"
                )
            profiles.append(profile)
        names = (
            "ConfigSpace", "window_size", "n_candidates", "min_update_observations",
            "selector min_observations", "polynomial expansion", "find_best_mode",
            "probe", "acquisition", "guardrail settings",
        )

        def settings(opt: CentroidLearning, profile: BatchProfile) -> tuple:
            g = opt.guardrail
            return (
                opt.space, opt.observations.window_size, opt.n_candidates,
                opt.min_update_observations, opt.selector.min_observations,
                (profile.degree, profile.interaction_only),
                profile.find_best_mode, profile.probe, opt.selector.acquisition,
                None if g is None else (
                    g.min_iterations, g.threshold, g.patience, g.fit_window,
                    g.cooldown,
                ),
            )

        first = opts[0]
        settings0 = settings(first, profiles[0])
        for opt, profile in zip(opts, profiles):
            values = settings(opt, profile)
            if values != settings0:
                name = next(n for n, a, b in zip(names, values, settings0) if a != b)
                raise LockstepCompatibilityError(f"{name} must be uniform")
            _require(
                len(opt.observations) == 0 and opt._n_updates == 0,
                "lock-step requires fresh optimizers (empty windows)",
            )
            g = opt.guardrail
            if g is not None:
                _require(
                    type(g) is Guardrail and not g.robust,
                    "lock-step supports non-robust Guardrail instances",
                )
                _require(
                    g.n_observations == 0 and g.active,
                    "lock-step requires fresh guardrails",
                )
        # Each step feeds every session's optimizer state and guardrail, so
        # one object behind two sessions would see both sessions' steps.
        owned = list(opts) + [o.guardrail for o in opts if o.guardrail is not None]
        _require(
            len({id(o) for o in owned}) == len(owned),
            "lock-step requires each session to own its optimizer and guardrail",
        )
        uniform = _Uniform(
            window_size=first.observations.window_size,
            n_candidates=first.n_candidates,
            min_update_obs=first.min_update_observations,
            sel_min_obs=first.selector.min_observations,
            profile=profiles[0],
            acquisition=first.selector.acquisition,
            guardrail=first.guardrail,
        )
        return uniform, np.array([profile.alpha for profile in profiles])

    # -- buffers -----------------------------------------------------------------

    def _ensure_capacity(self, steps: int) -> None:
        if steps <= self._capacity:
            return
        new = max(steps, 2 * self._capacity, 8)

        def grow(buf: np.ndarray, fill) -> np.ndarray:
            shape = list(buf.shape)
            shape[1] = new
            out = np.full(shape, fill, dtype=buf.dtype)
            out[:, : self._capacity] = buf
            return out

        self._vectors = grow(self._vectors, 0.0)
        self._truth = grow(self._truth, 0.0)
        self._perfs = grow(self._perfs, 0.0)
        self._sizes = grow(self._sizes, 1.0)
        self._active = grow(self._active, True)
        self._capacity = new

    # -- window models -----------------------------------------------------------

    def _models_for(self, idx: np.ndarray, version: int) -> BatchedRidgePipeline:
        """Fitted window models for sessions ``idx`` at window ``version``.

        ``version`` is the number of observations taken so far; stale
        sessions are refit in one batched call (others keep their cached
        fit, exactly like the sequential memoization in
        :func:`repro.core.find_best.fit_window_model`).
        """
        stale = idx[self._model_version[idx] != version]
        if stale.size:
            u = self._u
            lo = version - min(version, u.window_size)
            fitted = fit_window_models(
                self._vectors[stale, lo:version],
                self._sizes[stale, lo:version],
                self._perfs[stale, lo:version],
                self._ridge_alphas[stale],
                u.profile,
            )
            fitted.scatter_into(self._model, stale)
            self._model_version[stale] = version
        m = self._model
        if idx.size == self.k:
            # Fast path: flatnonzero over an all-True mask is arange(k), so
            # the full store is already in caller order — skip the gather.
            return m
        return BatchedRidgePipeline(
            mean=m.mean[idx], scale=m.scale[idx], coef=m.coef[idx],
            intercept=m.intercept[idx], degree=m.degree,
            interaction_only=m.interaction_only,
        )

    # -- workload substrate (overridden by the replicated-runs driver) -------------

    def _input_sizes(self, t: int):
        """Per-session ``(data_scale, estimated_size)`` for step ``t``.

        Sessions without a scale_fn sit at scale 1.0, so the whole block
        reduces to two cached (read-only) arrays when nobody drifts.
        """
        if not self._scale_idx:
            return self._unit_scales, self._est_default
        scales = np.ones(self.k)
        est_sizes = self._est_default.copy()
        # Sessions sharing a plan object and a scale value produce the same
        # leaf sum from the same inputs, so compute it once per distinct
        # (plan, scale) pair — bitwise identical, K-fold cheaper on fleets
        # that share one drifting workload.
        memo: dict = {}
        for k in self._scale_idx:
            s = self._scale_fns[k](t)
            scales[k] = s
            key = (self._plan_ids[k], s)
            total = memo.get(key)
            if total is None:
                if s != 1.0:
                    total = 0.0
                    for rows in self._leaf_rows[k]:
                        total = total + rows * s
                else:
                    total = self._leaf_totals[k]
                total = max(total, 1.0)
                memo[key] = total
            est_sizes[k] = total
        return scales, est_sizes

    def _execute(self, t: int, vectors: np.ndarray, scales: np.ndarray) -> None:
        """Fill ``_truth``/``_sizes``/``_perfs`` for step ``t``.

        One batched kernel call per (plan, params, pool) group with
        per-session data scales; then each session's own noise / fault
        stream turns true times into observations, in session order.
        """
        for plan, sim, idx in self._groups:
            self._truth[idx, t] = sim.true_time_batch(
                plan, vectors[idx], space=self.space, data_scales=scales[idx]
            )
            self._sizes[idx, t] = np.maximum(
                plan.total_leaf_cardinality * scales[idx], 1.0
            )
        truth_t = self._truth[:, t].tolist()
        transforms = self._transforms
        observes = self._observe_fns
        perfs_t = truth_t  # reuse the scratch list; overwritten per session
        for k in range(self.k):
            observed = observes[k](truth_t[k])
            transform = transforms[k]
            if transform is not None:
                observed = transform(t, observed)
            perfs_t[k] = observed
        self._perfs[:, t] = perfs_t

    # -- one lock-step iteration ---------------------------------------------------

    def step(self) -> None:
        """Advance every session by one suggest → execute → observe step."""
        t = self._t
        self._ensure_capacity(t + 1)
        u = self._u
        k_total = self.k

        # 1. Input-size dynamics: per-session data scale and the compile-time
        #    cardinality estimate the selector scores against.
        scales, est_sizes = self._input_sizes(t)

        # 2. Suggest: guardrail-disabled sessions pin the default vector
        #    (consuming no randomness); active sessions draw β-neighborhood
        #    candidates from their own RNGs and score them in one batch.
        #    The mask is the guardrails' state after the last step (fresh
        #    guardrails are all active).
        vectors = np.empty((k_total, self.dim))
        active = self._active[:, t - 1] if t else np.ones(k_total, dtype=bool)
        act = np.flatnonzero(active)
        n_default = k_total - act.size
        if n_default:
            telemetry.counter("centroid.suggests", mode="default").inc(n_default)
            vectors[~active] = self._default
        if act.size:
            telemetry.counter("centroid.suggests", mode="tuning").inc(act.size)
            m, p = u.n_candidates, u.profile
            cands = draw_candidates(
                self._centroids[act], self._betas[act], m,
                [self._randoms[k] for k in act],
                p.bounds_low, p.bounds_high, p.span,
            )
            n_w = min(t, u.window_size)
            if n_w < u.sel_min_obs:
                # Cold start: uniform choice from each session's RNG.
                for j, k in enumerate(act):
                    vectors[k] = cands[j, int(self._rngs[k].integers(0, m))]
            else:
                mean = window_means(
                    self._models_for(act, version=t), cands, est_sizes[act]
                )
                best = np.min(self._perfs[act, t - n_w : t], axis=1)
                scores = acquisition_scores(u.acquisition, mean, best[:, None])
                chosen = np.argmax(scores, axis=1)
                vectors[act] = cands[np.arange(act.size), chosen]
        self._vectors[:, t] = vectors

        # 3. Execute on the workload substrate.
        self._execute(t, vectors, scales)

        # 4. Observe: the guardrails, then the vectorized Alg.-1 centroid
        #    update for every session that is active with a full-enough
        #    window.
        telemetry.counter("session.steps").inc(k_total)
        if self._guardrails is not None:
            self._run_guardrails(t)
        active_after = self.tuning_active
        updatable = np.flatnonzero(active_after)
        held = k_total - updatable.size
        if held:
            telemetry.counter("centroid.updates_skipped", reason="guardrail").inc(held)
        self._active[:, t] = active_after
        n_win = min(t + 1, u.window_size)
        if n_win < u.min_update_obs:
            if updatable.size:
                telemetry.counter(
                    "centroid.updates_skipped", reason="window"
                ).inc(updatable.size)
        elif updatable.size:
            self._update_centroids(updatable, t, n_win)
        self._t = t + 1

    def _update_centroids(self, upd: np.ndarray, t: int, n_win: int) -> None:
        """The Alg.-1 centroid update for sessions ``upd``, whose windows
        hold ``n_win`` observations ending at step ``t``."""
        lo = t + 1 - n_win
        alphas = self._alphas[upd] / (
            1.0 + self._alpha_decays[upd] * self._n_updates[upd]
        )
        c_star, delta, centroid = centroid_step(
            self._models_for(upd, version=t + 1),
            self._vectors[upd, lo : t + 1],
            self._sizes[upd, lo : t + 1],
            self._perfs[upd, lo : t + 1],
            alphas,
            self._u.profile,
        )
        self._centroids[upd] = centroid
        self._n_updates[upd] += 1.0
        self._last_best[upd] = c_star
        self._last_delta[upd] = delta
        self._ever_updated[upd] = True
        telemetry.counter("centroid.updates").inc(upd.size)

    def _run_guardrails(self, t: int) -> None:
        """Feed step ``t`` to every session's guardrail.

        Each guardrail records its observation (and runs its cooldown); the
        due checks' trend lines are one stacked :func:`ols_predict` over the
        engine's buffers — row *j* is bitwise the scalar ``_predict`` — and
        each due guardrail then judges its own prediction, in session order.
        """
        records = self._records
        sizes_t = self._sizes[:, t].tolist()
        perfs_t = self._perfs[:, t].tolist()
        due = [k for k in range(self.k) if records[k](t, sizes_t[k], perfs_t[k])]
        if not due:
            return
        w = min(t + 1, self._u.guardrail.fit_window)
        lo = t + 1 - w
        sizes = self._sizes[due, lo : t + 1]
        X = np.empty((len(due), w, 2))
        X[:, :, 0] = np.arange(lo, t + 1, dtype=float)
        X[:, :, 1] = sizes
        rows = np.empty((len(due), 2, 2))
        rows[:, 0, 0] = float(t) + 1.0
        rows[:, 1, 0] = float(t)
        rows[:, :, 1] = sizes[:, -1:]
        preds = ols_predict(X, self._perfs[due, lo : t + 1], rows).tolist()
        judges = self._judges
        for k, (pred_next, pred_current) in zip(due, preds):
            judges[k](pred_next, pred_current)

    # -- driving + results ---------------------------------------------------------

    def advance(self, n_iterations: int) -> None:
        """Advance all sessions ``n_iterations`` steps and sync state back.

        Writes the final centroid and window state into the population's
        optimizer objects, so callers can inspect ``optimizer.centroid`` and
        ``optimizer.observations`` exactly as after a sequential run —
        without materializing traces.  (The guardrails need no write-back:
        :meth:`step` drives them directly.)
        """
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        self._ensure_capacity(self._t + n_iterations)
        for _ in range(n_iterations):
            self.step()
        self._sync_state()

    def run(self, n_iterations: int) -> List[TuningTrace]:
        """:meth:`advance` then materialize and return per-session traces."""
        self.advance(n_iterations)
        return self.traces()

    @property
    def tuning_active(self) -> np.ndarray:
        """Per-session guardrail-active mask (all True without guardrails)."""
        if self._guardrails is None:
            return np.ones(self.k, dtype=bool)
        return np.array([g.active for g in self._guardrails])

    def traces(self) -> List[TuningTrace]:
        """Materialize per-session :class:`TuningTrace` objects."""
        n = self._t
        flat = self._vectors[:, :n].reshape(self.k * n, self.dim)
        # Pruned-subspace sessions (repro.core.importance.PrunedSpace)
        # decode to full-space vectors so trace configs are complete —
        # matching the full dicts the sequential path's to_dict() emits.
        space = self.space
        decode = getattr(space, "decode_matrix", None)
        if decode is not None:
            flat = decode(flat)
            space = space.full_space
        names = list(space.names)
        # One flattened conversion for all sessions (bitwise identical to
        # per-session calls: every transform is elementwise).
        all_natural = space.to_natural_matrix(flat).reshape(self.k, n, -1)
        # IterationRecord is a frozen dataclass, so its generated __init__
        # routes every field through object.__setattr__; at K·N records that
        # becomes the dominant materialization cost.  Build instances by
        # installing the field dict directly — value-identical (no
        # __post_init__ exists) and __eq__/__hash__/repr see the same
        # fields, just without the per-field frozen-write ceremony.
        new_record = IterationRecord.__new__
        out: List[TuningTrace] = []
        for k in range(self.k):
            natural = all_natural[k].tolist()
            observed = self._perfs[k, :n].tolist()
            truth = self._truth[k, :n].tolist()
            sizes = self._sizes[k, :n].tolist()
            active = self._active[k, :n].tolist()
            trace = TuningTrace()
            records = trace.records
            for t in range(n):
                rec = new_record(IterationRecord)
                rec.__dict__.update(
                    iteration=t,
                    config=dict(zip(names, natural[t])),
                    observed_seconds=observed[t],
                    true_seconds=truth[t],
                    data_size=sizes[t],
                    tuning_active=active[t],
                )
                records.append(rec)
            out.append(trace)
        return out

    def _sync_state(self) -> None:
        """Write lock-step state back into the real optimizer objects."""
        n = self._t
        lo = self._synced_obs
        for k, opt in enumerate(self._opts):
            opt._centroid = self._centroids[k].copy()
            opt._n_updates = int(self._n_updates[k])
            if self._ever_updated[k]:
                opt._last_best = self._last_best[k].copy()
                opt._last_gradient = self._last_delta[k].copy()
            # Observations are appended incrementally since the last sync.
            # One private copy per session; each Observation holds a row
            # view of it (the copy is never mutated, so the rows are as
            # immutable as the per-record copies the sequential path makes).
            conf = self._vectors[k, lo:n].copy()
            sizes = self._sizes[k, lo:n].tolist()
            perfs = self._perfs[k, lo:n].tolist()
            append = opt.observations.append
            new_obs = Observation.__new__
            for i in range(n - lo):
                perf = perfs[i]
                size = sizes[i]
                # Same frozen-dataclass shortcut as traces(), keeping
                # __post_init__'s semantics: config rows are already float64
                # arrays, and the two range checks are inlined.
                if perf < 0:
                    raise ValueError(f"performance must be >= 0, got {perf}")
                if size <= 0:
                    raise ValueError(f"data_size must be > 0, got {size}")
                obs = new_obs(Observation)
                obs.__dict__.update(
                    config=conf[i],
                    data_size=size,
                    performance=perf,
                    iteration=lo + i,
                    embedding=None,
                )
                append(obs)
        self._synced_obs = n


class LockstepReplicatedRuns(LockstepSessions):
    """K independent replicated runs of one synthetic objective, lock-step.

    The vectorized Centroid Learning core (candidate drawing, surrogate
    scoring, FIND_BEST + gradient updates, guardrails) is shared with
    :class:`LockstepSessions`; only the workload substrate differs — data
    sizes come from per-run size processes and observations from
    ``objective.observe`` with each run's own noise RNG, exactly mirroring
    :func:`repro.experiments.runner.run_single`.  The runs matrix from
    :meth:`runs` is bit-identical to ``n_runs`` sequential ``run_single``
    calls on the same optimizers, size processes and RNGs.

    ``traces()`` is not meaningful for this driver (synthetic objectives
    have no noiseless kernel times); read :meth:`runs` instead.
    """

    def __init__(self, optimizers, objective, size_processes, noise_rngs):
        opts = list(optimizers)
        _require(len(opts) >= 1, "lock-step needs at least one run")
        _require(
            len(size_processes) == len(opts) and len(noise_rngs) == len(opts),
            "optimizers, size_processes and noise_rngs must align",
        )
        self._objective = objective
        self._size_procs = list(size_processes)
        self._noise_rngs = list(noise_rngs)
        self._init_core(opts)

    def _input_sizes(self, t: int):
        # run_single suggests with data_size = size_process(t), verbatim.
        p = np.array([proc(t) for proc in self._size_procs])
        return p, p

    def _execute(self, t: int, vectors: np.ndarray, scales: np.ndarray) -> None:
        self._sizes[:, t] = scales
        p_list = scales.tolist()
        observe = self._objective.observe
        rngs = self._noise_rngs
        for k in range(self.k):
            p_list[k] = observe(vectors[k], p_list[k], rngs[k])
        self._perfs[:, t] = p_list
        # _truth stays zero: synthetic objectives are scored post hoc by
        # runs(), from the suggested vectors alone.

    def runs(self, track: str = "true") -> np.ndarray:
        """The ``(n_runs, n_iterations)`` tracked matrix of runner.py.

        ``track`` has :func:`run_single` semantics: ``"true"`` (noiseless
        value at the reference size), ``"normed"`` (true / data size) or
        ``"gap"`` (optimality gap along the most impactful dimension).  All
        three are pure functions of the suggested vectors, so evaluating
        them after the lock-step run reproduces the sequential loop's
        values bitwise.
        """
        if track not in ("true", "normed", "gap"):
            raise ValueError(f"unknown track mode {track!r}")
        n = self._t
        obj = self._objective
        out = np.empty((self.k, n))
        if track == "gap":
            impactful = obj.most_impactful_dimension
            for k in range(self.k):
                vecs = self._vectors[k]
                for t in range(n):
                    out[k, t] = obj.optimality_gap(vecs[t], dimension=impactful)
        elif track == "true":
            ref = obj.reference_size
            for k in range(self.k):
                vecs = self._vectors[k]
                for t in range(n):
                    out[k, t] = obj.true_value(vecs[t], ref)
        else:
            for k in range(self.k):
                vecs = self._vectors[k]
                for t in range(n):
                    p = self._sizes[k, t]
                    out[k, t] = obj.true_value(vecs[t], p) / p
        return out
