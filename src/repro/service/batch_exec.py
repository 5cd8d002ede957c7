"""Batched drain execution: coalesce co-tenant requests into batched fits.

A shard drain hands this module a *run* of requests touching pairwise
distinct sessions.  For every session whose optimizer matches the
production shape (:func:`batch_profile_for`: Centroid Learning with the
default window model and selector, guardrail or not), the per-request
window-model work is coalesced across the run:

* one :func:`repro.ml.batched.fit_ridge_pipeline` call fits every window
  model the run needs (grouped by window length — ``slice k`` of a batched
  fit is bitwise-identical to the scalar ``Pipeline`` fit, the PR-6
  contract);
* one :class:`~repro.ml.batched.BatchedRidgePipeline.predict` call scores
  all candidate sets (suggest), ranks all windows (FIND_BEST) and probes
  all sign sets (FIND_GRADIENT) per shape group.

Everything *around* the model math replays the scalar code path exactly —
same RNG draws (`generate_candidates` consumes each session's own
generator), same telemetry counters, same tie-breaking ``argmin``/``argmax``
— so the per-session observation/counter trail is bit-identical to
request-by-request :class:`~repro.service.sessions.TenantSessionHost`
calls.  A guardrail is not replayed but *called*: the observe phase runs
each session's own ``Guardrail.update`` in the scalar order (append, then
guardrail, then the window check), so the guardrail logic exists once, in
:mod:`repro.core.guardrail`.  The ``diff_sharded_single`` oracle
(:mod:`repro.verify.diff`) pins this end to end.  Sessions that don't match
the profile (switch detectors, safe gates, custom selectors/models) take
the scalar path, :func:`apply_scalar`; the drain counts each one once as
``service.batch.fallback_sessions{reason=...}``.

Fitted batch parameters are memoized per window at
``window.__dict__["_batched_window_params"]`` keyed by the window's append
version — the same invalidation rule as
:func:`repro.core.find_best.fit_window_model` — so each session pays one
fit per observation, exactly like the scalar path's memo cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..core.candidates import generate_candidates
from ..core.centroid import CentroidLearning
from ..core.find_best import FindBestMode
from ..core.gradient import _MAX_ENUM_DIM, _candidate_deltas
from ..core.optimizer_base import Optimizer
from ..core.selectors import SurrogateSelector
from ..ml.acquisition import MeanMinimizer
from ..ml.batched import BatchedRidgePipeline, fit_ridge_pipeline
from ..ml.linear import PolynomialFeatures, RidgeRegression
from ..ml.scaler import Pipeline, StandardScaler
from .sessions import TenantSession, TenantSessionHost, UNPROBED

__all__ = ["BatchProfile", "apply_scalar", "batch_profile_for", "execute_run"]

_PARAMS_ATTR = "_batched_window_params"


@dataclass
class BatchProfile:
    """Everything the batched path needs to know about one session's shape."""

    alpha: float
    degree: int
    interaction_only: bool
    dim: int
    bounds_low: np.ndarray
    bounds_high: np.ndarray
    span: np.ndarray
    deltas: np.ndarray  # the FIND_GRADIENT sign set D for this dim


def batch_profile_for(optimizer: Optimizer) -> Union[BatchProfile, str]:
    """Probe whether the batched drain can serve ``optimizer``'s requests.

    Batching replays `CentroidLearning`'s default flow: MODEL-mode
    FIND_BEST, Eq.-6 span probes, and the default surrogate selector (mean
    acquisition, no baseline) over a scaled polynomial ridge window model.
    A :class:`~repro.core.guardrail.Guardrail` of any setting is eligible,
    because the batched observe phase calls the session's own
    ``Guardrail.update``.  Anything else that adds behavior to
    suggest/observe — switch detectors, safe gates, baselines, non-default
    selectors/acquisitions/modes/models — keeps the session on the scalar
    path.

    Returns the session's :class:`BatchProfile`, or the reason it is
    ineligible as a short label (``"switch_detector"``, ``"safe_gate"``,
    ``"selector"``, ...), the ``reason`` of the
    ``service.batch.fallback_sessions`` counter.
    """
    if type(optimizer) is not CentroidLearning:
        return "optimizer"
    if optimizer.switch_detector is not None:
        return "switch_detector"
    if optimizer.safe_gate is not None:
        return "safe_gate"
    if optimizer.find_best_mode is not FindBestMode.MODEL:
        return "find_best_mode"
    if optimizer.gradient_mode != "ml" or optimizer.probe != "span":
        return "gradient"
    if optimizer.space.dim > _MAX_ENUM_DIM:
        return "dim"
    selector = optimizer.selector
    if (
        type(selector) is not SurrogateSelector
        or selector.baseline is not None
        or type(selector.acquisition) is not MeanMinimizer
        or selector.model_factory is not optimizer.model_factory
    ):
        return "selector"
    try:
        probe = optimizer.model_factory()
    except Exception:  # noqa: BLE001 — an exploding factory is "not batchable"
        return "model"
    if type(probe) is not Pipeline or len(probe.steps) != 3:
        return "model"
    scaler, poly, ridge = (step for _, step in probe.steps)
    if (
        type(scaler) is not StandardScaler
        or type(poly) is not PolynomialFeatures
        or type(ridge) is not RidgeRegression
    ):
        return "model"
    bounds = optimizer.space.internal_bounds
    dim = optimizer.space.dim
    return BatchProfile(
        alpha=float(ridge.alpha),
        degree=int(poly.degree),
        interaction_only=bool(poly.interaction_only),
        dim=dim,
        bounds_low=bounds[:, 0].copy(),
        bounds_high=bounds[:, 1].copy(),
        span=(bounds[:, 1] - bounds[:, 0]).copy(),
        deltas=_candidate_deltas(dim),
    )


# One fitted window model in SoA-slice form: (mean, scale, coef, intercept).
_Params = Tuple[np.ndarray, np.ndarray, np.ndarray, float]


def _ensure_window_models(
    entries: Sequence[Tuple[TenantSession, BatchProfile]],
) -> List[_Params]:
    """Current-version window-model parameters for every entry.

    Cached parameters are reused (same version ⇒ same model, the
    `fit_window_model` rule); the rest are fitted in one
    :func:`fit_ridge_pipeline` call per ``(n, features, degree)`` group.
    """
    params: List[Optional[_Params]] = [None] * len(entries)
    groups: Dict[Tuple[int, int, int, bool], List[Tuple[int, np.ndarray]]] = {}
    for i, (session, profile) in enumerate(entries):
        window = session.optimizer.observations
        cached = window.__dict__.get(_PARAMS_ATTR)
        if cached is not None and cached[0] == window.version:
            params[i] = cached[1]
            continue
        X = window.design_matrix()
        key = (X.shape[0], X.shape[1], profile.degree, profile.interaction_only)
        groups.setdefault(key, []).append((i, X))
    for (_, _, degree, interaction_only), group in groups.items():
        members = [i for i, _ in group]
        stacked_X = np.stack([X for _, X in group])
        stacked_y = np.array([
            entries[i][0].optimizer.observations.performances() for i in members
        ], dtype=float)
        alphas = np.array([entries[i][1].alpha for i in members])
        fitted = fit_ridge_pipeline(
            stacked_X, stacked_y, alphas, degree=degree,
            interaction_only=interaction_only,
        )
        for j, i in enumerate(members):
            window = entries[i][0].optimizer.observations
            slice_params: _Params = (
                fitted.mean[j], fitted.scale[j], fitted.coef[j],
                float(fitted.intercept[j]),
            )
            params[i] = slice_params
            window.__dict__[_PARAMS_ATTR] = (window.version, slice_params)
    return params  # type: ignore[return-value]


def _predict_groups(
    params: Sequence[_Params],
    queries: Sequence[np.ndarray],
    degree: int,
    interaction_only: bool,
) -> List[np.ndarray]:
    """Per-entry predictions, one batched predict per query shape."""
    out: List[Optional[np.ndarray]] = [None] * len(queries)
    by_shape: Dict[Tuple[int, int], List[int]] = {}
    for i, rows in enumerate(queries):
        by_shape.setdefault(rows.shape, []).append(i)
    for shape, members in by_shape.items():
        model = BatchedRidgePipeline(
            mean=np.stack([params[i][0] for i in members]),
            scale=np.stack([params[i][1] for i in members]),
            coef=np.stack([params[i][2] for i in members]),
            intercept=np.array([params[i][3] for i in members]),
            degree=degree,
            interaction_only=interaction_only,
        )
        predictions = model.predict(np.stack([queries[i] for i in members]))
        for j, i in enumerate(members):
            out[i] = predictions[j]
    return out  # type: ignore[return-value]


# -- request execution ---------------------------------------------------------------


def execute_run(
    host: TenantSessionHost, pairs: Sequence[Tuple[TenantSession, object]]
) -> None:
    """Process one drained run of requests over pairwise-distinct sessions.

    Each request object carries ``op`` (``"suggest"``/``"observe"``),
    ``data_size`` or ``observation``/``event``, and receives its ``result``.
    Distinctness is the caller's contract — it makes intra-run order
    irrelevant (sessions are independent), which is what lets suggests and
    observes regroup into batched phases without changing any trail.

    A session is probed once, on its first request; an ineligible one is
    counted as ``service.batch.fallback_sessions{reason=...}`` and from
    then on served by :func:`apply_scalar`.
    """
    suggests: List[Tuple[TenantSession, object]] = []
    observes: List[Tuple[TenantSession, object]] = []
    for session, request in pairs:
        profile = session.batch_profile
        if profile is UNPROBED:
            profile = session.batch_profile = batch_profile_for(session.optimizer)
            if not isinstance(profile, BatchProfile):
                telemetry.counter(
                    "service.batch.fallback_sessions", reason=profile
                ).inc()
        if not isinstance(profile, BatchProfile):
            apply_scalar(host, session, request)
        elif request.op == "suggest":
            suggests.append((session, request))
        else:
            observes.append((session, request))
    if observes:
        _run_observes(host, observes)
    if suggests:
        _run_suggests(suggests)


def apply_scalar(host: TenantSessionHost, session: TenantSession, request) -> None:
    """The per-request scalar path (identical to TenantSessionHost calls).

    Serves the sessions the batched drain cannot, and every request of a
    ``coalesce=False`` service (the single-backend reference deployment).
    """
    session.requests += 1
    if request.op == "suggest":
        request.result = session.optimizer.suggest(data_size=request.data_size)
    else:
        session.optimizer.observe(request.observation)
        if request.event is not None:
            host.forward_event(session, request.event)
        request.result = None


# -- suggest: candidates → (batched fit+predict) → acquisition argmax ---------------


def _finish_suggest(request, candidates: np.ndarray, index: int) -> None:
    telemetry.counter("centroid.suggests", mode="tuning").inc()
    active = telemetry.current_span()
    active.set_attr("candidate_index", int(index))
    active.set_attr("n_candidates", int(len(candidates)))
    request.result = candidates[index]


def _run_suggests(items: Sequence[Tuple[TenantSession, object]]) -> None:
    warm: List[Tuple[TenantSession, object, np.ndarray, float]] = []
    for session, request in items:
        session.requests += 1
        opt = session.optimizer
        if not opt.tuning_active:
            telemetry.counter("centroid.suggests", mode="default").inc()
            request.result = opt.space.default_vector()
            continue
        data_size = 1.0 if request.data_size is None else float(request.data_size)
        candidates = generate_candidates(
            opt.space, opt._centroid, opt.beta, opt.n_candidates, opt._rng
        )
        if len(opt.observations.window) < opt.selector.min_observations:
            # Cold start without a baseline: explore the neighborhood.
            index = int(opt._rng.integers(0, len(candidates)))
            _finish_suggest(request, candidates, index)
        else:
            warm.append((session, request, candidates, data_size))
    if not warm:
        return
    profile = warm[0][0].batch_profile
    params = _ensure_window_models([(s, s.batch_profile) for s, _, _, _ in warm])
    queries = [
        np.column_stack([candidates, np.full(len(candidates), data_size)])
        for _, _, candidates, data_size in warm
    ]
    means = _predict_groups(params, queries, profile.degree, profile.interaction_only)
    for i, (session, request, candidates, _) in enumerate(warm):
        opt = session.optimizer
        selector = opt.selector
        mean = means[i]
        std = np.full(len(candidates), 1e-9)
        best = float(np.min(opt.observations.performances()))
        scores = selector.acquisition(mean, std, best)
        chosen = int(np.argmax(scores))
        if telemetry.enabled():
            tspan = telemetry.current_span()
            tspan.set_attr("candidate_scores", np.asarray(scores, dtype=float).tolist())
            tspan.set_attr("candidate_chosen_score", float(scores[chosen]))
            tspan.set_attr("candidate_mean_prediction", float(np.mean(mean)))
        _finish_suggest(request, candidates, chosen)


# -- observe: append → guardrail → (batched fit) → FIND_BEST → FIND_GRADIENT → update


def _run_observes(
    host: TenantSessionHost, items: Sequence[Tuple[TenantSession, object]]
) -> None:
    pending: List[Tuple[TenantSession, object]] = []
    for session, request in items:
        session.requests += 1
        opt = session.optimizer
        Optimizer.observe(opt, request.observation)  # validate + append
        if opt.guardrail is not None:
            opt.guardrail.update(request.observation)
            if not opt.guardrail.active:
                telemetry.counter("centroid.updates_skipped", reason="guardrail").inc()
                continue
        if len(opt.observations.window) < opt.min_update_observations:
            telemetry.counter("centroid.updates_skipped", reason="window").inc()
        else:
            pending.append((session, request))
    if pending:
        _batched_centroid_updates(pending)
    for session, request in items:
        if request.event is not None:
            host.forward_event(session, request.event)
        request.result = None


def _batched_centroid_updates(pending: Sequence[Tuple[TenantSession, object]]) -> None:
    profile0 = None
    for session, _ in pending:
        profile0 = profile0 or session.batch_profile
    params = _ensure_window_models([(s, s.batch_profile) for s, _ in pending])

    # FIND_BEST (MODEL mode): rank each window's configs at the latest size.
    rank_queries: List[np.ndarray] = []
    for session, request in pending:
        window = session.optimizer.observations
        configs = window.configs()
        rank_queries.append(np.column_stack([
            configs, np.full(len(configs), request.observation.data_size)
        ]))
    rank_predictions = _predict_groups(
        params, rank_queries, profile0.degree, profile0.interaction_only
    )

    # FIND_GRADIENT (Eq. 6): probe the sign set around each session's c*.
    best_indices = [int(np.argmin(p)) for p in rank_predictions]
    probe_queries: List[np.ndarray] = []
    alphas: List[float] = []
    c_stars: List[np.ndarray] = []
    for i, (session, request) in enumerate(pending):
        opt = session.optimizer
        profile = session.batch_profile
        window_obs = opt.observations.window
        best_obs = window_obs[0] if len(window_obs) < 2 else window_obs[best_indices[i]]
        c_star = best_obs.config
        alpha = opt.effective_alpha
        points = c_star[None, :] - alpha * profile.deltas * profile.span[None, :]
        points = np.clip(points, profile.bounds_low, profile.bounds_high)
        probe_queries.append(np.column_stack([
            points, np.full(len(points), request.observation.data_size)
        ]))
        alphas.append(alpha)
        c_stars.append(c_star)
    probe_predictions = _predict_groups(
        params, probe_queries, profile0.degree, profile0.interaction_only
    )

    for i, (session, request) in enumerate(pending):
        opt = session.optimizer
        profile = session.batch_profile
        latest = request.observation
        with telemetry.span("centroid.update", iteration=latest.iteration) as tspan:
            c_star = c_stars[i]
            alpha = alphas[i]
            delta = profile.deltas[int(np.argmin(probe_predictions[i]))]
            new_centroid = c_star - alpha * delta * profile.span
            before = opt._centroid
            opt._centroid = opt.space.clip(new_centroid)
            opt._n_updates += 1
            opt._last_gradient = np.asarray(delta, dtype=float)
            opt._last_best = np.asarray(c_star, dtype=float)
            telemetry.counter("centroid.updates").inc()
            if telemetry.enabled():
                move = float(np.linalg.norm(opt._centroid - before))
                telemetry.gauge("centroid.last_move_norm").set(move)
                tspan.set_attr("n_update", opt._n_updates)
                tspan.set_attr("alpha", alpha)
                tspan.set_attr("centroid_before", before.tolist())
                tspan.set_attr("centroid_after", opt._centroid.tolist())
                tspan.set_attr("c_star", opt._last_best.tolist())
                tspan.set_attr("sign_gradient", opt._last_gradient.tolist())
                tspan.set_attr("move_norm", move)
