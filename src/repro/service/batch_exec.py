"""Batched drain execution: serve co-tenant requests with the batched CL step.

A shard drain hands this module a *run* of requests touching pairwise
distinct sessions.  The window-model fits, candidate scoring and Alg.-1
update are :mod:`repro.core.batched_step`, and step β is
:func:`repro.core.candidates.draw_candidates` — the kernels the lock-step
engine calls too; this module keeps the per-session work around them:

* routing a run into an observe phase and a suggest phase;
* drawing every tuning session's candidates with one kernel call per draw
  group (one space, one candidate count; betas may differ), then each
  cold-start session's own index draw;
* gathering windows, and stacking only sessions with one window (or
  candidate-set) length and one :attr:`BatchProfile.key` — each session's
  own acquisition then scores its row, since acquisitions are elementwise;
* the window-model memo of :mod:`repro.core.find_best`, the one the scalar
  selector and update read and write, keyed by the window's append version
  and the optimizer's model factory: one fit per observation;
* each session's RNG draws and spans, in the scalar order.

The step's bookkeeping is the session's own
:class:`~repro.core.centroid.CentroidLearning` code: the observe gate
(append, then guardrail, then the window check), the suggestion's counter
and span attributes, and the ``centroid.update`` writes.  So each
session's observation/counter trail is bit-identical to serving its
requests one by one through :func:`apply_scalar`, which the
``diff_sharded_single`` oracle (:mod:`repro.verify.diff`) pins.
Sessions the kernel's shape rule,
:func:`repro.core.batched_step.batch_profile_for`, rejects — the one rule
lock-step applies too, so a switch detector or a safe gate is among the
reasons — take the scalar path, :func:`apply_scalar`, and are counted once
as ``service.batch.fallback_sessions{reason=...}``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core.batched_step import (
    BatchProfile,
    acquisition_scores,
    batch_profile_for,
    centroid_step,
    fit_window_models,
    stack_models,
    window_means,
)
from ..core.candidates import draw_candidates
from ..core.find_best import memoize_window_model, memoized_window_model
from ..core.observation import ObservationWindow
from .sessions import TenantSession, TenantSessionHost, UNPROBED

__all__ = ["BatchProfile", "apply_scalar", "execute_run"]


def _groups(
    sessions: Sequence[TenantSession], lengths: Sequence[Hashable]
) -> Iterable[List[int]]:
    """Positions of the sessions that can share one stacked kernel call:
    equal stacked lengths (window, candidate set) and profile keys."""
    groups: Dict[tuple, List[int]] = {}
    for i, (session, length) in enumerate(zip(sessions, lengths)):
        groups.setdefault((length, session.batch_profile.key), []).append(i)
    return groups.values()


def _fit(
    sessions: Sequence[TenantSession], windows: Sequence[ObservationWindow]
):
    """Fit one group's window models; memoize each at its window's version.

    Returns the model stack and the group's ``(configs, sizes, perfs)``.
    """
    configs = np.stack([window.configs() for window in windows])
    sizes = np.stack([window.data_sizes() for window in windows])
    perfs = np.stack([window.performances() for window in windows])
    fitted = fit_window_models(
        configs, sizes, perfs,
        np.array([session.batch_profile.alpha for session in sessions]),
        sessions[0].batch_profile,
    )
    for j, (session, window) in enumerate(zip(sessions, windows)):
        memoize_window_model(window, session.optimizer.model_factory, fitted, j)
    return fitted, (configs, sizes, perfs)


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
    """The per-request scalar path: the session's own suggest/observe.

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


# -- suggest: candidates → window-model means → acquisition argmax -----------------


def _draw(sessions: Sequence[TenantSession]) -> List[np.ndarray]:
    """Step β for tuning sessions: one kernel call per draw group — one
    space (the profile's shared geometry arrays) and one candidate count;
    betas may differ."""
    groups: Dict[tuple, List[int]] = {}
    for i, session in enumerate(sessions):
        key = (id(session.batch_profile.span), session.optimizer.n_candidates)
        groups.setdefault(key, []).append(i)
    candidates: list = [None] * len(sessions)
    for members in groups.values():
        opts = [sessions[i].optimizer for i in members]
        profile = sessions[members[0]].batch_profile
        drawn = draw_candidates(
            np.array([opt._centroid for opt in opts]),
            np.array([opt.beta for opt in opts]),
            opts[0].n_candidates,
            [opt._rng.random for opt in opts],
            profile.bounds_low, profile.bounds_high, profile.span,
        )
        for row, i in enumerate(members):
            candidates[i] = drawn[row]
    return candidates


def _run_suggests(items: Sequence[Tuple[TenantSession, object]]) -> None:
    tuning: List[Tuple[TenantSession, object]] = []
    for session, request in items:
        session.requests += 1
        if session.optimizer.tuning_active:
            tuning.append((session, request))
        else:  # a disabled session's suggest draws nothing: the default
            request.result = session.optimizer.suggest()
    if not tuning:
        return
    drawn = _draw([session for session, _ in tuning])
    warm: List[Tuple[TenantSession, object, np.ndarray, float]] = []
    for (session, request), candidates in zip(tuning, drawn):
        opt = session.optimizer
        if len(opt.observations.window) < opt.selector.min_observations:
            # Cold start without a baseline: explore the neighborhood.
            index = int(opt._rng.integers(0, len(candidates)))
            request.result = opt._choose(candidates, index)
        else:
            data_size = 1.0 if request.data_size is None else float(request.data_size)
            warm.append((session, request, candidates, data_size))
    if not warm:
        return
    sessions = [session for session, _, _, _ in warm]
    windows = [session.optimizer.observations for session in sessions]
    lengths = [(len(w.window), len(e[2])) for w, e in zip(windows, warm)]
    means: list = [None] * len(warm)
    for members in _groups(sessions, lengths):
        group = [windows[i] for i in members]
        memos = [
            memoized_window_model(windows[i], sessions[i].optimizer.model_factory)
            for i in members
        ]
        if all(memo is not None and memo[1] is not None for memo in memos):
            model = stack_models(memos)
        else:  # refitting a fresh member reproduces its memo bit for bit
            model, _ = _fit([sessions[i] for i in members], group)
        group_means = window_means(
            model,
            np.stack([warm[i][2] for i in members]),
            np.array([warm[i][3] for i in members]),
        )
        for row, i in enumerate(members):
            means[i] = group_means[row]
    for (session, request, candidates, _), mean in zip(warm, means):
        opt = session.optimizer
        best = float(np.min(opt.observations.performances()))
        scores = acquisition_scores(opt.selector.acquisition, mean, best)
        chosen = int(np.argmax(scores))
        if telemetry.enabled():
            tspan = telemetry.current_span()
            tspan.set_attr("candidate_scores", np.asarray(scores, dtype=float).tolist())
            tspan.set_attr("candidate_chosen_score", float(scores[chosen]))
            tspan.set_attr("candidate_mean_prediction", float(np.mean(mean)))
        request.result = opt._choose(candidates, chosen)


# -- observe: append → guardrail → window check → fit + Alg.-1 update ------------


def _run_observes(
    host: TenantSessionHost, items: Sequence[Tuple[TenantSession, object]]
) -> None:
    pending: List[Tuple[TenantSession, object]] = []
    for session, request in items:
        session.requests += 1
        if session.optimizer._observe_gate(request.observation):
            pending.append((session, request))
    if pending:
        _batched_centroid_updates(pending)
    for session, request in items:
        if request.event is not None:
            host.forward_event(session, request.event)
        request.result = None


def _batched_centroid_updates(pending: Sequence[Tuple[TenantSession, object]]) -> None:
    # Every pending window just took an observation, so every model is stale.
    sessions = [session for session, _ in pending]
    windows = [session.optimizer.observations for session in sessions]
    steps: list = [None] * len(pending)
    for members in _groups(sessions, [len(window.window) for window in windows]):
        group = [sessions[i] for i in members]
        fitted, (configs, sizes, perfs) = _fit(group, [windows[i] for i in members])
        alphas = [session.optimizer.effective_alpha for session in group]
        c_star, delta, centroid = centroid_step(
            fitted, configs, sizes, perfs, np.array(alphas), group[0].batch_profile
        )
        for row, i in enumerate(members):
            steps[i] = (c_star[row], delta[row], centroid[row], alphas[row])

    for (session, request), (c_star, delta, centroid, alpha) in zip(pending, steps):
        iteration = request.observation.iteration
        with telemetry.span("centroid.update", iteration=iteration) as tspan:
            session.optimizer._apply_update(tspan, centroid, c_star, delta, alpha)
