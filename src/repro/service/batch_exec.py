"""Batched drain execution: serve co-tenant requests with the batched CL step.

A shard drain hands this module a *run* of requests touching pairwise
distinct sessions.  The window-model fits, candidate scoring and Alg.-1
update are :mod:`repro.core.batched_step`, the kernel the lock-step engine
calls too; this module keeps the per-session work around it:

* routing a run into an observe phase and a suggest phase;
* gathering windows, and stacking only sessions with one window (or
  candidate-set) length and one :attr:`BatchProfile.key` — each session's
  own acquisition then scores its row, since acquisitions are elementwise;
* the window-model memo at ``window.__dict__["_batched_window_model"]``,
  keyed by the window's append version (the invalidation rule of
  :func:`repro.core.find_best.fit_window_model`): one fit per observation;
* calling each session's own ``Guardrail.update`` in the scalar order
  (append, then guardrail, then the window check);
* each session's RNG draws, spans and counters, in the scalar order.

So each session's observation/counter trail is bit-identical to
request-by-request :class:`~repro.service.sessions.TenantSessionHost` calls,
which the ``diff_sharded_single`` oracle (:mod:`repro.verify.diff`) pins.
Sessions :func:`batch_profile_for` rejects take the scalar path,
:func:`apply_scalar`, and are counted once as
``service.batch.fallback_sessions{reason=...}``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from ..core import batched_step
from ..core.batched_step import (
    BatchProfile,
    acquisition_scores,
    centroid_step,
    fit_window_models,
    stack_models,
    window_means,
)
from ..core.candidates import generate_candidates
from ..core.observation import ObservationWindow
from ..core.optimizer_base import Optimizer
from .sessions import TenantSession, TenantSessionHost, UNPROBED

__all__ = ["BatchProfile", "apply_scalar", "batch_profile_for", "execute_run"]

_MODEL_ATTR = "_batched_window_model"


def batch_profile_for(optimizer: Optimizer) -> Union[BatchProfile, str]:
    """Probe whether the batched drain can serve ``optimizer``'s requests.

    The kernel's rule, :func:`repro.core.batched_step.batch_profile_for`,
    plus the two shapes the drain leaves to the scalar path: a switch
    detector or a safe gate.  Any guardrail is eligible, because the
    batched observe phase calls the session's own ``Guardrail.update``.

    Returns the session's :class:`BatchProfile`, or the reason it is
    ineligible as a short label — the kernel's, ``"switch_detector"`` or
    ``"safe_gate"`` — the ``reason`` of the
    ``service.batch.fallback_sessions`` counter.
    """
    profile = batched_step.batch_profile_for(optimizer)
    if isinstance(profile, BatchProfile):
        if optimizer.switch_detector is not None:
            return "switch_detector"
        if optimizer.safe_gate is not None:
            return "safe_gate"
    return profile


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
    for j, window in enumerate(windows):
        window.__dict__[_MODEL_ATTR] = (window.version, fitted, j)
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


# -- suggest: candidates → window-model means → acquisition argmax -----------------


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
    sessions = [session for session, _, _, _ in warm]
    windows = [session.optimizer.observations for session in sessions]
    lengths = [(len(w.window), len(e[2])) for w, e in zip(windows, warm)]
    means: list = [None] * len(warm)
    for members in _groups(sessions, lengths):
        group = [windows[i] for i in members]
        memos = [w.__dict__.get(_MODEL_ATTR) for w in group]
        if all(m is not None and m[0] == w.version for m, w in zip(memos, group)):
            model = stack_models([memo[1:] for memo in memos])
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
        _finish_suggest(request, candidates, chosen)


# -- observe: append → guardrail → window check → fit + Alg.-1 update ------------


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
        opt = session.optimizer
        latest = request.observation
        with telemetry.span("centroid.update", iteration=latest.iteration) as tspan:
            before = opt._centroid
            opt._centroid = centroid
            opt._n_updates += 1
            opt._last_gradient = delta
            opt._last_best = c_star
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
