"""Monitoring dashboard (Sec. 6.3, posterior analysis).

Collects the metrics "directly influenced by configuration suggestions":
(1) partitions, (2) physical plans, (3) task numbers, and (4) input data
sizes — and provides the per-signature views used for root-cause analysis
and for the deployment speed-up reports (Figs. 15–16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..ml.linear import LinearRegression
from ..ml.metrics import spearman_rho
from ..sparksim.events import QueryEndEvent

__all__ = [
    "MonitoringDashboard",
    "QuerySummary",
    "RootCauseReport",
    "render_metrics",
    "render_service_metrics",
]


def render_metrics(metrics: Dict[str, object]) -> str:
    """Fixed-width text render of a backend :meth:`~repro.service.backend.AutotuneBackend.metrics` payload.

    Shows the backend's own counters first, then — when the telemetry
    facade was enabled at scrape time — the full registry snapshot
    (counters/gauges sorted by key, histograms as one-line summaries).
    """
    lines: List[str] = ["autotune backend metrics", "=" * 24]
    backend = metrics.get("backend", {})
    if backend:
        width = max(len(k) for k in backend)
        for key in sorted(backend):
            lines.append(f"  {key:<{width}}  {backend[key]:g}")
    snapshot = metrics.get("telemetry")
    if snapshot is None:
        lines.append("(telemetry disabled — enable repro.telemetry for the full registry)")
        return "\n".join(lines)
    for section in ("counters", "gauges"):
        entries = snapshot.get(section, {})
        if not entries:
            continue
        lines.append(f"[{section}]")
        width = max(len(k) for k in entries)
        for key in sorted(entries):
            lines.append(f"  {key:<{width}}  {entries[key]:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("[histograms]")
        width = max(len(k) for k in histograms)
        for key in sorted(histograms):
            s = histograms[key]
            lines.append(
                f"  {key:<{width}}  count={s['count']:g} mean={s['mean']:.6g} "
                f"p50={s['p50']:.6g} p99={s['p99']:.6g} max={s['max']:.6g}"
            )
    return "\n".join(lines)


def render_service_metrics(metrics: Dict[str, object]) -> str:
    """Fixed-width render of a :meth:`~repro.service.sharded.ShardedAutotuneService.metrics` payload.

    One row per shard (sessions, how many of them the batched drain serves
    and how many fall back to the scalar path, queue depth/high-water, shed
    and processed counts) with a utilization bar scaled to the busiest
    shard, then the fleet aggregates (shed rate, utilization skew) — the
    at-a-glance view for "is one shard running hot" and "is every session
    batched".
    """
    service = metrics.get("service", {})
    shards: Dict[str, Dict[str, object]] = service.get("shards", {})
    header = (
        f"{'shard':<12}{'sessions':>9}{'batched':>8}{'fallback':>9}{'depth':>7}"
        f"{'hiwater':>9}{'shed':>6}{'processed':>11}  utilization"
    )
    lines = [
        f"sharded autotune service — {service.get('n_shards', len(shards))} shard(s), "
        f"coalesce={'on' if service.get('coalesce') else 'off'}",
        header,
        "-" * len(header),
    ]
    busiest = max((s["processed"] for s in shards.values()), default=0)
    for shard_id in sorted(shards):
        shard = shards[shard_id]
        bar = "#" * int(round(12 * shard["processed"] / busiest)) if busiest else ""
        lines.append(
            f"{shard_id:<12}{shard['sessions']:>9}{shard['batched_sessions']:>8}"
            f"{shard['fallback_sessions']:>9}{shard['queue_depth']:>7}"
            f"{shard['queue_high_watermark']:>9}{shard['shed']:>6}"
            f"{shard['processed']:>11}  {bar}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"submitted={service.get('submitted', 0)} shed={service.get('shed', 0)} "
        f"(rate {100.0 * service.get('shed_rate', 0.0):.1f}%) "
        f"outages={service.get('outages', 0)} "
        f"skew={service.get('utilization_skew', 1.0):.2f}x"
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class QuerySummary:
    """Per-signature dashboard row."""

    query_signature: str
    user_id: str
    iterations: int
    first_window_mean: float
    last_window_mean: float
    speedup_pct: float
    trend_slope: float            # seconds per iteration (data-size adjusted)
    mean_data_size: float
    distinct_plans: int


@dataclass(frozen=True)
class RootCauseReport:
    """What moved a query's performance (Sec. 6.3 posterior analysis / RCA).

    Attributes:
        query_signature: the query analyzed.
        knob_correlations: per-knob Spearman correlation between the knob's
            value and the *data-size-adjusted* duration residual — positive
            means raising the knob slowed the query down.
        metric_correlations: same, for runtime metrics (tasks, partitions,
            spills) the configuration influences.
        data_size_correlation: correlation of raw duration with input size —
            when this dominates, performance changes are explained by the
            data, not by tuning.
        dominant_factor: the single name with the largest |correlation|.
    """

    query_signature: str
    knob_correlations: Dict[str, float]
    metric_correlations: Dict[str, float]
    data_size_correlation: float
    dominant_factor: str


class MonitoringDashboard:
    """Aggregates query-end events into tuning health views."""

    def __init__(self, window: int = 5):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._events: Dict[str, List[QueryEndEvent]] = {}

    def ingest(self, event: QueryEndEvent) -> None:
        self._events.setdefault(event.query_signature, []).append(event)

    def ingest_many(self, events: Sequence[QueryEndEvent]) -> None:
        for event in events:
            self.ingest(event)

    @property
    def signatures(self) -> List[str]:
        return sorted(self._events)

    def events_for(self, signature: str) -> List[QueryEndEvent]:
        return list(self._events.get(signature, []))

    # -- views ------------------------------------------------------------------------

    def config_history(self, signature: str) -> Dict[str, np.ndarray]:
        """Per-knob value series across iterations (dashboard line charts)."""
        events = self._events.get(signature, [])
        if not events:
            raise KeyError(f"unknown signature {signature!r}")
        knobs = sorted(events[0].config)
        return {k: np.array([e.config.get(k, np.nan) for e in events]) for k in knobs}

    def performance_trend(self, signature: str) -> float:
        """Data-size-adjusted seconds-per-iteration slope (negative = improving)."""
        events = self._events.get(signature, [])
        if len(events) < 3:
            return 0.0
        X = np.column_stack([
            np.arange(len(events), dtype=float),
            [e.data_size for e in events],
        ])
        y = np.array([e.duration_seconds for e in events])
        model = LinearRegression()
        model.fit(X, y)
        return float(model.coef_[0])

    def speedup_pct(self, signature: str) -> float:
        """First-window vs last-window mean duration, as a percentage.

        Positive = the query got faster under tuning.
        """
        events = self._events.get(signature, [])
        if len(events) < 2 * self.window:
            return 0.0
        first = float(np.mean([e.duration_seconds for e in events[: self.window]]))
        last = float(np.mean([e.duration_seconds for e in events[-self.window:]]))
        if last <= 0:
            return 0.0
        return (first / last - 1.0) * 100.0

    def summary(self, signature: str) -> QuerySummary:
        events = self._events.get(signature, [])
        if not events:
            raise KeyError(f"unknown signature {signature!r}")
        w = min(self.window, max(1, len(events) // 2))
        durations = [e.duration_seconds for e in events]
        return QuerySummary(
            query_signature=signature,
            user_id=events[0].user_id,
            iterations=len(events),
            first_window_mean=float(np.mean(durations[:w])),
            last_window_mean=float(np.mean(durations[-w:])),
            speedup_pct=self.speedup_pct(signature),
            trend_slope=self.performance_trend(signature),
            mean_data_size=float(np.mean([e.data_size for e in events])),
            distinct_plans=len({e.query_signature for e in events}),
        )

    def all_summaries(self) -> List[QuerySummary]:
        return [self.summary(s) for s in self.signatures]

    def explain(self, signature: str) -> RootCauseReport:
        """Root-cause analysis: attribute duration changes to knobs, runtime
        metrics, or input-size drift.

        Durations are first residualized against data size (a linear fit) so
        that input growth does not masquerade as a knob effect; knob/metric
        correlations are rank-based (Spearman) to survive spikes.
        """
        events = self._events.get(signature, [])
        if len(events) < 4:
            raise ValueError(
                f"need >= 4 events for RCA on {signature!r}, have {len(events)}"
            )
        durations = np.array([e.duration_seconds for e in events])
        sizes = np.array([e.data_size for e in events])

        data_size_corr = spearman_rho(sizes, durations)
        size_model = LinearRegression()
        size_model.fit(sizes.reshape(-1, 1), durations)
        residuals = durations - size_model.predict(sizes.reshape(-1, 1))

        knob_corr: Dict[str, float] = {}
        for knob in sorted(events[0].config):
            values = np.array([e.config.get(knob, np.nan) for e in events])
            if np.std(values) > 1e-12:
                knob_corr[knob] = spearman_rho(values, residuals)

        metric_corr: Dict[str, float] = {}
        metric_names = set().union(*(e.metrics.keys() for e in events)) if events else set()
        for name in sorted(metric_names):
            values = np.array([e.metrics.get(name, np.nan) for e in events])
            if np.all(np.isfinite(values)) and np.std(values) > 1e-12:
                metric_corr[name] = spearman_rho(values, residuals)

        candidates: Dict[str, float] = {"data_size": data_size_corr}
        candidates.update(knob_corr)
        candidates.update(metric_corr)
        dominant = max(candidates, key=lambda k: abs(candidates[k]))
        return RootCauseReport(
            query_signature=signature,
            knob_correlations=knob_corr,
            metric_correlations=metric_corr,
            data_size_correlation=data_size_corr,
            dominant_factor=dominant,
        )

    def render_report(self, max_rows: int = 20) -> str:
        """Fixed-width fleet report — the dashboard's landing view."""
        header = (
            f"{'signature':<18}{'runs':>6}{'first(s)':>10}{'last(s)':>10}"
            f"{'speedup%':>10}{'trend s/it':>12}"
        )
        lines = [header, "-" * len(header)]
        for summary in self.all_summaries()[:max_rows]:
            lines.append(
                f"{summary.query_signature:<18}{summary.iterations:>6}"
                f"{summary.first_window_mean:>10.2f}{summary.last_window_mean:>10.2f}"
                f"{summary.speedup_pct:>10.1f}{summary.trend_slope:>12.4f}"
            )
        lines.append("-" * len(header))
        lines.append(f"fleet speed-up: {self.fleet_speedup_pct():+.1f}%")
        return "\n".join(lines)

    def fleet_speedup_pct(self) -> float:
        """Total-time speed-up across all signatures (first vs last window)."""
        firsts, lasts = 0.0, 0.0
        for events in self._events.values():
            if len(events) < 2 * self.window:
                continue
            firsts += float(np.sum([e.duration_seconds for e in events[: self.window]]))
            lasts += float(np.sum([e.duration_seconds for e in events[-self.window:]]))
        if lasts <= 0:
            return 0.0
        return (firsts / lasts - 1.0) * 100.0
