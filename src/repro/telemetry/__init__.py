"""``repro.telemetry`` — metrics, tracing spans, and structured events.

The observability layer every production component reports through (see
``docs/observability.md`` for naming conventions and the test contract).
Three kinds of signal:

* **metrics** (:mod:`.registry`) — counters / gauges / histograms with
  labels, thread-safe, with snapshot/reset for tests;
* **spans** (:mod:`.tracing`) — nested timing contexts exported in-memory
  or as JSONL, from which a tuning session can be reconstructed;
* **events** (:mod:`.events`) — discrete structured facts (fallbacks,
  guardrail flips) with deterministic sequence numbers.

The module-level facade (``telemetry.counter(...)``, ``telemetry.span(...)``,
…) is what instrumented code calls.  **Telemetry is off by default** and the
disabled path is a single branch returning a shared no-op singleton — no
allocation, no locking, no timing — so instrumented hot paths cost nothing
until someone opts in (`make bench-telemetry` pins the overhead at <5%).

Tests use :func:`capture`::

    from repro import telemetry

    with telemetry.capture() as cap:
        run_workload()
    assert cap.registry.snapshot()["counters"]["guardrail.checks"] > 0
    assert cap.spans.by_name("centroid.update")

Everything inside the ``with`` records into a fresh registry/tracer/event
log; the previous global state (usually: disabled) is restored on exit, so
captures never leak across tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .events import EventLog, TelemetryEvent
from .registry import Counter, Gauge, Histogram, MetricsRegistry, render_key
from .tracing import (
    InMemoryExporter,
    JsonlExporter,
    Span,
    SpanRecord,
    Tracer,
    read_jsonl,
)

__all__ = [
    # facade
    "enabled", "enable", "disable", "counter", "gauge", "histogram",
    "span", "current_span", "emit", "snapshot", "reset",
    "registry", "tracer", "events", "capture", "Capture",
    # building blocks
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "render_key",
    "Tracer", "Span", "SpanRecord", "InMemoryExporter", "JsonlExporter",
    "read_jsonl", "EventLog", "TelemetryEvent",
]


# -- no-op singletons -------------------------------------------------------------
#
# Returned by the facade while telemetry is disabled.  They are stateless and
# reusable (including re-entrant ``with`` nesting), so the disabled path is
# exactly one branch plus an attribute call.

class _NoopInstrument:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NoopSpan:
    __slots__ = ()

    def set_attr(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_INSTRUMENT = _NoopInstrument()
NOOP_SPAN = _NoopSpan()


# -- global state -----------------------------------------------------------------

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()
_events = EventLog()


def enabled() -> bool:
    """Whether the facade records anything (the hot-path guard)."""
    return _enabled


def enable(
    registry_: Optional[MetricsRegistry] = None,
    tracer_: Optional[Tracer] = None,
    events_: Optional[EventLog] = None,
) -> None:
    """Turn the facade on, optionally swapping in fresh sinks."""
    global _enabled, _registry, _tracer, _events
    if registry_ is not None:
        _registry = registry_
    if tracer_ is not None:
        _tracer = tracer_
    if events_ is not None:
        _events = events_
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def registry() -> MetricsRegistry:
    return _registry


def tracer() -> Tracer:
    return _tracer


def events() -> EventLog:
    return _events


# -- the facade instrumented code calls --------------------------------------------

def counter(name: str, **labels: object):
    if not _enabled:
        return NOOP_INSTRUMENT
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: object):
    if not _enabled:
        return NOOP_INSTRUMENT
    return _registry.gauge(name, **labels)


def histogram(name: str, **labels: object):
    if not _enabled:
        return NOOP_INSTRUMENT
    return _registry.histogram(name, **labels)


def span(name: str, **attributes: object):
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **attributes)


def current_span():
    """The innermost open span (a no-op span while disabled / outside spans)."""
    if not _enabled:
        return NOOP_SPAN
    active = _tracer.current_span()
    return active if active is not None else NOOP_SPAN


def emit(name: str, **fields: object) -> Optional[TelemetryEvent]:
    if not _enabled:
        return None
    return _events.emit(name, **fields)


def snapshot() -> Dict[str, Dict[str, object]]:
    """The active registry's snapshot (works whether or not enabled)."""
    return _registry.snapshot()


def reset() -> None:
    """Clear the active registry, the event log, and nothing else."""
    _registry.reset()
    _events.clear()


# -- test harness -----------------------------------------------------------------

class Capture:
    """Handle yielded by :func:`capture`."""

    def __init__(self, registry_: MetricsRegistry, tracer_: Tracer,
                 events_: EventLog, spans_: InMemoryExporter) -> None:
        self.registry = registry_
        self.tracer = tracer_
        self.events = events_
        self.spans = spans_

    def counters(self) -> Dict[str, float]:
        return dict(self.registry.snapshot()["counters"])


@contextmanager
def capture(jsonl: Optional[object] = None) -> Iterator[Capture]:
    """Enable telemetry into fresh sinks for the duration of a block.

    An :class:`InMemoryExporter` is always attached; pass ``jsonl=<path>``
    to additionally stream spans to a JSONL trace file (closed on exit).
    Prior global state — including "disabled" — is restored afterwards.
    """
    global _enabled, _registry, _tracer, _events
    saved = (_enabled, _registry, _tracer, _events)
    reg, tr, ev = MetricsRegistry(), Tracer(), EventLog()
    memory = InMemoryExporter()
    tr.add_exporter(memory)
    jsonl_exporter = None
    if jsonl is not None:
        jsonl_exporter = JsonlExporter(jsonl)
        tr.add_exporter(jsonl_exporter)
    enable(registry_=reg, tracer_=tr, events_=ev)
    try:
        yield Capture(reg, tr, ev, memory)
    finally:
        if jsonl_exporter is not None:
            jsonl_exporter.close()
        _enabled, _registry, _tracer, _events = saved
