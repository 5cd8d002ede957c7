"""Structured event log: discrete, append-only facts about a run.

Where metrics aggregate and spans time, events *narrate*: "the guardrail
disabled tuning at iteration 41", "the guardrail re-enabled tuning after
its cooldown".  Each event is a name plus free-form fields, stamped with a
monotone sequence number (no wall clock — chaos replays must produce
bit-identical logs).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

__all__ = ["TelemetryEvent", "EventLog"]


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured log entry."""

    name: str
    sequence: int
    fields: Dict[str, object] = field(default_factory=dict)


class EventLog:
    """Bounded, thread-safe event buffer (oldest entries drop first)."""

    def __init__(self, max_events: int = 10_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._events: Deque[TelemetryEvent] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._next_sequence = 0

    def emit(self, name: str, **fields: object) -> TelemetryEvent:
        with self._lock:
            event = TelemetryEvent(name=name, sequence=self._next_sequence,
                                   fields=fields)
            self._next_sequence += 1
            self._events.append(event)
        return event

    @property
    def records(self) -> List[TelemetryEvent]:
        with self._lock:
            return list(self._events)

    def by_name(self, name: str) -> List[TelemetryEvent]:
        with self._lock:
            return [e for e in self._events if e.name == name]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._next_sequence = 0
