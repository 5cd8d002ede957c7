"""A dependency-free, thread-safe metrics registry.

Instruments come in three flavors:

* :class:`Counter` — monotone accumulator (events, retries, verdicts);
* :class:`Gauge` — last-written value (centroid drift, utilization);
* :class:`Histogram` — value distribution with quantile summaries
  (latencies, chunk timings).

Series are keyed by ``(name, labels)``; requesting the same key twice
returns the same instrument.  Per-name label cardinality is bounded:
once ``max_label_sets`` distinct label sets exist for a name, further
label sets collapse into a shared overflow series (labeled
``{"overflow": "true"}``) instead of growing without bound — a runaway
label (e.g. a per-request id) degrades that one metric, never the
process.

:meth:`MetricsRegistry.snapshot` renders everything into plain dicts for
test assertions and dashboards.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "render_key"]

LabelKey = Tuple[Tuple[str, str], ...]

_OVERFLOW_LABELS = (("overflow", "true"),)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_key(name: str, labels) -> str:
    """Canonical text form: ``name{k=v,k2=v2}`` (sorted), or bare ``name``.

    ``labels`` may be a plain dict or an already-canonical label-key tuple.
    """
    if isinstance(labels, dict):
        labels = _label_key(labels)
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotone accumulator.  ``inc`` never accepts negative deltas."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-written value (plus inc/dec for running levels)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Value distribution with exact quantiles over retained samples.

    Count/sum/min/max are always exact.  Raw samples are retained up to
    ``max_samples`` (quantiles are computed over what is retained); after
    that the scalar aggregates keep updating but no further samples are
    stored — a bounded-memory summary, not a silent reset.
    """

    __slots__ = ("_samples", "_count", "_sum", "_min", "_max",
                 "_truncated", "max_samples", "_lock")

    def __init__(self, max_samples: int = 65536) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._truncated = False
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                self._truncated = True

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    @property
    def samples(self) -> List[float]:
        """The retained raw samples (at most ``max_samples`` of them)."""
        with self._lock:
            return list(self._samples)

    @property
    def truncated(self) -> bool:
        """True once observations stopped being retained as raw samples."""
        return self._truncated

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile over retained samples, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            raise ValueError("empty histogram has no quantiles")
        if len(samples) == 1:
            return samples[0]
        pos = q * (len(samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    def summary(self) -> Dict[str, float]:
        """``{count, sum, min, max, mean, p50, p90, p99}`` (zeros when empty)."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / self._count,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Thread-safe labeled-series store for counters, gauges and histograms.

    Args:
        max_label_sets: per-name cap on distinct label sets; excess label
            sets share one overflow series (see module docstring).
        histogram_max_samples: retained-sample bound for each histogram.
    """

    def __init__(self, max_label_sets: int = 256,
                 histogram_max_samples: int = 65536) -> None:
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be >= 1")
        self.max_label_sets = max_label_sets
        self.histogram_max_samples = histogram_max_samples
        self._lock = threading.Lock()
        # name -> (kind, {label_key -> instrument})
        self._series: Dict[str, Tuple[str, Dict[LabelKey, object]]] = {}
        self.overflowed_label_sets = 0

    # -- instrument access --------------------------------------------------------

    def _get(self, kind: str, name: str, labels: Dict[str, object]):
        key = _label_key(labels)
        with self._lock:
            entry = self._series.get(name)
            if entry is None:
                entry = (kind, {})
                self._series[name] = entry
            elif entry[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {entry[0]}, "
                    f"requested as a {kind}"
                )
            series = entry[1]
            instrument = series.get(key)
            if instrument is None:
                if key != _OVERFLOW_LABELS and len(series) >= self.max_label_sets:
                    self.overflowed_label_sets += 1
                    return self._get_locked(kind, series, _OVERFLOW_LABELS)
                instrument = self._make(kind)
                series[key] = instrument
            return instrument

    def _get_locked(self, kind: str, series: Dict[LabelKey, object], key: LabelKey):
        instrument = series.get(key)
        if instrument is None:
            instrument = self._make(kind)
            series[key] = instrument
        return instrument

    def _make(self, kind: str):
        if kind == "counter":
            return Counter()
        if kind == "gauge":
            return Gauge()
        return Histogram(max_samples=self.histogram_max_samples)

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get("histogram", name, labels)

    # -- snapshot / reset ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view: ``{"counters": {key: value}, "gauges": {...},
        "histograms": {key: summary-dict}}`` with canonical render keys."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        with self._lock:
            items = [(name, kind, dict(series))
                     for name, (kind, series) in self._series.items()]
        for name, kind, series in items:
            for key, instrument in series.items():
                rkey = render_key(name, key)
                if kind == "counter":
                    out["counters"][rkey] = instrument.value
                elif kind == "gauge":
                    out["gauges"][rkey] = instrument.value
                else:
                    out["histograms"][rkey] = instrument.summary()
        return out

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self.overflowed_label_sets = 0

    # -- rendering ----------------------------------------------------------------

    def render_text(self, title: Optional[str] = None) -> str:
        """Fixed-width text render (the dashboard's metrics view)."""
        snap = self.snapshot()
        lines: List[str] = []
        if title:
            lines += [title, "=" * len(title)]
        for section in ("counters", "gauges"):
            entries = snap[section]
            if not entries:
                continue
            lines.append(f"[{section}]")
            width = max(len(k) for k in entries)
            for key in sorted(entries):
                lines.append(f"  {key:<{width}}  {entries[key]:g}")
        if snap["histograms"]:
            lines.append("[histograms]")
            width = max(len(k) for k in snap["histograms"])
            for key in sorted(snap["histograms"]):
                s = snap["histograms"][key]
                lines.append(
                    f"  {key:<{width}}  count={s['count']:g} mean={s['mean']:.6g} "
                    f"p50={s['p50']:.6g} p99={s['p99']:.6g} max={s['max']:.6g}"
                )
        return "\n".join(lines) if lines else "(no metrics)"
