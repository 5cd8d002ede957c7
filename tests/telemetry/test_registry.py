"""Metrics-registry semantics: counters, gauges, histograms, labels,
cardinality caps, snapshot/reset, and thread safety."""

import threading

import pytest

from repro.telemetry import MetricsRegistry, render_key

pytestmark = pytest.mark.telemetry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("requests")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self, registry):
        with pytest.raises(ValueError):
            registry.counter("requests").inc(-1)

    def test_same_name_same_instrument(self, registry):
        a = registry.counter("requests")
        b = registry.counter("requests")
        assert a is b

    def test_labels_create_distinct_series(self, registry):
        registry.counter("requests", op="get").inc()
        registry.counter("requests", op="put").inc(2)
        snap = registry.snapshot()["counters"]
        assert snap["requests{op=get}"] == 1.0
        assert snap["requests{op=put}"] == 2.0

    def test_label_order_is_canonical(self, registry):
        a = registry.counter("r", b="2", a="1")
        b = registry.counter("r", a="1", b="2")
        assert a is b
        assert render_key("r", {"b": "2", "a": "1"}) == "r{a=1,b=2}"


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == 13.0

    def test_gauge_allows_negative(self, registry):
        g = registry.gauge("delta")
        g.dec(4.0)
        assert g.value == -4.0


class TestHistogram:
    def test_count_sum_min_max(self, registry):
        h = registry.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.min == 1.0
        assert h.max == 4.0

    def test_quantiles_linear_interpolation(self, registry):
        h = registry.histogram("latency")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0
        assert abs(h.quantile(0.5) - 50.5) < 1e-9
        assert h.quantile(0.9) == pytest.approx(90.1)

    def test_empty_quantile_raises(self, registry):
        h = registry.histogram("latency")
        with pytest.raises(ValueError):
            h.quantile(0.5)
        assert h.summary()["count"] == 0  # empty summary is all zeros, no raise

    def test_summary_fields(self, registry):
        h = registry.histogram("latency")
        h.observe(2.0)
        h.observe(4.0)
        s = h.summary()
        assert s["count"] == 2
        assert s["mean"] == 3.0
        assert {"p50", "p90", "p99", "min", "max", "sum"} <= set(s)

    def test_sample_bound_keeps_exact_count_and_sum(self, registry):
        h = registry.histogram("latency")
        h.max_samples = 16
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == float(sum(range(100)))
        assert len(h.samples) <= 16
        assert h.truncated is True


class TestRegistry:
    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_and_reset(self, registry):
        registry.counter("a").inc()
        registry.gauge("b").set(2.0)
        registry.histogram("c").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 1.0
        assert snap["gauges"]["b"] == 2.0
        assert snap["histograms"]["c"]["count"] == 1
        registry.reset()
        empty = registry.snapshot()
        assert empty == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_label_cardinality_overflow_collapses(self):
        registry = MetricsRegistry(max_label_sets=4)
        for i in range(10):
            registry.counter("hot", key=str(i)).inc()
        snap = registry.snapshot()["counters"]
        # 4 real series plus one overflow bucket absorbing the other 6.
        real = [k for k in snap if "overflow" not in k]
        assert len(real) == 4
        assert snap["hot{overflow=true}"] == 6.0
        assert registry.overflowed_label_sets > 0

    def test_render_text_mentions_all_series(self, registry):
        registry.counter("a").inc()
        registry.gauge("b").set(1.0)
        registry.histogram("c").observe(2.0)
        text = registry.render_text()
        for name in ("a", "b", "c"):
            assert name in text

    def test_thread_safety_hammer(self, registry):
        n_threads, n_iter = 8, 500

        def hammer(tid):
            for i in range(n_iter):
                registry.counter("hits", thread=str(tid % 2)).inc()
                registry.gauge("depth").set(float(i))
                registry.histogram("lat").observe(float(i))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        total = sum(v for k, v in snap["counters"].items() if k.startswith("hits"))
        assert total == n_threads * n_iter
        assert snap["histograms"]["lat"]["count"] == n_threads * n_iter
