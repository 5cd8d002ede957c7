"""Tests for the monitoring dashboard."""

import numpy as np
import pytest

from repro.service.dashboard import MonitoringDashboard
from repro.sparksim.events import QueryEndEvent


def make_event(sig, i, duration, size=1e6, partitions=200.0):
    return QueryEndEvent(
        app_id="app", artifact_id="art", query_signature=sig, user_id="u",
        iteration=i, config={"spark.sql.shuffle.partitions": partitions},
        data_size=size, duration_seconds=duration,
    )


@pytest.fixture
def dashboard():
    dash = MonitoringDashboard(window=2)
    # sig-fast improves 10 -> 5; sig-flat stays at 8.
    for i in range(10):
        dash.ingest(make_event("sig-fast", i, 10.0 - 0.5 * i, partitions=200.0 - 10 * i))
        dash.ingest(make_event("sig-flat", i, 8.0))
    return dash


class TestIngestion:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            MonitoringDashboard(window=0)

    def test_signatures_listed(self, dashboard):
        assert dashboard.signatures == ["sig-fast", "sig-flat"]

    def test_events_for(self, dashboard):
        assert len(dashboard.events_for("sig-fast")) == 10
        assert dashboard.events_for("nope") == []


class TestViews:
    def test_config_history_series(self, dashboard):
        history = dashboard.config_history("sig-fast")
        series = history["spark.sql.shuffle.partitions"]
        assert len(series) == 10
        assert series[0] > series[-1]

    def test_config_history_unknown_signature(self, dashboard):
        with pytest.raises(KeyError):
            dashboard.config_history("nope")

    def test_performance_trend_sign(self, dashboard):
        assert dashboard.performance_trend("sig-fast") < 0
        assert abs(dashboard.performance_trend("sig-flat")) < 1e-6

    def test_speedup_pct(self, dashboard):
        assert dashboard.speedup_pct("sig-fast") > 50.0
        assert dashboard.speedup_pct("sig-flat") == pytest.approx(0.0)

    def test_speedup_needs_two_windows(self):
        dash = MonitoringDashboard(window=5)
        for i in range(6):
            dash.ingest(make_event("s", i, 1.0))
        assert dash.speedup_pct("s") == 0.0

    def test_summary_fields(self, dashboard):
        s = dashboard.summary("sig-fast")
        assert s.iterations == 10
        assert s.first_window_mean > s.last_window_mean
        assert s.user_id == "u"

    def test_all_summaries(self, dashboard):
        assert len(dashboard.all_summaries()) == 2

    def test_fleet_speedup_weighted_by_time(self, dashboard):
        fleet = dashboard.fleet_speedup_pct()
        fast = dashboard.speedup_pct("sig-fast")
        assert 0 < fleet < fast  # the flat query dilutes the fleet number

    def test_render_report_lists_signatures(self, dashboard):
        text = dashboard.render_report()
        assert "sig-fast" in text
        assert "fleet speed-up" in text
        assert "speedup%" in text

    def test_render_report_respects_max_rows(self, dashboard):
        text = dashboard.render_report(max_rows=1)
        assert ("sig-fast" in text) != ("sig-flat" in text)


class TestServiceMetricsRender:
    @pytest.fixture
    def payload(self):
        return {
            "service": {
                "n_shards": 2,
                "submitted": 40,
                "shed": 4,
                "shed_rate": 0.1,
                "outages": 1,
                "utilization_skew": 1.25,
                "coalesce": True,
                "shards": {
                    "shard-0": {
                        "sessions": 3, "queue_depth": 0,
                        "queue_high_watermark": 5, "enqueued": 20, "shed": 4,
                        "shed_by_reason": {"queue_full": 4}, "processed": 24,
                        "runs": 6, "drain_seconds": 0.01,
                        "batched_sessions": 2, "fallback_sessions": 1,
                    },
                    "shard-1": {
                        "sessions": 2, "queue_depth": 1,
                        "queue_high_watermark": 3, "enqueued": 12, "shed": 0,
                        "shed_by_reason": {}, "processed": 12,
                        "runs": 4, "drain_seconds": 0.005,
                        "batched_sessions": 2, "fallback_sessions": 0,
                    },
                },
            }
        }

    def test_render_lists_every_shard_and_aggregates(self, payload):
        from repro.service.dashboard import render_service_metrics

        text = render_service_metrics(payload)
        assert "2 shard(s)" in text and "coalesce=on" in text
        assert "shard-0" in text and "shard-1" in text
        assert "rate 10.0%" in text
        assert "skew=1.25x" in text
        lines = {l.split()[0]: l for l in text.splitlines() if l.startswith("shard-")}
        # Bar scaled to the busiest shard: full bar for shard-0, half for shard-1.
        assert lines["shard-0"].count("#") == 12
        assert lines["shard-1"].count("#") == 6
        # sessions, batched, fallback columns.
        assert lines["shard-0"].split()[1:4] == ["3", "2", "1"]
        assert lines["shard-1"].split()[1:4] == ["2", "2", "0"]

    def test_render_handles_empty_service(self):
        from repro.service.dashboard import render_service_metrics

        text = render_service_metrics({"service": {"shards": {}}})
        assert "0 shard(s)" in text
        assert "submitted=0" in text
