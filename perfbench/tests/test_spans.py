"""The span recorder and the self-time aggregator."""

from spans import ROOT, Span, SpanRecorder, covered_ns, self_times


def test_covered_ns_merges_overlaps_and_clips_to_the_parent():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
    assert covered_ns(0, 100, [(10, 30), (20, 40)]) == 30
    assert covered_ns(0, 100, [(20, 40), (10, 30), (15, 25)]) == 30
    assert covered_ns(10, 50, [(0, 20), (40, 60)]) == 20
    assert covered_ns(10, 50, [(60, 70)]) == 0


def test_self_times_are_exact_on_a_nested_tree():
    spans = [
        Span("step", 0, 1000, ROOT, 0),
        Span("suggest", 100, 400, 0, 0),
        Span("select", 150, 350, 1, 0),
        Span("predict", 200, 300, 2, 0),
        Span("run", 500, 900, 0, 0),
        Span("estimate", 550, 850, 4, 0),
        Span("step", 2000, 2500, ROOT, 6),
        Span("run", 2100, 2300, 6, 6),
        Span("estimate", 2100, 2250, 7, 6),
    ]
    stats = self_times(spans)
    assert stats["step"] == {"calls": 2, "total_ns": 1500, "self_ns": 300 + 300}
    assert stats["suggest"] == {"calls": 1, "total_ns": 300, "self_ns": 100}
    assert stats["select"] == {"calls": 1, "total_ns": 200, "self_ns": 100}
    assert stats["predict"] == {"calls": 1, "total_ns": 100, "self_ns": 100}
    assert stats["run"] == {"calls": 2, "total_ns": 600, "self_ns": 100 + 50}
    assert stats["estimate"] == {"calls": 2, "total_ns": 450, "self_ns": 450}
    # Layer self times plus the root remainder add up to the root spans.
    assert sum(row["self_ns"] for row in stats.values()) == 1500


class _Layer:
    def outer(self, inner):
        return inner.inner(3) + 1

    def inner(self, x):
        return x * 2


def test_recorder_links_parents_units_and_restores_methods():
    recorder = SpanRecorder()
    a, b = _Layer(), _Layer()
    recorder.wrap(a, "outer", "layer.outer")
    recorder.wrap(b, "inner", "layer.inner", rows=lambda x: x)
    seen = []
    recorder.wrap(b, "outer", "layer.b_outer", after=seen.append)
    for _ in range(2):
        with recorder.span("unit"):
            assert a.outer(b) == 7
    assert b.outer(a) == 7
    recorder.unwrap_all()
    assert "outer" not in vars(a) and "inner" not in vars(b)

    names = [(s.name, s.parent, s.unit) for s in recorder.spans]
    assert names == [
        ("unit", ROOT, 0), ("layer.outer", 0, 0), ("layer.inner", 1, 0),
        ("unit", ROOT, 3), ("layer.outer", 3, 3), ("layer.inner", 4, 3),
        ("layer.b_outer", ROOT, 6),
    ]
    assert recorder.rows == {"layer.inner": 6}
    assert seen == [7]
    stats = self_times(recorder.spans)
    roots = sum(s.end_ns - s.start_ns for s in recorder.spans if s.parent == ROOT)
    assert sum(row["self_ns"] for row in stats.values()) == roots
