"""Short runs of every workload: tracing must not change what the program does."""

import pytest

from repro import telemetry
from spans import ROOT, SpanRecorder, self_times
from workloads import WORKLOADS, make_workload

SMALL_SIZES = {
    "session_scalar": {"queries": 3, "iterations": 8, "flight_queries": 3, "flight_configs": 4},
    "fleet_lockstep": {"sessions": 8, "steps": 35, "check_sessions": 2},
    "service_fleet": {"workloads": 6, "rounds": 4, "shards": 2},
    "service_fleet_guarded": {"workloads": 6, "rounds": 4, "shards": 2},
}


def _workload(name):
    workload = make_workload(name, seed=3, sizes=SMALL_SIZES[name])
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_leaves_the_untraced_trail(name):
    plain = _workload(name).run_episode(first=True)
    workload = _workload(name)
    recorder = SpanRecorder()
    with telemetry.capture():
        traced = workload.run_episode(recorder, first=True)

    assert traced.fingerprint == plain.fingerprint
    assert traced.speedup == plain.speedup
    assert plain.checks and all(plain.checks.values()) and all(traced.checks.values())
    assert plain.failed == traced.failed == 0

    stats = self_times(recorder.spans)
    roots = [s for s in recorder.spans if s.parent == ROOT]
    assert sum(r["self_ns"] for r in stats.values()) == sum(s.end_ns - s.start_ns for s in roots)

    # The wrappers are gone afterwards: the next episode records nothing.
    n_spans = len(recorder.spans)
    assert workload.run_episode().fingerprint == plain.fingerprint
    assert len(recorder.spans) == n_spans


def test_service_fallback_and_batched_paths_leave_one_trail():
    """Guardrails only record before their 30th observation, so the guarded
    fleet (scalar fallback) and the plain fleet (batched drain) must agree."""
    plain = _workload("service_fleet").run_episode(first=True)
    guarded = _workload("service_fleet_guarded").run_episode(first=True)
    assert plain.fingerprint == guarded.fingerprint
    assert plain.layer["batched_share"] == 1.0
    assert guarded.layer["batched_share"] == 0.0
