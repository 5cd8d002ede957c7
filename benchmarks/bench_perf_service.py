"""Perf: fleet-scale sharded service vs the single-backend scalar baseline.

Two guards back the sharded, queue-driven multi-tenant service
(``repro.service.sharded`` + ``repro.service.fleet``):

* **sharded vs. single** — a ~1000-session customer fleet (420 recurrent
  workloads, mixed priority classes) driven for 10 suggest/observe rounds
  against (a) one shard draining scalar requests one at a time — the
  pre-service deployment — (b) a 4-shard service with batched drains, and
  (c) the same with a ``Guardrail()`` on every session, the production
  configuration.  Service throughput (completed requests per second of
  drain wall-clock, client-side simulator time excluded) of arm (b) must be
  >= 2.3x the single-backend baseline, and arm (c) must serve every session
  on the batched drain.  ``diff_sharded_single`` separately pins that the
  arms are *bit-identical* per tenant; this file only measures.
* **overload** — the same fleet shape against deliberately undersized
  ingress queues so priority admission control sheds under load.  Load
  shedding must actually engage (``shed_rate > 0``), nothing may be lost
  (the driver's shed-retry budget recovers every request), and p99 request
  latency must stay bounded: at most ``P99_OVERLOAD_FACTOR`` x the
  ample-queue baseline p99, because bounded queues mean bounded drains.

Results land in ``BENCH_service.json`` at the repo root (rendered in
docs/service.md).  Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the fleet and
skip the wall-clock guards — bookkeeping invariants (request conservation,
shedding engages, nothing lost, every guarded session batched) are still
asserted; timing ratios on a loaded shared runner are not meaningful.
"""

import os

from repro.core.guardrail import Guardrail
from repro.service.fleet import (
    build_fleet,
    default_optimizer_factory,
    fleet_user_map,
    run_fleet,
)
from repro.service.sharded import ShardedAutotuneService

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

# 420 workloads -> 1049 tenant sessions (each recurrent workload carries a
# handful of distinct query signatures).
N_WORKLOADS = 24 if SMOKE_MODE else 420
N_ITERATIONS = 2 if SMOKE_MODE else 10
N_SHARDS = 4
SEED = 0

# Overload run: same fleet shape, queues sized far below the per-round
# submission burst so admission control must shed.  The queue scales with
# the fleet so the retry budget can always recover every shed request —
# overload must degrade latency, never lose work.
OVERLOAD_WORKLOADS = 16 if SMOKE_MODE else 120
OVERLOAD_ITERATIONS = 2 if SMOKE_MODE else 6
OVERLOAD_QUEUE_CAPACITY = 8 if SMOKE_MODE else 64
OVERLOAD_RETRY_BUDGET = 32

# Floors; regressions below these fail the bench run.  The sharded floor
# was 3x while the single backend's drain took ~4.96 s; the scalar tuning
# step then got faster (~3.89 s, sharded drain no slower), so the floor
# moved to 3 x 3.89 / 4.96 and still caps the sharded drain's absolute time
# where 3x did.
MIN_SHARDED_SPEEDUP = 2.3
P99_OVERLOAD_FACTOR = 25.0


def _service(fleet, n_shards, *, coalesce=True, guarded=False, queue_capacity=None):
    return ShardedAutotuneService(
        n_shards,
        default_optimizer_factory(
            fleet, base_seed=SEED, guardrail_factory=Guardrail if guarded else None,
        ),
        user_id_fn=fleet_user_map(fleet),
        coalesce=coalesce,
        queue_capacity=queue_capacity or max(4096, 4 * len(fleet)),
    )


def _run_arm(n_shards, *, coalesce, guarded=False, queue_capacity=None,
             n_workloads=N_WORKLOADS, n_iterations=N_ITERATIONS,
             max_shed_retries=8):
    # Each arm gets a freshly built fleet: FleetSession simulators are
    # stateful RNG streams, so sharing one fleet across arms would leak
    # state between measurements.
    fleet = build_fleet(n_workloads, seed=SEED)
    service = _service(
        fleet, n_shards, coalesce=coalesce, guarded=guarded,
        queue_capacity=queue_capacity,
    )
    report = run_fleet(
        service, fleet, n_iterations, max_shed_retries=max_shed_retries,
    )
    return service, report


def test_sharded_throughput_vs_single_backend(service_results):
    single_service, single = _run_arm(1, coalesce=False)
    serial_service, serial = _run_arm(N_SHARDS, coalesce=True)
    guarded_service, guarded = _run_arm(N_SHARDS, coalesce=True, guarded=True)

    speedup_serial = serial.service_throughput_rps / single.service_throughput_rps
    speedup_guarded = guarded.service_throughput_rps / single.service_throughput_rps
    guarded_shards = guarded_service.metrics()["service"]["shards"].values()

    service_results["fleet"] = {
        "n_workloads": N_WORKLOADS,
        "n_sessions": serial.n_sessions,
        "n_iterations": N_ITERATIONS,
        "n_shards": N_SHARDS,
        "single_backend": single.to_dict(),
        "sharded_serial": serial.to_dict(),
        "sharded_guarded": guarded.to_dict(),
        "speedup_serial": speedup_serial,
        "speedup_guarded": speedup_guarded,
        "guarded_batched_sessions": sum(s["batched_sessions"] for s in guarded_shards),
        "min_speedup_guard": MIN_SHARDED_SPEEDUP,
        "smoke_mode": SMOKE_MODE,
    }

    # Bookkeeping invariants hold in every mode: same work completed on
    # every arm, nothing shed or lost with ample queues, and the guarded
    # fleet served entirely by the batched drain.
    expected = serial.n_sessions * N_ITERATIONS * 2
    for report in (single, serial, guarded):
        assert report.n_requests == expected
        assert report.lost_requests == 0
        assert report.shed_events == 0
    for service in (serial_service, guarded_service):
        skew = service.metrics()["service"]["utilization_skew"]
        assert skew < 2.5, f"shard utilization skew {skew:.2f} out of bounds"
    for shard in guarded_shards:
        assert shard["fallback_sessions"] == 0
        assert shard["batched_sessions"] == shard["sessions"]

    if not SMOKE_MODE:
        assert speedup_serial >= MIN_SHARDED_SPEEDUP, (
            f"sharded({N_SHARDS}) throughput only {speedup_serial:.2f}x the "
            f"single-backend baseline (floor {MIN_SHARDED_SPEEDUP}x)"
        )


def test_overload_sheds_without_loss_and_bounded_p99(service_results):
    _, baseline = _run_arm(
        N_SHARDS, coalesce=True,
        n_workloads=OVERLOAD_WORKLOADS, n_iterations=OVERLOAD_ITERATIONS,
    )
    overload_service, overload = _run_arm(
        N_SHARDS, coalesce=True,
        queue_capacity=OVERLOAD_QUEUE_CAPACITY,
        n_workloads=OVERLOAD_WORKLOADS, n_iterations=OVERLOAD_ITERATIONS,
        max_shed_retries=OVERLOAD_RETRY_BUDGET,
    )

    p99_ratio = (
        overload.latency_p99_ms / baseline.latency_p99_ms
        if baseline.latency_p99_ms > 0 else float("inf")
    )
    service_results["overload"] = {
        "n_workloads": OVERLOAD_WORKLOADS,
        "n_sessions": overload.n_sessions,
        "n_iterations": OVERLOAD_ITERATIONS,
        "queue_capacity": OVERLOAD_QUEUE_CAPACITY,
        "baseline": baseline.to_dict(),
        "overload": overload.to_dict(),
        "p99_ratio_vs_baseline": p99_ratio,
        "p99_factor_guard": P99_OVERLOAD_FACTOR,
        "shed_by_reason": {
            shard_id: dict(payload["shed_by_reason"])
            for shard_id, payload in
            overload_service.metrics()["service"]["shards"].items()
        },
        "smoke_mode": SMOKE_MODE,
    }

    # Load shedding must actually engage, and the retry loop must recover
    # every shed request — overload degrades latency, never correctness.
    assert overload.shed_events > 0
    assert overload.shed_rate > 0
    assert overload.lost_requests == 0
    assert overload.n_requests == overload.n_sessions * OVERLOAD_ITERATIONS * 2

    if not SMOKE_MODE:
        assert p99_ratio <= P99_OVERLOAD_FACTOR, (
            f"overload p99 is {p99_ratio:.1f}x the ample-queue baseline "
            f"(bound {P99_OVERLOAD_FACTOR}x) — shedding is not bounding queues"
        )
