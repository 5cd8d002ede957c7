"""End-to-end benchmark: tuning steps, the lock-step fleet and the sharded service.

Run from the repository root::

    python3 perfbench/run.py --workload session_scalar --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``session_scalar``, ``fleet_lockstep``,
``service_fleet``, ``service_fleet_guarded``.  The run sets the workload up
several times (``setup_s`` is the median), then repeats seeded episodes until
``--seconds`` have passed.  All load comes from this one process: serial
shard drains, no process pool, program telemetry off.

``--trace 0`` prints the end-to-end metrics, measured untraced.  Episodes
at one seed repeat identical work, so every timing below is the best of its
repeats (per step position, per round, per episode): a shared machine only
ever adds time.  The service fleets' notebook population is fixed; the
seed drives noise and optimizer streams on every workload.

* ``setup_s`` — building the population (plus flighting and baseline
  training on ``session_scalar``), median of several set-ups;
* ``op_mean_ms`` / ``op_p90_ms`` — latency of one operation: a
  ``TuningSession.step`` (session_scalar), a ``LockstepSessions.step``
  (fleet_lockstep), a request from submit to completion with its queue
  wait (service_*).  The mean, not the median: a service shard completes
  its whole backlog at once, so request latencies form a few steps whose
  median jumps between them from seed to seed.  The tail is p90: the
  slowest 1% of session steps flips between two levels from run to run;
* ``ops_per_s`` — session steps per second of step time (session_scalar;
  K x steps on fleet_lockstep), completed requests per second of
  ``drain_all`` time (service_*);
* ``round_ms`` — one pass in which every client advances one step: 22
  round-robin steps, one fleet step, one suggest → client run → observe
  round;
* ``tuned_speedup`` — mean over all session steps of the default config's
  true time over the step's true time.  Deterministic per seed; the
  output-quality check.

Failed operations (steps that raised; requests shed or lost) are the
``failed`` count against ``attempted``.

``--trace 1`` spends the first half of the time untraced and the second
half with every layer call wrapped (``spans.py``) and the program's own
telemetry captured, and prints the per-layer metrics.  Times ending in
``_us`` are self time per unit of work (a session step, a fleet step, a
service round), except ``service.submit_us`` (per request); counts are per
unit of work too.  On every workload the layer self times plus
``trace.other_us`` add up to ``trace.unit_us``; layers a workload does not
load read 0.

Every run first checks the program's outputs (see each workload's
``checks``); a failed check fails the run and no number is reported.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Before it come the checks, the
metrics by name and unit, and a provenance record (git sha, seed, nproc,
Python and NumPy versions, workload sizes), also written with the spans
under ``perfbench/out/``.  ``--workload all`` runs every workload in turn
(metrics in the last line are then prefixed with the workload name).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import telemetry  # noqa: E402
from spans import ROOT, SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

# Never used while the benchmark or a change is tuned; a claimed gain is
# re-checked on it.
HELD_OUT_SEED = 90210

OUT_DIR = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "op_mean_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "round_ms": "ms",
    "tuned_speedup": "ratio",
}

PER_LAYER = {
    "sparksim.estimate_us": "us",
    "sparksim.estimate_calls": "count",
    "sparksim.run_us": "us",
    "sparksim.estimate_batch_us": "us",
    "sparksim.estimate_batch_rows": "count",
    "sparksim.batch_estimates": "count",
    "embedding.embed_us": "us",
    "core.suggest_us": "us",
    "core.select_us": "us",
    "core.observe_us": "us",
    "core.guardrail_us": "us",
    "core.centroid_updates": "count",
    "core.guardrail_verdicts": "count",
    "core.tuning_active_share": "ratio",
    "ml.baseline_predict_us": "us",
    "offline.flight_s": "s",
    "offline.train_s": "s",
    "lockstep.step_ms": "ms",
    "lockstep.estimate_share": "ratio",
    "service.submit_us": "us",
    "service.queue_wait_ms": "ms",
    "service.drain_ms": "ms",
    "service.requests_per_run": "count",
    "service.batched_share": "ratio",
    "service.utilization_skew": "ratio",
    "trace.unit_us": "us",
    "trace.other_us": "us",
    "trace.overhead_pct": "%",
}


def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seconds: float, trace: bool):
    """Set up, then run episodes; with ``trace`` the second half is traced."""
    setup_s = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    start = time.perf_counter()
    plain, traced = [], []
    recorder, counters = None, {}
    split = start + (seconds / 2 if trace else seconds)
    while not plain or time.perf_counter() < split:
        gc.collect()
        plain.append(workload.run_episode(first=not plain))
    if trace:
        recorder = SpanRecorder()
        with telemetry.capture() as cap:
            while not traced or time.perf_counter() < start + seconds:
                gc.collect()
                traced.append(workload.run_episode(recorder))
            counters = cap.counters()
    return setup_s, plain, traced, recorder, counters


def end_to_end(setup_s, episodes):
    """Every episode repeats the same work, so each timing is the best of
    its repeats: a shared machine only ever adds time."""
    ops = np.min([e.op_s for e in episodes], axis=0)
    rounds = np.min([e.round_s for e in episodes], axis=0)
    busy = np.min([e.busy_s for e in episodes], axis=0)
    return {
        "setup_s": statistics.median(setup_s),
        "op_mean_ms": float(ops.mean()) * 1e3,
        "op_p90_ms": float(np.percentile(ops, 90)) * 1e3,
        "ops_per_s": episodes[0].work / busy.sum(),
        "round_ms": float(np.median(rounds)) * 1e3,
        "tuned_speedup": episodes[0].speedup,
    }


def per_layer(workload, plain, traced, recorder, counters):
    """Per-layer metrics from the traced episodes' spans and counters, and
    whether layer self times add up to the root spans exactly."""
    spans = recorder.spans
    stats = self_times(spans)
    units = sum(len(e.unit_s) for e in traced)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def self_us(name):
        return stat(name, "self_ns") / units / 1e3

    def counter(prefix):
        return sum(v for k, v in counters.items() if k.split("{")[0] == prefix) / units

    def layer(key):
        return statistics.median(e.layer.get(key, 0.0) for e in plain + traced)

    roots = [s for s in spans if s.parent == ROOT]
    root_ns = sum(s.end_ns - s.start_ns for s in roots)
    plain_unit = np.min([e.unit_s for e in plain], axis=0).sum()
    traced_unit = np.min([e.unit_s for e in traced], axis=0).sum()
    step_calls = stat("lockstep.step", "calls")
    submit_calls = stat("service.submit", "calls")
    batch_calls = stat("sparksim.estimate_batch", "calls")
    metrics = {
        "sparksim.estimate_us": self_us("sparksim.estimate"),
        "sparksim.estimate_calls": stat("sparksim.estimate", "calls") / units,
        "sparksim.run_us": self_us("sparksim.run"),
        "sparksim.estimate_batch_us": self_us("sparksim.estimate_batch"),
        "sparksim.estimate_batch_rows": (
            recorder.rows.get("sparksim.estimate_batch", 0) / batch_calls if batch_calls else 0.0
        ),
        "sparksim.batch_estimates": counter("sparksim.batch_estimates"),
        "embedding.embed_us": self_us("embedding.embed"),
        "core.suggest_us": self_us("core.suggest"),
        "core.select_us": self_us("core.select"),
        "core.observe_us": self_us("core.observe"),
        "core.guardrail_us": self_us("core.guardrail"),
        "core.centroid_updates": counter("centroid.updates"),
        "core.guardrail_verdicts": counter("guardrail.verdicts"),
        "core.tuning_active_share": statistics.median(e.active_share for e in plain + traced),
        "ml.baseline_predict_us": self_us("ml.baseline_predict"),
        "offline.flight_s": statistics.median(workload.offline_s["flight"] or [0.0]),
        "offline.train_s": statistics.median(workload.offline_s["train"] or [0.0]),
        "lockstep.step_ms": (
            stat("lockstep.step", "total_ns") / step_calls / 1e6 if step_calls else 0.0
        ),
        "lockstep.estimate_share": (
            stat("sparksim.estimate_batch", "total_ns") / stat("lockstep.step", "total_ns")
            if step_calls else 0.0
        ),
        "service.submit_us": (
            stat("service.submit", "self_ns") / submit_calls / 1e3 if submit_calls else 0.0
        ),
        "service.queue_wait_ms": statistics.mean(
            e.layer.get("queue_wait_ms", 0.0) for e in traced
        ),
        "service.drain_ms": stat("service.drain", "total_ns") / units / 1e6,
        "service.requests_per_run": layer("requests_per_run"),
        "service.batched_share": layer("batched_share"),
        "service.utilization_skew": layer("utilization_skew"),
        "trace.unit_us": root_ns / units / 1e3,
        "trace.other_us": sum(stats[n]["self_ns"] for n in {s.name for s in roots}) / units / 1e3,
        "trace.overhead_pct": (traced_unit / plain_unit - 1.0) * 100.0,
    }
    adds_up = sum(row["self_ns"] for row in stats.values()) == root_ns
    return metrics, adds_up


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its checks, then, if they all pass,
    its metrics; returns the result record."""
    workload = make_workload(name, seed)
    setup_s, plain, traced, recorder, counters = measure(workload, seconds, trace)
    episodes = plain + traced
    checks = dict(plain[0].checks)
    for e in episodes[1:]:
        checks.update({k: checks.get(k, True) and v for k, v in e.checks.items()})
    checks["episodes_share_one_trail"] = len({e.fingerprint for e in episodes}) == 1
    if trace:
        values, checks["layer_times_add_up"] = per_layer(
            workload, plain, traced, recorder, counters
        )
        units = PER_LAYER
    else:
        values = end_to_end(setup_s, plain)
        units = END_TO_END
    correct = all(checks.values())
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    metrics = {n: {"value": float(values[n]), "unit": unit} for n, unit in units.items()}

    print(f"{name} seed={seed} trace={int(trace)}: "
          f"{len(plain)}+{len(traced)} episodes, trail {plain[0].fingerprint}")
    for check, ok in checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    if correct:
        for metric, m in metrics.items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'ops_failed_share':28s} {failed / attempted:14.6g} ratio "
              f"({failed} of {attempted})")
    provenance = {
        "git_sha": git_sha(),
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes,
        "unit_of_work": workload.unit,
        "episodes": {"untraced": len(plain), "traced": len(traced)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fingerprint": plain[0].fingerprint,
        "checks": checks,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics if correct else {},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=2, sort_keys=True)
    )
    if recorder is not None:
        recorder.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{metric}": m for n, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
