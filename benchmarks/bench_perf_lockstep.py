"""Perf: the lock-step session engine vs K sequential tuning sessions.

Times a K=256 fleet of guardrailed Centroid Learning sessions on a
shuffle-heavy TPC-DS plan with drifting input sizes — the fig-15-shaped
population the differential oracle
(:func:`repro.verify.diff.diff_lockstep_sequential`) certifies — against
the same fleet driven as 256 independent ``TuningSession`` loops.  The
sequential side pays per-step ``plan.scaled()`` rebuilds under drift and a
per-session guardrail OLS fit; the engine batches both, plus one cost-model
kernel call per step for the whole fleet.

The guard checks both sides of the contract: >= 31.6x at K=256 *and*
record-for-record bit-identity (a fast fleet that drifted off the
sequential trajectory would be worthless).
"""

import gc
import os
import time

import numpy as np

from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.experiments.lockstep import (
    LockstepSessions,
    SessionSpec,
    run_sequential,
)
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel
from repro.workloads.tpcds import tpcds_plan

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
N_SESSIONS = 256
N_ITERATIONS = 20
LOCKSTEP_REPEATS = 15 if FULL_MODE else 9
SEQUENTIAL_REPEATS = 3 if FULL_MODE else 2
# Regressions below this floor fail the bench run.  It was 50x while a
# sequential fleet run took ~9.56 s; the scalar tuning step then got faster
# (6.05 s, same lock-step time), so the floor moved to 50 x 6.05 / 9.56 and
# still caps the lock-step side's absolute time where 50x did.
MIN_SPEEDUP = 31.6


def _best_seconds(fn, repeats, setup=lambda: None):
    # Best-of-N, the `timeit` convention: scheduler noise on a shared box
    # only ever *adds* time, so the minimum is the stable estimator of the
    # intrinsic cost (the lock-step side runs in ~0.1s, where a single
    # preemption would swing a median by double-digit percent).  ``setup``
    # builds each repeat's fresh session population outside the timed
    # region — spec construction is identical on both engines and is not
    # what the guard measures.
    samples = []
    for _ in range(repeats):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t0)
    return float(np.min(samples))


def _fleet(plan):
    """K guardrailed, noisy, drifting sessions sharing one physical plan."""
    space = query_level_space()
    return [
        SessionSpec(
            plan=plan,
            simulator=SparkSimulator(
                noise=NoiseModel(fluctuation_level=0.2, spike_level=0.5),
                seed=101 * k + 7,
            ),
            optimizer=CentroidLearning(
                space,
                guardrail=Guardrail(min_iterations=5, threshold=0.15, patience=2),
                seed=13 * k + 1,
            ),
            scale_fn=lambda t: 1.0 + 0.02 * t,
        )
        for k in range(N_SESSIONS)
    ]


def test_lockstep_engine_speedup(perf_results):
    plan = tpcds_plan(23, 100.0)

    def lockstep_fleet(specs):
        return LockstepSessions(specs).run(N_ITERATIONS)

    def sequential_fleet(specs):
        return run_sequential(specs, N_ITERATIONS)

    # Warm both paths (plan-array compilation, allocator/GC state) before
    # timing; first-call cost is real but not what the guard measures.
    lock_traces = lockstep_fleet(_fleet(plan))
    seq_traces = sequential_fleet(_fleet(plan))
    identical = all(
        lock.records == seq.records
        for lock, seq in zip(lock_traces, seq_traces)
    )
    # Drop the warm-up fleets' ~10k live records and freeze what survives:
    # both engines allocate heavily, so leftover warm-up objects would be
    # rescanned by every gen-2 collection *during* the timed runs, skewing
    # whichever side runs second.
    del lock_traces, seq_traces
    gc.collect()
    gc.freeze()
    lockstep_seconds = _best_seconds(
        lockstep_fleet, LOCKSTEP_REPEATS, setup=lambda: _fleet(plan)
    )
    sequential_seconds = _best_seconds(
        sequential_fleet, SEQUENTIAL_REPEATS, setup=lambda: _fleet(plan)
    )
    speedup = sequential_seconds / lockstep_seconds

    perf_results["lockstep"] = {
        "plan": plan.name,
        "n_sessions": N_SESSIONS,
        "n_iterations": N_ITERATIONS,
        "guardrailed": True,
        "drifting_scales": True,
        "sequential_best_seconds": sequential_seconds,
        "lockstep_best_seconds": lockstep_seconds,
        "per_session_step_microseconds": (
            lockstep_seconds / (N_SESSIONS * N_ITERATIONS) * 1e6
        ),
        "speedup": speedup,
        "bit_identical": identical,
        "min_speedup_guard": MIN_SPEEDUP,
    }

    # Equivalence first: speed without bit-identity is a different engine.
    assert identical, "lock-step records diverged from sequential sessions"
    assert speedup >= MIN_SPEEDUP, (
        f"lock-step engine regression: only {speedup:.1f}x at "
        f"K={N_SESSIONS} (guard {MIN_SPEEDUP:.1f}x)"
    )
