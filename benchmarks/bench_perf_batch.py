"""Perf: vectorized batch evaluation vs the scalar cost-model loop.

Times a 512-configuration sweep through ``CostModel.estimate_batch``
against the per-config scalar kernel (``estimate``), on a
shuffle-heavy TPC-DS plan.  The batch path precompiles the plan into flat
operator arrays once (:mod:`repro.sparksim.batch`) and replays the scalar
arithmetic column-wise, so the guard below checks both sides of the
contract: the kernel must be >= 10x faster at N=512 *and* numerically
identical (the sweep would be worthless if vectorization changed the
science).
"""

import os
import time

import numpy as np

from repro.sparksim.batch import clear_plan_arrays_cache, plan_arrays_cache_stats
from repro.sparksim.configs import query_level_space
from repro.sparksim.cost_model import CostModel
from repro.workloads.tpcds import tpcds_plan

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
N_CONFIGS = 512
BATCH_REPEATS = 21 if FULL_MODE else 9
SCALAR_REPEATS = 5 if FULL_MODE else 3
# The ISSUE-level floor; regressions below this fail the bench run.
MIN_SPEEDUP = 10.0


def _median_seconds(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def test_batch_kernel_speedup(perf_results):
    space = query_level_space()
    plan = tpcds_plan(23, 100.0)
    model = CostModel()
    rng = np.random.default_rng(0)
    vectors = space.latin_hypercube(N_CONFIGS, rng)
    configs = [space.to_dict(v) for v in vectors]

    clear_plan_arrays_cache()

    def scalar_sweep():
        return np.array([
            model.estimate(plan, config).total_seconds
            for config in configs
        ])

    def batch_sweep():
        return model.estimate_batch(plan, vectors, space=space)

    # Warm both paths (plan-array compilation, layout LRU) before timing.
    scalar_times = scalar_sweep()
    batch_times = batch_sweep()
    scalar_seconds = _median_seconds(scalar_sweep, SCALAR_REPEATS)
    batch_seconds = _median_seconds(batch_sweep, BATCH_REPEATS)
    speedup = scalar_seconds / batch_seconds

    max_rel_err = float(
        np.max(np.abs(batch_times - scalar_times) / np.abs(scalar_times))
    )
    cache = plan_arrays_cache_stats()

    perf_results["batch_kernel"] = {
        "plan": plan.name,
        "n_configs": N_CONFIGS,
        "n_operators": float(len(plan)),
        "scalar_median_seconds": scalar_seconds,
        "batch_median_seconds": batch_seconds,
        "per_config_microseconds": batch_seconds / N_CONFIGS * 1e6,
        "speedup": speedup,
        "max_relative_error": max_rel_err,
        "plan_cache_hits": cache["hits"],
        "plan_cache_misses": cache["misses"],
        "min_speedup_guard": MIN_SPEEDUP,
    }

    # Equivalence first: the kernel replays the scalar arithmetic
    # operation-for-operation, so the tolerance is far below 1e-9.
    assert max_rel_err <= 1e-9, f"batch/scalar diverged: {max_rel_err:.3e}"
    assert speedup >= MIN_SPEEDUP, (
        f"batch kernel regression: only {speedup:.1f}x at N={N_CONFIGS} "
        f"(guard {MIN_SPEEDUP:.0f}x)"
    )
