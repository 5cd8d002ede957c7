"""Figure 15: per-notebook speed-ups for internal customer workloads.

"We also evaluate production performance using workloads from an internal
customer, achieving an average performance improvement of 17% across more
than 60 tested Fabric notebooks, with execution time improvements reaching
up to 100%."  Each simulated notebook is a recurring multi-query workload
with drifting input sizes; speed-up compares the first and last tuning
windows on *data-size-normalized true* times (the paper filters out
data-size effects the same way).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.centroid import CentroidLearning
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..workloads.customer import CustomerWorkload, generate_population
from .lockstep import LockstepSessions, SessionSpec
from .runner import ExperimentResult

__all__ = ["run", "tune_workload", "workload_specs"]


def workload_specs(
    workload: CustomerWorkload,
    seed: int,
    guardrail_factory=None,
) -> List[SessionSpec]:
    """One lock-step :class:`SessionSpec` per query of a recurring notebook.

    Seeds derive per query exactly like the historical per-query loop
    (simulator ``seed*101+q``, optimizer ``seed*13+q``); the pathology
    multiplier draws from a per-query RNG (``seed*10007+q``, the
    replicated runner's derivation pattern) so queries are independent
    streams under any engine.
    """
    space = query_level_space()
    specs: List[SessionSpec] = []
    for q_index, plan in enumerate(workload.plans):
        simulator = SparkSimulator(noise=workload.noise, seed=seed * 101 + q_index)
        guardrail = guardrail_factory() if guardrail_factory else None
        optimizer = CentroidLearning(
            space, guardrail=guardrail, seed=seed * 13 + q_index
        )
        transform = None
        if workload.pathology is not None:
            path_rng = np.random.default_rng(seed * 10007 + q_index)
            transform = (
                lambda t, observed, _rng=path_rng: observed
                * workload.pathology_multiplier(t, _rng)
            )
        specs.append(SessionSpec(
            plan=plan,
            simulator=simulator,
            optimizer=optimizer,
            scale_fn=workload.data_scale,
            observe_transform=transform,
        ))
    return specs


def tune_workload(
    workload: CustomerWorkload,
    n_iterations: int,
    seed: int,
    guardrail_factory=None,
) -> dict:
    """Tune every query of one recurring notebook; returns summary stats.

    The notebook's queries run as one lock-step population, bit-identical
    to a per-query :class:`~repro.core.session.TuningSession` loop by the
    engine's contract (the differential oracle in :mod:`repro.verify.diff`
    pins this).

    Returns a dict with ``speedup_pct`` (first vs last window, normalized by
    data scale), ``disabled`` (guardrail fired on any query), and
    ``n_queries``.
    """
    specs = workload_specs(workload, seed, guardrail_factory)
    traces = LockstepSessions(specs).run(n_iterations)

    scales = np.array([workload.data_scale(t) for t in range(n_iterations)])
    if workload.pathology == "drift":
        # The drift multiplier is deterministic in t (consumes no RNG);
        # fold it into the normalized view like the posterior analysis.
        drift_rng = np.random.default_rng(0)
        scales = scales / np.array([
            workload.pathology_multiplier(t, drift_rng)
            for t in range(n_iterations)
        ])
    first_total, last_total = 0.0, 0.0
    disabled = False
    w = max(2, n_iterations // 6)
    for spec, trace in zip(specs, traces):
        # Normalize by scale so workload growth doesn't masquerade as a
        # regression (the paper's posterior analysis does the same).
        normed_true = trace.true / scales
        first_total += float(np.mean(normed_true[:w]))
        last_total += float(np.mean(normed_true[-w:]))
        guardrail = spec.optimizer.guardrail
        if guardrail is not None and not guardrail.active:
            disabled = True
    speedup_pct = (first_total / last_total - 1.0) * 100.0 if last_total > 0 else 0.0
    return {
        "speedup_pct": speedup_pct,
        "disabled": disabled,
        "n_queries": len(workload.plans),
    }


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    n_workloads = 12 if quick else 60
    n_iterations = 14 if quick else 40
    population = generate_population(
        n_workloads, seed=seed, pathological_fraction=0.03,
        base_noise=(0.15, 0.45),
    )

    def tune_one(indexed_workload) -> float:
        i, workload = indexed_workload
        return tune_workload(workload, n_iterations, seed=seed * 7 + i)["speedup_pct"]

    speedups = np.array([tune_one(item) for item in enumerate(population)])
    result = ExperimentResult(
        name="fig15_internal_customers",
        description=(
            "Percentage speed-up per internal-customer notebook (first vs "
            "last tuning window, data-size normalized)."
        ),
        series={"speedup_pct_sorted": np.sort(speedups)},
    )
    result.scalars["n_notebooks"] = float(n_workloads)
    result.scalars["mean_speedup_pct"] = float(speedups.mean())
    result.scalars["median_speedup_pct"] = float(np.median(speedups))
    result.scalars["max_speedup_pct"] = float(speedups.max())
    result.scalars["fraction_improved"] = float(np.mean(speedups > 0))
    result.notes.append(
        "Expected shape: mean speed-up in the mid-teens (paper: ~17%), a "
        "long positive tail (paper: up to 100%), most notebooks improved."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
