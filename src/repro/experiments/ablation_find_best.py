"""Sec.-4.3 FIND_BEST ablation: raw vs normalized vs model-based (v1/v2/v3).

The paper motivates three refinements: the raw minimum time "may favor
candidates with minimal data sizes"; the ``r/p`` normalization (Eq. 3) is
still biased because ``r/p`` falls as ``p`` grows; the model-based version
(Eq. 5) predicts every observed config at one fixed data size.

The primary measurement here isolates the claim directly: synthetic windows
of observations with *spread-out configs* and *varying data sizes* are
handed to each FIND_BEST version, and we score the **selection regret** —
how much worse (in true time at a fixed data size) the picked configuration
is than the best configuration present in the window.  The secondary series
runs the full Centroid Learning loop with each version to show end-to-end
effects (small by design: within a β-restricted window all anchors are
close).
"""

from __future__ import annotations


import numpy as np

from ..core.centroid import CentroidLearning
from ..core.find_best import FindBestMode, find_best
from ..core.observation import Observation, ObservationWindow
from ..ml.linear import LinearRegression
from ..ml.scaler import Pipeline, StandardScaler
from ..sparksim.noise import NoiseModel
from ..workloads.dynamics import RandomWalkSize
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult, run_replicated

__all__ = ["run"]

MODES = {
    "v1_raw": FindBestMode.RAW,
    "v2_normalized": FindBestMode.NORMALIZED,
    "v3_model": FindBestMode.MODEL,
}


def _linear_h_factory():
    """The paper's FIND_BEST surface: "A linear surface is employed to
    approximate the small region explored in these iterations, enabling
    robust gradient calculation" — and, over spread windows, robust ranking
    (a quadratic fit overfits 10 noisy points)."""
    return Pipeline([("scale", StandardScaler()), ("ols", LinearRegression())])


def _selection_regret(objective, mode, n_windows, window_size, rng) -> np.ndarray:
    """Regret of FIND_BEST picks over random drifted windows.

    Each window: configs spread over a 0.4-span box (a centroid that moved),
    data sizes from a volatile random walk, observations noisy.  Regret is
    the true-time excess of the pick over the window's true best, both
    evaluated at the reference size.
    """
    space = objective.space
    bounds = space.internal_bounds
    span = bounds[:, 1] - bounds[:, 0]
    p0 = objective.reference_size
    regrets = np.empty(n_windows)
    for w in range(n_windows):
        anchor = space.sample_vector(rng)
        sizes = RandomWalkSize(initial=p0, volatility=0.35,
                               seed=int(rng.integers(0, 2**31 - 1)))
        window = ObservationWindow(window_size)
        configs = []
        for i in range(window_size):
            config = space.clip(anchor + rng.uniform(-0.2, 0.2, space.dim) * span)
            p = sizes(i)
            r = objective.observe(config, p, rng)
            window.append(Observation(config=config, data_size=p,
                                      performance=r, iteration=i))
            configs.append(config)
        true_at_ref = np.array([objective.true_value(c, p0) for c in configs])
        pick = find_best(
            window, mode=mode, model_factory=_linear_h_factory,
            fixed_data_size=p0,
        )
        regrets[w] = objective.true_value(pick.config, p0) - true_at_ref.min()
    return regrets


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    n_windows = 60 if quick else 400
    window_size = 10
    n_runs = 8 if quick else 40
    n_iterations = 80 if quick else 250
    # Sub-linear time-vs-size (γ=0.6): the production behavior that makes the
    # raw minimum favor small-p runs and r/p over-favor large-p runs.
    objective = default_synthetic_objective(
        noise=NoiseModel(fluctuation_level=0.3, spike_level=0.3), seed=7,
        size_exponent=0.6,
    )
    space = objective.space
    p0 = objective.reference_size

    result = ExperimentResult(
        name="ablation_find_best",
        description=(
            "FIND_BEST v1 (raw), v2 (normalized, Eq. 3), v3 (model, Eq. 5): "
            "selection regret over drifted windows with varying data sizes, "
            "plus end-to-end Centroid Learning runs."
        ),
    )
    # Primary: selection regret — one independent sweep per FIND_BEST mode.
    def regret_for(indexed_mode) -> np.ndarray:
        index, mode = indexed_mode
        rng = np.random.default_rng(seed * 17 + index)
        return _selection_regret(objective, mode, n_windows, window_size, rng)

    regret_runs = [regret_for(item) for item in enumerate(MODES.values())]
    for (label, _), regrets in zip(MODES.items(), regret_runs):
        result.series[f"{label}_regret_sorted"] = np.sort(regrets)
        result.scalars[f"{label}_mean_regret"] = float(regrets.mean())
        result.scalars[f"{label}_p90_regret"] = float(np.percentile(regrets, 90))

    # Secondary: end-to-end tuning with each version.
    def size_factory(i: int) -> RandomWalkSize:
        return RandomWalkSize(initial=p0, volatility=0.4, seed=9000 + i)

    for index, (label, mode) in enumerate(MODES.items()):
        bands = run_replicated(
            lambda i, m=mode: CentroidLearning(space, find_best_mode=m, seed=seed + i),
            objective,
            n_iterations,
            n_runs,
            size_process_factory=size_factory,
            seed=seed + 101 * index,
        )
        result.series[f"{label}_tuning"] = bands
        result.scalars[f"{label}_final_median"] = bands.final_median()
    result.scalars["optimal_value"] = objective.optimal_value
    result.scalars["default_value"] = objective.true_value(space.default_vector())
    result.notes.append(
        "Expected shape: mean selection regret v3 < v2 < v1 (the Eq.-5 model "
        "corrects both the raw and the r/p bias); end-to-end differences are "
        "muted because all anchors lie inside the β-restricted window."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
