"""Figure 10: Centroid Learning with a real SVR surrogate.

The pseudo-surrogate is replaced by a support-vector regression model
trained on the (noisy) window.  The paper reports that this model "tends to
select candidates within the 30th to 50th percentiles for true performance"
— moderate accuracy — yet convergence remains satisfactory and clearly
better than BO/FLOW2 on the same objective (Fig. 2).

Beyond the convergence bands, this module measures the selection-percentile
distribution (via an instrumented selector) and the optimality gap of the
most impactful configuration (Fig. 10b).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.centroid import CentroidLearning
from ..core.selectors import SurrogateSelector
from ..ml.kernels import RBFKernel
from ..ml.svr import SVR
from ..sparksim.noise import high_noise
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult, run_replicated

__all__ = ["run", "svr_factory", "InstrumentedSVRSelector"]


def svr_factory() -> SVR:
    """The Fig.-10 surrogate: RBF ε-SVR fit on the noisy window."""
    return SVR(kernel=RBFKernel(length_scale=1.0), C=10.0, epsilon=0.05)


class InstrumentedSVRSelector(SurrogateSelector):
    """A SurrogateSelector that records the true-performance percentile of
    every selection (the paper's model-accuracy probe)."""

    def __init__(self, true_fn, **kwargs):
        super().__init__(model_factory=svr_factory, **kwargs)
        self.true_fn = true_fn
        self.selection_percentiles: List[float] = []

    def select(self, candidates, window, data_size, embedding, rng) -> int:
        index = super().select(candidates, window, data_size, embedding, rng)
        values = np.array([self.true_fn(c, data_size) for c in candidates])
        rank = float(np.sum(values <= values[index]) - 1) / max(len(values) - 1, 1)
        self.selection_percentiles.append(100.0 * rank)
        return index


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    n_runs = 10 if quick else 100
    n_iterations = 80 if quick else 400
    objective = default_synthetic_objective(noise=high_noise(), seed=7)
    space = objective.space

    # The selector's percentile log lives inside each run's optimizer, so it
    # is harvested with a collect hook.
    def factory(i: int) -> CentroidLearning:
        selector = InstrumentedSVRSelector(objective.true_value)
        return CentroidLearning(space, selector=selector, seed=seed + i)

    def harvest(optimizer: CentroidLearning) -> List[float]:
        return list(optimizer.selector.selection_percentiles)

    bands, collected = run_replicated(
        factory, objective, n_iterations, n_runs, seed=seed, collect=harvest,
    )

    def factory_gap(i: int) -> CentroidLearning:
        selector = InstrumentedSVRSelector(objective.true_value)
        return CentroidLearning(space, selector=selector, seed=1000 + seed + i)

    gap_bands = run_replicated(
        factory_gap, objective, n_iterations, n_runs, seed=seed + 1,
        track="gap",
    )

    percentiles = np.concatenate([p for p in collected if p])
    result = ExperimentResult(
        name="fig10_svr_surrogate",
        description=(
            "Centroid Learning with an SVR surrogate on noisy data: (a) true "
            "performance bands, (b) optimality gap of the most impactful knob."
        ),
        series={"performance": bands, "optimality_gap": gap_bands},
    )
    result.scalars["optimal_value"] = objective.optimal_value
    result.scalars["default_value"] = objective.true_value(space.default_vector())
    result.scalars["final_median"] = bands.final_median()
    result.scalars["final_p95"] = bands.final_p95()
    result.scalars["final_gap_median"] = gap_bands.final_median()
    result.scalars["mean_selection_percentile"] = float(np.mean(percentiles))
    result.notes.append(
        "Expected shape: mean selection percentile in the 30-50 band "
        "(moderate model accuracy) yet final median well below the default "
        "and far below BO's (Fig. 2) under identical noise."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
