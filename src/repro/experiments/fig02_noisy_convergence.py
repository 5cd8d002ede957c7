"""Figure 2: BO and FLOW2 convergence collapse under production noise.

200 simulation runs on the convex synthetic objective with high Eq.-8 noise
(FL = SL = 1).  "Both methods exhibit poor convergence" — the medians stay
far from the optimum and the 5–95% bands stay wide.  Compare against
Fig. 10 (Centroid Learning on the identical objective).
"""

from __future__ import annotations


from ..optimizers.bayesian import BayesianOptimization
from ..optimizers.flow2 import FLOW2
from ..sparksim.noise import high_noise
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult, run_replicated

__all__ = ["run"]


def run(
    quick: bool = False,
    seed: int = 0,
    n_runs: int = None,
    n_iterations: int = None,
) -> ExperimentResult:
    # The paper uses 200 runs of 400 iterations; the GP refits make that
    # ~30 min of compute, so full mode defaults to 60×250 (the bands are
    # already stable there).  Pass n_runs/n_iterations explicitly to
    # replicate the exact paper scale.
    n_runs = n_runs or (16 if quick else 60)
    n_iterations = n_iterations or (60 if quick else 250)
    objective = default_synthetic_objective(noise=high_noise(), seed=7)
    space = objective.space

    bo = run_replicated(
        lambda i: BayesianOptimization(space, n_init=5, n_candidates=128, seed=seed + i),
        objective,
        n_iterations,
        n_runs,
        seed=seed,
    )
    flow2 = run_replicated(
        lambda i: FLOW2(space, seed=seed + i),
        objective,
        n_iterations,
        n_runs,
        seed=seed + 1,
    )

    result = ExperimentResult(
        name="fig02_noisy_convergence",
        description=(
            "Vanilla BO (a) and FLOW2 (b) on the convex synthetic objective "
            "with FL=SL=1 noise: median true performance with 5-95% bands."
        ),
        series={"bayesian_optimization": bo, "flow2": flow2},
    )
    result.scalars["optimal_value"] = objective.optimal_value
    result.scalars["default_value"] = objective.true_value(space.default_vector())
    result.scalars["bo_final_median"] = bo.final_median()
    result.scalars["bo_final_p95"] = bo.final_p95()
    result.scalars["flow2_final_median"] = flow2.final_median()
    result.scalars["flow2_final_p95"] = flow2.final_p95()
    result.notes.append(
        "Expected shape: both final medians sit well above the optimum and "
        "the p95 boundaries stay wide — the motivation for Centroid Learning."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
