"""Extension: the production conservative policy (Sec. 6.3).

"In production, we employ a conservative guardrail policy that enables
autotuning only when query performance improves."  This experiment injects
a config-independent external regression (e.g., a noisy neighbor moving onto
the cluster) halfway through tuning and compares plain Centroid Learning
against the :class:`~repro.core.conservative.ConservativePolicy` wrapper:

* during the regression, the wrapper should pause exploration and replay its
  incumbent (less time spent probing new configs while the environment is
  degraded);
* once conditions recover, exploration resumes and final quality matches the
  plain tuner.
"""

from __future__ import annotations


import numpy as np

from ..core.centroid import CentroidLearning
from ..core.conservative import ConservativePolicy
from ..core.observation import Observation
from ..sparksim.noise import NoiseModel
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    n_runs = 8 if quick else 40
    n_iterations = 90 if quick else 240
    regression_start = n_iterations // 3
    regression_end = 2 * n_iterations // 3
    regression_factor = 2.0
    objective = default_synthetic_objective(
        noise=NoiseModel(fluctuation_level=0.2, spike_level=0.3), seed=7
    )
    space = objective.space

    def external(t: int) -> float:
        return regression_factor if regression_start <= t < regression_end else 1.0

    builders = {
        "plain": lambda i: CentroidLearning(space, seed=seed + i),
        "conservative": lambda i: ConservativePolicy(
            CentroidLearning(space, seed=seed + i),
            margin=0.5, recent_window=5, cooldown=6, min_observations=10,
        ),
    }
    result = ExperimentResult(
        name="ext_conservative",
        description=(
            "External 2x regression injected for the middle third of the "
            "run: plain CL vs the conservative explore-only-while-improving "
            "wrapper.  Tracked: true performance of executed configs and the "
            "exploration rate during the regression."
        ),
    )
    result.scalars["optimal_value"] = objective.optimal_value
    result.scalars["default_value"] = objective.true_value(space.default_vector())
    for label, build in builders.items():

        def one_run(i: int, build=build):
            opt = build(i)
            rng = np.random.default_rng(seed * 13 + i)
            row = np.empty(n_iterations)
            exploring_flags = []
            for t in range(n_iterations):
                v = opt.suggest(data_size=objective.reference_size)
                if regression_start <= t < regression_end:
                    exploring_flags.append(getattr(opt, "exploring", True))
                r = objective.observe(v, objective.reference_size, rng) * external(t)
                opt.observe(Observation(
                    config=v, data_size=objective.reference_size,
                    performance=r, iteration=t,
                ))
                row[t] = objective.true_value(v)
            return (
                row,
                float(np.mean(exploring_flags)),
                float(getattr(opt, "pause_count", 0)),
            )

        per_run = [one_run(i) for i in range(n_runs)]
        runs = np.stack([row for row, _, _ in per_run])
        explore_during_regression = [e for _, e, _ in per_run]
        pauses = [p for _, _, p in per_run]
        from .runner import ConvergenceBands

        bands = ConvergenceBands(runs)
        result.series[label] = bands
        result.scalars[f"{label}_final_median"] = bands.final_median()
        result.scalars[f"{label}_exploration_rate_during_regression"] = float(
            np.mean(explore_during_regression)
        )
        result.scalars[f"{label}_mean_pauses"] = float(np.mean(pauses))
    result.notes.append(
        "Expected shape: the conservative wrapper explores markedly less "
        "while the external regression is active (pauses > 0), yet its final "
        "median after recovery is comparable to plain CL's."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
