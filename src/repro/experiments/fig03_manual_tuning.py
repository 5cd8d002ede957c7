"""Figure 3: manual tuning (domain experts) versus Bayesian Optimization.

The paper's user study put >50 volunteers on a simulation platform (the
predicted-time playground of Sec. 2.2) tuning 5 queries over 7 knobs.  Human
participants are replaced by scripted *expert policies* that mimic the
reported behavior: coordinate-at-a-time adjustments with memory of what
helped, occasional exploratory jumps, and per-expert temperament.  The
findings to reproduce: BO converges faster on average, experts occasionally
end better, and BO sometimes gets stuck in local minima.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.config_space import ConfigSpace
from ..core.observation import Observation
from ..optimizers.bayesian import BayesianOptimization
from ..sparksim.configs import manual_study_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import no_noise
from ..workloads.tpcds import tpcds_plan
from .runner import ExperimentResult

__all__ = ["run", "ExpertPolicy"]

DEFAULT_QUERIES = (11, 27, 38, 52, 73)


class ExpertPolicy:
    """A scripted stand-in for one human tuner.

    Behavior: start at the defaults (or, for *veterans*, a heuristic config
    derived from domain knowledge — see :func:`veteran_start`); each round
    pick a knob (biased toward knobs that recently helped), nudge it up or
    down by a personal step size, keep the move if the platform's predicted
    time improved, otherwise revert; occasionally take a larger exploratory
    jump.
    """

    def __init__(self, space: ConfigSpace, seed: int,
                 start: Optional[np.ndarray] = None):
        self.space = space
        self._rng = np.random.default_rng(seed)
        self._current = (
            space.default_vector() if start is None
            else space.clip(np.asarray(start, dtype=float))
        )
        self._current_cost: Optional[float] = None
        self._pending: Optional[np.ndarray] = None
        # Personal temperament.
        self._step = float(self._rng.uniform(0.05, 0.2))
        self._jump_prob = float(self._rng.uniform(0.05, 0.2))
        self._knob_credit = np.ones(space.dim)

    def suggest(self) -> np.ndarray:
        if self._current_cost is None:
            self._pending = self._current.copy()
            return self._pending
        bounds = self.space.internal_bounds
        span = bounds[:, 1] - bounds[:, 0]
        if self._rng.uniform() < self._jump_prob:
            move = self._rng.uniform(-0.35, 0.35, size=self.space.dim) * span
        else:
            weights = self._knob_credit / self._knob_credit.sum()
            knob = int(self._rng.choice(self.space.dim, p=weights))
            move = np.zeros(self.space.dim)
            move[knob] = self._rng.choice([-1.0, 1.0]) * self._step * span[knob]
        self._pending = self.space.clip(self._current + move)
        return self._pending

    def observe(self, cost: float) -> None:
        if self._current_cost is None:
            self._current_cost = cost
            return
        changed = np.abs(self._pending - self._current) > 1e-12
        if cost < self._current_cost:
            self._knob_credit[changed] += 1.0
            self._current = self._pending
            self._current_cost = cost
        else:
            self._knob_credit[changed] = np.maximum(
                self._knob_credit[changed] * 0.7, 0.2
            )


def veteran_start(plan, space: ConfigSpace) -> np.ndarray:
    """The domain-knowledge starting point a seasoned Spark engineer uses.

    Partitions sized to the input, scan splits sized to saturate the default
    16 cores, broadcast threshold raised past typical dimension tables —
    this is what the Sec.-2.1 interviewees described tuning by hand.
    """
    rows = plan.total_leaf_cardinality
    input_bytes = plan.total_input_bytes
    config = space.default_dict()
    config["spark.sql.shuffle.partitions"] = float(np.clip(rows / 2e6, 8, 4000))
    config["spark.sql.files.maxPartitionBytes"] = float(np.clip(
        input_bytes / 64.0,
        space["spark.sql.files.maxPartitionBytes"].low,
        space["spark.sql.files.maxPartitionBytes"].high,
    ))
    config["spark.sql.autoBroadcastJoinThreshold"] = 64.0 * 1024 * 1024
    return space.to_vector(config)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Sequence[int] = DEFAULT_QUERIES,
) -> ExperimentResult:
    n_experts = 8 if quick else 50
    n_iterations = 15 if quick else 40
    veteran_fraction = 0.25  # interviewees who tune from experience, not defaults
    space = manual_study_space()
    simulator = SparkSimulator(noise=no_noise(), seed=seed)

    result = ExperimentResult(
        name="fig03_manual_tuning",
        description=(
            "Scripted expert policies vs per-query Bayesian Optimization on "
            "the predicted-time platform (7 knobs, 5 queries): mean best-so-"
            "far execution time per iteration."
        ),
    )

    def tune_query(qid: int):
        plan = tpcds_plan(qid, 100.0)

        def cost(vector: np.ndarray) -> float:
            return simulator.true_time(plan, space.to_dict(vector))

        # Experts (a fraction start from domain-knowledge configurations).
        expert_traces = np.empty((n_experts, n_iterations))
        for e in range(n_experts):
            start = (
                veteran_start(plan, space)
                if e < int(veteran_fraction * n_experts) else None
            )
            policy = ExpertPolicy(space, seed=seed * 1000 + e, start=start)
            best = np.inf
            for t in range(n_iterations):
                c = cost(policy.suggest())
                policy.observe(c)
                best = min(best, c)
                expert_traces[e, t] = best

        # Model-based tuning (deterministic platform, so plain BO).
        bo = BayesianOptimization(space, n_init=5, n_candidates=256, seed=seed + qid)
        bo_trace = np.empty(n_iterations)
        best = np.inf
        for t in range(n_iterations):
            vector = bo.suggest()
            c = cost(vector)
            bo.observe(Observation(config=vector, data_size=1.0, performance=c, iteration=t))
            best = min(best, c)
            bo_trace[t] = best
        return (
            expert_traces.mean(axis=0),
            float(expert_traces[:, -1].min()),
            bo_trace,
        )

    per_query = [tune_query(qid) for qid in query_ids]
    bo_wins_at_half = 0
    expert_wins_final = 0
    for qid, (expert_mean, best_expert_final, bo_trace) in zip(query_ids, per_query):
        label = f"tpcds_q{qid:02d}"
        result.series[f"{label}_experts_mean"] = expert_mean
        result.series[f"{label}_bo"] = bo_trace
        half = n_iterations // 2
        if bo_trace[half] <= expert_mean[half]:
            bo_wins_at_half += 1
        # "Domain experts occasionally achieved better results": compare the
        # best individual tuner (not the average) against the model.
        if best_expert_final < bo_trace[-1]:
            expert_wins_final += 1
        result.scalars[f"{label}_expert_final"] = float(expert_mean[-1])
        result.scalars[f"{label}_best_expert_final"] = best_expert_final
        result.scalars[f"{label}_bo_final"] = float(bo_trace[-1])
    result.scalars["bo_faster_at_halfway_count"] = float(bo_wins_at_half)
    result.scalars["expert_better_final_count"] = float(expert_wins_final)
    result.notes.append(
        "Expected shape: BO ahead of the *average* expert at the halfway "
        "point on most queries (faster convergence); the *best individual* "
        "expert — often a veteran starting from domain knowledge — finishes "
        "better on some queries (the model stuck in a local minimum)."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
