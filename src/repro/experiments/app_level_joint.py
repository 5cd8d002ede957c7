"""Sec.-4.4 evaluation: app-level joint optimization (Algorithm 2).

A multi-query application is tuned three ways: (a) defaults everywhere,
(b) per-query knobs tuned with app-level knobs left at defaults, and
(c) Algorithm 2 — app-level candidates scored by pairing each with every
query's best query-level candidate and summing acquisition scores.  The
joint optimum should dominate (b), since app-level resources (executors,
memory) shift every query's response surface.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.app_level import QueryTuningContext, optimize_app_config
from ..ml.forest import RandomForestRegressor
from ..sparksim.configs import app_level_space, full_space, query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import low_noise, no_noise
from ..workloads.tpcds import tpcds_plan
from .runner import ExperimentResult

__all__ = ["run"]

DEFAULT_QUERIES = (8, 23, 51, 77)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Sequence[int] = DEFAULT_QUERIES,
) -> ExperimentResult:
    query_ids = query_ids[:2] if quick else query_ids
    n_observations = 40 if quick else 150
    scale_factor = 50.0
    joint = full_space()
    app_space = app_level_space()
    query_space = query_level_space()
    app_names = app_space.names
    query_names = query_space.names
    joint_index = {name: i for i, name in enumerate(joint.names)}

    truth = SparkSimulator(noise=no_noise(), seed=seed)
    plans = [tpcds_plan(qid, scale_factor) for qid in query_ids]

    def assemble(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        full = np.empty(joint.dim)
        for j, name in enumerate(app_names):
            full[joint_index[name]] = v[j]
        for j, name in enumerate(query_names):
            full[joint_index[name]] = w[j]
        return full

    # Phase 1: gather (noisy) observations per query over the joint space.
    # Each query owns its sampling RNG and simulator seed.
    def observe_query(indexed_plan):
        k, plan = indexed_plan
        observe_sim = SparkSimulator(noise=low_noise(), seed=seed + 1 + 97 * k)
        vectors = joint.latin_hypercube(
            n_observations, np.random.default_rng(seed * 41 + k)
        )
        times = np.array([
            r.elapsed_seconds
            for r in observe_sim.run_batch(plan, vectors, space=joint)
        ])
        X = np.column_stack([vectors, np.full(len(vectors), plan.total_leaf_cardinality)])
        model = RandomForestRegressor(n_estimators=30, min_samples_leaf=2, seed=seed + k)
        model.fit(X, times)
        best_idx = int(np.argmin(times))
        centroid = np.array([
            vectors[best_idx][joint_index[name]] for name in query_names
        ])
        return vectors, times, model, centroid

    phase1 = [observe_query(item) for item in enumerate(plans)]
    contexts: List[QueryTuningContext] = []
    per_query_obs = []
    for plan, (vectors, times, model, centroid) in zip(plans, phase1):
        p = plan.total_leaf_cardinality

        def score_fn(v, w, _model=model, _p=p):
            row = np.concatenate([assemble(v, w), [_p]])[None, :]
            return -float(_model.predict(row)[0])

        contexts.append(QueryTuningContext(
            query_space=query_space, centroid=centroid, score_fn=score_fn, beta=0.2,
        ))
        per_query_obs.append((vectors, times, model))

    # Phase 2: Algorithm 2 picks the app-level configuration.
    best_app = optimize_app_config(
        app_space, app_space.default_vector(), contexts,
        n_app_candidates=8 if quick else 20,
        n_query_candidates=8 if quick else 20,
        beta_app=0.25,
        rng=np.random.default_rng(seed + 2),
    )

    # Phase 3: evaluate the three strategies on the noiseless simulator.
    def total_time(app_vec: np.ndarray, query_vecs: List[np.ndarray]) -> float:
        total = 0.0
        for plan, w in zip(plans, query_vecs):
            total += truth.true_time(plan, joint.to_dict(assemble(app_vec, w)))
        return total

    default_app = app_space.default_vector()
    default_query = query_space.default_vector()

    def best_query_vec(app_vec: np.ndarray, context, model) -> np.ndarray:
        cands = np.vstack([
            context.centroid[None, :],
            query_space.sample_vectors(64, np.random.default_rng(seed + 5)),
        ])
        scores = [context.score_fn(app_vec, w) for w in cands]
        return cands[int(np.argmax(scores))]

    query_vecs_default_app = [
        best_query_vec(default_app, ctx, m) for ctx, (_, _, m) in zip(contexts, per_query_obs)
    ]
    query_vecs_joint = [
        best_query_vec(best_app, ctx, m) for ctx, (_, _, m) in zip(contexts, per_query_obs)
    ]

    t_default = total_time(default_app, [default_query] * len(plans))
    t_query_only = total_time(default_app, query_vecs_default_app)
    t_joint = total_time(best_app, query_vecs_joint)

    result = ExperimentResult(
        name="app_level_joint",
        description=(
            "Algorithm 2: total application time with (a) defaults, (b) "
            "query-level tuning only, (c) joint app+query optimization."
        ),
    )
    result.scalars["n_queries"] = float(len(plans))
    result.scalars["total_default_seconds"] = t_default
    result.scalars["total_query_only_seconds"] = t_query_only
    result.scalars["total_joint_seconds"] = t_joint
    result.scalars["query_only_speedup_pct"] = (t_default / t_query_only - 1.0) * 100.0
    result.scalars["joint_speedup_pct"] = (t_default / t_joint - 1.0) * 100.0
    for name, value in app_space.to_dict(best_app).items():
        result.scalars[f"chosen_{name.split('.')[-1]}"] = float(value)
    result.notes.append(
        "Expected shape: joint >= query-only >= default in speed-up; the "
        "chosen app config typically raises executors/memory above defaults "
        "for shuffle-heavy query mixes."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
