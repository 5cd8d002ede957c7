"""Extension: tuning categorical knobs via continuous embeddings (Sec. 4.3).

The paper notes categorical configurations "can be handled by employing
embedding algorithms that map categorical values into a continuous space".
This experiment tunes the three production knobs *plus* the compression
codec and serializer through :class:`CategoricalSpaceAdapter`: each choice
is probed once (warmup), the axes re-order by observed performance, and
Centroid Learning tunes the mixed space.  Compared against continuous-only
tuning on queries where the categorical choices matter (shuffle-heavy
plans), the mixed tuner should find additional gains.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.categorical import CategoricalSpaceAdapter
from ..core.centroid import CentroidLearning
from ..core.observation import Observation
from ..sparksim.configs import (
    AUTO_BROADCAST_JOIN_THRESHOLD,
    COMPRESSION_CODEC,
    MAX_PARTITION_BYTES,
    SERIALIZER,
    SHUFFLE_PARTITIONS,
    query_level_space,
)
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import NoiseModel
from ..workloads.tpcds import tpcds_plan
from .runner import ExperimentResult

__all__ = ["run"]

DEFAULT_QUERIES = (5, 18, 40, 64)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Sequence[int] = DEFAULT_QUERIES,
) -> ExperimentResult:
    query_ids = query_ids[:2] if quick else query_ids
    n_iterations = 25 if quick else 60
    noise = NoiseModel(fluctuation_level=0.15, spike_level=0.2)
    continuous = [MAX_PARTITION_BYTES, AUTO_BROADCAST_JOIN_THRESHOLD, SHUFFLE_PARTITIONS]
    categorical = [COMPRESSION_CODEC, SERIALIZER]
    cont_space = query_level_space()

    result = ExperimentResult(
        name="ext_categorical",
        description=(
            "Mixed continuous+categorical tuning (codec, serializer via "
            "performance-ordered encodings) vs continuous-only tuning: mean "
            "true time of the final window, relative to the defaults."
        ),
    )
    truth = SparkSimulator(noise=None, seed=0)

    def tune_query(indexed_qid):
        k, qid = indexed_qid
        plan = tpcds_plan(qid, 100.0)
        data_size = max(plan.total_leaf_cardinality, 1.0)
        default_config = cont_space.default_dict()
        default_time = truth.true_time(plan, default_config)
        w = max(3, n_iterations // 6)

        # Continuous-only tuning.
        sim = SparkSimulator(noise=noise, seed=seed * 3 + k)
        cl = CentroidLearning(cont_space, alpha=0.08, beta=0.15, seed=seed + k)
        trues = []
        for t in range(n_iterations):
            vec = cl.suggest(data_size=data_size)
            res = sim.run(plan, cont_space.to_dict(vec))
            cl.observe(Observation(config=vec, data_size=res.data_size,
                                   performance=res.elapsed_seconds, iteration=t))
            trues.append(res.true_seconds)
        cont_gain = (default_time / float(np.mean(trues[-w:])) - 1.0) * 100.0

        # Mixed-space tuning: warmup every choice, refit, then tune.
        adapter = CategoricalSpaceAdapter(continuous, categorical)
        sim = SparkSimulator(noise=noise, seed=seed * 3 + k)
        for config in adapter.warmup_configs():
            res = sim.run(plan, config)
            adapter.record(config, res.elapsed_seconds)
        adapter.refit()
        cl = CentroidLearning(adapter.space, alpha=0.08, beta=0.15, seed=seed + k)
        trues = []
        for t in range(n_iterations):
            vec = cl.suggest(data_size=data_size)
            config = adapter.to_config(vec)
            res = sim.run(plan, config)
            adapter.record(config, res.elapsed_seconds)
            cl.observe(Observation(config=vec, data_size=res.data_size,
                                   performance=res.elapsed_seconds, iteration=t))
            trues.append(res.true_seconds)
        mixed_gain = (default_time / float(np.mean(trues[-w:])) - 1.0) * 100.0
        return cont_gain, mixed_gain

    per_query = [tune_query(item) for item in enumerate(query_ids)]
    cont_gains: List[float] = []
    mixed_gains: List[float] = []
    for qid, (cont_gain, mixed_gain) in zip(query_ids, per_query):
        cont_gains.append(cont_gain)
        mixed_gains.append(mixed_gain)
        result.scalars[f"tpcds_q{qid:02d}_continuous_gain_pct"] = cont_gain
        result.scalars[f"tpcds_q{qid:02d}_mixed_gain_pct"] = mixed_gain

    result.scalars["mean_continuous_gain_pct"] = float(np.mean(cont_gains))
    result.scalars["mean_mixed_gain_pct"] = float(np.mean(mixed_gains))
    result.scalars["categorical_extra_gain_pct_points"] = float(
        np.mean(mixed_gains) - np.mean(cont_gains)
    )
    result.notes.append(
        "Expected shape: mixed-space tuning matches or beats continuous-only "
        "(zstd helps shuffle-heavy queries; kryo helps CPU-bound ones), at "
        "the cost of a few warmup probes."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
