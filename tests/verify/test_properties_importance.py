"""Hypothesis battery for importance ranking and stage overlays (``make stages``).

Properties:

* a knob ranking is **bitwise** invariant to the sweep-assembly order;
* a knob the cost function provably never reads scores exactly zero and
  ranks strictly below every knob with nonzero sensitivity;
* ``PrunedSpace`` decode∘encode is the identity on kept knobs and pins
  dropped knobs, for arbitrary drawn spaces and subsets;
* the stage-overlay batch kernel is bitwise the scalar reference on
  arbitrary drawn plans and overlays.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.importance import PrunedSpace, rank_knobs
from repro.sparksim.configs import full_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.overlay import StageConfigOverlay, StageOverride
from repro.verify.properties import config_spaces, internal_vectors, physical_plans, seeds

pytestmark = pytest.mark.stages

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
EXPENSIVE = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def weighted_estimator(space, weights):
    """A deterministic synthetic cost surface: |normalize(v)| @ weights."""
    def estimate(vectors):
        unit = space.normalize(np.atleast_2d(vectors))
        return np.abs(unit) @ weights + 1.0
    return estimate


@st.composite
def spaces_with_weights(draw, min_dim=2, max_dim=4, n_flat=None):
    space = draw(config_spaces(min_dim=min_dim, max_dim=max_dim))
    weights = np.array([
        draw(st.floats(min_value=0.5, max_value=10.0))
        for _ in range(space.dim)
    ])
    if n_flat is None:
        n_flat = draw(st.integers(min_value=1, max_value=space.dim - 1)) \
            if space.dim > 1 else 0
    flat = draw(st.permutations(range(space.dim)))[:n_flat]
    weights[list(flat)] = 0.0
    return space, weights


class TestRankingProperties:
    @RELAXED
    @given(sw=spaces_with_weights(), seed=seeds(), order_seed=seeds())
    def test_ranking_bitwise_invariant_to_sweep_order(self, sw, seed, order_seed):
        space, weights = sw
        estimator = weighted_estimator(space, weights)
        order = list(space.names)
        np.random.default_rng(order_seed).shuffle(order)
        a = rank_knobs("wl", space, estimator=estimator, seed=seed)
        b = rank_knobs("wl", space, estimator=estimator, seed=seed,
                       sweep_order=order)
        assert a == b  # to_state equality: bitwise on every score

    @RELAXED
    @given(sw=spaces_with_weights(), seed=seeds())
    def test_flat_knobs_score_zero_and_rank_last(self, sw, seed):
        space, weights = sw
        ranking = rank_knobs(
            "wl", space, estimator=weighted_estimator(space, weights),
            seed=seed,
        )
        flat = {space.names[j] for j in range(space.dim) if weights[j] == 0.0}
        for name in space.names:
            score = ranking.score_of(name).score
            if name in flat:
                assert score == 0.0
            else:
                assert score > 0.0
        ranked = ranking.ranked_names
        if flat and len(flat) < space.dim:
            worst_live = max(
                ranked.index(n) for n in space.names if n not in flat
            )
            best_flat = min(ranked.index(n) for n in flat)
            assert worst_live < best_flat


class TestPrunedSpaceProperties:
    @RELAXED
    @given(data=st.data())
    def test_decode_encode_identity_and_pins(self, data):
        space = data.draw(config_spaces(min_dim=2, max_dim=4))
        keep = data.draw(st.permutations(space.names))
        keep = keep[:data.draw(st.integers(min_value=1, max_value=space.dim - 1))]
        pruned = PrunedSpace(space, keep)
        vector = data.draw(internal_vectors(pruned))
        full = pruned.decode(vector)
        np.testing.assert_array_equal(pruned.encode(full), vector)
        defaults = space.default_vector()
        for j, name in enumerate(space.names):
            if name not in keep:
                assert full[j] == defaults[j]

    @RELAXED
    @given(data=st.data())
    def test_decode_matrix_matches_scalar_decode(self, data):
        space = data.draw(config_spaces(min_dim=2, max_dim=4))
        keep = list(space.names)[: space.dim - 1]
        pruned = PrunedSpace(space, keep)
        vectors = np.array([
            data.draw(internal_vectors(pruned)) for _ in range(4)
        ])
        batch = pruned.decode_matrix(vectors)
        for i in range(len(vectors)):
            np.testing.assert_array_equal(batch[i], pruned.decode(vectors[i]))


class TestOverlayKernelProperty:
    @EXPENSIVE
    @given(plan=physical_plans(), seed=seeds())
    def test_overlay_batch_bitwise_equals_scalar_on_drawn_plans(self, plan, seed):
        rng = np.random.default_rng(seed)
        space = full_space()
        overrides = {
            op.op_id: StageOverride(
                shuffle_partitions=int(rng.integers(1, 4000)),
                memory_fraction=float(rng.uniform(0.1, 1.0)),
            )
            for op in plan.exchange_ops()
            if rng.uniform() < 0.8
        }
        overlay = StageConfigOverlay(overrides)
        model = CostModel()
        vectors = space.sample_vectors(4, rng)
        batch = model.estimate_batch(plan, vectors, space=space, overlay=overlay)
        scalar = np.array([
            model.estimate(
                plan, space.to_dict(v), overlay=overlay
            ).total_seconds
            for v in vectors
        ])
        np.testing.assert_array_equal(batch, scalar)
