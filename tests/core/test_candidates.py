"""Tests for β-neighborhood candidate generation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.candidates import draw_candidates, generate_candidates
from repro.core.config_space import ConfigSpace, Parameter


def reference_candidates(space, centroid, beta, n_candidates, rng, include_centroid=True):
    """Step β as one ``Generator.uniform`` call: the pre-kernel
    ``generate_candidates`` body, kept as the reference the kernel must
    equal byte for byte."""
    centroid = space.clip(np.asarray(centroid, dtype=float))
    bounds = space.internal_bounds
    span = bounds[:, 1] - bounds[:, 0]
    low = np.maximum(centroid - beta * span, bounds[:, 0])
    high = np.minimum(centroid + beta * span, bounds[:, 1])

    n_random = n_candidates - (1 if include_centroid else 0)
    samples = rng.uniform(low, high, size=(max(n_random, 0), space.dim))
    if include_centroid:
        return np.vstack([centroid[None, :], samples]) if n_random else centroid[None, :]
    return samples


# One log-scale axis: its internal bounds are log10 of the natural ones.
KERNEL_SPACE = ConfigSpace([
    Parameter(name="a", low=0.0, high=10.0, default=5.0),
    Parameter(name="b", low=1.0, high=100.0, default=10.0, log_scale=True),
    Parameter(name="c", low=-3.0, high=7.0, default=1.0),
])


def test_candidates_shape_and_bounds(small_space, rng):
    centroid = small_space.default_vector()
    cands = generate_candidates(small_space, centroid, beta=0.1, n_candidates=20, rng=rng)
    assert cands.shape == (20, small_space.dim)
    for c in cands:
        assert small_space.contains_vector(c)


def test_centroid_included_first(small_space, rng):
    centroid = small_space.default_vector()
    cands = generate_candidates(small_space, centroid, 0.1, 5, rng)
    assert np.allclose(cands[0], centroid)


def test_centroid_excluded(small_space, rng):
    centroid = small_space.default_vector()
    cands = generate_candidates(
        small_space, centroid, 0.1, 5, rng, include_centroid=False
    )
    assert cands.shape == (5, small_space.dim)


def test_neighborhood_respects_beta(small_space, rng):
    centroid = small_space.default_vector()
    beta = 0.05
    cands = generate_candidates(small_space, centroid, beta, 200, rng)
    bounds = small_space.internal_bounds
    span = bounds[:, 1] - bounds[:, 0]
    assert np.all(np.abs(cands - centroid) <= beta * span + 1e-9)


def test_out_of_bounds_centroid_clipped(small_space, rng):
    crazy = np.array([1e9, 1e9, 1e9])
    cands = generate_candidates(small_space, crazy, 0.1, 10, rng)
    for c in cands:
        assert small_space.contains_vector(c)


def test_invalid_beta(small_space, rng):
    with pytest.raises(ValueError, match="beta"):
        generate_candidates(small_space, small_space.default_vector(), 0.0, 5, rng)
    with pytest.raises(ValueError, match="beta"):
        generate_candidates(small_space, small_space.default_vector(), 1.5, 5, rng)


def test_invalid_count(small_space, rng):
    with pytest.raises(ValueError, match="n_candidates"):
        generate_candidates(small_space, small_space.default_vector(), 0.1, 0, rng)


def test_single_candidate_is_centroid(small_space, rng):
    centroid = small_space.default_vector()
    cands = generate_candidates(small_space, centroid, 0.1, 1, rng)
    assert cands.shape == (1, small_space.dim)
    assert np.allclose(cands[0], centroid)


@given(
    beta=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_candidates_always_in_neighborhood_property(beta, n, seed):
    space = ConfigSpace([
        Parameter(name="a", low=0.0, high=10.0, default=5.0),
        Parameter(name="b", low=1.0, high=100.0, default=10.0, log_scale=True),
    ])
    rng = np.random.default_rng(seed)
    centroid = space.sample_vector(rng)
    cands = generate_candidates(space, centroid, beta, n, rng)
    bounds = space.internal_bounds
    span = bounds[:, 1] - bounds[:, 0]
    assert cands.shape == (n, 2)
    assert np.all(np.abs(cands - centroid) <= beta * span + 1e-9)
    assert all(space.contains_vector(c) for c in cands)


def _geometry(space):
    bounds = space.internal_bounds
    return bounds[:, 0], bounds[:, 1], bounds[:, 1] - bounds[:, 0]


@st.composite
def draw_groups(draw):
    """K sessions of one space and one candidate count: per-row betas,
    centroids inside or far outside the bounds, and seeds."""
    k = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=40))
    low, high, span = _geometry(KERNEL_SPACE)
    betas = draw(st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k
    ))
    # Offsets in spans from the box's low corner: [0, 1] is inside.
    inside = st.floats(min_value=0.0, max_value=1.0)
    anywhere = st.floats(min_value=-5.0, max_value=5.0)
    centroids = [
        low + span * np.array(draw(st.lists(
            draw(st.sampled_from([inside, anywhere])), min_size=3, max_size=3
        )))
        for _ in range(k)
    ]
    seeds = draw(st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), min_size=k, max_size=k
    ))
    return np.array(centroids), np.array(betas), m, seeds


@given(group=draw_groups())
def test_draw_candidates_rows_equal_reference_bytewise(group):
    centroids, betas, m, seeds = group
    rngs = [np.random.default_rng(seed) for seed in seeds]
    out = draw_candidates(
        centroids, betas, m, [rng.random for rng in rngs], *_geometry(KERNEL_SPACE)
    )
    assert out.shape == (len(seeds), m, KERNEL_SPACE.dim)
    for k, seed in enumerate(seeds):
        ref_rng = np.random.default_rng(seed)
        expected = reference_candidates(KERNEL_SPACE, centroids[k], betas[k], m, ref_rng)
        assert out[k].tobytes() == expected.tobytes()
        # The same stream position: the next draw matches too (m = 1
        # draws nothing on either side).
        assert rngs[k].random() == ref_rng.random()


@given(
    beta=st.floats(min_value=1e-6, max_value=1.0),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    include_centroid=st.booleans(),
)
def test_generate_candidates_equals_reference_bytewise(beta, n, seed, include_centroid):
    centroid = KERNEL_SPACE.sample_vector(np.random.default_rng(seed)) * 1.5
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_candidates(
        KERNEL_SPACE, centroid, beta, n, rng, include_centroid=include_centroid
    )
    expected = reference_candidates(
        KERNEL_SPACE, centroid, beta, n, ref_rng, include_centroid=include_centroid
    )
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert rng.random() == ref_rng.random()
