"""Tests for FIND_GRADIENT (linear sign fit and Eq.-6 ML sign search)."""

import numpy as np
import pytest

from repro.core.config_space import ConfigSpace, Parameter
from repro.core.find_best import fit_window_model
from repro.core.centroid import default_window_model_factory
from repro.core.gradient import (
    _candidate_deltas, linear_sign_gradient, ml_sign_gradient, probe_points,
)
from repro.core.importance import PrunedSpace
from repro.core.observation import Observation, ObservationWindow
from repro.sparksim.configs import full_space


@pytest.fixture
def space2():
    return ConfigSpace([
        Parameter(name="a", low=0.0, high=10.0, default=5.0),
        Parameter(name="b", low=0.0, high=10.0, default=5.0),
    ])


def build_window(fn, rng, n=12, dim=2, size_range=(80, 120)):
    window = ObservationWindow(n)
    for i in range(n):
        c = rng.uniform(2, 8, size=dim)
        p = rng.uniform(*size_range)
        window.append(Observation(config=c, data_size=p, performance=fn(c, p), iteration=i))
    return window


class TestLinearSignGradient:
    def test_recovers_monotone_trend(self, rng):
        # perf increases in a, decreases in b.
        window = build_window(lambda c, p: 3 * c[0] - 2 * c[1] + 0.01 * p + 50, rng)
        signs = linear_sign_gradient(window)
        assert signs[0] == 1.0
        assert signs[1] == -1.0

    def test_no_variation_gives_zero(self, rng):
        window = ObservationWindow(5)
        for i in range(5):
            window.append(Observation(
                config=np.array([3.0, float(i)]), data_size=100.0,
                performance=float(i), iteration=i,
            ))
        signs = linear_sign_gradient(window)
        assert signs[0] == 0.0  # dimension 0 never varied

    def test_too_few_observations(self):
        window = ObservationWindow(2)
        window.append(Observation(config=np.array([1.0, 1.0]), data_size=1.0,
                                  performance=1.0, iteration=0))
        assert np.all(linear_sign_gradient(window) == 0.0)


class TestProbePoints:
    def test_span_probe_geometry(self, space2):
        c_star = np.array([5.0, 5.0])
        deltas = np.array([[1.0, -1.0]])
        pts = probe_points(space2, c_star, deltas, alpha=0.1, probe="span")
        assert pts.shape == (1, 2)
        assert pts[0, 0] == pytest.approx(4.0)   # 5 - 0.1*10
        assert pts[0, 1] == pytest.approx(6.0)   # 5 + 0.1*10

    def test_multiplicative_probe_geometry(self, space2):
        c_star = np.array([5.0, 5.0])
        deltas = np.array([[1.0, -1.0]])
        pts = probe_points(space2, c_star, deltas, alpha=0.1, probe="multiplicative")
        assert pts[0, 0] == pytest.approx(4.5)   # 5·(1−0.1)
        assert pts[0, 1] == pytest.approx(5.5)   # 5·(1+0.1)

    def test_probes_clipped(self, space2):
        pts = probe_points(space2, np.array([0.1, 9.9]),
                           np.array([[1.0, -1.0]]), alpha=0.5, probe="span")
        assert space2.contains_vector(pts[0])

    def test_unknown_probe(self, space2):
        with pytest.raises(ValueError, match="probe"):
            probe_points(space2, np.zeros(2), np.ones((1, 2)), 0.1, probe="bogus")

    @pytest.mark.parametrize("probe", ["span", "multiplicative"])
    @pytest.mark.parametrize("space_name", ["full", "pruned"])
    def test_matches_per_row_clip(self, probe, space_name, rng):
        # The whole probe matrix is clipped in one call; the reference
        # clips row by row through space.clip.  Large alphas push probes
        # past both bounds on every geometry.
        space = full_space()
        if space_name == "pruned":
            space = PrunedSpace(space, ["spark.sql.shuffle.partitions",
                                        "spark.sql.files.maxPartitionBytes",
                                        "spark.executor.cores"])
        deltas = _candidate_deltas(space.dim)
        bounds = space.internal_bounds
        for alpha in (0.05, 0.4, 1.5):
            c_star = rng.uniform(bounds[:, 0], bounds[:, 1])
            points = probe_points(space, c_star, deltas, alpha, probe)
            if probe == "span":
                raw = c_star - alpha * deltas * (bounds[:, 1] - bounds[:, 0])
            else:
                raw = c_star * (1.0 - alpha * deltas)
            reference = np.array([space.clip(row) for row in raw])
            assert np.array_equal(points, reference)


class TestMLSignGradient:
    def test_descends_convex_bowl(self, space2, rng):
        # Bowl centered at (3, 7): from c*=(5, 5) the descent direction should
        # decrease a (delta_a=+1) and increase b (delta_b=-1).
        def fn(c, p):
            return (c[0] - 3.0) ** 2 + (c[1] - 7.0) ** 2 + 10.0

        window = build_window(fn, rng, n=20)
        model = fit_window_model(window, default_window_model_factory)
        delta = ml_sign_gradient(space2, model, np.array([5.0, 5.0]), 100.0, alpha=0.1)
        assert delta[0] == 1.0
        assert delta[1] == -1.0

    def test_delta_entries_are_signs(self, space2, rng):
        window = build_window(lambda c, p: c[0] + c[1], rng)
        model = fit_window_model(window, default_window_model_factory)
        delta = ml_sign_gradient(space2, model, np.array([5.0, 5.0]), 100.0, alpha=0.1)
        assert set(np.abs(delta).tolist()) == {1.0}

    def test_high_dimensional_coordinate_fallback(self, rng):
        dim = 14  # above the 2^d enumeration cap
        space = ConfigSpace([
            Parameter(name=f"p{i}", low=0.0, high=10.0, default=5.0) for i in range(dim)
        ])
        window = ObservationWindow(40)
        for i in range(40):
            c = rng.uniform(2, 8, size=dim)
            window.append(Observation(
                config=c, data_size=100.0,
                performance=float(np.sum((c - 3.0) ** 2)), iteration=i,
            ))
        model = fit_window_model(window, default_window_model_factory)
        delta = ml_sign_gradient(space, model, np.full(dim, 6.0), 100.0, alpha=0.05)
        assert delta.shape == (dim,)
        assert set(np.abs(delta).tolist()) == {1.0}
