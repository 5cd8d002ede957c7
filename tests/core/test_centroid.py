"""Tests for the Centroid Learning optimizer (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.centroid import CentroidLearning
from repro.core.find_best import FindBestMode
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.core.selectors import PseudoSurrogateSelector
from repro.workloads.synthetic import default_synthetic_objective, synthetic_space
from repro.sparksim.noise import no_noise


@pytest.fixture
def objective():
    return default_synthetic_objective(noise=no_noise(), seed=3)


def drive(optimizer, objective, n, rng, data_size=None):
    p = data_size or objective.reference_size
    for t in range(n):
        v = optimizer.suggest(data_size=p)
        r = objective.observe(v, p, rng)
        optimizer.observe(Observation(config=v, data_size=p, performance=r, iteration=t))


class TestValidation:
    def test_alpha_bounds(self):
        space = synthetic_space()
        with pytest.raises(ValueError, match="alpha"):
            CentroidLearning(space, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            CentroidLearning(space, alpha=1.0)

    def test_alpha_decay_bounds(self):
        with pytest.raises(ValueError, match="alpha_decay"):
            CentroidLearning(synthetic_space(), alpha_decay=-0.1)

    def test_gradient_mode(self):
        with pytest.raises(ValueError, match="gradient_mode"):
            CentroidLearning(synthetic_space(), gradient_mode="newton")

    def test_min_update_observations(self):
        with pytest.raises(ValueError):
            CentroidLearning(synthetic_space(), min_update_observations=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"beta": 1.5}, r"beta must be in \(0, 1\]"),
        ({"beta": 0.0}, r"beta must be in \(0, 1\]"),
        ({"beta": -0.1}, r"beta must be in \(0, 1\]"),
        ({"beta": float("nan")}, r"beta must be in \(0, 1\]"),
        ({"n_candidates": 0}, "n_candidates must be >= 1"),
    ], ids=["beta=1.5", "beta=0", "beta=-0.1", "beta=nan", "n_candidates=0"])
    def test_step_beta_settings_checked_at_construction(self, kwargs, message):
        # Every engine's candidate draw trusts these two values.
        with pytest.raises(ValueError, match=message):
            CentroidLearning(synthetic_space(), **kwargs)


class TestSuggest:
    def test_suggestions_in_bounds(self, objective, rng):
        cl = CentroidLearning(objective.space, seed=0)
        for _ in range(5):
            v = cl.suggest(data_size=100.0)
            assert objective.space.contains_vector(v)

    def test_suggestions_within_beta_of_centroid(self, objective):
        cl = CentroidLearning(objective.space, beta=0.05, seed=0)
        bounds = objective.space.internal_bounds
        span = bounds[:, 1] - bounds[:, 0]
        v = cl.suggest(data_size=100.0)
        assert np.all(np.abs(v - cl.centroid) <= 0.05 * span + 1e-9)

    def test_starts_at_default(self, objective):
        cl = CentroidLearning(objective.space, seed=0)
        assert np.allclose(cl.centroid, objective.space.default_vector())

    def test_custom_start(self, objective):
        start = objective.space.sample_vector(np.random.default_rng(1))
        cl = CentroidLearning(objective.space, start=start, seed=0)
        assert np.allclose(cl.centroid, start)


class TestCentroidUpdate:
    def test_centroid_fixed_until_min_observations(self, objective, rng):
        cl = CentroidLearning(objective.space, min_update_observations=4, seed=0)
        e0 = cl.centroid
        drive(cl, objective, 3, rng)
        assert np.allclose(cl.centroid, e0)
        drive(cl, objective, 1, rng)
        assert not np.allclose(cl.centroid, e0)

    def test_update_exposes_gradient_and_best(self, objective, rng):
        cl = CentroidLearning(objective.space, seed=0)
        drive(cl, objective, 6, rng)
        assert cl.last_gradient is not None
        assert set(np.abs(cl.last_gradient).tolist()) <= {0.0, 1.0}
        assert cl.last_best is not None

    def test_update_magnitude_is_alpha_span(self, objective, rng):
        alpha = 0.07
        cl = CentroidLearning(objective.space, alpha=alpha, seed=0)
        drive(cl, objective, 6, rng)
        bounds = objective.space.internal_bounds
        span = bounds[:, 1] - bounds[:, 0]
        move = np.abs(cl.centroid - cl.last_best)
        # Each dimension moved by exactly alpha*span (unless clipped).
        interior = (cl.centroid > bounds[:, 0] + 1e-9) & (cl.centroid < bounds[:, 1] - 1e-9)
        assert np.allclose(move[interior], alpha * span[interior], rtol=1e-6)

    def test_alpha_decay_shrinks_step(self, objective, rng):
        cl = CentroidLearning(objective.space, alpha=0.1, alpha_decay=0.5, seed=0)
        assert cl.effective_alpha == pytest.approx(0.1)
        drive(cl, objective, 10, rng)
        assert cl.effective_alpha < 0.1

    def test_linear_gradient_mode_runs(self, objective, rng):
        cl = CentroidLearning(objective.space, gradient_mode="linear", seed=0)
        drive(cl, objective, 10, rng)
        assert cl.last_gradient is not None

    def test_multiplicative_probe_runs(self, objective, rng):
        cl = CentroidLearning(objective.space, probe="multiplicative", seed=0)
        drive(cl, objective, 10, rng)
        assert objective.space.contains_vector(cl.centroid)


class TestConvergence:
    def test_converges_on_noiseless_bowl(self, objective, rng):
        """Sanity: on a noiseless convex objective CL approaches the optimum."""
        cl = CentroidLearning(objective.space, alpha=0.05, seed=0)
        drive(cl, objective, 120, rng)
        final = objective.true_value(cl.centroid)
        default = objective.true_value(objective.space.default_vector())
        assert final < 0.5 * default
        assert final < 1.35 * objective.optimal_value

    def test_pseudo_level1_converges_faster_than_level9(self, rng):
        objective = default_synthetic_objective(noise=no_noise(), seed=3)
        finals = {}
        for level in (1, 9):
            cl = CentroidLearning(
                objective.space,
                selector=PseudoSurrogateSelector(objective.true_value, level),
                seed=0,
            )
            drive(cl, objective, 60, np.random.default_rng(5))
            finals[level] = objective.true_value(cl.centroid)
        assert finals[1] <= finals[9]


class TestGuardrailIntegration:
    def test_disabled_returns_default(self, rng):
        objective = default_synthetic_objective(noise=no_noise(), seed=3)
        guardrail = Guardrail(min_iterations=5, threshold=0.05, patience=1)
        cl = CentroidLearning(objective.space, guardrail=guardrail, seed=0)
        # Feed artificial steep regressions to trip the guardrail.
        for t in range(12):
            v = cl.suggest(data_size=100.0)
            cl.observe(Observation(
                config=v, data_size=100.0, performance=10.0 + 20.0 * t, iteration=t
            ))
        assert not cl.tuning_active
        assert np.allclose(cl.suggest(data_size=100.0), objective.space.default_vector())

    def test_centroid_frozen_after_disable(self):
        objective = default_synthetic_objective(noise=no_noise(), seed=3)
        guardrail = Guardrail(min_iterations=5, threshold=0.05, patience=1)
        cl = CentroidLearning(objective.space, guardrail=guardrail, seed=0)
        for t in range(12):
            v = cl.suggest(data_size=100.0)
            cl.observe(Observation(
                config=v, data_size=100.0, performance=10.0 + 20.0 * t, iteration=t
            ))
        frozen = cl.centroid
        cl.observe(Observation(
            config=objective.space.default_vector(), data_size=100.0,
            performance=1.0, iteration=99,
        ))
        assert np.allclose(cl.centroid, frozen)
