"""Tests for random forests and gradient boosting."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score


@pytest.fixture
def friedman_like(rng):
    X = rng.uniform(size=(200, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2 + 5 * X[:, 3]
    return X, y


class TestRandomForest:
    def test_n_estimators_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_fits_nonlinear_function(self, friedman_like):
        X, y = friedman_like
        model = RandomForestRegressor(n_estimators=30, seed=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.7

    def test_predict_with_std_shapes(self, friedman_like):
        X, y = friedman_like
        model = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        mean, std = model.predict_with_std(X[:5])
        assert mean.shape == (5,)
        assert np.all(std > 0)

    def test_more_trees_reduce_oob_style_variance(self, friedman_like, rng):
        X, y = friedman_like
        test = rng.uniform(size=(50, 5))
        preds = []
        for seed in range(3):
            model = RandomForestRegressor(n_estimators=40, seed=seed).fit(X, y)
            preds.append(model.predict(test))
        spread_big = np.mean(np.std(preds, axis=0))
        preds_small = []
        for seed in range(3):
            model = RandomForestRegressor(n_estimators=2, seed=seed).fit(X, y)
            preds_small.append(model.predict(test))
        spread_small = np.mean(np.std(preds_small, axis=0))
        assert spread_big < spread_small

    def test_max_features_options(self, friedman_like):
        X, y = friedman_like
        for mf in (None, "sqrt", "third", 2):
            model = RandomForestRegressor(n_estimators=5, max_features=mf, seed=0)
            model.fit(X, y)
            assert np.all(np.isfinite(model.predict(X[:3])))
        with pytest.raises(ValueError):
            RandomForestRegressor(max_features="all").fit(X, y)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 2)))


class TestGradientBoosting:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)

    def test_fits_nonlinear_function(self, friedman_like):
        X, y = friedman_like
        model = GradientBoostingRegressor(n_estimators=60, seed=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.85

    def test_staged_predictions_improve(self, friedman_like):
        X, y = friedman_like
        model = GradientBoostingRegressor(n_estimators=30, seed=0).fit(X, y)
        errors = [np.mean((stage - y) ** 2) for stage in model.staged_predict(X)]
        assert errors[-1] < errors[0]
        assert errors[-1] < errors[len(errors) // 2]

    def test_subsample_and_max_features(self, friedman_like):
        X, y = friedman_like
        model = GradientBoostingRegressor(
            n_estimators=20, subsample=0.7, max_features=2, seed=0
        ).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.5

    def test_subsample_with_leaf_floor_above_row_count(self, friedman_like):
        # 2 * min_samples_leaf = 6 rows exceed the 5-row table (the smallest
        # BaselineModelTrainer.train accepts): the draw is capped at 5.
        X, y = friedman_like
        model = GradientBoostingRegressor(
            n_estimators=2, subsample=0.5, min_samples_leaf=3, seed=0
        ).fit(X[:5], y[:5])
        assert len(model._trees) == 2
        assert np.allclose(model.predict(X[:5]), y[:5].mean())

    def test_zero_stage_predicts_mean(self, friedman_like):
        X, y = friedman_like
        model = GradientBoostingRegressor(n_estimators=1, learning_rate=1e-9, seed=0)
        model.fit(X, y)
        assert np.allclose(model.predict(X), y.mean(), atol=1e-3)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.ones((1, 2)))

    def test_deterministic_given_seed(self, friedman_like):
        X, y = friedman_like
        p1 = GradientBoostingRegressor(n_estimators=10, subsample=0.8, seed=3).fit(X, y).predict(X)
        p2 = GradientBoostingRegressor(n_estimators=10, subsample=0.8, seed=3).fit(X, y).predict(X)
        assert np.allclose(p1, p2)
