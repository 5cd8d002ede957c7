"""Bit-identity contract of :mod:`repro.ml.batched`, pinned per primitive.

The lock-step session engine replaces K scalar model fits per step with one
batched fit; the replacement is only sound because every batched operation
below is *bitwise* identical per slice to the scalar path it replaces.
These tests pin each primitive in isolation so an engine-level divergence
can be bisected to the operation that drifted.

Two RNG/encoding primitives the engine also relies on are pinned here too:

* ``Generator.uniform(low, high, size)`` with array bounds is exactly
  ``low + (high - low) * rng.random(size)`` with identical stream
  consumption — the engine draws raw doubles per session and applies the
  affine map across the fleet;
* ``ConfigSpace.to_natural_matrix`` over a flattened ``(K*n, f)`` stack is
  exactly the per-session calls (all transforms are elementwise).
"""

import numpy as np
import pytest

from repro.ml.batched import (
    BatchedRidgePipeline,
    fit_ridge_pipeline,
    ols_predict,
    polynomial_features_batch,
)
from repro.ml.linear import PolynomialFeatures, RidgeRegression
from repro.ml.scaler import Pipeline, StandardScaler
from repro.sparksim.configs import query_level_space

K, N, F, Q = 7, 9, 4, 5


@pytest.fixture
def batch_rng():
    return np.random.default_rng(1234)


@pytest.fixture
def window(batch_rng):
    X = batch_rng.normal(size=(K, N, F)) * batch_rng.uniform(0.5, 3.0, size=(K, 1, F))
    y = batch_rng.normal(size=(K, N)) * 10.0
    queries = batch_rng.normal(size=(K, Q, F))
    return X, y, queries


def scalar_pipeline(alpha, degree=2, interaction_only=False):
    return Pipeline([
        ("scale", StandardScaler()),
        ("poly", PolynomialFeatures(degree=degree, interaction_only=interaction_only)),
        ("ridge", RidgeRegression(alpha=alpha)),
    ])


class TestPolynomialFeaturesBatch:
    @staticmethod
    def reference(X, interaction_only):
        """An independent per-column loop: the column-order reference the
        one expansion is checked against, through both of its callers."""
        n, d = X.shape
        cols = [X]
        for i in range(d):
            start = i + 1 if interaction_only else i
            for j in range(start, d):
                cols.append((X[:, i] * X[:, j]).reshape(n, 1))
        return np.hstack(cols)

    @pytest.mark.parametrize("shape", [(10, 4), (30, 4), (1, 4), (500, 20)])
    @pytest.mark.parametrize("interaction_only", [False, True])
    def test_matches_reference_loop_bitwise(self, batch_rng, shape, interaction_only):
        X = batch_rng.normal(size=shape)
        expected = self.reference(X, interaction_only)
        assert np.array_equal(
            polynomial_features_batch(X, 2, interaction_only), expected
        )
        scalar = PolynomialFeatures(degree=2, interaction_only=interaction_only)
        assert np.array_equal(scalar.transform(X), expected)

    @pytest.mark.parametrize("interaction_only", [False, True])
    def test_matches_scalar_column_order_bitwise(self, batch_rng, interaction_only):
        X = batch_rng.normal(size=(K, N, F))
        batched = polynomial_features_batch(X, 2, interaction_only)
        scalar = PolynomialFeatures(degree=2, interaction_only=interaction_only)
        for k in range(K):
            assert np.array_equal(batched[k], scalar.transform(X[k]))

    def test_degree_one_is_identity(self, batch_rng):
        X = batch_rng.normal(size=(K, N, F))
        assert polynomial_features_batch(X, 1) is X

    def test_rejects_unsupported_degree(self, batch_rng):
        with pytest.raises(ValueError, match="degree"):
            polynomial_features_batch(batch_rng.normal(size=(2, 3, 2)), 3)


class TestFitRidgePipeline:
    @pytest.mark.parametrize("interaction_only", [False, True])
    def test_each_slice_matches_scalar_fit_bitwise(self, window, interaction_only):
        X, y, queries = window
        alphas = np.linspace(0.2, 2.0, K)
        model = fit_ridge_pipeline(X, y, alphas, interaction_only=interaction_only)
        batched = model.predict(queries)
        for k in range(K):
            scalar = scalar_pipeline(alphas[k], interaction_only=interaction_only)
            scalar.fit(X[k], y[k])
            assert np.array_equal(batched[k], scalar.predict(queries[k]))

    def test_constant_feature_column_matches_scalar(self, window):
        X, y, queries = window
        X = X.copy()
        X[:, :, 1] = 3.5  # StandardScaler zero-variance guard on both paths
        queries = queries.copy()
        queries[:, :, 1] = 3.5
        model = fit_ridge_pipeline(X, y, np.full(K, 1.0))
        batched = model.predict(queries)
        for k in range(K):
            scalar = scalar_pipeline(1.0).fit(X[k], y[k])
            assert np.array_equal(batched[k], scalar.predict(queries[k]))

    def test_scatter_into_writes_selected_rows(self, window):
        X, y, _ = window
        full = fit_ridge_pipeline(X, y, np.ones(K))
        target = BatchedRidgePipeline(
            mean=np.zeros((K, F)), scale=np.ones((K, F)),
            coef=np.zeros_like(full.coef), intercept=np.zeros(K),
        )
        idx = np.array([1, 4])
        sub = fit_ridge_pipeline(X[idx], y[idx], np.ones(2))
        sub.scatter_into(target, idx)
        assert np.array_equal(target.coef[idx], full.coef[idx])
        assert np.array_equal(target.intercept[idx], full.intercept[idx])
        assert np.all(target.coef[0] == 0.0)


class TestOlsPredict:
    def test_scalar_call_is_a_batched_slice_bitwise(self, window):
        X, y, queries = window
        batched = ols_predict(X, y, queries)
        for k in range(K):
            assert np.array_equal(batched[k], ols_predict(X[k], y[k], queries[k]))

    def test_tracks_lstsq_on_well_posed_designs(self, batch_rng):
        X = batch_rng.normal(size=(20, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + 4.0 + 0.01 * batch_rng.normal(size=20)
        queries = batch_rng.normal(size=(6, 3))
        design = np.column_stack([np.ones(len(X)), X])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        expected = np.column_stack([np.ones(len(queries)), queries]) @ coef
        assert np.allclose(ols_predict(X, y, queries), expected, atol=1e-6)

    def test_degenerate_column_gets_zero_coefficient(self, batch_rng):
        X = batch_rng.normal(size=(12, 2))
        X[:, 1] = 7.0
        y = 2.0 * X[:, 0] + 1.0
        queries = np.array([[0.0, 7.0], [1.0, 7.0]])
        assert np.allclose(ols_predict(X, y, queries), [1.0, 3.0], atol=1e-6)


class TestEnginePrimitives:
    """RNG/encoding identities the lock-step suggest path is built on."""

    def test_uniform_is_affine_of_raw_doubles_with_same_stream(self):
        low = np.array([-1.0, 0.5, 2.0])
        high = np.array([1.0, 4.5, 2.5])
        a = np.random.default_rng(99)
        b = np.random.default_rng(99)
        direct = a.uniform(low, high, size=(8, 3))
        affine = low + np.subtract(high, low) * b.random((8, 3))
        assert np.array_equal(direct, affine)
        # Identical stream consumption: the next draw agrees too.
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_to_natural_matrix_flattens_across_sessions(self):
        space = query_level_space()
        rng = np.random.default_rng(5)
        k, n = 6, 11
        V = np.stack([space.sample_vectors(n, rng) for _ in range(k)])
        flat = space.to_natural_matrix(V.reshape(k * n, space.dim))
        flat = flat.reshape(k, n, -1)
        for i in range(k):
            assert np.array_equal(flat[i], space.to_natural_matrix(V[i]))
