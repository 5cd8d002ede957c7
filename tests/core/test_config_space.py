"""Unit + property tests for ConfigSpace / Parameter / Configuration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config_space import ConfigSpace, Configuration, Parameter
from repro.core.importance import PrunedSpace
from repro.sparksim.configs import full_space


class TestParameter:
    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="low"):
            Parameter(name="x", low=10, high=1, default=5)

    def test_default_must_be_in_bounds(self):
        with pytest.raises(ValueError, match="default"):
            Parameter(name="x", low=0, high=1, default=5)

    def test_log_scale_requires_positive_low(self):
        with pytest.raises(ValueError, match="log-scale"):
            Parameter(name="x", low=0, high=10, default=1, log_scale=True)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            Parameter(name="x", low=0, high=1, default=0, scope="cluster")

    def test_log_roundtrip(self):
        p = Parameter(name="x", low=1, high=1000, default=10, log_scale=True)
        assert p.to_internal(100.0) == pytest.approx(2.0)
        assert p.to_natural(2.0) == pytest.approx(100.0)

    def test_integer_rounding_and_clipping(self):
        p = Parameter(name="x", low=1, high=10, default=5, integer=True)
        assert p.to_natural(3.4) == 3.0
        assert p.to_natural(99.0) == 10.0
        assert p.to_natural(-5.0) == 1.0

    def test_internal_span(self):
        p = Parameter(name="x", low=1, high=100, default=10, log_scale=True)
        assert p.internal_span == pytest.approx(2.0)


class TestConfigSpace:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            ConfigSpace([])

    def test_duplicate_names_rejected(self):
        p = Parameter(name="x", low=0, high=1, default=0)
        with pytest.raises(ValueError, match="duplicate"):
            ConfigSpace([p, p])

    def test_container_protocol(self, small_space):
        assert len(small_space) == 3
        assert "linear" in small_space
        assert "missing" not in small_space
        assert small_space["count"].integer
        assert [p.name for p in small_space] == ["linear", "logscale", "count"]
        assert small_space.index_of("logscale") == 1

    def test_vector_dict_roundtrip(self, small_space):
        config = {"linear": 25.0, "logscale": 1000.0, "count": 16}
        vec = small_space.to_vector(config)
        back = small_space.to_dict(vec)
        assert back["linear"] == pytest.approx(25.0)
        assert back["logscale"] == pytest.approx(1000.0)
        assert back["count"] == 16

    def test_to_vector_missing_key(self, small_space):
        with pytest.raises(KeyError):
            small_space.to_vector({"linear": 1.0})

    def test_to_dict_wrong_shape(self, small_space):
        with pytest.raises(ValueError, match="shape"):
            small_space.to_dict(np.zeros(5))

    def test_defaults(self, small_space):
        d = small_space.default_dict()
        assert d == {"linear": 50.0, "logscale": 100.0, "count": 8.0}
        vec = small_space.default_vector()
        assert small_space.to_dict(vec) == d

    def test_clip_respects_bounds(self, small_space):
        clipped = small_space.clip(np.array([1e9, -1e9, 3.0]))
        assert small_space.contains_vector(clipped)

    def test_normalize_denormalize(self, small_space, rng):
        vec = small_space.sample_vector(rng)
        unit = small_space.normalize(vec)
        assert np.all(unit >= 0) and np.all(unit <= 1)
        assert np.allclose(small_space.denormalize(unit), vec)

    def test_sampling_within_bounds(self, small_space, rng):
        samples = small_space.sample_vectors(100, rng)
        assert samples.shape == (100, 3)
        for s in samples:
            assert small_space.contains_vector(s)

    def test_latin_hypercube_stratification(self, small_space, rng):
        n = 50
        lhs = small_space.latin_hypercube(n, rng)
        unit = np.array([small_space.normalize(v) for v in lhs])
        # Each column should have exactly one sample per 1/n stratum.
        for j in range(3):
            bins = np.floor(unit[:, j] * n).astype(int)
            assert len(set(bins.tolist())) == n

    def test_subspace_by_scope(self):
        space = ConfigSpace([
            Parameter(name="q", low=0, high=1, default=0, scope="query"),
            Parameter(name="a", low=0, high=1, default=0, scope="app"),
        ])
        assert space.subspace("query").names == ["q"]
        assert space.subspace("app").names == ["a"]

    def test_subspace_missing_scope(self, small_space):
        with pytest.raises(ValueError):
            small_space.subspace("app")

    def test_equality(self, small_space):
        other = ConfigSpace(list(small_space))
        assert small_space == other


class TestInternalBounds:
    """Bounds are computed once per space and handed out read-only."""

    @pytest.fixture(params=["small", "full", "pruned"])
    def space(self, request, small_space):
        if request.param == "small":
            return small_space
        if request.param == "full":
            return full_space()
        return PrunedSpace(full_space(), ["spark.sql.shuffle.partitions",
                                          "spark.executor.memory"])

    def test_equals_per_parameter_bounds(self, space):
        expected = np.array([[p.internal_low, p.internal_high] for p in space])
        assert space.internal_bounds.shape == (space.dim, 2)
        assert np.array_equal(space.internal_bounds, expected)

    def test_read_only_and_shared(self, space):
        bounds = space.internal_bounds
        assert not bounds.flags.writeable
        with pytest.raises(ValueError):
            bounds[0, 0] = -1.0
        assert space.internal_bounds is bounds


class TestConfiguration:
    def test_default_construction(self, small_space):
        c = Configuration(small_space)
        assert c.as_dict() == small_space.default_dict()

    def test_from_dict_and_getitem(self, small_space):
        c = Configuration.from_dict(small_space, {"linear": 10, "logscale": 50, "count": 2})
        assert c["count"] == 2

    def test_replace(self, small_space):
        c = Configuration(small_space).replace(linear=75.0)
        assert c["linear"] == 75.0
        with pytest.raises(KeyError):
            c.replace(bogus=1.0)

    def test_out_of_bounds_vector_clipped(self, small_space):
        c = Configuration(small_space, vector=np.array([1e9, 1e9, 1e9]))
        assert small_space.contains_vector(c.vector)


class TestToNaturalMatrix:
    def test_rows_match_to_dict_bitwise(self, small_space, rng):
        vectors = small_space.sample_vectors(50, rng)
        matrix = small_space.to_natural_matrix(vectors)
        for i, vec in enumerate(vectors):
            expected = [small_space.to_dict(vec)[name] for name in small_space.names]
            assert matrix[i].tolist() == expected  # bitwise, not approx

    def test_integer_column_is_exact_integers(self, small_space, rng):
        vectors = small_space.sample_vectors(50, rng)
        matrix = small_space.to_natural_matrix(vectors)
        count_col = matrix[:, small_space.index_of("count")]
        assert np.array_equal(count_col, np.round(count_col))
        assert np.all((count_col >= 1) & (count_col <= 64))

    def test_round_trip_integer_and_log_knobs(self, small_space, rng):
        vectors = small_space.sample_vectors(50, rng)
        matrix = small_space.to_natural_matrix(vectors)
        back = np.column_stack([
            [p.to_internal(matrix[i, j]) for i in range(len(matrix))]
            for j, p in enumerate(small_space)
        ])
        again = small_space.to_natural_matrix(back)
        # Integer knob: natural values are whole numbers, so the second
        # pass must reproduce them exactly.
        j_int = small_space.index_of("count")
        assert np.array_equal(again[:, j_int], matrix[:, j_int])
        # Log knob: 10**log10(x) drifts by ~1 ulp, nothing more.
        j_log = small_space.index_of("logscale")
        assert np.allclose(again[:, j_log], matrix[:, j_log], rtol=1e-12, atol=0)
        # Linear knob: to_internal is the identity inside the bounds.
        j_lin = small_space.index_of("linear")
        assert np.array_equal(again[:, j_lin], matrix[:, j_lin])

    def test_shape_validation(self, small_space):
        with pytest.raises(ValueError, match="shape"):
            small_space.to_natural_matrix(np.zeros((4, 7)))
        with pytest.raises(ValueError, match="shape"):
            small_space.to_natural_matrix(np.zeros(3))


@given(
    value=st.floats(min_value=1.0, max_value=10000.0,
                    allow_nan=False, allow_infinity=False)
)
def test_log_parameter_roundtrip_property(value):
    p = Parameter(name="x", low=1.0, high=10000.0, default=10.0, log_scale=True)
    assert p.to_natural(p.to_internal(value)) == pytest.approx(value, rel=1e-9)


@given(
    unit=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3
    )
)
def test_normalize_is_inverse_of_denormalize_property(unit):
    space = ConfigSpace([
        Parameter(name="a", low=0.0, high=100.0, default=50.0),
        Parameter(name="b", low=1.0, high=1000.0, default=10.0, log_scale=True),
        Parameter(name="c", low=-5.0, high=5.0, default=0.0),
    ])
    unit_arr = np.array(unit)
    vec = space.denormalize(unit_arr)
    assert np.allclose(space.normalize(vec), unit_arr, atol=1e-9)


@given(
    raw=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=3
    )
)
def test_clip_idempotent_and_in_bounds_property(raw):
    space = ConfigSpace([
        Parameter(name="a", low=0.0, high=100.0, default=50.0),
        Parameter(name="b", low=1.0, high=1000.0, default=10.0, log_scale=True),
        Parameter(name="c", low=-5.0, high=5.0, default=0.0),
    ])
    clipped = space.clip(np.array(raw))
    assert space.contains_vector(clipped)
    assert np.allclose(space.clip(clipped), clipped)
