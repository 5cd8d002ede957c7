"""Tests for the Eq.-8 noise model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparksim.noise import NoiseModel, high_noise, low_noise, no_noise


class TestValidation:
    def test_negative_fluctuation(self):
        with pytest.raises(ValueError):
            NoiseModel(fluctuation_level=-0.1)

    def test_spike_range(self):
        with pytest.raises(ValueError):
            NoiseModel(spike_level=11.0)

    def test_negative_baseline(self, rng):
        with pytest.raises(ValueError):
            no_noise().apply(-1.0, rng)


class TestPresets:
    def test_high_noise_levels(self):
        model = high_noise()
        assert model.fluctuation_level == 1.0
        assert model.spike_probability == pytest.approx(0.1)

    def test_low_noise_levels(self):
        model = low_noise()
        assert model.fluctuation_level == 0.1
        assert model.spike_probability == pytest.approx(0.01)

    def test_no_noise_is_identity(self, rng):
        model = no_noise()
        for g0 in (0.0, 1.0, 123.4):
            assert model.apply(g0, rng) == g0


class TestStatistics:
    def test_noise_only_slows_down(self, rng):
        model = high_noise()
        g0 = 10.0
        samples = np.array([model.apply(g0, rng) for _ in range(2000)])
        assert np.all(samples >= g0)

    def test_spike_rate_matches_sl(self, rng):
        model = NoiseModel(fluctuation_level=0.0, spike_level=1.0)
        samples = np.array([model.apply(1.0, rng) for _ in range(5000)])
        spike_rate = np.mean(samples == 2.0)
        assert spike_rate == pytest.approx(0.1, abs=0.02)

    def test_fluctuation_scales_with_fl(self, rng):
        small = NoiseModel(fluctuation_level=0.1, spike_level=0.0)
        big = NoiseModel(fluctuation_level=1.0, spike_level=0.0)
        s = np.array([small.apply(1.0, rng) for _ in range(2000)])
        b = np.array([big.apply(1.0, rng) for _ in range(2000)])
        assert b.std() > 3 * s.std()

    def test_apply_many_matches_apply_distribution(self, rng):
        model = high_noise()
        many = model.apply_many(np.full(5000, 10.0), rng)
        singles = np.array([model.apply(10.0, np.random.default_rng(i)) for i in range(2000)])
        assert abs(np.median(many) - np.median(singles)) / np.median(singles) < 0.1

    def test_apply_many_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            high_noise().apply_many(np.array([1.0, -1.0]), rng)


@settings(max_examples=50, deadline=None)
@given(
    g0=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    fl=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    sl=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_noise_bounds_property(g0, fl, sl, seed):
    """Eq. 8 invariants: g >= g0 always, and spikes cap the blow-up at
    2·(1+|ε|)·g0 which is finite and nonnegative."""
    model = NoiseModel(fluctuation_level=fl, spike_level=sl)
    g = model.apply(g0, np.random.default_rng(seed))
    assert g >= g0
    assert np.isfinite(g)


class TestDrawCalls:
    """``apply`` draws with ``standard_normal``/``random``; the values and
    the generator's final state equal NumPy's ``normal(0, FL)``/``uniform()``
    formula it replaced."""

    @staticmethod
    def _reference(model, g0, rng):
        fl = model.fluctuation_level
        eps = rng.normal(0.0, fl) if fl > 0 else 0.0
        g = g0 * (1.0 + abs(eps))
        if rng.uniform() <= model.spike_probability:
            g *= 2.0
        return g

    @pytest.mark.parametrize("fl", [0.0, 0.1, 0.25, 1.0])
    @pytest.mark.parametrize("sl", [0.0, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_apply_equals_the_normal_uniform_formula(self, fl, sl, seed):
        model = NoiseModel(fluctuation_level=fl, spike_level=sl)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        baselines = np.random.default_rng(seed + 1).uniform(0.0, 50.0, size=400)
        baselines[:3] = [0.0, 1.0, 1e-300]
        got = [model.apply(float(g0), got_rng) for g0 in baselines]
        want = [self._reference(model, float(g0), want_rng) for g0 in baselines]
        assert np.array_equal(np.array(got), np.array(want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
