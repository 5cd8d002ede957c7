"""Tests for the regression guardrail (Sec. 4.3)."""

import numpy as np
import pytest

from repro.core.guardrail import Guardrail
from repro.core.observation import Observation


def obs(i, perf, size=100.0):
    return Observation(config=np.array([1.0]), data_size=size,
                       performance=perf, iteration=i)


class TestGuardrailValidation:
    def test_min_iterations(self):
        with pytest.raises(ValueError):
            Guardrail(min_iterations=1)

    def test_threshold(self):
        with pytest.raises(ValueError):
            Guardrail(threshold=0.0)

    def test_patience(self):
        with pytest.raises(ValueError):
            Guardrail(patience=0)

    def test_fit_window(self):
        with pytest.raises(ValueError, match="fit_window must be >= 3"):
            Guardrail(fit_window=2)

    @pytest.mark.parametrize(
        "setting", ["min_iterations", "threshold", "patience", "fit_window", "cooldown"]
    )
    def test_rejects_nan(self, setting):
        # NaN fails every comparison: a NaN threshold would make every
        # verdict "ok", a NaN patience never disable, a NaN cooldown never
        # re-enable.
        with pytest.raises(ValueError, match=f"{setting} must be"):
            Guardrail(**{setting: float("nan")})


class TestGuardrailBehavior:
    def test_no_checks_before_min_iterations(self):
        g = Guardrail(min_iterations=10, threshold=0.1, patience=1)
        # Steep regression, but only 9 observations: must stay active.
        for i in range(9):
            g.update(obs(i, 10.0 + 10.0 * i))
        assert g.active
        assert not g.decisions

    def test_improving_query_never_disabled(self):
        g = Guardrail(min_iterations=5, threshold=0.2, patience=2)
        for i in range(40):
            g.update(obs(i, 100.0 - i))
        assert g.active

    def test_steady_regression_disables(self):
        g = Guardrail(min_iterations=5, threshold=0.1, patience=2)
        active = True
        for i in range(40):
            active = g.update(obs(i, 10.0 + 5.0 * i))
            if not active:
                break
        assert not g.active
        assert not active

    def test_disable_is_sticky(self):
        g = Guardrail(min_iterations=5, threshold=0.1, patience=1)
        for i in range(20):
            g.update(obs(i, 10.0 + 5.0 * i))
        assert not g.active
        # Even perfect performance afterwards does not re-enable.
        for i in range(20, 30):
            g.update(obs(i, 1.0))
        assert not g.active

    def test_patience_requires_consecutive_violations(self):
        g = Guardrail(min_iterations=4, threshold=0.05, patience=3)
        # Alternate regress / recover so violations never chain 3 deep.
        times = [10.0, 11.0, 10.0, 11.0] * 10
        for i, t in enumerate(times):
            g.update(obs(i, t))
        assert g.active

    def test_data_size_increase_not_blamed_on_tuning(self):
        # Time grows only because the input grows; the regression on
        # (iteration, cardinality) should attribute it to the size feature.
        g = Guardrail(min_iterations=5, threshold=0.2, patience=2)
        for i in range(40):
            size = 100.0 + 10.0 * i
            g.update(obs(i, 0.05 * size, size=size))
        assert g.active

    def test_decisions_recorded(self):
        g = Guardrail(min_iterations=3, threshold=0.5, patience=5)
        for i in range(10):
            g.update(obs(i, 10.0))
        assert len(g.decisions) == 8  # checks start once 3 observations exist
        assert all(not d.violated for d in g.decisions)
