"""Switch-detector differential oracle (drift battery: ``make drift``).

Two layers:

* the inertness oracle itself — armed and unarmed sessions bitwise
  identical on drift-free streams (``diff_switch_inert``);
* the sensitivity check — a detector rigged to fire at a planted step must
  be *caught* by the oracle, with the first divergence pinned to the very
  next suggestion (proves the oracle can see what it guards against).

Detector- and gate-armed sessions run only in the scalar classes on every
engine (the batched shape rule refuses them), so there is no second
implementation to hold at parity.
"""

import pytest

from repro.core.switch import TaskSwitchDetector
from repro.verify.diff import diff_switch_inert

pytestmark = pytest.mark.drift


class PlantedDetector(TaskSwitchDetector):
    """Fires unconditionally at one planted iteration (the seeded bug)."""

    def __init__(self, fire_at: int, **kwargs):
        super().__init__(**kwargs)
        self.fire_at = fire_at

    def update(self, performance, data_size, embedding=None, iteration=0):
        if iteration == self.fire_at:
            return self._fire(
                iteration, performance / data_size, data_size, embedding,
                statistic=float("inf"), bound=self.threshold,
                reason="cost_shift",
            )
        return super().update(
            performance, data_size, embedding=embedding, iteration=iteration
        )


class TestInertnessOracle:
    def test_default_detector_is_inert(self):
        report = diff_switch_inert(seed=0)
        assert report.equivalent, report.summary()
        assert report.tolerance == 0.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_inert_across_seeds(self, seed):
        report = diff_switch_inert(seed=seed, n_sessions=3, n_iterations=12)
        assert report.equivalent, report.summary()


class TestSensitivity:
    @pytest.mark.parametrize("fire_at,expect_step,expect_field", [
        # Quiet guardrail: the re-anchor resets the observation window, so
        # the first divergent artifact is the *next* step's suggestion.
        (6, 7, "config"),
        # At step 9 the unarmed twin's guardrail happens to be tripped; the
        # re-anchor's guardrail reset flips tuning_active on the firing
        # step itself — the oracle pins the divergence one step earlier.
        (9, 9, "tuning_active"),
    ])
    def test_planted_fire_is_pinned(self, fire_at, expect_step, expect_field):
        """A spurious re-anchor at step S diverges at a known step/field."""
        report = diff_switch_inert(
            seed=0,
            n_iterations=fire_at + 4,
            detector_factory=lambda q: (
                PlantedDetector(fire_at) if q == 0 else TaskSwitchDetector()
            ),
        )
        assert not report.equivalent
        assert report.divergence is not None
        assert report.divergence.step == expect_step
        assert report.divergence.field == expect_field

    def test_planted_fire_bumps_reanchor_trail(self):
        """Even a fire on the last step is caught via the re-anchor count."""
        n = 8
        report = diff_switch_inert(
            seed=0,
            n_sessions=2,
            n_iterations=n,
            detector_factory=lambda q: PlantedDetector(n - 1),
        )
        assert not report.equivalent
