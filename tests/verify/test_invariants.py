"""Tier-1 tests for the invariant-checker registry (no hypothesis needed)."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation, ObservationWindow
from repro.core.session import TuningSession
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import Matern52Kernel
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel, low_noise, no_noise
from repro.verify import (
    Invariant,
    InvariantRegistry,
    InvariantViolation,
    VerificationContext,
    default_registry,
)
from repro.verify.invariants import (
    check_centroid_in_bounds,
    check_guardrail_cooldown,
    check_noise_stream,
    check_window_statistics,
)
from repro.workloads.tpch import tpch_plan


class FakeOptimizer:
    """Just enough attribute surface for targeted checker tests."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class TestRegistry:
    def test_default_registry_contents(self):
        registry = default_registry()
        assert len(registry) == 5
        assert "guardrail_cooldown" in registry
        assert "bogus" not in registry
        assert registry.names() == [inv.name for inv in registry]

    def test_duplicate_name_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(Invariant("noise_stream", lambda ctx: True))

    def test_register_decorator_and_execution_order(self):
        registry = InvariantRegistry()
        calls = []

        @registry.register("first", description="runs first")
        def _first(ctx):
            calls.append("first")
            return True

        @registry.register("second")
        def _second(ctx):
            calls.append("second")
            return False

        results = registry.check_all(VerificationContext())
        assert calls == ["first", "second"]
        assert [r.checked for r in results] == [True, False]

    def test_without_subsets_and_rejects_unknown(self):
        registry = default_registry()
        slim = registry.without("gp_posterior", "noise_stream")
        assert slim.names() == [
            "centroid_in_bounds", "guardrail_cooldown", "window_statistics",
        ]
        assert len(registry) == 5  # original untouched
        with pytest.raises(KeyError, match="unknown"):
            registry.without("nope")

    def test_check_all_collect_mode_gathers_violations(self):
        registry = InvariantRegistry([
            Invariant("boom", lambda ctx: (_ for _ in ()).throw(
                InvariantViolation("boom", "broken"))),
            Invariant("fine", lambda ctx: True),
        ])
        results = registry.check_all(VerificationContext(), raise_on_violation=False)
        assert results[0].violation is not None
        assert results[0].violation.invariant == "boom"
        assert results[1].violation is None

    def test_empty_context_skips_every_builtin(self):
        results = default_registry().check_all(VerificationContext())
        assert all(not r.checked for r in results)

    def test_violation_counter_emitted(self):
        registry = InvariantRegistry([
            Invariant("boom", lambda ctx: (_ for _ in ()).throw(
                InvariantViolation("boom", "broken"))),
        ])
        with telemetry.capture() as cap:
            registry.check_all(VerificationContext(), raise_on_violation=False)
        counters = cap.counters()
        assert counters.get("verify.violations{invariant=boom}") == 1


class TestCentroidChecker:
    def test_passes_on_live_optimizer(self, small_space):
        opt = CentroidLearning(small_space, seed=0)
        assert check_centroid_in_bounds(VerificationContext(optimizer=opt)) is True

    def test_out_of_bounds_centroid_raises(self, small_space):
        opt = CentroidLearning(small_space, seed=0)
        opt._centroid = opt._centroid + 1e6
        with pytest.raises(InvariantViolation, match="outside internal bounds"):
            check_centroid_in_bounds(VerificationContext(optimizer=opt))

    def test_non_finite_centroid_raises(self, small_space):
        opt = CentroidLearning(small_space, seed=0)
        opt._centroid = np.full(small_space.dim, np.nan)
        with pytest.raises(InvariantViolation, match="non-finite"):
            check_centroid_in_bounds(VerificationContext(optimizer=opt))


def _rising_observation(i):
    return Observation(
        config=np.zeros(1), data_size=1000.0,
        performance=100.0 * i + 10.0, iteration=i,
    )


class TestGuardrailChecker:
    def _tripped_guardrail(self, cooldown=3):
        g = Guardrail(min_iterations=5, threshold=0.2, patience=1,
                      fit_window=5, cooldown=cooldown)
        i = 0
        while g.active:
            g.update(_rising_observation(i))
            i += 1
        return g

    def test_accepts_full_disable_reenable_cycle(self):
        g = self._tripped_guardrail(cooldown=3)
        ctx = VerificationContext(optimizer=FakeOptimizer(guardrail=g))
        # Sweep through the cooldown and the legitimate probation re-enable.
        i = g.n_observations
        for _ in range(6):
            assert check_guardrail_cooldown(ctx) is True
            g.update(_rising_observation(i))
            i += 1
        assert g.reenable_count >= 1

    def test_early_reenable_raises(self):
        g = self._tripped_guardrail(cooldown=3)
        ctx = VerificationContext(optimizer=FakeOptimizer(guardrail=g))
        assert check_guardrail_cooldown(ctx) is True  # snapshot: disabled
        g.update(_rising_observation(g.n_observations))  # 1 of 3 cooldown obs
        # A buggy state machine flips back with the cooldown not served.
        g._disabled = False
        g._consecutive_violations = 0
        with pytest.raises(InvariantViolation, match="re-enabled during cooldown"):
            check_guardrail_cooldown(ctx)

    def test_permanent_disable_must_never_reenable(self):
        g = self._tripped_guardrail(cooldown=None)
        g.reenable_count = 1
        ctx = VerificationContext(optimizer=FakeOptimizer(guardrail=g))
        with pytest.raises(InvariantViolation, match="cooldown=None"):
            check_guardrail_cooldown(ctx)

    def test_overdue_cooldown_raises(self):
        g = self._tripped_guardrail(cooldown=3)
        g._since_disable = 7  # sat past the cooldown without re-enabling
        ctx = VerificationContext(optimizer=FakeOptimizer(guardrail=g))
        with pytest.raises(InvariantViolation, match="still disabled"):
            check_guardrail_cooldown(ctx)


class TestWindowChecker:
    def _window(self, n=7, size=4):
        window = ObservationWindow(size)
        rng = np.random.default_rng(0)
        for i in range(n):
            window.append(Observation(
                config=rng.uniform(size=3), data_size=float(100 + i),
                performance=rng.uniform(1.0, 9.0), iteration=i,
            ))
        return window

    def test_passes_on_consistent_window(self):
        ctx = VerificationContext(optimizer=FakeOptimizer(observations=self._window()))
        assert check_window_statistics(ctx) is True

    def test_stale_version_raises(self):
        window = self._window()
        window._version = 1
        ctx = VerificationContext(optimizer=FakeOptimizer(observations=window))
        with pytest.raises(InvariantViolation, match="version"):
            check_window_statistics(ctx)

    def test_stale_view_raises(self):
        # Simulate a stale cached view: the dense accessor stops tracking
        # the raw history (the exact bug class a memoized window could grow).
        window = self._window()
        frozen = window.performances()
        window.performances = lambda: frozen
        window.append(Observation(
            config=np.ones(3), data_size=200.0, performance=42.0, iteration=99,
        ))
        ctx = VerificationContext(optimizer=FakeOptimizer(observations=window))
        with pytest.raises(InvariantViolation, match="performances"):
            check_window_statistics(ctx)


class TestNoiseChecker:
    def test_passes_on_simulator_noise(self):
        sim = SparkSimulator(noise=low_noise(), seed=0)
        assert check_noise_stream(VerificationContext(simulator=sim)) is True

    def test_extras_fallback(self):
        ctx = VerificationContext(extras={"noise": no_noise()})
        assert check_noise_stream(ctx) is True

    def test_impure_noise_raises(self):
        class ImpureNoise(NoiseModel):
            calls = 0

            def apply(self, g0, rng):
                ImpureNoise.calls += 1
                return g0 * (1.0 + 0.01 * ImpureNoise.calls)

        ctx = VerificationContext(extras={"noise": ImpureNoise(0.1, 0.0)})
        with pytest.raises(InvariantViolation, match="pure function"):
            check_noise_stream(ctx)

    def test_deflating_noise_raises(self):
        class DeflatingNoise(NoiseModel):
            def apply(self, g0, rng):
                return 0.9 * g0

        ctx = VerificationContext(extras={"noise": DeflatingNoise(0.1, 0.0)})
        with pytest.raises(InvariantViolation, match="deflated"):
            check_noise_stream(ctx)


class TestGpChecker:
    def _gp(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 2))
        y = np.sin(X[:, 0]) + X[:, 1]
        return GaussianProcessRegressor(
            kernel=Matern52Kernel(), noise=1e-4,
            normalize_y=False, optimize_hypers=False,
        ).fit(X, y)

    def test_passes_on_fitted_gp(self):
        ctx = VerificationContext(optimizer=FakeOptimizer(_model=self._gp()))
        results = default_registry().check_all(ctx)
        by_name = {r.invariant: r.checked for r in results}
        assert by_name["gp_posterior"] is True

    def test_negative_variance_raises(self):
        gp = self._gp()
        gp.predict_with_std = lambda X: (
            np.zeros(len(X)), np.full(len(X), -1.0)
        )
        ctx = VerificationContext(optimizer=FakeOptimizer(_model=gp))
        with pytest.raises(InvariantViolation, match="finite and >= 0"):
            default_registry().check_all(ctx)


class TestSessionHook:
    """A caller sweeps a live session after each step it drives."""

    @staticmethod
    def session(plan, simulator, space):
        return TuningSession(
            plan=plan, simulator=simulator,
            optimizer=CentroidLearning(space, seed=0),
        )

    def test_callable_hook_sees_every_record(self, q3_plan, quiet_simulator, spark_space):
        seen = []

        def record_seen(ctx):
            seen.append(ctx.record)
            return True

        registry = InvariantRegistry([Invariant("record_seen", record_seen)])
        session = self.session(q3_plan, quiet_simulator, spark_space)
        for _ in range(3):
            registry.check_session(session, session.step())
        assert seen == session.trace.records

    def test_registry_hook_runs_clean_and_counts_sweeps(
        self, q3_plan, quiet_simulator, spark_space
    ):
        registry = default_registry()
        session = self.session(q3_plan, quiet_simulator, spark_space)
        with telemetry.capture() as cap:
            for _ in range(4):
                registry.check_session(session, session.step())
        # Every sweep runs (checks or skips) each checker once.
        counters = cap.counters()
        checks = sum(v for k, v in counters.items() if k.startswith("verify.checks"))
        assert checks == 4 * len(registry)
        assert not any(k.startswith("verify.violations") for k in counters)

    def test_violating_hook_aborts_the_step(self, q3_plan, quiet_simulator, spark_space):
        registry = InvariantRegistry([
            Invariant("always_fails", lambda ctx: (_ for _ in ()).throw(
                InvariantViolation("always_fails", "nope"))),
        ])
        session = self.session(q3_plan, quiet_simulator, spark_space)
        with pytest.raises(InvariantViolation, match="always_fails"):
            for _ in range(2):
                registry.check_session(session, session.step())
        assert len(session.trace) == 1
