"""Tier-1 tests for the lock-step vectorized session engine.

The heavyweight differential/property evidence lives in the ``verify``
suite (``repro.verify.diff.diff_lockstep_sequential``,
``tests/verify/test_properties.py``); this module keeps a fast tier-1
pin on the core contract — bit-identity to the sequential loop on a small
mixed population — plus the compatibility-validation and state-sync
behavior, and ``run_replicated`` against a plain ``run_single`` loop on
both of its paths.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.centroid import CentroidLearning, default_window_model_factory
from repro.core.config_space import ConfigSpace, Parameter
from repro.core.find_best import FindBestMode
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.core.selectors import SurrogateSelector
from repro.core.switch import SafeExplorationGate, TaskSwitchDetector
from repro.experiments.lockstep import (
    LockstepCompatibilityError,
    LockstepReplicatedRuns,
    LockstepSessions,
    SessionSpec,
    run_sequential,
)
from repro.experiments.runner import run_replicated, run_single
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultySimulator
from repro.ml.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
)
from repro.ml.linear import PolynomialFeatures, RidgeRegression
from repro.ml.scaler import Pipeline, StandardScaler
from repro.optimizers.flow2 import FLOW2
from repro.optimizers.random_search import RandomSearch
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel, no_noise
from repro.workloads.dynamics import LinearGrowth
from repro.workloads.synthetic import default_synthetic_objective
from repro.workloads.tpch import tpch_plan

N_ITERATIONS = 8


def _selector(**kwargs):
    return {"selector": SurrogateSelector(default_window_model_factory, **kwargs)}


# Batched shapes beyond the default: each builds a session's extra kwargs.
SHAPES = {
    "raw_find_best": lambda: {"find_best_mode": FindBestMode.RAW},
    "normalized_find_best": lambda: {"find_best_mode": FindBestMode.NORMALIZED},
    "multiplicative_probe": lambda: {"probe": "multiplicative"},
    "ei": lambda: _selector(acquisition=ExpectedImprovement()),
    "pi": lambda: _selector(acquisition=ProbabilityOfImprovement()),
    "lcb": lambda: _selector(acquisition=LowerConfidenceBound()),
}


def mixed_population(shape=dict):
    """Six sessions: two plans, noise spread, faults, drift, a transform.

    ``shape()`` gives extra optimizer kwargs, the same for every session.
    """
    space = query_level_space()
    specs = []
    for k in range(6):
        simulator = SparkSimulator(
            noise=NoiseModel(fluctuation_level=0.1 * k, spike_level=0.3 * k),
            seed=50 + k,
        )
        if k % 3 == 0:
            simulator = FaultySimulator(simulator, FaultPlan(
                [FaultSpec(FaultKind.LATENCY_SPIKE, at=(1, 4), magnitude=3.0)],
                seed=k,
            ))
        specs.append(SessionSpec(
            plan=tpch_plan(3 if k % 2 else 6),
            simulator=simulator,
            optimizer=CentroidLearning(
                space,
                alpha=0.05 + 0.01 * k, beta=0.08 + 0.02 * k,
                guardrail=Guardrail(min_iterations=3, threshold=0.2,
                                    patience=2, cooldown=3),
                seed=k,
                **shape(),
            ),
            scale_fn=(lambda t: 1.0 + 0.05 * t) if k == 2 else None,
            observe_transform=(lambda t, obs: obs * 1.1) if k == 4 else None,
        ))
    return specs


def assert_traces_equal(lock_traces, seq_traces):
    assert len(lock_traces) == len(seq_traces)
    for lock, seq in zip(lock_traces, seq_traces):
        assert lock.records == seq.records


class TestBitIdentity:
    def test_mixed_population_matches_sequential(self):
        lock_traces = LockstepSessions(mixed_population()).run(N_ITERATIONS)
        seq_traces = run_sequential(mixed_population(), N_ITERATIONS)
        assert_traces_equal(lock_traces, seq_traces)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_batched_shape_matches_sequential(self, shape):
        lock_traces = LockstepSessions(mixed_population(SHAPES[shape])).run(16)
        seq_traces = run_sequential(mixed_population(SHAPES[shape]), 16)
        assert_traces_equal(lock_traces, seq_traces)

    def test_single_session_matches_plain_session(self):
        spec = mixed_population()[1]
        lock_trace = LockstepSessions([mixed_population()[1]]).run(N_ITERATIONS)[0]
        seq_trace = spec.to_session().run(N_ITERATIONS)
        assert lock_trace.records == seq_trace.records

    def test_advance_is_resumable(self):
        # Two advances of 4 equal one run of 8 — the engine's buffers and
        # model memoization survive the boundary.
        split = LockstepSessions(mixed_population())
        split.advance(4)
        split.advance(4)
        whole_traces = LockstepSessions(mixed_population()).run(8)
        assert_traces_equal(split.traces(), whole_traces)


class TestStateSync:
    def test_optimizers_usable_after_run(self):
        specs = mixed_population()
        LockstepSessions(specs).run(N_ITERATIONS)
        seq_specs = mixed_population()
        run_sequential(seq_specs, N_ITERATIONS)
        for lock_spec, seq_spec in zip(specs, seq_specs):
            lock_opt, seq_opt = lock_spec.optimizer, seq_spec.optimizer
            assert np.array_equal(lock_opt.centroid, seq_opt.centroid)
            assert len(lock_opt.observations) == len(seq_opt.observations)
            for a, b in zip(lock_opt.observations.history,
                            seq_opt.observations.history):
                assert np.array_equal(a.config, b.config)
                assert a.performance == b.performance
                assert a.data_size == b.data_size
                assert a.iteration == b.iteration
            assert lock_opt.guardrail.decisions == seq_opt.guardrail.decisions
            assert lock_opt.guardrail.active == seq_opt.guardrail.active
            # The synced optimizer keeps tuning standalone, deterministically.
            va = lock_opt.suggest(data_size=1000.0)
            vb = seq_opt.suggest(data_size=1000.0)
            assert np.array_equal(va, vb)

    def test_tuning_active_reflects_guardrail_state(self):
        engine = LockstepSessions(mixed_population())
        engine.advance(N_ITERATIONS)
        active = engine.tuning_active
        assert active.shape == (6,)
        assert active.dtype == bool

    def test_guardrails_are_live_after_each_step(self):
        # step() drives the sessions' own guardrails, so they read as the
        # sequential twins' do without an advance().
        specs, seq_specs = mixed_population(), mixed_population()
        engine = LockstepSessions(specs)
        for _ in range(N_ITERATIONS):
            engine.step()
        run_sequential(seq_specs, N_ITERATIONS)
        for lock_spec, seq_spec in zip(specs, seq_specs):
            lock_g, seq_g = lock_spec.optimizer.guardrail, seq_spec.optimizer.guardrail
            assert lock_g.n_observations == N_ITERATIONS
            assert lock_g.decisions == seq_g.decisions
            assert lock_g.active == seq_g.active
        assert any(spec.optimizer.guardrail.decisions for spec in specs)

    def test_reused_guardrails_keep_their_audit_trail(self):
        # reset() clears the fit state but keeps the decision log and the
        # re-enable count, so a reset guardrail passes the freshness rule
        # and must carry that trail through the run as the sequential
        # loop does.
        def worn_guardrail():
            g = Guardrail(min_iterations=3, threshold=0.1, patience=1, cooldown=1)
            for i in range(8):  # doubling: disable, re-enable, disable, ...
                g.update(Observation(config=np.zeros(1), data_size=100.0,
                                     performance=2.0 ** i, iteration=i))
            assert g.reenable_count == 3 and len(g.decisions) == 3
            g.reset()
            return g

        def population():
            specs = mixed_population()
            for spec in specs:
                spec.optimizer.guardrail = worn_guardrail()
            return specs

        specs, seq_specs = population(), population()
        LockstepSessions(specs).run(N_ITERATIONS)
        run_sequential(seq_specs, N_ITERATIONS)
        for lock_spec, seq_spec in zip(specs, seq_specs):
            lock_g, seq_g = lock_spec.optimizer.guardrail, seq_spec.optimizer.guardrail
            assert lock_g.decisions == seq_g.decisions
            assert lock_g.reenable_count == seq_g.reenable_count


class TestValidation:
    def test_rejects_non_centroid_optimizer(self):
        space = query_level_space()
        spec = SessionSpec(
            plan=tpch_plan(3),
            simulator=SparkSimulator(noise=no_noise(), seed=0),
            optimizer=RandomSearch(space, seed=0),
        )
        with pytest.raises(LockstepCompatibilityError, match="CentroidLearning"):
            LockstepSessions([spec])

    def test_rejects_subclassed_optimizer(self):
        class Tweaked(CentroidLearning):
            pass

        spec = mixed_population()[0]
        spec.optimizer = Tweaked(query_level_space(), seed=0)
        with pytest.raises(LockstepCompatibilityError, match="CentroidLearning"):
            LockstepSessions([spec])

    def test_rejects_subclassed_model_step(self):
        class TweakedRidge(RidgeRegression):
            def fit(self, X, y):
                return super().fit(X, 2.0 * np.asarray(y))

        def model_factory():
            return Pipeline([
                ("scale", StandardScaler()),
                ("poly", PolynomialFeatures(degree=2)),
                ("ridge", TweakedRidge(alpha=1.0)),
            ])

        specs = mixed_population(lambda: {"model_factory": model_factory})
        with pytest.raises(LockstepCompatibilityError, match="model"):
            LockstepSessions(specs)

    @pytest.mark.parametrize("reason, kwargs", [
        ("switch_detector", {"switch_detector": TaskSwitchDetector()}),
        ("safe_gate", {"safe_gate": SafeExplorationGate()}),
    ], ids=["switch_detector", "safe_gate"])
    def test_rejects_detector_or_gate_session(self, reason, kwargs):
        # Detectors and gates run only in the scalar classes: one armed
        # session is enough to send the population to the sequential path.
        specs = mixed_population()[:3]
        specs[2].optimizer = CentroidLearning(
            query_level_space(),
            guardrail=Guardrail(min_iterations=3, threshold=0.2,
                                patience=2, cooldown=3),
            seed=2, **kwargs,
        )
        with pytest.raises(LockstepCompatibilityError, match=reason):
            LockstepSessions(specs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"beta": 1.5}, r"beta must be in \(0, 1\]"),
        ({"beta": 0.0}, r"beta must be in \(0, 1\]"),
        ({"beta": -0.1}, r"beta must be in \(0, 1\]"),
        ({"beta": float("nan")}, r"beta must be in \(0, 1\]"),
        ({"n_candidates": 0}, "n_candidates must be >= 1"),
    ], ids=["beta=1.5", "beta=0", "beta=-0.1", "beta=nan", "n_candidates=0"])
    def test_rejects_bad_step_beta_settings(self, kwargs, message):
        # The population's candidate draw is one unchecked kernel call, so
        # a bad value must be refused before the first step.
        with pytest.raises(ValueError, match=message):
            LockstepSessions([SessionSpec(
                plan=tpch_plan(3),
                simulator=SparkSimulator(noise=no_noise(), seed=0),
                optimizer=CentroidLearning(query_level_space(), seed=0, **kwargs),
            )]).run(5)

    def test_rejects_mixed_guardrail_presence(self):
        specs = mixed_population()[:2]
        specs[1].optimizer = CentroidLearning(query_level_space(), seed=1)
        with pytest.raises(LockstepCompatibilityError, match="guardrail"):
            LockstepSessions(specs)

    @pytest.mark.parametrize("shared", ["optimizer", "guardrail"])
    def test_rejects_shared_state(self, shared):
        # One object behind two sessions would be fed both sessions' steps,
        # unlike the sequential loop, which runs the sessions one by one.
        specs = mixed_population()[:2]
        if shared == "optimizer":
            specs[1].optimizer = specs[0].optimizer
        else:
            specs[1].optimizer.guardrail = specs[0].optimizer.guardrail
        with pytest.raises(LockstepCompatibilityError, match="own its optimizer"):
            LockstepSessions(specs)

    def test_rejects_nonuniform_window_size(self):
        specs = mixed_population()[:2]
        specs[1].optimizer = CentroidLearning(
            query_level_space(), window_size=4,
            guardrail=Guardrail(min_iterations=3, threshold=0.2,
                                patience=2, cooldown=3),
            seed=1,
        )
        with pytest.raises(LockstepCompatibilityError, match="window_size"):
            LockstepSessions(specs)

    def test_rejects_stale_optimizer(self):
        spec = mixed_population()[0]
        spec.optimizer.observe(Observation(
            config=spec.optimizer.space.default_vector(),
            data_size=100.0, performance=1.0, iteration=0,
        ))
        with pytest.raises(LockstepCompatibilityError, match="fresh"):
            LockstepSessions([spec])

    def test_rejects_high_dimensional_space(self):
        wide = ConfigSpace([
            Parameter(name=f"knob{i}", low=0.0, high=10.0, default=5.0)
            for i in range(13)
        ])
        spec = SessionSpec(
            plan=tpch_plan(3),
            simulator=SparkSimulator(noise=no_noise(), seed=0),
            optimizer=CentroidLearning(wide, seed=0),
        )
        with pytest.raises(LockstepCompatibilityError, match="dim"):
            LockstepSessions([spec])

    def test_rejects_empty_population(self):
        with pytest.raises(LockstepCompatibilityError, match="at least one"):
            LockstepSessions([])


class TestLockstepReplicatedRuns:
    @pytest.fixture
    def objective(self):
        return default_synthetic_objective(seed=2)

    def test_matches_run_single_bitwise(self, objective):
        n_runs, seed = 5, 3
        optimizers = [
            CentroidLearning(objective.space, seed=100 + i) for i in range(n_runs)
        ]
        engine = LockstepReplicatedRuns(
            optimizers,
            objective,
            [LinearGrowth(initial=objective.reference_size, slope=25.0)
             for _ in range(n_runs)],
            [np.random.default_rng(seed * 10007 + i) for i in range(n_runs)],
        )
        engine.advance(N_ITERATIONS)
        for track in ("true", "normed", "gap"):
            matrix = engine.runs(track)
            for i in range(n_runs):
                expected = run_single(
                    CentroidLearning(objective.space, seed=100 + i),
                    objective, N_ITERATIONS,
                    size_process=LinearGrowth(
                        initial=objective.reference_size, slope=25.0
                    ),
                    rng=np.random.default_rng(seed * 10007 + i),
                    track=track,
                )
                assert np.array_equal(matrix[i], expected)

    def test_rejects_without_touching_state(self, objective):
        optimizers = [
            CentroidLearning(objective.space, seed=0),
            CentroidLearning(objective.space, window_size=7, seed=1),
        ]
        rngs = [np.random.default_rng(i) for i in range(2)]
        states = [o._rng.bit_generator.state for o in optimizers]
        noise_states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(LockstepCompatibilityError, match="window_size"):
            LockstepReplicatedRuns(
                optimizers, objective,
                [LinearGrowth(initial=objective.reference_size, slope=0.0)] * 2,
                rngs,
            )
        # run_replicated reuses a rejected population for its plain loop.
        assert [o._rng.bit_generator.state for o in optimizers] == states
        assert [rng.bit_generator.state for rng in rngs] == noise_states
        assert all(len(o.observations) == 0 for o in optimizers)
        with pytest.raises(LockstepCompatibilityError, match="CentroidLearning"):
            LockstepReplicatedRuns(
                [RandomSearch(objective.space, seed=0)], objective,
                [LinearGrowth(initial=objective.reference_size, slope=0.0)],
                [np.random.default_rng(0)],
            )

    def test_rejects_unknown_track(self, objective):
        engine = LockstepReplicatedRuns(
            [CentroidLearning(objective.space, seed=0)],
            objective,
            [LinearGrowth(initial=objective.reference_size, slope=0.0)],
            [np.random.default_rng(0)],
        )
        engine.advance(2)
        with pytest.raises(ValueError, match="track"):
            engine.runs("median")


def reference_runs(factory, objective, n_iterations, n_runs,
                   size_process_factory=None, seed=0, track="true"):
    """``run_replicated``'s contract as a plain loop: run ``i`` owns
    ``factory(i)``, ``size_process_factory(i)`` and a noise RNG seeded
    ``seed*10007 + i``."""
    return np.stack([
        run_single(
            factory(i), objective, n_iterations,
            size_process=size_process_factory(i) if size_process_factory else None,
            rng=np.random.default_rng(seed * 10007 + i),
            track=track,
        )
        for i in range(n_runs)
    ])


# run index -> optimizer.  Lock-step runs the plain Centroid Learning
# population; it rejects the others, which run_replicated then loops over
# in-process.
POPULATIONS = {
    "centroid_learning": lambda space, i: CentroidLearning(space, seed=10 + i),
    "random_search": lambda space, i: RandomSearch(space, seed=10 + i),
    # Adaptive, so each run's noise RNG shapes its trajectory.
    "flow2": lambda space, i: FLOW2(space, seed=10 + i),
    # Centroid Learning outside the batched shape rule.
    "switch_detector": lambda space, i: CentroidLearning(
        space, seed=10 + i, switch_detector=TaskSwitchDetector()
    ),
    "safe_gate": lambda space, i: CentroidLearning(
        space, seed=10 + i, safe_gate=SafeExplorationGate()
    ),
}
LOCKSTEP_POPULATIONS = {"centroid_learning"}


class TestRunReplicated:
    @pytest.fixture
    def objective(self):
        return default_synthetic_objective(seed=2)  # noisy: the RNGs matter

    @staticmethod
    def drifting(objective):
        return lambda i: LinearGrowth(
            initial=objective.reference_size, slope=25.0 * (i + 1)
        )

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("population", sorted(POPULATIONS))
    def test_matches_reference_loop(self, objective, population, seed):
        factory = lambda i: POPULATIONS[population](objective.space, i)
        for track in ("true", "normed", "gap"):
            kwargs = dict(
                size_process_factory=self.drifting(objective), seed=seed,
                track=track,
            )
            with telemetry.capture() as cap:
                bands = run_replicated(factory, objective, N_ITERATIONS, 4, **kwargs)
            expected = reference_runs(factory, objective, N_ITERATIONS, 4, **kwargs)
            assert np.array_equal(bands.runs, expected)
            # Both paths count every run; only the in-process loop times them.
            assert cap.counters()["experiments.runs"] == 4
            timings = cap.registry.snapshot()["histograms"]
            if population in LOCKSTEP_POPULATIONS:
                assert "experiments.run_seconds" not in timings
            else:
                assert timings["experiments.run_seconds"]["count"] == 4

    @pytest.mark.parametrize("population", sorted(POPULATIONS))
    def test_collect_in_run_order(self, objective, population):
        built = []

        def factory(i):
            built.append(POPULATIONS[population](objective.space, i))
            return built[-1]

        bands, payloads = run_replicated(
            factory, objective, 5, 3, seed=2,
            collect=lambda opt: (id(opt), len(opt.observations)),
        )
        assert bands.runs.shape == (3, 5)
        assert payloads == [(id(opt), 5) for opt in built]

    @pytest.mark.parametrize("population", sorted(POPULATIONS))
    def test_factories_called_once(self, objective, population):
        optimizer_calls, size_calls = [], []
        drifting = self.drifting(objective)

        def factory(i):
            optimizer_calls.append(i)
            return POPULATIONS[population](objective.space, i)

        def size_process_factory(i):
            size_calls.append(i)
            return drifting(i)

        run_replicated(factory, objective, 3, 4,
                       size_process_factory=size_process_factory)
        assert optimizer_calls == [0, 1, 2, 3]
        assert size_calls == [0, 1, 2, 3]
