"""Acceptance: the full registry sweeps clean inline on realistic sessions.

Two sessions together exercise all five built-in checkers:

* a fig-02-style noisy Centroid Learning run (high Eq.-8 noise, guardrail
  with cooldown) covers centroid/guardrail/window/noise;
* a Bayesian-optimization run covers the GP-posterior checker.
"""

import pytest

from repro import telemetry
from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.core.session import TuningSession
from repro.optimizers.bayesian import BayesianOptimization
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import high_noise, low_noise
from repro.verify import default_registry
from repro.workloads.tpch import tpch_plan

pytestmark = pytest.mark.verify


def run_checked(registry, session, n_iterations):
    """Drive ``session``, sweeping the registry after every step; raises
    InvariantViolation on any broken invariant."""
    for _ in range(n_iterations):
        registry.check_session(session, session.step())


def checked_names(registry, session):
    return {
        r.invariant
        for r in registry.check_session(session, raise_on_violation=False)
        if r.checked and r.violation is None
    }


def test_noisy_centroid_session_sweeps_clean():
    space = query_level_space()
    registry = default_registry()
    session = TuningSession(
        plan=tpch_plan(3, scale_factor=1.0),
        simulator=SparkSimulator(noise=high_noise(), seed=0),
        optimizer=CentroidLearning(
            space, window_size=8, seed=0,
            guardrail=Guardrail(min_iterations=15, patience=2, cooldown=4),
        ),
    )
    with telemetry.capture() as cap:
        run_checked(registry, session, 60)
    counters = cap.counters()
    checks = sum(v for k, v in counters.items() if k.startswith("verify.checks"))
    assert checks == 60 * len(registry)
    assert not any(k.startswith("verify.violations") for k in counters)
    assert checked_names(registry, session) == {
        "centroid_in_bounds", "guardrail_cooldown",
        "window_statistics", "noise_stream",
    }


def test_bayesian_session_covers_gp_checker():
    space = query_level_space()
    registry = default_registry()
    session = TuningSession(
        plan=tpch_plan(6, scale_factor=1.0),
        simulator=SparkSimulator(noise=low_noise(), seed=0),
        optimizer=BayesianOptimization(space, n_init=4, seed=0),
    )
    run_checked(registry, session, 10)
    assert "gp_posterior" in checked_names(registry, session)


def test_both_sessions_cover_all_five_checkers():
    space = query_level_space()
    registry = default_registry()
    cl = TuningSession(
        plan=tpch_plan(3), simulator=SparkSimulator(noise=high_noise(), seed=1),
        optimizer=CentroidLearning(
            space, window_size=8, seed=1,
            guardrail=Guardrail(min_iterations=15, patience=2, cooldown=4),
        ),
    )
    bo = TuningSession(
        plan=tpch_plan(6), simulator=SparkSimulator(noise=low_noise(), seed=1),
        optimizer=BayesianOptimization(space, n_init=4, seed=1),
    )
    run_checked(registry, cl, 30)
    run_checked(registry, bo, 8)
    union = checked_names(registry, cl) | checked_names(registry, bo)
    assert union == set(registry.names())
