"""The scalar and batch cost paths fold float totals in the same order on
every interpreter.

Since Python 3.12 the builtin ``sum()`` over floats is compensated
(Neumaier), while ``estimate_batch`` and lock-step's leaf totals add in
order.  These tests plant 3.12's ``sum`` as the module-global ``sum`` of
the cost model and the plan module, then check the bitwise contracts that a
compensated total would break; on any interpreter they pass only if those
modules do not call ``sum()`` on floats.
"""

import math

import numpy as np
import pytest

from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.experiments.lockstep import LockstepSessions, SessionSpec, run_sequential
from repro.sparksim import cost_model, plan as plan_module
from repro.sparksim.configs import query_level_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel
from repro.verify.diff import session_trail, twin_run
from repro.workloads.tpcds import tpcds_plan
from repro.workloads.tpch import tpch_plan


def neumaier_sum(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``: exact while the items are ints, then
    Neumaier-compensated over floats, the compensation added at the end."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if isinstance(total, float):
            break
    else:
        return total
    f, c = float(total), 0.0
    for item in items:
        x = float(item)
        t = f + x
        if abs(f) >= abs(x):
            c += (f - t) + x
        else:
            c += (x - t) + f
        f = t
    if c and math.isfinite(c):
        f += c
    return f


def test_neumaier_sum_compensates():
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert neumaier_sum([1, 2, 3]) == 6


@pytest.fixture
def planted_sum(monkeypatch):
    for module in (cost_model, plan_module):
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)


def _plans():
    return [tpch_plan(q, 100.0) for q in (1, 3, 5, 9, 18)] + [
        tpcds_plan(q, 100.0) for q in (1, 23, 64)
    ]


@pytest.mark.parametrize("scale", [1.0, 1.37])
def test_estimate_equals_estimate_batch_under_a_compensated_sum(planted_sum, scale):
    model = CostModel()
    space = query_level_space()
    configs = [
        space.to_dict(v)
        for v in space.latin_hypercube(12, np.random.default_rng(4))
    ]
    for plan in _plans():
        batch = model.estimate_batch(plan, configs, data_scale=scale)
        scalar = np.array([
            model.estimate(plan, config, data_scale=scale).total_seconds
            for config in configs
        ])
        assert np.array_equal(batch, scalar), plan.name


def test_drifting_lockstep_equals_sequential_under_a_compensated_sum(planted_sum):
    space = query_level_space()
    plan = tpcds_plan(23, 100.0)

    def specs():
        return [
            SessionSpec(
                plan=plan,
                simulator=SparkSimulator(noise=NoiseModel(0.25, 0.3), seed=70 + k),
                optimizer=CentroidLearning(space, seed=k, guardrail=Guardrail()),
                scale_fn=lambda t, k=k: 1.0 + 0.13 * ((t + k) % 5),
            )
            for k in range(4)
        ]

    def arm(run):
        def go():
            population = specs()
            return run(population), [spec.optimizer for spec in population]
        return go

    report = twin_run(
        "lockstep_vs_sequential_compensated_sum",
        arm(lambda population: LockstepSessions(population).run(14)),
        arm(lambda population: run_sequential(population, 14)),
        session_trail,
    )
    assert report.equivalent, report.summary()
