"""The scalar Centroid-Learning step on the shared kernels, against the
generic path.

A session inside the update half of the shape rule
(:func:`repro.core.batched_step.update_profile`) fits its window with the
batched kernel at K=1, updates with ``centroid_step``, and its selector and
safe gate score from that one memoized fit.  The generic path — a fitted
``Pipeline``, ``find_best`` and ``ml_sign_gradient`` — is the reference:
a factory returning a trivial ``Pipeline`` subclass takes it, because the
shape rule checks exact types.  Each population runs once per path and the
whole tuning state must agree bit for bit.
"""

import importlib

import numpy as np
import pytest

from repro import telemetry
from repro.core.batched_step import BatchProfile
from repro.core.centroid import CentroidLearning
from repro.core.find_best import FindBestMode
from repro.core.guardrail import Guardrail
from repro.core.selectors import BaselineModelAdapter, SurrogateSelector
from repro.core.session import TuningSession
from repro.core.switch import SafeExplorationGate, TaskSwitchDetector
from repro.embedding.embedder import WorkloadEmbedder
from repro.experiments.fig10_svr_surrogate import svr_factory
from repro.ml.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    MeanMinimizer,
    ProbabilityOfImprovement,
)
from repro.ml.linear import LinearRegression, PolynomialFeatures, RidgeRegression
from repro.ml.scaler import Pipeline, StandardScaler
from repro.ml.svr import SVR
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel
from repro.telemetry.tracing import InMemoryExporter
from repro.verify.diff import session_trail, twin_run
from repro.workloads.tpch import tpch_plan

find_best_module = importlib.import_module("repro.core.find_best")

SPACE = query_level_space()
QUERIES = (3, 5, 9)


class _ReferencePipeline(Pipeline):
    """Not an exact ``Pipeline``: the shape rule sends it down the generic path."""


def _factory(pipeline_type, alpha=1.0):
    def factory():
        return pipeline_type([
            ("scale", StandardScaler()),
            ("poly", PolynomialFeatures(degree=2)),
            ("ridge", RidgeRegression(alpha=alpha)),
        ])
    return factory


def _baseline():
    embedder = WorkloadEmbedder()
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 3.0, size=(64, embedder.dim + SPACE.dim + 1))
    model = LinearRegression().fit(X, X @ rng.uniform(0.5, 1.5, size=X.shape[1]))
    return BaselineModelAdapter(model, embedder.dim), embedder


def _degrading(t, seconds):
    """Observed times that regress from step 10: the guardrail disables."""
    return seconds * (1.0 + 0.25 * max(0, t - 10))


def _run_population(build, factory, n_iterations=24, scale_fn=None,
                    observe_transform=None, embedder=None):
    optimizers, traces = [], []
    for k, query in enumerate(QUERIES):
        optimizer = build(factory, k)
        session = TuningSession(
            tpch_plan(query, 10.0),
            SparkSimulator(noise=NoiseModel(0.25, 0.3), seed=50 + k),
            optimizer,
            embedder=embedder,
            scale_fn=scale_fn,
            observe_transform=observe_transform,
        )
        traces.append(session.run(n_iterations))
        optimizers.append(optimizer)
    return traces, optimizers


def _selector(acquisition):
    return lambda factory: SurrogateSelector(factory, acquisition=acquisition)


POPULATIONS = {
    "span_model": {},
    "multiplicative_probe": {"probe": "multiplicative"},
    "raw_find_best": {"find_best_mode": FindBestMode.RAW},
    "normalized_find_best": {"find_best_mode": FindBestMode.NORMALIZED},
    "expected_improvement": {"selector": _selector(ExpectedImprovement())},
    "probability_of_improvement": {"selector": _selector(ProbabilityOfImprovement())},
    "lower_confidence_bound": {"selector": _selector(LowerConfidenceBound())},
    "mean_minimizer_window_5": {
        "selector": _selector(MeanMinimizer()), "window_size": 5,
    },
    "alpha_decay": {"alpha_decay": 0.3, "alpha": 0.1},
    "ridge_strength": {"ridge_alpha": 0.25},
}


def _builder(kwargs, extra=None):
    kwargs = dict(kwargs)
    make_selector = kwargs.pop("selector", None)
    ridge_alpha = kwargs.pop("ridge_alpha", None)
    extra = extra or (lambda k: {})

    def build(pipeline_type, k):
        factory = _factory(pipeline_type, ridge_alpha if ridge_alpha else 1.0)
        options = dict(kwargs, **extra(k))
        if make_selector is not None:
            options["selector"] = make_selector(factory)
        return CentroidLearning(
            SPACE, seed=7 + k, model_factory=factory, **options
        )
    return build


def _step_attributes(spans):
    """The decision attributes of every step and update span, in order:
    candidate scores, picks, c*, Δ and the centroid moves."""
    return [
        (record.name, record.attributes)
        for record in spans.spans
        if record.name in ("session.step", "centroid.update")
    ]


def _assert_kernel_equals_reference(name, build, **run_kwargs):
    runs = {}

    def arm(pipeline_type):
        def run():
            # Keep the arm's spans too: a trail only shows a model change
            # that flips a decision, the candidate scores show any.
            spans = InMemoryExporter()
            telemetry.tracer().add_exporter(spans)
            runs[pipeline_type] = (_run_population(build, pipeline_type, **run_kwargs), spans)
            return runs[pipeline_type][0]
        return run

    report = twin_run(
        name, arm(Pipeline), arm(_ReferencePipeline), session_trail, ignore_counters=(),
    )
    assert report.equivalent, report.summary()
    (kernel_run, kernel_spans), (reference_run, reference_spans) = (
        runs[Pipeline], runs[_ReferencePipeline],
    )
    kernel_steps = _step_attributes(kernel_spans)
    assert any("candidate_scores" in attrs for _, attrs in kernel_steps)
    assert kernel_steps == _step_attributes(reference_spans)
    kernel_opts, reference_opts = kernel_run[1], reference_run[1]
    assert all(isinstance(o.update_profile, BatchProfile) for o in kernel_opts)
    assert all(o.update_profile == "model" for o in reference_opts)
    assert all(o._n_updates > 0 for o in kernel_opts)
    return kernel_run


@pytest.mark.parametrize("name", list(POPULATIONS))
def test_kernel_step_equals_the_generic_reference(name):
    _assert_kernel_equals_reference(name, _builder(POPULATIONS[name]))


def test_guardrail_disable_and_cooldown_reenable():
    build = _builder({}, extra=lambda k: {
        "guardrail": Guardrail(min_iterations=4, threshold=0.15, patience=2, cooldown=3),
    })
    traces, opts = _assert_kernel_equals_reference(
        "guardrail", build, n_iterations=30, observe_transform=_degrading,
    )
    assert any(not r.tuning_active for trace in traces for r in trace.records)
    assert sum(o.guardrail.reenable_count for o in opts) > 0


def test_baseline_selector():
    adapter, embedder = _baseline()
    build = _builder({"selector": lambda factory: SurrogateSelector(
        factory, baseline=adapter, min_observations=4,
    )})
    _assert_kernel_equals_reference("baseline", build, embedder=embedder)


def test_switch_detector():
    build = _builder({}, extra=lambda k: {"switch_detector": TaskSwitchDetector()})
    _, opts = _assert_kernel_equals_reference(
        "switch_detector", build, n_iterations=30,
        scale_fn=lambda t: 1.0 if t < 14 else 6.0,
    )
    assert all(o.reanchor_count > 0 for o in opts)


@pytest.mark.parametrize("gate_min", [2, 3], ids=["gate_before_update", "gate_with_update"])
def test_safe_gate(gate_min):
    build = _builder({}, extra=lambda k: {
        "safe_gate": SafeExplorationGate(bound=0.05, min_observations=gate_min),
    })
    _assert_kernel_equals_reference(f"safe_gate_{gate_min}", build)


# -- one fit per observation ----------------------------------------------------


@pytest.fixture
def fit_counts(monkeypatch):
    """Count kernel fits and ``Pipeline.fit`` calls."""
    counts = {"kernel": 0, "pipeline": 0}
    kernel_fit = find_best_module.fit_ridge_pipeline
    pipeline_fit = Pipeline.fit

    def counting_kernel(*args, **kwargs):
        counts["kernel"] += 1
        return kernel_fit(*args, **kwargs)

    def counting_pipeline(self, *args, **kwargs):
        counts["pipeline"] += 1
        return pipeline_fit(self, *args, **kwargs)

    monkeypatch.setattr(find_best_module, "fit_ridge_pipeline", counting_kernel)
    monkeypatch.setattr(Pipeline, "fit", counting_pipeline)
    return counts


def _session(optimizer, n_iterations=20):
    TuningSession(
        tpch_plan(5, 10.0), SparkSimulator(noise=NoiseModel(0.25, 0.3), seed=3),
        optimizer,
    ).run(n_iterations)
    return optimizer


def test_in_shape_session_fits_once_per_update_and_never_a_pipeline(fit_counts):
    optimizer = _session(CentroidLearning(SPACE, seed=1, guardrail=Guardrail()))
    assert isinstance(optimizer.update_profile, BatchProfile)
    # Every step from the third on updates; the selector reads that fit.
    assert optimizer._n_updates == 18
    assert fit_counts == {"kernel": 18, "pipeline": 0}


@pytest.mark.parametrize("gate_min, extra_fits", [(3, 0), (2, 1)],
                         ids=["gate_with_update", "gate_before_update"])
def test_gated_session_fits_once_per_observation(fit_counts, gate_min, extra_fits):
    optimizer = _session(CentroidLearning(
        SPACE, seed=1, safe_gate=SafeExplorationGate(min_observations=gate_min),
    ))
    # One fit per window version that needs H: each update's, which the gate
    # and the selector then read, plus the gate's own at version 2 when it
    # trusts two points and the update needs three.
    assert fit_counts == {"kernel": optimizer._n_updates + extra_fits, "pipeline": 0}


def test_out_of_shape_session_keeps_the_generic_fit(fit_counts):
    optimizer = _session(CentroidLearning(SPACE, seed=1, gradient_mode="linear"))
    assert optimizer.update_profile == "gradient"
    assert fit_counts == {"kernel": 0, "pipeline": optimizer._n_updates}


def test_each_optimizer_is_probed_once_at_its_first_fit():
    calls = []

    def factory():
        calls.append(1)
        return _factory(Pipeline)()

    optimizer = CentroidLearning(SPACE, seed=1, model_factory=factory)
    assert calls == []  # construction never probes
    _session(optimizer)
    # The probe's call, then nothing: kernel fits build no model objects.
    assert len(calls) == 1 and optimizer._n_updates > 0


def test_foreign_selector_factory_never_reads_the_kernel_fit(monkeypatch):
    svr_fits = []
    svr_fit = SVR.fit

    def counting_fit(self, X, y):
        svr_fits.append(len(y))
        return svr_fit(self, X, y)

    monkeypatch.setattr(SVR, "fit", counting_fit)
    build = _builder({"selector": lambda factory: SurrogateSelector(svr_factory)})
    _assert_kernel_equals_reference("svr_selector", build, n_iterations=12)
    # Both arms fit the SVR at every warm step (the third of 12 onwards).
    assert len(svr_fits) == 2 * len(QUERIES) * 9
