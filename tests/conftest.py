"""Shared fixtures for the test suite.

Opt-in suites (``verify``, ``stages``) are deselected from default runs to
keep tier-1 fast; run them with ``pytest -m verify`` / ``pytest -m stages``
(or ``make verify`` / ``make stages``).  The ``chaos``, ``drift`` and
``telemetry`` markers are deliberately *not* deselected: their tests run in
tier-1, the markers only exist to focus them (``pytest -m chaos``) — the
full tier map is in ``docs/testing.md``.
"""

import re

import numpy as np
import pytest

# Markers whose tests are opt-in: skipped unless the marker appears (as a
# whole word) in the -m expression, so both `-m verify` and `-m "not
# verify"` address the suite explicitly while unrelated markers that merely
# contain the word (e.g. a hypothetical `verify_slow`) do not.
_OPT_IN_MARKERS = ("verify", "stages")


def pytest_collection_modifyitems(config, items):
    markexpr = config.getoption("-m", default="") or ""
    for marker in _OPT_IN_MARKERS:
        if re.search(rf"\b{marker}\b", markexpr):
            continue  # the user asked for (or excluded) this suite explicitly
        skip = pytest.mark.skip(
            reason=f"{marker} suite: run with `pytest -m {marker}`"
        )
        for item in items:
            # get_closest_marker, not `marker in item.keywords`: keywords
            # also contain parent node names, so a tests/verify/ directory
            # or a test_chaos_* function would otherwise be skipped even
            # without the marker.
            if item.get_closest_marker(marker) is not None:
                item.add_marker(skip)

from repro.core.config_space import ConfigSpace, Parameter
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import no_noise
from repro.workloads.tpch import tpch_plan


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_space():
    """A simple 3-knob space with mixed scales."""
    return ConfigSpace([
        Parameter(name="linear", low=0.0, high=100.0, default=50.0),
        Parameter(name="logscale", low=1.0, high=10000.0, default=100.0, log_scale=True),
        Parameter(name="count", low=1, high=64, default=8, integer=True),
    ])


@pytest.fixture
def spark_space():
    return query_level_space()


@pytest.fixture
def q3_plan():
    return tpch_plan(3, scale_factor=1.0)


@pytest.fixture
def quiet_simulator():
    return SparkSimulator(noise=no_noise(), seed=0)
