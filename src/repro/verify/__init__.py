"""repro.verify — the differential verification subsystem.

Three layers, one goal: make "the redundant paths still agree and the
optimizer state is still sane" a one-command check instead of a per-PR
burden (see ``docs/testing.md``):

* :mod:`repro.verify.invariants` — an :class:`InvariantRegistry` of cheap,
  composable state checkers (centroid in-bounds, guardrail cooldown
  discipline, window-statistics recompute, GP posterior sanity, noise-stream
  purity) that sweeps a live session after each step via
  ``InvariantRegistry.check_session``.
* :mod:`repro.verify.diff` — differential oracles driving one seeded
  workload through both sides of each redundant path pair (scalar/batch,
  refit/incremental, live/replay, lockstep/sequential,
  retrieval-index/brute-force, armed/unarmed detector, sharded/single,
  pruned/frozen full space) and reporting the first divergent step.
* :mod:`repro.verify.properties` — Hypothesis strategies for spaces, plans,
  fault plans, and noise models.  **Not** imported here: hypothesis is a
  test-extra dependency, and ``import repro.verify`` must stay
  dependency-free (run ``pytest -m verify`` / ``make verify`` for the
  property suite).
"""

from . import diff
from .diff import (
    DiffReport,
    Divergence,
    diff_pruned_full,
    diff_retrieval_bruteforce,
    diff_switch_inert,
    diff_trails,
    run_all,
)
from .invariants import (
    CheckResult,
    Invariant,
    InvariantRegistry,
    InvariantViolation,
    VerificationContext,
    default_registry,
)

__all__ = [
    "CheckResult",
    "DiffReport",
    "Divergence",
    "Invariant",
    "InvariantRegistry",
    "InvariantViolation",
    "VerificationContext",
    "default_registry",
    "diff",
    "diff_pruned_full",
    "diff_retrieval_bruteforce",
    "diff_switch_inert",
    "diff_trails",
    "run_all",
]
