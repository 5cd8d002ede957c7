"""Composable runtime invariant checkers.

The optimizer/guardrail/simulator stack maintains a handful of state
invariants that, when broken, produce *silently wrong* tuning rather than a
crash — a centroid drifting out of bounds still suggests configurations, a
guardrail re-enabling mid-cooldown still records decisions.  This module
packages those invariants as cheap, composable checkers that sweep a live
:class:`~repro.core.session.TuningSession` after any step
(:meth:`InvariantRegistry.check_session`) or a live optimizer on demand.

Built-in checkers (see :func:`default_registry`):

====================  =========================================================
``centroid_in_bounds``    the Alg.-1 centroid ``e_t`` stays finite and inside
                          the space's internal bounds (``ConfigSpace.clip``
                          post-condition).
``guardrail_cooldown``    guardrail state machine sanity: a disabled guardrail
                          with a cooldown never sits past it, a
                          disabled→active transition only happens after the
                          cooldown elapsed, and ``cooldown=None`` never
                          re-enables (the paper's permanent disable).
``window_statistics``     the :class:`ObservationWindow`'s dense views
                          (``configs``/``performances``/``data_sizes``/
                          ``design_matrix``) match a brute-force recompute
                          from the raw history.
``gp_posterior``          a fitted GP surrogate's posterior variance is
                          finite and non-negative at its own training inputs.
``noise_stream``          Eq.-8 noise draws are a pure function of the RNG
                          stream (the contract ``run_batch`` relies on for
                          scalar/batch bit-equality) and never deflate the
                          baseline time.
====================  =========================================================

Checkers *skip* (``CheckResult.checked`` is False) when their subject is
absent — e.g. ``gp_posterior`` on a Centroid Learning optimizer — so one
registry serves every optimizer type.  Violations raise
:class:`InvariantViolation` (an ``AssertionError`` subclass, so plain
``pytest.raises(AssertionError)`` works too).

This module is dependency-free beyond numpy: importing :mod:`repro.verify`
must not require hypothesis (pinned by ``tests/verify/test_import_guard.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from .. import telemetry

__all__ = [
    "CheckResult",
    "Invariant",
    "InvariantRegistry",
    "InvariantViolation",
    "VerificationContext",
    "check_centroid_in_bounds",
    "check_gp_posterior",
    "check_guardrail_cooldown",
    "check_noise_stream",
    "check_window_statistics",
    "default_registry",
]


class InvariantViolation(AssertionError):
    """An invariant checker observed an impossible state."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message


@dataclass
class VerificationContext:
    """What one inline check sees — live objects, never copies.

    Attributes:
        optimizer: the optimizer under test (any
            :class:`~repro.core.optimizer_base.Optimizer`).
        session: the owning :class:`~repro.core.session.TuningSession`
            (``None`` when checking a bare optimizer).
        simulator: the execution substrate (for noise-model checks).
        record: the just-appended
            :class:`~repro.core.session.IterationRecord`, when running as a
            session hook.
        extras: free-form extension slots for custom checkers.
    """

    optimizer: Optional[object] = None
    session: Optional[object] = None
    simulator: Optional[object] = None
    record: Optional[object] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_session(cls, session, record=None) -> "VerificationContext":
        return cls(
            optimizer=session.optimizer,
            session=session,
            simulator=session.simulator,
            record=record,
        )

    # -- common lookups (None when the subject is absent) ----------------------

    @property
    def space(self):
        return getattr(self.optimizer, "space", None)

    @property
    def guardrail(self):
        return getattr(self.optimizer, "guardrail", None)

    @property
    def window(self):
        return getattr(self.optimizer, "observations", None)

    def gp(self):
        """The optimizer's fitted GP surrogate, if it has one."""
        from ..ml.gp import GaussianProcessRegressor

        for attr in ("_model", "model", "surrogate", "_gp"):
            candidate = getattr(self.optimizer, attr, None)
            if isinstance(candidate, GaussianProcessRegressor):
                return candidate
        return None


@dataclass(frozen=True)
class Invariant:
    """One named checker.

    ``check(ctx)`` returns True when it actually verified something, False
    when its subject was absent (a skip), and raises
    :class:`InvariantViolation` on a broken invariant.
    """

    name: str
    check: Callable[[VerificationContext], bool]
    description: str = ""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checker run (collected by ``check_all``)."""

    invariant: str
    checked: bool
    violation: Optional[InvariantViolation] = None


class InvariantRegistry:
    """An ordered, composable collection of :class:`Invariant` checkers.

    A caller that drives a session sweeps it after every step::

        registry = default_registry()
        for _ in range(n_iterations):
            registry.check_session(session, session.step())

    Each sweep runs every checker against live state, raising
    :class:`InvariantViolation` at the first broken invariant.
    """

    def __init__(self, invariants=()):
        self._invariants: "OrderedDict[str, Invariant]" = OrderedDict()
        for inv in invariants:
            self.add(inv)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._invariants)

    def __iter__(self) -> Iterator[Invariant]:
        return iter(self._invariants.values())

    def __contains__(self, name: str) -> bool:
        return name in self._invariants

    def names(self) -> List[str]:
        return list(self._invariants)

    # -- composition -----------------------------------------------------------

    def add(self, invariant: Invariant) -> "InvariantRegistry":
        if invariant.name in self._invariants:
            raise ValueError(f"duplicate invariant {invariant.name!r}")
        self._invariants[invariant.name] = invariant
        return self

    def register(self, name: str, description: str = ""):
        """Decorator form of :meth:`add` for custom checkers."""

        def decorate(fn: Callable[[VerificationContext], bool]):
            self.add(Invariant(name=name, check=fn, description=description))
            return fn

        return decorate

    def without(self, *names: str) -> "InvariantRegistry":
        """A new registry minus the named checkers (order preserved)."""
        unknown = set(names) - set(self._invariants)
        if unknown:
            raise KeyError(f"unknown invariants: {sorted(unknown)}")
        return InvariantRegistry(
            inv for name, inv in self._invariants.items() if name not in names
        )

    # -- execution ---------------------------------------------------------------

    def check_all(
        self, ctx: VerificationContext, raise_on_violation: bool = True
    ) -> List[CheckResult]:
        """Run every checker against ``ctx``.

        With ``raise_on_violation`` (the default, what the session hook
        wants) the first violation propagates; otherwise violations are
        collected into the returned :class:`CheckResult` list.
        """
        results: List[CheckResult] = []
        for inv in self:
            try:
                checked = bool(inv.check(ctx))
            except InvariantViolation as violation:
                telemetry.counter("verify.violations", invariant=inv.name).inc()
                if raise_on_violation:
                    raise
                results.append(CheckResult(inv.name, True, violation))
                continue
            telemetry.counter(
                "verify.checks", outcome="checked" if checked else "skipped"
            ).inc()
            results.append(CheckResult(inv.name, checked))
        return results

    def check_session(
        self, session, record=None, raise_on_violation: bool = True
    ) -> List[CheckResult]:
        """Sweep a live session after the step that recorded ``record``."""
        return self.check_all(
            VerificationContext.from_session(session, record),
            raise_on_violation=raise_on_violation,
        )


# -- built-in checkers ----------------------------------------------------------


def check_centroid_in_bounds(ctx: VerificationContext) -> bool:
    """The Alg.-1 centroid stays finite and inside the internal bounds."""
    centroid = getattr(ctx.optimizer, "centroid", None)
    space = ctx.space
    if centroid is None or space is None:
        return False
    centroid = np.asarray(centroid, dtype=float)
    if centroid.shape != (space.dim,):
        raise InvariantViolation(
            "centroid_in_bounds",
            f"centroid shape {centroid.shape} != ({space.dim},)",
        )
    if not np.all(np.isfinite(centroid)):
        raise InvariantViolation(
            "centroid_in_bounds", f"non-finite centroid {centroid.tolist()}"
        )
    if not space.contains_vector(centroid):
        bounds = space.internal_bounds
        raise InvariantViolation(
            "centroid_in_bounds",
            f"centroid {centroid.tolist()} outside internal bounds "
            f"{bounds.tolist()}",
        )
    return True


_GUARDRAIL_STASH = "_verify_guardrail_snapshot"


def check_guardrail_cooldown(ctx: VerificationContext) -> bool:
    """Guardrail state-machine sanity, including cooldown re-enable timing.

    The checker keeps a small snapshot of the last-seen state on the
    guardrail object itself, so consecutive sweeps can verify *transitions*:
    a disabled→active flip with ``d`` intervening observations is only legal
    when the cooldown could actually have elapsed
    (``since_disable + d >= cooldown``).
    """
    g = ctx.guardrail
    if g is None:
        return False
    since = g._since_disable
    violations = g._consecutive_violations
    if g.active != (not g._disabled):
        raise InvariantViolation(
            "guardrail_cooldown", "active property disagrees with _disabled"
        )
    if since < 0:
        raise InvariantViolation(
            "guardrail_cooldown", f"_since_disable is negative ({since})"
        )
    if g.cooldown is None:
        # The paper's permanent disable: no probation path exists at all.
        if g.reenable_count != 0:
            raise InvariantViolation(
                "guardrail_cooldown",
                f"re-enabled {g.reenable_count}x with cooldown=None",
            )
        if since != 0:
            raise InvariantViolation(
                "guardrail_cooldown",
                f"_since_disable={since} advanced with cooldown=None",
            )
    elif not g.active and since >= g.cooldown:
        raise InvariantViolation(
            "guardrail_cooldown",
            f"still disabled with _since_disable={since} >= cooldown={g.cooldown}",
        )
    if g.active and violations >= g.patience:
        raise InvariantViolation(
            "guardrail_cooldown",
            f"active with {violations} consecutive violations >= patience={g.patience}",
        )

    previous = g.__dict__.get(_GUARDRAIL_STASH)
    current = {
        "active": g.active,
        "since_disable": since,
        "n_observations": g.n_observations,
        "reenable_count": g.reenable_count,
    }
    if previous is not None:
        delta = current["n_observations"] - previous["n_observations"]
        if delta < 0:
            raise InvariantViolation(
                "guardrail_cooldown", "observation count moved backwards"
            )
        if current["reenable_count"] < previous["reenable_count"]:
            raise InvariantViolation(
                "guardrail_cooldown", "reenable_count moved backwards"
            )
        if not previous["active"] and current["active"]:
            if g.cooldown is None:
                raise InvariantViolation(
                    "guardrail_cooldown", "re-enabled despite cooldown=None"
                )
            if previous["since_disable"] + delta < g.cooldown:
                raise InvariantViolation(
                    "guardrail_cooldown",
                    f"re-enabled during cooldown: sat "
                    f"{previous['since_disable']} + {delta} new observations "
                    f"< cooldown={g.cooldown}",
                )
    g.__dict__[_GUARDRAIL_STASH] = current
    return True


def check_window_statistics(ctx: VerificationContext) -> bool:
    """The window's dense views match a brute-force recompute (bitwise)."""
    window = ctx.window
    if window is None or len(window) == 0:
        return False
    history = list(window.history)
    expected = history[-window.window_size:]
    actual = list(window.window)
    if len(actual) != len(expected) or any(
        a is not b for a, b in zip(actual, expected)
    ):
        raise InvariantViolation(
            "window_statistics",
            f"window is not the last {window.window_size} history entries",
        )
    if window.latest is not history[-1]:
        raise InvariantViolation(
            "window_statistics", "latest is not the last appended observation"
        )
    if window.version < len(history):
        raise InvariantViolation(
            "window_statistics",
            f"version {window.version} < history length {len(history)} "
            "(must bump at least once per append)",
        )
    recomputed = {
        "configs": np.array([o.config for o in expected]),
        "performances": np.array([o.performance for o in expected]),
        "data_sizes": np.array([o.data_size for o in expected]),
    }
    recomputed["design_matrix"] = np.column_stack(
        [recomputed["configs"], recomputed["data_sizes"]]
    )
    for name, want in recomputed.items():
        got = getattr(window, name)()
        if got.shape != want.shape or not np.array_equal(got, want):
            raise InvariantViolation(
                "window_statistics",
                f"{name}() diverges from brute-force recompute",
            )
    return True


def check_gp_posterior(ctx: VerificationContext) -> bool:
    """A fitted GP's posterior is finite with non-negative variance."""
    gp = ctx.gp()
    if gp is None or gp.n_observations == 0:
        return False
    probe = gp._X[-min(5, gp.n_observations):]
    mean, std = gp.predict_with_std(probe)
    if not np.all(np.isfinite(mean)):
        raise InvariantViolation(
            "gp_posterior", f"non-finite posterior mean {mean.tolist()}"
        )
    if not np.all(np.isfinite(std)) or np.any(std < 0):
        raise InvariantViolation(
            "gp_posterior",
            f"posterior std must be finite and >= 0, got {std.tolist()}",
        )
    return True


_NOISE_PROBE = (3.0, 1.5, 0.25, 8.0)
_NOISE_PROBE_SEED = 0x5EED


def check_noise_stream(ctx: VerificationContext) -> bool:
    """Eq.-8 draws are stream-pure and never deflate the baseline.

    ``SparkSimulator.run_batch`` stays bit-identical to sequential ``run``
    calls only because ``NoiseModel.apply`` is a pure function of
    ``(g0, rng state)`` — the same seeded stream must replay the same
    per-element draws.  The full cross-path comparison lives in
    :func:`repro.verify.diff.diff_scalar_batch`; this inline probe pins the
    contract it rests on.
    """
    from ..sparksim.noise import NoiseModel

    noise = getattr(ctx.simulator, "noise", None)
    if noise is None:
        noise = ctx.extras.get("noise")
    if not isinstance(noise, NoiseModel):
        return False
    rng_a = np.random.default_rng(_NOISE_PROBE_SEED)
    rng_b = np.random.default_rng(_NOISE_PROBE_SEED)
    draws = [noise.apply(g0, rng_a) for g0 in _NOISE_PROBE]
    replayed = [noise.apply(g0, rng_b) for g0 in _NOISE_PROBE]
    if draws != replayed:
        raise InvariantViolation(
            "noise_stream",
            "per-element noise draws are not a pure function of the stream: "
            f"{draws} != {replayed}",
        )
    for g0, g in zip(_NOISE_PROBE, draws):
        if not (np.isfinite(g) and g >= g0):
            raise InvariantViolation(
                "noise_stream",
                f"Eq.-8 noise deflated the baseline: apply({g0}) = {g}",
            )
    many = noise.apply_many(
        np.array(_NOISE_PROBE), np.random.default_rng(_NOISE_PROBE_SEED)
    )
    if not np.all(many >= np.array(_NOISE_PROBE)):
        raise InvariantViolation(
            "noise_stream", f"apply_many deflated the baseline: {many.tolist()}"
        )
    return True


def default_registry() -> InvariantRegistry:
    """The standard five-checker registry (order = cheapest first)."""
    return InvariantRegistry([
        Invariant(
            "centroid_in_bounds",
            check_centroid_in_bounds,
            "Alg.-1 centroid stays finite and inside internal bounds",
        ),
        Invariant(
            "guardrail_cooldown",
            check_guardrail_cooldown,
            "guardrail never re-enables during cooldown; state machine sane",
        ),
        Invariant(
            "window_statistics",
            check_window_statistics,
            "observation-window views match brute-force recompute",
        ),
        Invariant(
            "gp_posterior",
            check_gp_posterior,
            "GP posterior variance is finite and non-negative",
        ),
        Invariant(
            "noise_stream",
            check_noise_stream,
            "Eq.-8 noise draws are stream-pure and never deflate",
        ),
    ])
