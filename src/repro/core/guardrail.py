"""The regression guardrail (Sec. 4.3, "Additional guardrail").

A simple regression model predicts execution time from the *iteration
number* and the *input cardinality*.  Starting at iteration 30, if the
predicted next-iteration time exceeds the previous observation by more than
a threshold for several consecutive checks, autotuning is disabled for the
query and the default configuration is reinstated.  Queries improving over
time keep tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import telemetry
from ..ml.batched import ols_predict
from .observation import Observation

__all__ = ["Guardrail", "GuardrailDecision"]


@dataclass(frozen=True)
class GuardrailDecision:
    """Outcome of one guardrail check (kept for the monitoring dashboard)."""

    iteration: int
    predicted_next: float
    previous: float
    violated: bool


class Guardrail:
    """Disables tuning on sustained predicted regressions.

    Args:
        min_iterations: checks start after this many observations — the
            paper guarantees "every query undergoes at least 30 iterations
            of tuning" before the guardrail can fire.
        threshold: relative excess of the predicted next time over the
            previous observation that counts as a violation (0.2 = +20%).
        patience: consecutive violations required before disabling.
        fit_window: number of most-recent observations the regression is fit
            on.  A local fit tracks accelerating (convex) regressions that a
            whole-history line would lag behind.
        robust: fit the trend with the Theil–Sen estimator instead of OLS —
            a single Eq.-8 spike inside the window then cannot tilt the
            prediction.
        cooldown: observations to sit at the default configuration after a
            disable before re-enabling tuning on probation.  ``None`` (the
            paper's behavior) disables permanently.  A latency-spike storm
            can falsely trip the guardrail; with a cooldown the query
            recovers once the storm passes, while a genuine regression
            simply trips it again after each probation.
    """

    def __init__(
        self,
        min_iterations: int = 30,
        threshold: float = 0.2,
        patience: int = 3,
        fit_window: int = 10,
        robust: bool = False,
        cooldown: Optional[int] = None,
    ):
        # Negated so that NaN, which fails every comparison, is refused.
        if not min_iterations >= 2:
            raise ValueError("min_iterations must be >= 2")
        if not threshold > 0:
            raise ValueError("threshold must be > 0")
        if not patience >= 1:
            raise ValueError("patience must be >= 1")
        if not fit_window >= 3:
            raise ValueError("fit_window must be >= 3")
        if cooldown is not None and not cooldown >= 1:
            raise ValueError("cooldown must be >= 1 (or None for permanent)")
        self.min_iterations = min_iterations
        self.threshold = threshold
        self.patience = patience
        self.fit_window = fit_window
        self.robust = robust
        self.cooldown = cooldown
        self._iterations: List[float] = []
        self._data_sizes: List[float] = []
        self._times: List[float] = []
        self._consecutive_violations = 0
        self._disabled = False
        self._since_disable = 0
        self.reenable_count = 0
        self.reset_count = 0
        self.decisions: List[GuardrailDecision] = []

    def reset(self) -> None:
        """Forget the regression history and re-enable tuning.

        Called when a task switch re-anchors the session: the trend the
        guardrail fit belongs to the *old* regime, and holding the session
        through disable/cooldown probation on stale evidence is exactly the
        failure mode the switch detector exists to avoid.  The decision log
        is kept (it is an audit trail, not fit state).
        """
        self._iterations = []
        self._data_sizes = []
        self._times = []
        self._consecutive_violations = 0
        self._disabled = False
        self._since_disable = 0
        self.reset_count += 1
        telemetry.counter("guardrail.resets").inc()

    @property
    def active(self) -> bool:
        """Whether autotuning is still enabled for this query."""
        return not self._disabled

    @property
    def n_observations(self) -> int:
        return len(self._times)

    def update(self, obs: Observation) -> bool:
        """Record an observation and run the check; returns :attr:`active`."""
        if self._record(obs.iteration, obs.data_size, obs.performance):
            with telemetry.span("guardrail.check",
                                iteration=int(obs.iteration)) as tspan:
                self._judge(*self._predict(), tspan)
        return self.active

    # The two halves of update() around the trend solve.  The lock-step
    # engine calls them directly on every session's guardrail and makes one
    # stacked ols_predict for all due checks in between.

    def _record(self, iteration: int, data_size: float, time: float) -> bool:
        """Append an observation and run the cooldown; say whether a check is due.

        A guardrail disabled on entry skips this step's check, even when its
        cooldown re-enables it here.
        """
        self._iterations.append(float(iteration))
        self._data_sizes.append(data_size)
        self._times.append(time)
        if self._disabled:
            if self.cooldown is not None:
                self._since_disable += 1
                telemetry.counter("guardrail.cooldown_holds").inc()
                if self._since_disable >= self.cooldown:
                    # Probation: resume tuning with a clean violation count.
                    self._disabled = False
                    self._since_disable = 0
                    self._consecutive_violations = 0
                    self.reenable_count += 1
                    telemetry.counter("guardrail.reenables").inc()
                    telemetry.emit("guardrail.reenable",
                                   iteration=int(iteration),
                                   reenable_count=self.reenable_count)
            return False
        return len(self._times) >= self.min_iterations

    def _judge(self, predicted_next: float, predicted_current: float,
               tspan=None) -> None:
        """Rule on the due check from the trend's predictions at t+1 and t.

        Records the decision and disables tuning after ``patience``
        consecutive violations; then counts the verdict and tags ``tspan``
        when given one.
        """
        # Eq.-8 noise only ever inflates observations, so a noisy `previous`
        # can mask a genuine upward trend; referencing the smaller of the
        # observation and the model's de-noised current estimate keeps the
        # check sensitive without firing on healthy queries.
        previous = min(self._times[-1], predicted_current)
        violated = predicted_next > previous * (1.0 + self.threshold)
        iteration = int(self._iterations[-1])
        self.decisions.append(
            GuardrailDecision(
                iteration=iteration,
                predicted_next=predicted_next,
                previous=previous,
                violated=violated,
            )
        )
        if violated:
            self._consecutive_violations += 1
            if self._consecutive_violations >= self.patience:
                self._disabled = True
        else:
            self._consecutive_violations = 0
        # One guard for the reporting: lock-step judges every due session
        # each step, so the disabled-telemetry path stays a single check.
        if not telemetry.enabled():
            return
        telemetry.counter("guardrail.checks").inc()
        telemetry.counter("guardrail.verdicts",
                          verdict="violation" if violated else "ok").inc()
        if self._disabled:  # only an active guardrail is judged
            telemetry.counter("guardrail.disables").inc()
            telemetry.emit("guardrail.disable",
                           iteration=iteration,
                           predicted_next=predicted_next,
                           previous=previous)
        if tspan is not None:
            tspan.set_attr("predicted_next", predicted_next)
            tspan.set_attr("previous", previous)
            tspan.set_attr("violated", violated)
            tspan.set_attr("consecutive_violations", self._consecutive_violations)
            tspan.set_attr("active", self.active)

    # -- persistence --------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot (for cross-application persistence)."""
        return {
            "iterations": list(self._iterations),
            "data_sizes": list(self._data_sizes),
            "times": list(self._times),
            "consecutive_violations": self._consecutive_violations,
            "disabled": self._disabled,
            "since_disable": self._since_disable,
        }

    def restore_state(self, state: dict) -> "Guardrail":
        """Restore a :meth:`to_state` snapshot in place."""
        self._iterations = [float(v) for v in state["iterations"]]
        self._data_sizes = [float(v) for v in state["data_sizes"]]
        self._times = [float(v) for v in state["times"]]
        self._consecutive_violations = int(state["consecutive_violations"])
        self._disabled = bool(state["disabled"])
        self._since_disable = int(state.get("since_disable", 0))
        return self

    def _predict(self) -> tuple:
        """Regress time on (iteration, input cardinality) over the recent
        window; return (prediction at t+1, prediction at t)."""
        w = self.fit_window
        X = np.column_stack([self._iterations[-w:], self._data_sizes[-w:]])
        y = np.array(self._times[-w:])
        t, p = self._iterations[-1], self._data_sizes[-1]
        rows = np.array([[t + 1.0, p], [t, p]])
        if self.robust:
            from ..ml.robust import TheilSenRegressor

            model = TheilSenRegressor()
            model.fit(X, y)
            pred_next, pred_current = model.predict(rows)
        else:
            # Deterministic standardized normal equations — the same solver
            # the lock-step engine applies to (K, w, 2) stacks, so scalar
            # and batched guardrail predictions are bitwise identical.
            pred_next, pred_current = ols_predict(X, y, rows)
        return float(pred_next), float(pred_current)
