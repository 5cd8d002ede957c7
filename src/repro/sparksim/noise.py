"""Production noise model — Eq. 8 of the paper.

Two noise types observed in the Microsoft Fabric environment (Sec. 1):

* **fluctuation noise** — Gaussian-distributed slowdowns with level ``FL``;
* **performance spikes** — with probability ``SL/10`` the execution time
  doubles on top of the fluctuation.

Drawing ``u ~ U[0,1]`` and ``ε ~ N(0, FL)``:

    g = g0 · (1 + |ε|)        if u > SL/10
    g = g0 · (1 + |ε|) · 2    otherwise

High noise: FL = SL = 1 (10% spike probability); low: FL = SL = 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseModel", "high_noise", "low_noise", "no_noise"]


@dataclass(frozen=True)
class NoiseModel:
    """Eq.-8 observational noise.

    Attributes:
        fluctuation_level: standard deviation ``FL`` of the Gaussian slowdown.
        spike_level: ``SL``; spikes occur with probability ``SL/10``.
    """

    fluctuation_level: float = 1.0
    spike_level: float = 1.0

    def __post_init__(self) -> None:
        if self.fluctuation_level < 0:
            raise ValueError("fluctuation_level must be >= 0")
        if not 0 <= self.spike_level <= 10:
            raise ValueError("spike_level must be in [0, 10] (probability = SL/10)")

    @property
    def spike_probability(self) -> float:
        return self.spike_level / 10.0

    def apply(self, g0: float, rng: np.random.Generator) -> float:
        """Inject noise into a baseline execution time ``g0`` (Eq. 8)."""
        if g0 < 0:
            raise ValueError("baseline time must be >= 0")
        # normal(0, FL) is 0 + FL·z and uniform() is 0 + 1·u in NumPy, so
        # these cheaper calls draw the same doubles from the same stream (the
        # sign of a zero ε aside, which abs removes).
        fl = self.fluctuation_level
        eps = fl * rng.standard_normal() if fl > 0 else 0.0
        g = g0 * (1.0 + abs(eps))
        if rng.random() <= self.spike_probability:
            g *= 2.0
        return g

    def apply_many(self, g0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized :meth:`apply` over an array of baseline times."""
        g0 = np.asarray(g0, dtype=float)
        if np.any(g0 < 0):
            raise ValueError("baseline times must be >= 0")
        eps = (
            rng.normal(0.0, self.fluctuation_level, size=g0.shape)
            if self.fluctuation_level > 0
            else np.zeros_like(g0)
        )
        g = g0 * (1.0 + np.abs(eps))
        spikes = rng.uniform(size=g0.shape) <= self.spike_probability
        g[spikes] *= 2.0
        return g


def high_noise() -> NoiseModel:
    """FL = 1, SL = 1 — the paper's 'high noise' regime (Fig. 8a)."""
    return NoiseModel(fluctuation_level=1.0, spike_level=1.0)


def low_noise() -> NoiseModel:
    """FL = 0.1, SL = 0.1 — the 'low noise' regime (Fig. 8b)."""
    return NoiseModel(fluctuation_level=0.1, spike_level=0.1)


def no_noise() -> NoiseModel:
    """Deterministic observations (for testing and true-optimum sweeps)."""
    return NoiseModel(fluctuation_level=0.0, spike_level=0.0)
