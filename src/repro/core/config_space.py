"""Configuration space abstractions.

A :class:`ConfigSpace` is an ordered collection of :class:`Parameter`
definitions.  Configurations are represented in two equivalent forms:

* a ``dict`` mapping parameter name to value (the user-facing form), and
* a dense ``numpy`` vector in *parameter order* (the optimizer-facing form).

Parameters may be declared on a log scale (e.g. byte-valued Spark knobs such
as ``spark.sql.files.maxPartitionBytes`` span several orders of magnitude);
in that case the *internal* vector representation stores ``log10(value)`` so
that neighborhoods, step sizes and gradients behave uniformly across the
space.  Integer parameters are rounded only when materialized to a dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence

import numpy as np

__all__ = ["Parameter", "ConfigSpace", "Configuration"]


@dataclass(frozen=True)
class Parameter:
    """A single tunable knob.

    Attributes:
        name: Fully qualified knob name, e.g. ``spark.sql.shuffle.partitions``.
        low: Inclusive lower bound (in natural units).
        high: Inclusive upper bound (in natural units).
        default: Default value (in natural units).
        log_scale: Whether the internal representation is ``log10``.
        integer: Whether materialized values are rounded to integers.
        scope: ``"query"`` or ``"app"`` — Spark query-level knobs can change
            per query while app-level knobs are fixed at application start.
    """

    name: str
    low: float
    high: float
    default: float
    log_scale: bool = False
    integer: bool = False
    scope: str = "query"

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(
                f"parameter {self.name!r}: low ({self.low}) must be < high ({self.high})"
            )
        if not (self.low <= self.default <= self.high):
            raise ValueError(
                f"parameter {self.name!r}: default {self.default} outside "
                f"[{self.low}, {self.high}]"
            )
        if self.log_scale and self.low <= 0:
            raise ValueError(
                f"parameter {self.name!r}: log-scale parameters need low > 0"
            )
        if self.scope not in ("query", "app"):
            raise ValueError(f"parameter {self.name!r}: unknown scope {self.scope!r}")

    # -- natural <-> internal -------------------------------------------------

    def to_internal(self, value: float) -> float:
        """Map a natural value into the internal (possibly log) axis."""
        return math.log10(value) if self.log_scale else float(value)

    def to_natural(self, internal: float) -> float:
        """Map an internal-axis value back to natural units (clipped, rounded)."""
        # np.power, not `10.0 ** internal`: Python's pow (libm) and numpy's
        # ufunc loop disagree by 1 ulp on some inputs, and the batch pipeline
        # (to_natural_array) must stay bitwise-equal to this scalar path.
        value = float(np.power(10.0, internal)) if self.log_scale else float(internal)
        value = min(max(value, self.low), self.high)
        if self.integer:
            value = float(round(value))
            value = min(max(value, math.ceil(self.low)), math.floor(self.high))
        return value

    def to_natural_array(self, internal: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_natural`: element *i* matches it bitwise.

        Both paths use numpy's pow ufunc (libm's ``pow`` differs from it by
        1 ulp on some inputs), and both ``round`` and ``np.round`` round
        half to even, so the batch pipeline built on this stays exactly
        equal to the scalar path (pinned by tests).
        """
        internal = np.asarray(internal, dtype=float)
        value = np.power(10.0, internal) if self.log_scale else internal.astype(float)
        value = np.minimum(np.maximum(value, self.low), self.high)
        if self.integer:
            value = np.round(value)
            value = np.minimum(
                np.maximum(value, math.ceil(self.low)), math.floor(self.high)
            )
        return value

    @property
    def internal_low(self) -> float:
        return self.to_internal(self.low)

    @property
    def internal_high(self) -> float:
        return self.to_internal(self.high)

    @property
    def internal_default(self) -> float:
        return self.to_internal(self.default)

    @property
    def internal_span(self) -> float:
        return self.internal_high - self.internal_low


class ConfigSpace:
    """An ordered, named collection of :class:`Parameter` objects."""

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise ValueError("a ConfigSpace needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self._parameters: List[Parameter] = list(parameters)
        self._index: Dict[str, int] = {p.name: i for i, p in enumerate(parameters)}
        # Parameters are frozen, so the bounds are computed once and shared
        # read-only by every caller.
        self._bounds = np.array(
            [[p.internal_low, p.internal_high] for p in self._parameters]
        )
        self._bounds.flags.writeable = False

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Parameter:
        return self._parameters[self._index[name]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigSpace):
            return NotImplemented
        return self._parameters == other._parameters

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self._parameters)
        return f"ConfigSpace([{names}])"

    @property
    def names(self) -> List[str]:
        return [p.name for p in self._parameters]

    @property
    def dim(self) -> int:
        return len(self._parameters)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def subspace(self, scope: str) -> "ConfigSpace":
        """Return the sub-space containing only ``query`` or ``app`` knobs."""
        params = [p for p in self._parameters if p.scope == scope]
        if not params:
            raise ValueError(f"no parameters with scope {scope!r}")
        return ConfigSpace(params)

    # -- vector <-> dict ------------------------------------------------------

    def to_vector(self, config: Mapping[str, float]) -> np.ndarray:
        """Convert a name→value dict to the internal vector representation."""
        vec = np.empty(self.dim)
        for i, p in enumerate(self._parameters):
            if p.name not in config:
                raise KeyError(f"configuration missing parameter {p.name!r}")
            vec[i] = p.to_internal(config[p.name])
        return vec

    def to_dict(self, vector: np.ndarray) -> Dict[str, float]:
        """Convert an internal vector to a name→value dict (clipped/rounded)."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {vector.shape}")
        return {
            p.name: p.to_natural(vector[i]) for i, p in enumerate(self._parameters)
        }

    def to_natural_matrix(self, vectors: np.ndarray) -> np.ndarray:
        """Convert ``(N, dim)`` internal vectors to natural units, column-wise.

        Row *i* equals ``to_dict(vectors[i])``'s values in parameter order
        (bitwise — see :meth:`Parameter.to_natural_array`).
        """
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected vectors of shape (N, {self.dim}), got {vectors.shape}"
            )
        natural = np.empty_like(vectors)
        for j, p in enumerate(self._parameters):
            natural[:, j] = p.to_natural_array(vectors[:, j])
        return natural

    # -- bounds & defaults ----------------------------------------------------

    @property
    def internal_bounds(self) -> np.ndarray:
        """Read-only ``(dim, 2)`` array of internal-axis [low, high] per parameter."""
        return self._bounds

    def default_vector(self) -> np.ndarray:
        return np.array([p.internal_default for p in self._parameters])

    def default_dict(self) -> Dict[str, float]:
        return {p.name: p.default for p in self._parameters}

    def clip(self, vector: np.ndarray) -> np.ndarray:
        """Clip an internal vector into bounds (returns a new array)."""
        bounds = self.internal_bounds
        return np.clip(np.asarray(vector, dtype=float), bounds[:, 0], bounds[:, 1])

    def contains_vector(self, vector: np.ndarray, atol: float = 1e-9) -> bool:
        vector = np.asarray(vector, dtype=float)
        bounds = self.internal_bounds
        return bool(
            np.all(vector >= bounds[:, 0] - atol) and np.all(vector <= bounds[:, 1] + atol)
        )

    # -- normalization (unit cube) --------------------------------------------

    def normalize(self, vector: np.ndarray) -> np.ndarray:
        """Map an internal vector to the unit cube [0, 1]^dim."""
        bounds = self.internal_bounds
        span = bounds[:, 1] - bounds[:, 0]
        return (np.asarray(vector, dtype=float) - bounds[:, 0]) / span

    def denormalize(self, unit: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`normalize`."""
        bounds = self.internal_bounds
        span = bounds[:, 1] - bounds[:, 0]
        return bounds[:, 0] + np.asarray(unit, dtype=float) * span

    # -- sampling ---------------------------------------------------------------

    def sample_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one internal vector uniformly on the internal axes."""
        bounds = self.internal_bounds
        return rng.uniform(bounds[:, 0], bounds[:, 1])

    def sample_vectors(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` internal vectors, shape ``(n, dim)``."""
        bounds = self.internal_bounds
        return rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, self.dim))

    def sample_dict(self, rng: np.random.Generator) -> Dict[str, float]:
        return self.to_dict(self.sample_vector(rng))

    def latin_hypercube(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Latin-hypercube sample of ``n`` internal vectors."""
        unit = np.empty((n, self.dim))
        for j in range(self.dim):
            perm = rng.permutation(n)
            unit[:, j] = (perm + rng.uniform(size=n)) / n
        return self.denormalize(unit)


@dataclass
class Configuration:
    """A configuration bound to its space, carrying both representations."""

    space: ConfigSpace
    vector: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.vector is None:
            self.vector = self.space.default_vector()
        self.vector = self.space.clip(np.asarray(self.vector, dtype=float))

    @classmethod
    def from_dict(cls, space: ConfigSpace, values: Mapping[str, float]) -> "Configuration":
        return cls(space, space.to_vector(values))

    def as_dict(self) -> Dict[str, float]:
        return self.space.to_dict(self.vector)

    def __getitem__(self, name: str) -> float:
        return self.as_dict()[name]

    def replace(self, **updates: float) -> "Configuration":
        values = self.as_dict()
        unknown = set(updates) - set(values)
        if unknown:
            raise KeyError(f"unknown parameters: {sorted(unknown)}")
        values.update(updates)
        return Configuration.from_dict(self.space, values)
