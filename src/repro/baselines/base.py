"""Common interface of the non-pattern-level baseline mechanisms.

Every baseline perturbs an entire indicator stream — that is precisely
what distinguishes them from the pattern-level PPMs, which touch only
the private pattern's element columns.  All mechanisms expose the same
``perturb`` signature so the CEP engine and the experiment harness can
swap them freely.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive


def as_statistics(values, n_types: int) -> np.ndarray:
    """``values`` as a float block whose rows are vectors of
    ``n_types`` statistics.

    The sequential releasers' input check — a wrong width would
    otherwise broadcast against the last release and step silently.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[-1] != n_types:
        raise ValueError(
            f"expected a vector of {n_types} statistics, got "
            f"shape {values.shape}"
        )
    return values


class StreamMechanism(abc.ABC):
    """A privacy mechanism over windowed indicator streams."""

    mechanism_name = "stream-mechanism"

    def __init__(self, epsilon: float):
        self._epsilon = check_positive("epsilon", epsilon)

    @property
    def epsilon(self) -> float:
        """The mechanism's own budget, in its native guarantee's units
        (w-event ε, landmark ε, ...) — *not* the pattern-level ε; see
        :mod:`repro.baselines.conversion` for the mapping."""
        return self._epsilon

    @property
    def name(self) -> str:
        return self.mechanism_name

    @abc.abstractmethod
    def perturb(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> IndicatorStream:
        """Return the privately released version of ``stream``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(epsilon={self._epsilon:g})"
