"""Event-level DP baseline (Dwork et al., STOC 2010).

Event-level privacy protects each single event: neighbouring streams
differ in one event anywhere.  Realized here by randomized response on
*every* indicator bit with the full per-event budget ε — in contrast to
the pattern-level PPMs, which leave all non-private columns untouched.
Included as a reference point beyond the paper's Fig. 4 set.
"""

from __future__ import annotations

from repro.baselines.base import StreamMechanism
from repro.mechanisms.randomized_response import epsilon_to_flip_probability
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike, ensure_rng


class EventLevelRR(StreamMechanism):
    """Randomized response on every indicator with per-event budget ε."""

    mechanism_name = "event-level"

    def __init__(self, epsilon: float):
        super().__init__(epsilon)
        self._flip_probability = epsilon_to_flip_probability(epsilon)

    @property
    def flip_probability(self) -> float:
        """The flip probability applied to every indicator bit."""
        return self._flip_probability

    def perturb(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> IndicatorStream:
        generator = ensure_rng(rng)
        matrix = stream.matrix()
        flips = generator.random(matrix.shape) < self._flip_probability
        return stream.with_matrix(matrix ^ flips)
