"""Continuous queries and their answers.

Data consumers query the CEP engine for target patterns; the PPMs are
"built under the assumption that all answers to the queries are binary"
(Section V): per window, the answer is whether the pattern was detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cep.patterns import Pattern


@dataclass(frozen=True)
class ContinuousQuery:
    """A standing query for a target pattern.

    Attributes
    ----------
    name:
        Identifier of the query (unique within an engine).
    pattern:
        The target pattern whose existence is queried.
    within:
        Optional time-window constraint for full event-stream matching;
        ignored in the windowed-indicator mode (the window assigner
        already fixes the scope).
    """

    name: str
    pattern: Pattern
    within: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("query name must be non-empty")
        if not isinstance(self.pattern, Pattern):
            raise TypeError(
                f"pattern must be a Pattern, got {type(self.pattern).__name__}"
            )
        if self.within is not None and self.within <= 0:
            raise ValueError(f"within must be positive, got {self.within}")

    @classmethod
    def for_pattern(cls, pattern: Pattern, *, within: Optional[float] = None) -> "ContinuousQuery":
        """A query named after its pattern."""
        return cls(name=f"q:{pattern.name}", pattern=pattern, within=within)


@dataclass(frozen=True)
class QueryAnswer:
    """The per-window binary answers to one continuous query."""

    query_name: str
    detections: np.ndarray

    def __post_init__(self):
        detections = np.asarray(self.detections, dtype=bool)
        object.__setattr__(self, "detections", detections)

    @property
    def n_windows(self) -> int:
        return int(self.detections.shape[0])

    def detection_count(self) -> int:
        """Number of windows with a positive answer."""
        return int(self.detections.sum())
