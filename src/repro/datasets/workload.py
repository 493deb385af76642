"""The workload abstraction consumed by the experiment harness.

A :class:`Workload` bundles everything one evaluation run needs: the
evaluation windows, the historical windows the adaptive PPM trains on
(Section V-B), the private and target pattern sets, and the w-event
window parameter used by the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.baselines.landmark import landmarks_from_pattern
from repro.cep.patterns import Pattern
from repro.streams.indicator import IndicatorStream
from repro.utils.validation import check_positive_int


@dataclass
class Workload:
    """One evaluation workload.

    Attributes
    ----------
    name:
        Identifier used in reports (``"taxi"``, ``"synthetic"``, ...).
    stream:
        The evaluation windows the mechanisms perturb and the queries
        are answered on.
    history:
        Historical windows for Algorithm 1 (disjoint from ``stream``).
    private_patterns:
        The pattern types the data subjects protect.
    target_patterns:
        The pattern types the data consumers query.
    w:
        The w-event sliding-window parameter used when baselines run on
        this workload.
    """

    name: str
    stream: IndicatorStream
    history: IndicatorStream
    private_patterns: List[Pattern]
    target_patterns: List[Pattern]
    w: int = 10

    def __post_init__(self):
        check_positive_int("w", self.w)
        if not self.private_patterns:
            raise ValueError("a workload needs at least one private pattern")
        if not self.target_patterns:
            raise ValueError("a workload needs at least one target pattern")
        if self.stream.alphabet != self.history.alphabet:
            raise ValueError(
                "evaluation and historical streams use different alphabets"
            )
        for pattern in self.private_patterns + self.target_patterns:
            if pattern.elements is None:
                raise ValueError(
                    f"pattern {pattern.name!r} has no element list"
                )
            for element in pattern.elements:
                if element not in self.stream.alphabet:
                    raise ValueError(
                        f"pattern {pattern.name!r} element {element!r} is "
                        "not in the workload alphabet"
                    )

    @property
    def max_private_length(self) -> int:
        """The longest private pattern's ``m`` (conversion worst case)."""
        return max(len(p.elements) for p in self.private_patterns)

    def private_elements(self) -> List[str]:
        """All distinct event types any private pattern protects."""
        seen = {}
        for pattern in self.private_patterns:
            for element in pattern.elements:
                seen.setdefault(element, None)
        return list(seen)

    def landmark_mask(self) -> np.ndarray:
        """Landmark windows for the landmark-privacy baseline.

        A window is a landmark when any private pattern element occurs
        in it (the data subject's sensitive timestamps).
        """
        return landmarks_from_pattern(self.stream, self.private_elements())

    def most_overlapping_private(self) -> Pattern:
        """The private pattern sharing the most element types with targets.

        Useful for ablations that need a pattern whose protection
        actually trades off against target quality (a disjoint private
        pattern can be noised for free).  Ties break towards the first
        pattern.
        """
        target_elements = set()
        for pattern in self.target_patterns:
            target_elements.update(pattern.elements)
        return max(
            self.private_patterns,
            key=lambda p: len(set(p.elements) & target_elements),
        )
