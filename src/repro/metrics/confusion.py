"""Confusion counting for binary per-window detections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np


def confusion_counts(
    truth: Sequence[bool], predicted: Sequence[bool]
) -> Tuple[int, int, int, int]:
    """``(tp, fp, fn, tn)`` of a truth/answer vector pair.

    Three ``count_nonzero`` reductions: ``tp = |t ∧ p|``,
    ``fp = |p| − tp``, ``fn = |t| − tp`` and
    ``tn = n − tp − fp − fn``.
    """
    truth = np.asarray(truth, dtype=bool)
    predicted = np.asarray(predicted, dtype=bool)
    if truth.shape != predicted.shape:
        raise ValueError(
            f"shape mismatch: truth {truth.shape} vs predicted "
            f"{predicted.shape}"
        )
    tp = int(np.count_nonzero(truth & predicted))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return tp, fp, fn, truth.size - tp - fp - fn


@dataclass(frozen=True)
class ConfusionCounts:
    """True/false positive/negative counts of a binary detector.

    The counts may be fractional: the analytic quality model works with
    *expected* counts under the flip distribution.
    """

    tp: float = 0.0
    fp: float = 0.0
    fn: float = 0.0
    tn: float = 0.0

    def __post_init__(self):
        for field_name in ("tp", "fp", "fn", "tn"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")

    @classmethod
    def from_vectors(
        cls, truth: Sequence[bool], predicted: Sequence[bool]
    ) -> "ConfusionCounts":
        """Count agreement between ground truth and detector output."""
        return cls(*map(float, confusion_counts(truth, predicted)))

    @classmethod
    def micro(
        cls,
        truth: Mapping[str, Sequence[bool]],
        answers: Mapping[str, Sequence[bool]],
    ) -> "ConfusionCounts":
        """Counts summed over every query of ``answers`` (the
        micro-average of Section III-B); ``truth`` is keyed alike."""
        return sum(
            (cls.from_vectors(truth[name], answers[name]) for name in answers),
            cls(),
        )

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        if not isinstance(other, ConfusionCounts):
            return NotImplemented
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )

    @property
    def total(self) -> float:
        """All counted windows."""
        return self.tp + self.fp + self.fn + self.tn

    @property
    def positives(self) -> float:
        """Ground-truth positive windows (``TP + FN``)."""
        return self.tp + self.fn

    @property
    def detections(self) -> float:
        """Windows the detector flagged (``TP + FP``)."""
        return self.tp + self.fp

    @property
    def precision(self) -> float:
        """Eq. (2): ``TP / (TP + FP)``.

        Convention: a detector that never fires made no false claims, so
        precision is 1 when ``TP + FP = 0``.
        """
        denominator = self.tp + self.fp
        if denominator == 0:
            return 1.0
        return self.tp / denominator

    @property
    def recall(self) -> float:
        """Eq. (1): ``TP / (TP + FN)``.

        Convention: with no positives to find (``TP + FN = 0``) recall
        is 1 — there was nothing to miss.
        """
        denominator = self.tp + self.fn
        if denominator == 0:
            return 1.0
        return self.tp / denominator
