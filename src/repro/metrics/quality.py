"""The combined data-quality metric ``Q`` (Section III-B, Eq. (3))."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.confusion import ConfusionCounts
from repro.utils.validation import check_probability


def quality_score(precision: float, recall: float, alpha: float = 0.5) -> float:
    """Eq. (3): ``Q = alpha * Prec + (1 - alpha) * Rec``.

    ``alpha`` is the hyper-parameter predefined by data subjects and
    consumers; the paper's evaluation uses ``alpha = 0.5``, weighting
    precision and recall equally.
    """
    precision = check_probability("precision", precision)
    recall = check_probability("recall", recall)
    alpha = check_probability("alpha", alpha)
    return alpha * precision + (1.0 - alpha) * recall


@dataclass(frozen=True)
class DataQuality:
    """Precision, recall and their ``alpha``-combination for one detector."""

    precision: float
    recall: float
    alpha: float = 0.5

    def __post_init__(self):
        check_probability("precision", self.precision)
        check_probability("recall", self.recall)
        check_probability("alpha", self.alpha)

    @classmethod
    def from_confusion(
        cls, counts: ConfusionCounts, *, alpha: float = 0.5
    ) -> "DataQuality":
        """Derive the quality metrics from confusion counts."""
        return cls(
            precision=counts.precision, recall=counts.recall, alpha=alpha
        )

    @property
    def q(self) -> float:
        """The combined score ``Q``."""
        return quality_score(self.precision, self.recall, self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataQuality(P={self.precision:.4f}, R={self.recall:.4f}, "
            f"alpha={self.alpha:g}, Q={self.q:.4f})"
        )
