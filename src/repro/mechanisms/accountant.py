"""Privacy budget accounting.

:class:`PrivacyAccountant` is a ledger of budget spends with a hard cap:
exceeding the total raises :class:`BudgetExceededError` *before* any
randomness is consumed, so a buggy caller cannot silently overspend.
Composition follows the classical rules: sequential spends add; spends
on disjoint data (parallel composition) count their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.utils.validation import check_non_negative, check_positive

_EPS_TOLERANCE = 1e-9


class BudgetExceededError(RuntimeError):
    """Raised when a spend would push the ledger past its total budget."""


@dataclass(frozen=True)
class Spend:
    """One recorded budget expenditure."""

    label: str
    epsilon: float


def composed_epsilon(spends: Iterable[float], *, mode: str = "sequential") -> float:
    """Total ε of a list of spends under a composition rule.

    ``"sequential"`` — the mechanisms saw the same data: budgets add.
    ``"parallel"`` — the mechanisms saw disjoint slices of the data:
    the composed guarantee is the maximum single spend.
    """
    values = [check_non_negative("epsilon", value) for value in spends]
    if mode == "sequential":
        return float(sum(values))
    if mode == "parallel":
        return float(max(values)) if values else 0.0
    raise ValueError(f"mode must be 'sequential' or 'parallel', got {mode!r}")


class PrivacyAccountant:
    """A ledger enforcing a total ε budget under sequential composition."""

    def __init__(self, total_epsilon: float):
        self._total = check_positive("total_epsilon", total_epsilon, allow_inf=True)
        self._spends: List[Spend] = []

    @property
    def total_epsilon(self) -> float:
        """The hard budget cap."""
        return self._total

    @property
    def spends(self) -> List[Spend]:
        """All recorded spends, in order (copy)."""
        return list(self._spends)

    def spent(self) -> float:
        """Budget consumed so far (sequential composition)."""
        return composed_epsilon(
            (spend.epsilon for spend in self._spends), mode="sequential"
        )

    def remaining(self) -> float:
        """Budget still available."""
        return max(0.0, self._total - self.spent())

    def can_spend(self, epsilon: float) -> bool:
        """Whether a further spend of ``epsilon`` fits the cap."""
        epsilon = check_non_negative("epsilon", epsilon)
        return self.spent() + epsilon <= self._total + _EPS_TOLERANCE

    def spend(self, label: str, epsilon: float) -> Spend:
        """Record a spend; raises :class:`BudgetExceededError` if over cap."""
        epsilon = check_non_negative("epsilon", epsilon)
        if not self.can_spend(epsilon):
            raise BudgetExceededError(
                f"spend {label!r} of ε={epsilon:g} exceeds the remaining "
                f"budget {self.remaining():g} (total {self._total:g})"
            )
        spend = Spend(label=label, epsilon=epsilon)
        self._spends.append(spend)
        return spend

    def reset(self) -> None:
        """Clear the ledger (new accounting period)."""
        self._spends = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrivacyAccountant(spent={self.spent():g}, total={self._total:g}, "
            f"entries={len(self._spends)})"
        )
