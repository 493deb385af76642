"""Differential-privacy primitives.

The randomized-response budget conversions of Definition 5
(:mod:`repro.mechanisms.randomized_response`) used by the pattern-level
PPMs and the RR baselines, plus a privacy accountant implementing
sequential and parallel composition.
"""

from repro.mechanisms.accountant import (
    BudgetExceededError,
    PrivacyAccountant,
    Spend,
    composed_epsilon,
)

__all__ = [
    "BudgetExceededError",
    "PrivacyAccountant",
    "Spend",
    "composed_epsilon",
]
