"""Randomized response over existence indicators (Definition 5).

Given the existence indicator ``I(e) ∈ {0, 1}`` of an event, the
mechanism reports the true value with probability ``1 - p`` and lies
with probability ``p``:

.. math::

    \\Pr(R = j \\mid I(e) = j) = 1 - p, \\qquad
    \\Pr(R = j \\mid I(e) = k) = p \\; (j \\ne k).

For ``p <= 1/2`` a single response is ``ln((1 - p)/p)``-DP with respect
to flipping that indicator; Theorem 1 sums these per-event budgets into
the pattern-level guarantee.
"""

from __future__ import annotations

import math


def epsilon_to_flip_probability(epsilon: float) -> float:
    """The flip probability realizing a per-event budget ε.

    Inverts ``ε = ln((1 - p)/p)``: ``p = 1 / (1 + e^ε)``.  ``ε = 0``
    gives ``p = 1/2`` (pure noise, perfect privacy); ``ε → ∞`` gives
    ``p → 0`` (no noise, no protection).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return 1.0 / (1.0 + math.exp(epsilon))


def flip_probability_to_epsilon(p: float) -> float:
    """The per-event budget spent by flip probability ``p`` (``0 < p <= 1/2``).

    ``ε = ln((1 - p)/p)`` — the factor each response contributes in the
    Theorem 1 product bound.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError(
            f"flip probability must be in (0, 1/2] for a finite budget, got {p}"
        )
    return math.log((1.0 - p) / p)
