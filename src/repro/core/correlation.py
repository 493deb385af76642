"""Correlation-based discovery of relevant events (Section V-C).

The paper's mechanisms assume that data subjects "perfectly" declare the
events constituting their private patterns — "a rigorous assumption
since neither of these entities is expected to be privacy experts."
Section V-C sketches the mitigation this module implements: "we can
estimate the correlations among events and patterns based on historical
data, which enables us to reveal most of the latent relationships."

Given historical windows and a declared private pattern, we measure the
phi coefficient (Pearson correlation of binary variables) between every
event type's indicator and the pattern's detection vector.  Event types
outside the declared element list that correlate strongly are *latent
proxies*: an adversary observing them learns about the private pattern,
so the subject should consider protecting them too.
:func:`augment_private_pattern` extends the declared pattern with the
discovered proxies (growing ``m`` and thus diluting the per-element
budget — the price of closing the leak, made explicit to the caller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cep.patterns import Pattern
from repro.streams.indicator import IndicatorStream
from repro.utils.validation import check_in_range


def phi_coefficient(first: np.ndarray, second: np.ndarray) -> float:
    """Pearson correlation of two binary vectors (the phi coefficient).

    Returns 0.0 when either vector is constant (no co-variation to
    measure).
    """
    first = np.asarray(first, dtype=bool)
    second = np.asarray(second, dtype=bool)
    if first.shape != second.shape:
        raise ValueError(
            f"shape mismatch: {first.shape} vs {second.shape}"
        )
    if first.size == 0:
        raise ValueError("cannot correlate empty vectors")
    n11 = float(np.sum(first & second))
    n10 = float(np.sum(first & ~second))
    n01 = float(np.sum(~first & second))
    n00 = float(np.sum(~first & ~second))
    denominator = math.sqrt(
        (n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)
    )
    if denominator == 0.0:
        return 0.0
    return (n11 * n00 - n10 * n01) / denominator


def event_pattern_correlations(
    history: IndicatorStream, pattern: Pattern
) -> Dict[str, float]:
    """Phi coefficient between every event type and pattern detection.

    The pattern's own elements correlate by construction (they are
    conjuncts of the detection rule); the interesting entries are the
    *other* event types.
    """
    if pattern.elements is None:
        raise ValueError(f"pattern {pattern.name!r} has no element list")
    detection = history.detect_all(list(pattern.elements))
    return {
        name: phi_coefficient(history.column(name), detection)
        for name in history.alphabet
    }


@dataclass(frozen=True)
class DiscoveredProxy:
    """One latent proxy event for a private pattern."""

    event_type: str
    correlation: float


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of a relevant-event discovery run."""

    pattern_name: str
    declared_elements: tuple
    proxies: tuple
    threshold: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{p.event_type}({p.correlation:+.2f})" for p in self.proxies
        )
        return (
            f"CorrelationReport({self.pattern_name!r}: "
            f"{len(self.proxies)} prox{'y' if len(self.proxies) == 1 else 'ies'}"
            f" above |phi|>={self.threshold:g}: [{inner}])"
        )


def discover_relevant_events(
    history: IndicatorStream,
    pattern: Pattern,
    *,
    threshold: float = 0.3,
    max_proxies: Optional[int] = None,
) -> CorrelationReport:
    """Find undeclared event types that leak the private pattern.

    Event types outside the declared element list whose |phi| with the
    pattern's detection vector reaches ``threshold`` are reported as
    proxies, strongest first.  ``max_proxies`` caps the report (each
    accepted proxy will dilute the per-element budget when the pattern
    is augmented).
    """
    check_in_range("threshold", threshold, 0.0, 1.0)
    if max_proxies is not None and max_proxies < 0:
        raise ValueError(f"max_proxies must be >= 0, got {max_proxies}")
    correlations = event_pattern_correlations(history, pattern)
    declared = set(pattern.elements)
    candidates = [
        DiscoveredProxy(name, value)
        for name, value in correlations.items()
        if name not in declared and abs(value) >= threshold
    ]
    candidates.sort(key=lambda proxy: (-abs(proxy.correlation), proxy.event_type))
    if max_proxies is not None:
        candidates = candidates[:max_proxies]
    return CorrelationReport(
        pattern_name=pattern.name,
        declared_elements=tuple(pattern.elements),
        proxies=tuple(candidates),
        threshold=threshold,
    )


def augment_private_pattern(
    pattern: Pattern, report: CorrelationReport
) -> Pattern:
    """Extend a private pattern with its discovered proxies.

    The result protects the declared elements *and* the latent proxies;
    its length grows accordingly, so the same total budget spreads
    thinner (callers see the trade-off through
    :class:`~repro.core.budget.BudgetAllocation`).
    """
    if pattern.elements is None:
        raise ValueError(f"pattern {pattern.name!r} has no element list")
    if report.pattern_name != pattern.name:
        raise ValueError(
            f"report is for pattern {report.pattern_name!r}, "
            f"not {pattern.name!r}"
        )
    extra = [
        proxy.event_type
        for proxy in report.proxies
        if proxy.event_type not in pattern.elements
    ]
    if not extra:
        return pattern
    return Pattern.of_types(
        f"{pattern.name}+proxies", *pattern.elements, *extra
    )


def leakage_after_protection(
    history: IndicatorStream,
    pattern: Pattern,
    protected_elements: Sequence[str],
) -> Dict[str, float]:
    """Residual correlation between *unprotected* events and the pattern.

    A diagnostic for the Section V-C risk: after protecting
    ``protected_elements``, any unprotected event type still correlated
    with the pattern's detection vector remains an inference channel.
    Returns the per-type |phi| of the unprotected types, descending.
    """
    correlations = event_pattern_correlations(history, pattern)
    protected = set(protected_elements)
    residual = {
        name: abs(value)
        for name, value in correlations.items()
        if name not in protected
    }
    return dict(
        sorted(residual.items(), key=lambda item: -item[1])
    )
