"""Argument-validation helpers.

Small, explicit checks used at public API boundaries.  Each helper raises
:class:`ValidationError` (a :class:`ValueError` subclass) with a message
naming the offending parameter, so user mistakes surface immediately
instead of corrupting privacy accounting downstream.
"""

from __future__ import annotations

import math
from typing import Any


class ValidationError(ValueError):
    """Raised when a public API receives an invalid argument."""


def _check_real(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"{name} must be a real number, got {type(value).__name__}"
        )
    value = float(value)
    if math.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    return value


def check_positive(name: str, value: Any, *, allow_inf: bool = False) -> float:
    """Check ``value`` is a strictly positive real number; return it."""
    value = _check_real(name, value)
    if not allow_inf and math.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(
    name: str, value: Any, *, allow_inf: bool = False
) -> float:
    """Check ``value`` is a non-negative real number; return it."""
    value = _check_real(name, value)
    if not allow_inf and math.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if value < 0.0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: Any) -> float:
    """Check ``value`` lies in the closed interval [0, 1]; return it."""
    value = _check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction(name: str, value: Any) -> float:
    """Alias of :func:`check_probability` for fraction-of-total arguments."""
    return check_probability(name, value)


def check_in_range(
    name: str,
    value: Any,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Check ``low <= value <= high`` (or strict when not inclusive)."""
    value = _check_real(name, value)
    if inclusive:
        if not low <= value <= high:
            raise ValidationError(
                f"{name} must be in [{low}, {high}], got {value}"
            )
    else:
        if not low < value < high:
            raise ValidationError(
                f"{name} must be in ({low}, {high}), got {value}"
            )
    return value


def check_positive_int(name: str, value: Any) -> int:
    """Check ``value`` is a strictly positive integer; return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{name} must be an int, got {type(value).__name__}"
        )
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value
