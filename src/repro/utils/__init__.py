"""Shared utilities: seeded RNG plumbing, validation, result tables.

These helpers keep the rest of the library free of global state: every
stochastic component accepts a seed or a :class:`numpy.random.Generator`
and derives child generators deterministically.
"""

from repro.utils.rng import (
    RngLike,
    derive_rng,
    ensure_rng,
)
from repro.utils.tables import ResultTable
from repro.utils.validation import (
    ValidationError,
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "ResultTable",
    "RngLike",
    "ValidationError",
    "check_fraction",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "derive_rng",
    "ensure_rng",
]
