"""Budget conversion between native guarantees and pattern-level ε.

Section VI-A.2: "The privacy budgets of BD, BA, and landmark privacy are
converted from their original definitions to the one defined by
pattern-level DP.  The conversion is achieved by aggregating the
original privacy budgets related to the predefined private pattern
types."

Concretely: a private pattern ``P = seq(e_1..e_m)`` whose instance lives
in one window exposes ``m`` existence indicators at one timestamp.  The
pattern-level budget a stream mechanism effectively grants is the
aggregate (group-privacy) privacy loss those ``m`` indicators can
suffer::

    ε_pattern = m × σ(ε_native)

where ``σ`` is the per-timestamp privacy loss of the mechanism — the
budget it can spend on the release(s) covering one timestamp.  Inverting
``σ`` calibrates a baseline to a target pattern-level ε so all
mechanisms in Fig. 4 are compared under equally strong pattern
protection.

Two accounting modes are provided:

``"worst_case"`` (default)
    ``σ`` is the largest spend any single timestamp can receive
    (DP guarantees are worst-case statements); this is the sound
    conversion.
``"nominal"``
    ``σ`` is the average per-timestamp spend — an optimistic reading
    that favours the baselines; exposed for the sensitivity ablation.

As the paper notes, "an increase or a decrease of privacy budgets are
both possible after a conversion" — e.g. BD's worst-case σ grows with
``ε_native/4`` while its nominal σ shrinks with ``1/w``.
"""

from __future__ import annotations

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
)

_MODES = ("worst_case", "nominal")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


# -- per-mechanism per-timestamp loss coefficients -----------------------------
#
# Each σ is linear in the native budget: σ(ε) = coefficient × ε, so the
# conversions are exact inversions.


def bd_timestep_coefficient(w: int, *, mode: str = "worst_case") -> float:
    """σ/ε for Budget Distribution.

    Worst case: the first publication after a quiet window receives
    ``ε_2/2 = ε/4``, plus the dissimilarity share ``ε_1/w = ε/(2w)``.
    Nominal: the publication half spread over the window, ``ε/(2w)``,
    plus the same dissimilarity share.
    """
    check_positive_int("w", w)
    _check_mode(mode)
    if mode == "worst_case":
        return 0.25 + 1.0 / (2.0 * w)
    return 1.0 / (2.0 * w) + 1.0 / (2.0 * w)


def ba_timestep_coefficient(w: int, *, mode: str = "worst_case") -> float:
    """σ/ε for Budget Absorption.

    Worst case: a publication that absorbed the whole window receives
    ``ε_2 = ε/2``, plus the dissimilarity share ``ε/(2w)``.  Nominal:
    the nominal publication budget ``ε/(2w)`` plus the dissimilarity
    share.
    """
    check_positive_int("w", w)
    _check_mode(mode)
    if mode == "worst_case":
        return 0.5 + 1.0 / (2.0 * w)
    return 1.0 / (2.0 * w) + 1.0 / (2.0 * w)


def landmark_timestep_coefficient(
    n_landmarks: int, *, rho: float = 0.5, mode: str = "worst_case"
) -> float:
    """σ/ε for landmark privacy at a landmark timestamp.

    The pattern's events live in landmark windows.  Worst case: the last
    remaining landmark receives the whole remaining publication share
    ``ρε/2`` plus its dissimilarity share ``ρε/(2L)``.  Nominal: an even
    split, ``ρε/L`` in total.
    """
    check_positive_int("n_landmarks", n_landmarks)
    check_in_range("rho", rho, 0.0, 1.0, inclusive=False)
    _check_mode(mode)
    if mode == "worst_case":
        return rho / 2.0 + rho / (2.0 * n_landmarks)
    return rho / n_landmarks


def event_level_timestep_coefficient() -> float:
    """σ/ε for event-level RR: each event spends its full budget."""
    return 1.0


def user_level_timestep_coefficient(n_windows: int, n_types: int) -> float:
    """σ/ε for user-level RR over a finite horizon: ``1/(n × K)``."""
    check_positive_int("n_windows", n_windows)
    check_positive_int("n_types", n_types)
    return 1.0 / (n_windows * n_types)


# -- conversions ---------------------------------------------------------------


def native_epsilon_for_pattern(
    pattern_epsilon: float, pattern_length: int, coefficient: float
) -> float:
    """Invert the conversion: the native budget hitting a target
    pattern-level ε."""
    check_positive("pattern_epsilon", pattern_epsilon)
    check_positive_int("pattern_length", pattern_length)
    check_positive("coefficient", coefficient)
    return pattern_epsilon / (pattern_length * coefficient)


class BudgetConverter:
    """Conversion helper bound to one private pattern length and mode."""

    def __init__(self, pattern_length: int, *, mode: str = "worst_case"):
        self.pattern_length = check_positive_int(
            "pattern_length", pattern_length
        )
        self.mode = _check_mode(mode)

    # BD -----------------------------------------------------------------

    def bd_native(self, pattern_epsilon: float, w: int) -> float:
        """w-event budget for BD achieving ``pattern_epsilon``."""
        return native_epsilon_for_pattern(
            pattern_epsilon,
            self.pattern_length,
            bd_timestep_coefficient(w, mode=self.mode),
        )

    # BA -----------------------------------------------------------------

    def ba_native(self, pattern_epsilon: float, w: int) -> float:
        """w-event budget for BA achieving ``pattern_epsilon``."""
        return native_epsilon_for_pattern(
            pattern_epsilon,
            self.pattern_length,
            ba_timestep_coefficient(w, mode=self.mode),
        )

    # Landmark --------------------------------------------------------------

    def landmark_native(
        self, pattern_epsilon: float, n_landmarks: int, *, rho: float = 0.5
    ) -> float:
        """Landmark budget achieving ``pattern_epsilon``."""
        return native_epsilon_for_pattern(
            pattern_epsilon,
            self.pattern_length,
            landmark_timestep_coefficient(n_landmarks, rho=rho, mode=self.mode),
        )

    # Event / user level -----------------------------------------------------

    def event_level_native(self, pattern_epsilon: float) -> float:
        """Per-event budget achieving ``pattern_epsilon`` (``ε/m``)."""
        return native_epsilon_for_pattern(
            pattern_epsilon,
            self.pattern_length,
            event_level_timestep_coefficient(),
        )

    def user_level_native(
        self, pattern_epsilon: float, n_windows: int, n_types: int
    ) -> float:
        """User-level budget achieving ``pattern_epsilon``."""
        return native_epsilon_for_pattern(
            pattern_epsilon,
            self.pattern_length,
            user_level_timestep_coefficient(n_windows, n_types),
        )
