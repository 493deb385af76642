"""The w-event decision arithmetic: a bound → scan → resolve pipeline.

The w-event schedulers BD and BA (:mod:`repro.baselines.w_event`)
share one shape of per-timestamp work: estimate how far the data
drifted from the last release, add Laplace noise, compare against a
budget-derived publish threshold, and either publish (spending budget,
drawing a noise vector) or approximate (re-emit the last release, free
of charge).  :class:`~repro.baselines.w_event.OnlineReleaser` drives
that loop in three stages, calling the scheduler's budget hooks
directly; this module holds the numeric helpers it decides with:

**bound**
    Per chunk of :data:`_CHUNK_ROWS` rows, one vectorized pass computes
    every row's norm ``a_r = mean|x_r|`` (:func:`row_norms`) and an
    approximate dissimilarity noise (``np.log`` on the prefetched first
    uniforms, branch as in the scalar step).  With ``b = mean|last|``,
    one reduce per publication, the triangle inequality bounds the
    distance of any real row: ``|b − a_r| ≤ d_r ≤ b + a_r``.  A row
    whose upper-bound score stays below the threshold is a certified
    skip; one whose lower-bound score clears it is a certified
    publication.  Neither needs a distance.

**scan**
    Only rows between the two bounds reach a vectorized distance pass
    (:func:`release_distances`) over the next :data:`_PASS_ROWS` rows
    against the last release; a publication invalidates it.

**resolve**
    Every row is decided in one tight loop.  The budget hook runs once
    per constant-budget stretch (the scheduler's ``_budget_until``),
    zero-budget stretches are hopped, skip runs are applied as one
    ``released[a:b]`` fill and only publications are logged to the
    trace.  Only publishing rows (and ``u <= 0`` rows) draw from a child
    generator, and every row near a decision boundary is decided by the
    exact scalar arithmetic, preserving bit-identity by construction.

Why the margins are sound: the exact decision compares the scalar
distance plus the scalar ``math.log`` noise against the threshold.
A pass-decided row takes the exact noise, so the only disagreement its
margin must cover is the vectorized distance pass rounding differently
than the scalar per-row reduction; it is decided from the pass only
when its score clears the threshold by more than
``margin * (1 + |noise| + θ)``.  A bound-decided row additionally takes
the vectorized noise and norms, whose errors are ulp-level relative to
``|noise|``, ``a_r`` and ``b``; its slack is
``margin * (1 + |noise| + θ + a_r + b)``, so it scales with every
magnitude involved.  The triangle inequality holds for any real
vectors, and every rounding error in play is ulps relative to those
magnitudes — astronomically narrower than the slack at
:data:`_MARGIN` ``= 1e-9``, yet the slack is vanishingly unlikely to
catch a real decision (the score is a continuous random variable).
Rows inside a band fall through to the next stage, so a margin that is
*too wide* only costs speed, never correctness.  ``scan=exact`` (audit
mode) additionally re-verifies every bound- and pass-decided row
against the scalar arithmetic and raises :class:`ScanMarginError` on
disagreement.

The mechanisms take the mode as a string, ``scan="margin"`` (the
default), ``"exact"`` or ``"off"`` — ``off`` runs the exact scalar step
on every row, the oracle the other modes are pinned against
(:func:`check_scan`).  Landmark privacy
(:mod:`repro.baselines.landmark`) has no decision loop: it releases
through its scalar per-timestamp loop and reads the mode only to let
its checkpoint prepass hop the regular rows unless ``scan="off"``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.metrics import default_registry

__all__ = [
    "SCAN_MODES",
    "ScanMarginError",
    "check_scan",
    "release_distances",
    "row_norms",
]

#: Valid ``scan=`` modes, in spec-string spelling.
SCAN_MODES = ("margin", "exact", "off")


def check_scan(scan) -> str:
    """``scan`` validated as one of :data:`SCAN_MODES`."""
    if not isinstance(scan, str):
        raise TypeError(f"scan must be a mode string, got {scan!r}")
    if scan not in SCAN_MODES:
        raise ValueError(
            f"unknown scan mode {scan!r}; valid scan modes: "
            f"{', '.join(SCAN_MODES)}"
        )
    return scan


def _kernel_telemetry():
    """The decision loop's counters, fetched from the *current* default
    registry per block.

    Resolved lazily (not cached on the releaser) so a releaser pickled
    into a cluster worker reports into that worker's per-task registry
    — the increments then ride the ``_METRICS`` frame back to the
    parent.  Three dict lookups per block, amortized over the block's
    rows.
    """
    registry = default_registry()
    return (
        registry.counter(
            "repro_decisions_certified_rows_total",
            "Rows decided by a certified bound or scan verdict.",
        ),
        registry.counter(
            "repro_decisions_boundary_rows_total",
            "Rows resolved by the exact scalar step.",
        ),
        registry.counter(
            "repro_decisions_zero_budget_rows_total",
            "Rows approximated on zero publication budget.",
        ),
    )


#: Safety margin of the certification bands (see the module docstring
#: for why it is sound).
_MARGIN = 1e-9

#: Blocks at least this long precompute their first uniforms
#: vectorized; shorter blocks — single pushes, async micro-batches —
#: draw per step, which is cheaper below this size.  Both paths produce
#: bit-identical draws.
_PREFETCH_MIN = 32

#: Rows of one w-event distance pass.  A pass is computed against the
#: last release, so every publication invalidates the rest of it: BD/BA
#: publish on roughly one row in four to seven, and a short constant
#: pass keeps the vector work a publication throws away small while
#: still amortizing numpy's per-call overhead over the rows the bounds
#: leave undecided.
_PASS_ROWS = 32

#: Rows of one bound chunk: the row norms and approximate noises are
#: computed this many rows at a time, so a long block never holds a
#: block-sized ``abs`` temporary.
_CHUNK_ROWS = 2048


class ScanMarginError(RuntimeError):
    """Audit mode found a margin-decided row the scalar arithmetic rejects.

    Raised only under ``scan=exact``; seeing this means the platform's
    vectorized-versus-scalar rounding exceeded the built-in margin
    constant :data:`_MARGIN`, which no setting widens.
    """


def release_distances(rows: np.ndarray, release: np.ndarray) -> np.ndarray:
    """Mean absolute deviation of every row from ``release``.

    The w-event distance pass.  Reducing along ``axis=1`` may
    sum in a different order than the scalar per-row reduction, so the
    values equal the exact distances only up to ulps — decisions taken
    from them are protected by the margin band.
    """
    return np.add.reduce(np.abs(rows - release), axis=1) / rows.shape[1]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Mean absolute value ``a_r`` of every row.

    The w-event bound precompute: with ``b`` the mean absolute
    value of the last release, every row's distance lies in
    ``[|b − a_r|, b + a_r]``.  The reduction is ulp-accurate, which the
    bound slack covers.
    """
    return np.add.reduce(np.abs(rows), axis=1) / rows.shape[1]


def _approximate_noises(uniforms: np.ndarray, scale: float) -> np.ndarray:
    """Vectorized Laplace noise of each first uniform, NaN for ``u <= 0``.

    The branch of numpy's ``random_laplace`` (``loc=0``) over an array:
    ``np.log`` may round differently than the scalar ``math.log``, so
    these values serve only the bound certificates, whose slack covers
    the difference.  ``u <= 0`` rows retry inside numpy; they are NaN
    here, which no certificate accepts.
    """
    upper = uniforms >= 0.5
    arguments = np.where(
        upper,
        2.0 - uniforms - uniforms,
        np.where(uniforms > 0.0, uniforms + uniforms, np.nan),
    )
    noises = scale * np.log(arguments)
    np.negative(noises, out=noises, where=upper)
    return noises


def _laplace_noise(uniform: float, scale: float) -> float:
    """numpy ``random_laplace`` (``loc=0``) of a first uniform ``u > 0``:
    branch and arithmetic order replayed exactly."""
    if uniform >= 0.5:
        return 0.0 - scale * math.log(2.0 - uniform - uniform)
    return 0.0 + scale * math.log(uniform + uniform)
