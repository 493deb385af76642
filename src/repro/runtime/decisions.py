"""The w-event decision kernel: a plan → bound → scan → resolve pipeline.

The w-event schedulers BD and BA (:mod:`repro.baselines.w_event`)
share one shape of per-timestamp work: estimate how far the data
drifted from the last release, add Laplace noise, compare against a
budget-derived publish threshold, and either publish (spending budget,
drawing a noise vector) or approximate (re-emit the last release, free
of charge).  This module drives that loop in four stages:

**plan**
    Each scheduler declares its decision rule *as data* — a
    :class:`DecisionRule` bundling the scalar publish-budget hook, the
    constant-budget stretch predicate and the post-publication state
    transition — instead of owning a bespoke loop.

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
    per constant-budget stretch (:attr:`DecisionRule.budget_until`),
    zero-budget stretches are hopped, skip runs are applied as one
    ``released[a:b]`` fill and the trace columns are written once per
    block.  Only publishing rows (and ``u <= 0`` rows) draw from a child
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
magnitudes — astronomically narrower than the slack at the default
``1e-9``, yet the slack is vanishingly unlikely to catch a real
decision (the score is a continuous random variable).  Rows inside a
band fall through to the next stage, so a margin that is *too wide*
only costs speed, never correctness.  ``scan=exact`` (audit mode)
additionally re-verifies every bound- and pass-decided row against the
scalar arithmetic and raises :class:`ScanMarginError` on disagreement.

Landmark privacy (:mod:`repro.baselines.landmark`) has no kernel: it
releases through its scalar per-timestamp loop and reads only
:attr:`ScanConfig.enabled`, which lets its checkpoint prepass hop the
regular rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import default_registry

__all__ = [
    "DecisionRule",
    "ScanConfig",
    "ScanMarginError",
    "WEventKernel",
    "release_distances",
    "row_norms",
]

#: Valid ``scan=`` modes, in spec-string spelling.
SCAN_MODES = ("margin", "exact", "off")


def _kernel_telemetry():
    """The decision kernel's counters, fetched from the *current*
    default registry per block.

    Resolved lazily (not cached on the kernel) so a kernel pickled
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

    Raised only under ``scan=exact``; seeing this means the configured
    safety margin is too narrow for the platform's vectorized-versus-
    scalar rounding and must be widened.
    """


@dataclass(frozen=True)
class ScanConfig:
    """Tunables of the decision scan.

    Attributes
    ----------
    mode:
        ``"margin"`` (the default) decides rows from the vectorized
        values wherever the margin band certifies them; ``"exact"``
        additionally re-verifies every margin-decided row with the
        exact scalar arithmetic (the audit mode — slow, raises
        :class:`ScanMarginError` on any disagreement); ``"off"``
        disables the scan entirely and runs the per-timestamp scalar
        loop (the pre-kernel behavior and the kernel's oracle).
        Landmark has no scan: ``margin`` and ``exact`` both let its
        checkpoint prepass hop the regular rows, ``off`` keeps the
        scalar loop there too.
    margin:
        The safety margin of the certification band (see the module
        docstring for why the default is sound).
    prefetch_min:
        Blocks at least this long precompute their first uniforms
        vectorized; shorter blocks — single pushes, async
        micro-batches — draw per-step, which is cheaper below this
        size.  Both paths produce bit-identical draws.
    """

    mode: str = "margin"
    margin: float = 1e-9
    prefetch_min: int = 32

    def __post_init__(self):
        if self.mode not in SCAN_MODES:
            raise ValueError(
                f"unknown scan mode {self.mode!r}; valid scan modes: "
                f"{', '.join(SCAN_MODES)}"
            )
        if not self.margin > 0.0:
            raise ValueError(
                f"scan margin must be positive, got {self.margin}"
            )
        if self.prefetch_min < 1:
            raise ValueError(
                f"scan prefetch_min must be >= 1, got {self.prefetch_min}"
            )

    @property
    def enabled(self) -> bool:
        """Whether the scan runs at all (``margin`` or ``exact``)."""
        return self.mode != "off"

    @property
    def audit(self) -> bool:
        """Whether margin-decided rows are re-verified (``exact``)."""
        return self.mode == "exact"

    @classmethod
    def coerce(cls, value: Union[None, str, "ScanConfig"]) -> "ScanConfig":
        """Normalize a constructor argument into a :class:`ScanConfig`.

        ``None`` means the defaults, a string names a mode, and a
        config passes through — so mechanism constructors can take
        ``scan="off"`` as tersely as ``scan=ScanConfig(...)``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"scan must be a ScanConfig, a mode string or None, "
            f"got {value!r}"
        )

    @classmethod
    def from_options(
        cls,
        scan: Optional[str] = None,
        margin: Optional[float] = None,
        prefetch: Optional[int] = None,
    ) -> Optional["ScanConfig"]:
        """Build a config from spec-grammar options, ``None`` if unset.

        This is the mechanism factories' entry point for specs like
        ``"bd:scan=off"`` or ``"bd:margin=1e-9,prefetch=64"`` — any
        option given yields a config (unset options keep defaults),
        all-``None`` yields ``None`` so the mechanism falls back to its
        own default.
        """
        if scan is None and margin is None and prefetch is None:
            return None
        defaults = cls()
        return cls(
            mode=scan if scan is not None else defaults.mode,
            margin=float(margin) if margin is not None else defaults.margin,
            prefetch_min=(
                int(prefetch)
                if prefetch is not None
                else defaults.prefetch_min
            ),
        )


@dataclass(frozen=True)
class DecisionRule:
    """One scheduler's decision rule, declared as data (the *plan*).

    The callables mirror the scheduler hooks on
    :class:`~repro.baselines.w_event.WEventMechanism`:

    - ``publication_budget(t, trace, state)`` — the scalar budget (may
      mutate the state exactly as the scheduler's per-step call does);
    - ``budget_until(t, state)`` — asked right after
      ``publication_budget(t, ...)``: the exclusive end (an int, or
      ``math.inf``) of the stretch over which, barring a publication,
      the budget stays the one at ``t`` and the budget hook leaves the
      state unchanged;
    - ``after_publication(t, budget, trace, state)`` — post-publication
      state transition.
    """

    publication_budget: Callable[[int, object, Dict], float]
    budget_until: Callable[[int, Dict], float]
    after_publication: Callable[[int, float, object, Dict], None]


def release_distances(rows: np.ndarray, release: np.ndarray) -> np.ndarray:
    """Mean absolute deviation of every row from ``release``.

    The w-event kernel's distance pass.  Reducing along ``axis=1`` may
    sum in a different order than the scalar per-row reduction, so the
    values equal the exact distances only up to ulps — decisions taken
    from them are protected by the margin band.
    """
    return np.add.reduce(np.abs(rows - release), axis=1) / rows.shape[1]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Mean absolute value ``a_r`` of every row.

    The w-event kernel's bound precompute: with ``b`` the mean absolute
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


# ---------------------------------------------------------------------------
# The w-event resolve stage
# ---------------------------------------------------------------------------


class WEventKernel:
    """Plan → scan → resolve driver for one w-event releaser.

    The *host* is an :class:`~repro.baselines.w_event.OnlineReleaser`:
    it owns the mutable release state (``t``, ``trace``,
    ``last_release``, ``scheduler_state`` and the rng pool) while the
    kernel owns the decision pipeline.
    ``run_block`` is bit-identical to the pre-kernel scalar loop in
    every mode — the vectorized values only decide rows the margin band
    certifies, never what any timestamp releases.
    """

    def __init__(
        self,
        rule: DecisionRule,
        config: ScanConfig,
        *,
        n_types: int,
        sensitivity: float,
        dissimilarity_scale: float,
        dissimilarity_charge: float,
    ):
        self.rule = rule
        self.config = config
        self.n_types = n_types
        self.sensitivity = sensitivity
        self.scale = dissimilarity_scale
        self.charge = dissimilarity_charge

    # -- resolve -------------------------------------------------------

    def run_block(self, host, matrix: np.ndarray, released) -> None:
        """Release a block (``released=None`` ⇒ rows are not written).

        Per-timestamp draws come from the host's index-derived child
        streams, so the kernel is free to consume them smartly without
        changing a single output bit: with prefetched uniforms only
        publishing timestamps (and ``u <= 0`` rows) install a child
        generator.  ``scan=off`` and blocks shorter than the prefetch
        threshold run :meth:`_exact_step` row by row.
        """
        config = self.config
        n = matrix.shape[0]
        if n == 0:
            return
        uniforms = (
            host._children.first_uniforms(host.t, host.t + n)
            if n >= config.prefetch_min
            else None
        )
        certified, boundary, zero_budget = _kernel_telemetry()
        if not config.enabled or uniforms is None:
            for row in range(n):
                self._exact_step(host, matrix, released, row, uniforms)
            boundary.inc(n)
            return
        counts = self._resolve(host, matrix, released, uniforms)
        certified.inc(counts[0])
        boundary.inc(counts[1])
        zero_budget.inc(counts[2])

    def _resolve(self, host, matrix, released, uniforms) -> Tuple[int, ...]:
        """The publication-paced resolve over a prefetched block.

        Each constant-budget stretch asks the budget hook once.  A row
        is decided, cheapest first, by its bound certificate (no
        distance at all), by the current distance pass outside the
        margin band, or by the exact scalar arithmetic (in-band and
        ``u <= 0`` rows); the noise of a row that reaches the pass is
        its prefetched uniform spelled exactly as :meth:`_exact_step`
        spells it.  Zero-budget stretches are hopped, skipped rows are
        filled in runs, and the trace columns are appended once at the
        end — so the scheduler hooks see a trace that may lag within the
        block.  Returns the ``(certified, boundary, zero_budget)`` row
        counts.
        """
        rule = self.rule
        budget_of = rule.publication_budget
        budget_until = rule.budget_until
        after_publication = rule.after_publication
        trace = host.trace
        state = host.scheduler_state
        children = host._children
        scale = self.scale
        sensitivity = self.sensitivity
        n_types = self.n_types
        margin = self.config.margin
        audit = self.config.audit
        n = matrix.shape[0]
        boundary = zero_budget = 0
        start = 0
        if host.last_release is None:
            # The first release ever publishes without a distance.
            self._exact_step(host, matrix, released, 0, uniforms)
            boundary = start = 1
        base = host.t - start  # row r is timestamp base + r
        last = host.last_release
        spread = float(np.add.reduce(np.abs(last))) / n_types  # b
        published = np.zeros(n, dtype=bool)
        budgets = np.zeros(n)
        filled = start  # released rows before this one are written
        stretch_end = start  # the budget below holds for earlier rows
        chunk_start = chunk_stop = start  # rows the bound lists cover
        pass_start = pass_stop = 0  # rows the distance pass covers
        distances = []
        row = start
        while row < n:
            if row >= stretch_end:
                # A new constant-budget stretch: one budget-hook call.
                t = base + row
                budget = budget_of(t, trace, state)
                stretch_end = budget_until(t, state) - base
                if budget <= 0:
                    # Zero budget, data-independent: hop the stretch
                    # (no randomness is consumed here).
                    stop = min(max(stretch_end, row + 1), n)
                    zero_budget += stop - row
                    row = stop
                    continue
                threshold = sensitivity / budget
                widening = margin * (threshold + spread)
                skip_below = threshold - widening - spread
                publish_above = threshold + widening
            if row >= chunk_stop:
                chunk_start = row
                chunk_stop = min(n, row + _CHUNK_ROWS)
                chunk = slice(row, chunk_stop)
                norms, lows, keys = self._bounds(
                    matrix[chunk], uniforms[chunk]
                )
                chunk_uniforms = uniforms[chunk].tolist()
            i = row - chunk_start
            if keys[i] < skip_below:
                # Certified skip: even the upper bound b + a_r on the
                # distance leaves the score below the threshold.
                if audit:
                    self._audit(
                        base + row,
                        False,
                        matrix[row],
                        last,
                        _laplace_noise(chunk_uniforms[i], scale),
                        threshold,
                    )
                row += 1
                continue
            t = base + row
            rng_t = None
            if abs(spread - norms[i]) + lows[i] > publish_above:
                # Certified publication: even the lower bound |b - a_r|
                # on the distance lifts the score above the threshold.
                if audit:
                    self._audit(
                        t,
                        True,
                        matrix[row],
                        last,
                        _laplace_noise(chunk_uniforms[i], scale),
                        threshold,
                    )
            else:
                uniform = chunk_uniforms[i]
                if uniform > 0.0:
                    noise = _laplace_noise(uniform, scale)
                    if row >= pass_stop:
                        pass_start = row
                        pass_stop = min(n, row + _PASS_ROWS)
                        distances = release_distances(
                            matrix[row:pass_stop], last
                        ).tolist()
                    score = distances[row - pass_start] + noise
                    tolerance = margin * (1.0 + abs(noise) + threshold)
                    if threshold - tolerance <= score <= threshold + tolerance:
                        boundary += 1
                        distance = self._distance(matrix[row], last)
                        publish = distance + noise > threshold
                    else:
                        publish = score > threshold
                        if audit:
                            self._audit(
                                t, publish, matrix[row], last, noise, threshold
                            )
                else:
                    # U == 0 retries inside numpy; take the real generator.
                    boundary += 1
                    rng_t = children.generator(t)
                    noise = float(rng_t.laplace(0.0, scale))
                    distance = self._distance(matrix[row], last)
                    publish = distance + noise > threshold
                if not publish:
                    row += 1
                    continue
            if rng_t is None:
                # One draw: the dissimilarity word (u > 0, so exactly
                # one uniform), then the release noise.
                draws = children.generator(t).laplace(
                    0.0, threshold, size=n_types + 1
                )[1:]
            else:
                draws = rng_t.laplace(0.0, threshold, size=n_types)
            value = matrix[row] + draws
            if released is not None:
                released[filled:row] = last
                released[row] = value
            last = value
            spread = float(np.add.reduce(np.abs(last))) / n_types
            filled = row + 1
            published[row] = True
            budgets[row] = budget
            after_publication(t, budget, trace, state)
            pass_stop = 0
            row += 1
            stretch_end = row
        if released is not None:
            released[filled:n] = last
        trace.published.extend(published[start:])
        trace.publication_budgets.extend(budgets[start:])
        trace.dissimilarity_budgets.extend_constant(self.charge, n - start)
        host.last_release = last
        host.t = base + n
        return n - boundary - zero_budget, boundary, zero_budget

    def _bounds(self, rows: np.ndarray, uniforms: np.ndarray):
        """The bound certificate's per-row lists for one chunk.

        Returns ``(norms, lows, keys)``: the row norms ``a_r``, the
        approximate noise minus the row's share of the slack, and the
        noise plus ``a_r`` plus that share.  A row is a certified skip
        when ``key < θ − margin·(θ + b) − b`` and a certified
        publication when ``|b − a_r| + low > θ + margin·(θ + b)`` — the
        two triangle-inequality bounds widened by
        ``margin·(1 + |noise| + θ + a_r + b)``.  NaN noises (``u <= 0``)
        satisfy neither.
        """
        norms = row_norms(rows)
        noises = _approximate_noises(uniforms, self.scale)
        reach = self.config.margin * (1.0 + np.abs(noises) + norms)
        return (
            norms.tolist(),
            (noises - reach).tolist(),
            (norms + noises + reach).tolist(),
        )

    def _distance(self, row: np.ndarray, last: np.ndarray) -> float:
        """The exact scalar distance (Kellaris' ``dis``): mean absolute
        deviation from the last release.  The reduce spelling is
        bit-identical to ``.mean()`` and skips its dispatch overhead."""
        return float(np.add.reduce(np.abs(row - last)) / self.n_types)

    def _audit(self, t, publish, row, last, noise, threshold) -> None:
        """Re-verify one margin-decided row with the scalar arithmetic."""
        if (self._distance(row, last) + noise > threshold) != publish:
            verdict = "a publication" if publish else "a skip"
            raise ScanMarginError(
                f"timestamp {t} was certified as {verdict} but the exact "
                f"arithmetic disagrees (noise {noise!r}, threshold "
                f"{threshold!r}); widen the scan margin"
            )

    def _exact_step(self, host, matrix, released, row: int, uniforms) -> None:
        """One timestamp through the exact scalar arithmetic.

        This is the pre-kernel release loop's body: the whole
        loop under ``scan=off`` (the oracle the resolve is pinned
        against), blocks below the prefetch threshold, and the first
        release of a run.
        """
        rule = self.rule
        trace = host.trace
        state = host.scheduler_state
        last_release = host.last_release
        scale = self.scale
        budget = rule.publication_budget(host.t, trace, state)
        publish = False
        rng_t = None
        if last_release is None:
            publish = budget > 0
        elif budget > 0:
            # Private dissimilarity: the distance from the last release
            # plus Laplace noise (Kellaris' `dis`).
            if uniforms is None:
                rng_t = host._children.generator(host.t)
                noise = float(rng_t.laplace(0.0, scale))
            else:
                uniform = uniforms[row]
                if uniform > 0.0:
                    noise = _laplace_noise(uniform, scale)
                else:
                    # U == 0 retries inside numpy; take the real
                    # generator for this (astronomically rare) step.
                    rng_t = host._children.generator(host.t)
                    noise = float(rng_t.laplace(0.0, scale))
            true_distance = self._distance(matrix[row], last_release)
            publish = true_distance + noise > self.sensitivity / budget
        trace.dissimilarity_budgets.append(self.charge)
        if publish:
            if rng_t is None:
                rng_t = host._children.generator(host.t)
                if last_release is not None:
                    # The stepped stream spent one word on the
                    # dissimilarity draw; reposition past it.
                    rng_t.laplace(0.0, scale)
            noise_vector = rng_t.laplace(
                0.0, self.sensitivity / budget, size=self.n_types
            )
            host.last_release = matrix[row] + noise_vector
            trace.published.append(True)
            trace.publication_budgets.append(budget)
            rule.after_publication(host.t, budget, trace, state)
        else:
            if last_release is None:
                # Nothing released yet and no budget: emit pure noise
                # around 1/2 so the output is data-independent.
                host.last_release = np.full(self.n_types, 0.5)
            trace.published.append(False)
            trace.publication_budgets.append(0.0)
        if released is not None:
            released[row] = host.last_release
        host.t += 1
