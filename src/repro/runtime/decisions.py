"""The scheduler decision kernel: one **plan → scan → resolve** pipeline.

The sequential release mechanisms (BD/BA in
:mod:`repro.baselines.w_event`, landmark in
:mod:`repro.baselines.landmark`) share one shape of per-timestamp work:
estimate how far the data drifted from the last release, add Laplace
noise, compare against a budget-derived publish threshold, and either
publish (spending budget, drawing a noise vector) or approximate
(re-emit the last release, free of charge).  Historically each releaser
hand-rolled that loop in Python; this module lifts the decision logic
into a shared kernel with three stages:

**plan**
    Each scheduler declares its decision rule *as data* — a
    :class:`DecisionRule` bundling the scalar publish-budget hook, the
    zero-budget stretch predicate and the post-publication state
    transition — instead of owning a bespoke loop.

**scan**
    Vectorized passes over a block.  The w-event kernel is
    *publication-paced*: after each publication it computes one
    distance pass (:func:`release_distances`) over the next
    :data:`_PASS_ROWS` rows against the new last release.  The
    landmark kernel scans in U space: the per-timestamp first uniforms
    (:meth:`~repro.runtime.rng_pool.IndexedRngPool.first_uniforms`) go
    through the Laplace inverse CDF (:func:`laplace_noise_from_uniforms`)
    and are classified against the publish thresholds
    (:func:`classify_decisions`) as *certainly-skip*,
    *certainly-publish-candidate* or *boundary*.

**resolve**
    The w-event kernel decides every row in one tight loop from the
    scalar budget hook, the prefetched uniform and the pass distance;
    skip runs are applied as one ``released[a:b]`` fill and the trace
    columns are written once per block.  The landmark kernel
    bulk-applies certified-skip runs.  Both draw from a child generator
    only where a timestamp publishes (or its uniform is ``u <= 0``), and
    every row near a decision boundary is decided by the exact scalar
    arithmetic, preserving bit-identity by construction.

Why the margin is sound: the w-event noise always comes from the scalar
``math.log`` spelling of numpy's ``random_laplace``, so the only
disagreement the margin must cover is the vectorized distance pass
rounding differently than the scalar per-row reduction; the landmark
scan's vectorized ``numpy.log`` may additionally differ from
``math.log`` in the last ulp.  A decision is taken from the vectorized
values only when its score clears the threshold by more than
``margin * (1 + |noise| + θ)`` — astronomically wider than any
ulp-level disagreement at the default ``1e-9``, yet vanishingly
unlikely to catch a real decision (the score is a continuous random
variable).  Rows inside the band resolve through the scalar
arithmetic, so a margin that is *too wide* only costs speed, never
correctness.  ``scan=exact`` (audit mode) additionally re-verifies
every margin-decided row against the scalar arithmetic and raises
:class:`ScanMarginError` on disagreement.

The pure helpers (:func:`laplace_noise_from_uniforms`,
:func:`decision_thresholds`, :func:`classify_decisions`,
:func:`release_distances`) are arrays-in/arrays-out with no object
state — this is the documented seam for a future ``numba``/GPU decision
executor with a counter-based RNG: an accelerator only needs to
reproduce these functions over its own uniform plane and hand the
boundary indices back to the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import default_registry

__all__ = [
    "BOUNDARY",
    "CANDIDATE",
    "CERTAIN_SKIP",
    "DecisionRule",
    "LandmarkKernel",
    "ScanConfig",
    "ScanMarginError",
    "WEventKernel",
    "classify_decisions",
    "decision_thresholds",
    "laplace_noise_from_uniforms",
    "release_distances",
]

#: Verdict codes of :func:`classify_decisions` (uint8 array values).
CERTAIN_SKIP = 0
CANDIDATE = 1
BOUNDARY = 2

#: Valid ``scan=`` modes, in spec-string spelling.
SCAN_MODES = ("margin", "exact", "off")

#: Power-of-two buckets for the scan-segment-size histogram (rows per
#: vectorized scan, 1 .. the segment cap).
_SEGMENT_BUCKETS = tuple(float(2**i) for i in range(14))


def _kernel_telemetry():
    """The decision kernels' counters, fetched from the *current*
    default registry per block.

    Resolved lazily (not cached on the kernel) so a kernel pickled
    into a cluster worker reports into that worker's per-task registry
    — the increments then ride the ``_METRICS`` frame back to the
    parent.  Four dict lookups per block, amortized over the block's
    rows.
    """
    registry = default_registry()
    return (
        registry.counter(
            "repro_decisions_certified_rows_total",
            "Rows decided by a margin-certified scan verdict.",
        ),
        registry.counter(
            "repro_decisions_boundary_rows_total",
            "Rows resolved by the exact scalar step.",
        ),
        registry.counter(
            "repro_decisions_zero_budget_rows_total",
            "Rows approximated on zero publication budget.",
        ),
        registry.histogram(
            "repro_decisions_scan_segment_rows",
            "Rows classified per vectorized landmark scan segment.",
            buckets=_SEGMENT_BUCKETS,
        ),
    )


#: Upper bound on one landmark scan segment's row count.  Segments
#: double from the prefetch granularity while the stream stays
#: skip-only and are invalidated at every publication, so the bound
#: caps the vector work a publication can throw away without limiting
#: how far bulk skips reach on stable stretches (consuming a segment
#: just starts the next one).
_SCAN_SEGMENT_MAX = 8192

#: Rows of one w-event distance pass.  A pass is computed against the
#: last release, so every publication invalidates the rest of it: BD/BA
#: publish on roughly one row in four to seven, and a short constant
#: pass keeps the vector work a publication throws away small while
#: still amortizing numpy's per-call overhead over the skip runs.
_PASS_ROWS = 32


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
        loop (the pre-kernel behavior and the kernels' oracle).
    margin:
        The safety margin of the certification band (see the module
        docstring for why the default is sound).
    prefetch_min:
        Blocks at least this long precompute their first uniforms
        vectorized (the former ``_UNIFORM_PREFETCH_MIN``); shorter
        blocks — single pushes, async micro-batches — draw per-step,
        which is cheaper below this size.  Both paths produce
        bit-identical draws.
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
    - ``zero_budget_until(t, state)`` — exclusive end of a
      data-independent zero-budget stretch (BA's nullified periods);
    - ``after_publication(t, budget, trace, state)`` — post-publication
      state transition.
    """

    publication_budget: Callable[[int, object, Dict], float]
    zero_budget_until: Callable[[int, Dict], int]
    after_publication: Callable[[int, float, object, Dict], None]


# ---------------------------------------------------------------------------
# The pure scan stage (accelerator seam: arrays in, arrays out)
# ---------------------------------------------------------------------------


def laplace_noise_from_uniforms(
    uniforms: np.ndarray, scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized replay of ``Generator.laplace(0, scale)`` first draws.

    ``uniforms`` are the per-index first ``next_double`` values (from
    :meth:`~repro.runtime.rng_pool.IndexedRngPool.first_uniforms`);
    the return is ``(noises, needs_exact)`` where ``noises`` replays
    numpy's ``random_laplace`` branch arithmetic —
    ``-scale*log(2 - 2u)`` for ``u >= 1/2``, ``scale*log(2u)`` for
    ``0 < u < 1/2`` — through ``numpy.log`` (equal to the scalar
    ``math.log`` spelling up to ulps; consumers must protect decisions
    with a margin), and ``needs_exact`` flags ``u <= 0`` rows, where
    numpy retries internally and only the real generator reproduces the
    draw.
    """
    uniforms = np.asarray(uniforms, dtype=float)
    needs_exact = uniforms <= 0.0
    upper = uniforms >= 0.5
    arguments = np.where(upper, 2.0 - uniforms - uniforms, uniforms + uniforms)
    # Flagged rows get a harmless argument so no log(0) warning fires;
    # their noise value is never read.
    arguments[needs_exact] = 1.0
    noises = np.log(arguments)
    noises = np.where(upper, -scale * noises, scale * noises)
    return noises, needs_exact


def decision_thresholds(budgets: np.ndarray, sensitivity: float) -> np.ndarray:
    """Publish thresholds ``sensitivity / budget`` (``inf`` ⇔ never).

    A timestamp publishes when its noisy distance exceeds the error a
    publication would itself introduce; zero (or negative) budget means
    the threshold is unreachable and the timestamp certainly skips —
    encoded as ``+inf`` so one comparison covers both cases.
    """
    budgets = np.asarray(budgets, dtype=float)
    thresholds = np.full(budgets.shape, np.inf)
    positive = budgets > 0.0
    np.divide(sensitivity, budgets, out=thresholds, where=positive)
    return thresholds


def classify_decisions(
    distances: np.ndarray,
    noises: np.ndarray,
    needs_exact: np.ndarray,
    thresholds: np.ndarray,
    margin: float,
) -> np.ndarray:
    """Margin-certified three-way classification of a block (uint8).

    Returns :data:`CERTAIN_SKIP` where the decision score
    ``distance + noise`` sits below the threshold by more than the
    tolerance band (or the threshold is ``inf`` — zero budget skips
    whatever the randomness), :data:`CANDIDATE` where it clears the
    threshold by more than the band, and :data:`BOUNDARY` for rows
    inside the band or flagged ``needs_exact`` — rows the resolver must
    decide with the exact scalar arithmetic.

    The tolerance scales with the magnitudes entering the comparison
    (``margin * (1 + |noise| + θ)``) so one relative knob covers blocks
    whose scales differ by orders of magnitude.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    infinite = ~np.isfinite(thresholds)
    finite_thresholds = np.where(infinite, 0.0, thresholds)
    tolerance = margin * (1.0 + np.abs(noises) + finite_thresholds)
    scores = distances + noises
    verdicts = np.full(thresholds.shape, BOUNDARY, dtype=np.uint8)
    verdicts[scores > finite_thresholds + tolerance] = CANDIDATE
    verdicts[scores < finite_thresholds - tolerance] = CERTAIN_SKIP
    # Rows whose uniform the vectorized transform cannot replay are
    # never certified either way...
    verdicts[np.asarray(needs_exact, dtype=bool)] = BOUNDARY
    # ...but zero budget skips regardless of the randomness: the scalar
    # loop never even computes the noise there.
    verdicts[infinite] = CERTAIN_SKIP
    return verdicts


def release_distances(rows: np.ndarray, release: np.ndarray) -> np.ndarray:
    """Mean absolute deviation of every row from ``release``.

    The w-event kernel's distance pass.  Reducing along ``axis=1`` may
    sum in a different order than the scalar per-row reduction, so the
    values equal the exact distances only up to ulps — decisions taken
    from them are protected by the margin band.
    """
    return np.add.reduce(np.abs(rows - release), axis=1) / rows.shape[1]


def _certified_run(
    seg_stops: np.ndarray, seg_row: int, row: int, seg_stop: int
) -> int:
    """Length of the certified-skip run starting at ``row``."""
    offset = row - seg_row
    position = np.searchsorted(seg_stops, offset)
    if position == seg_stops.shape[0]:
        return seg_stop - row
    return int(seg_stops[position]) - offset


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
        certified, boundary, zero_budget, _segments = _kernel_telemetry()
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

        Each row is decided from the scalar budget hook, the noise of
        its prefetched uniform (spelled exactly as :meth:`_exact_step`
        spells it) and its distance from the current distance pass;
        rows inside the margin band and ``u <= 0`` rows recompute the
        decision exactly.  Zero-budget stretches are hopped after each
        publication, skipped rows are filled in runs, and the trace
        columns are appended once at the end — so the scheduler hooks
        see a trace that may lag within the block.  Returns the
        ``(certified, boundary, zero_budget)`` row counts.
        """
        rule = self.rule
        budget_of = rule.publication_budget
        zero_budget_until = rule.zero_budget_until
        after_publication = rule.after_publication
        trace = host.trace
        state = host.scheduler_state
        children = host._children
        scale = self.scale
        sensitivity = self.sensitivity
        n_types = self.n_types
        margin = self.config.margin
        audit = self.config.audit
        log = math.log
        n = matrix.shape[0]
        certified = boundary = zero_budget = 0
        start = 0
        if host.last_release is None:
            # The first release ever publishes without a distance.
            self._exact_step(host, matrix, released, 0, uniforms)
            boundary = start = 1
        base = host.t - start  # row r is timestamp base + r
        last = host.last_release
        uniforms = uniforms.tolist()
        published = np.zeros(n, dtype=bool)
        budgets = np.zeros(n)
        filled = start  # released rows before this one are written
        skip_until = start + zero_budget_until(host.t, state) - host.t
        pass_start = pass_stop = 0  # rows the distance pass covers
        distances = []
        row = start
        while row < n:
            if row < skip_until:
                # Zero budget, data-independent: hop the stretch (no
                # randomness is consumed here).
                stop = min(skip_until, n)
                zero_budget += stop - row
                row = stop
                continue
            t = base + row
            budget = budget_of(t, trace, state)
            if budget <= 0:
                zero_budget += 1
                row += 1
                continue
            threshold = sensitivity / budget
            uniform = uniforms[row]
            rng_t = None
            if uniform > 0.0:
                # numpy random_laplace, loc=0, as in _exact_step.
                if uniform >= 0.5:
                    noise = 0.0 - scale * log(2.0 - uniform - uniform)
                else:
                    noise = 0.0 + scale * log(uniform + uniform)
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
                    certified += 1
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
                rng_t = children.generator(t)
                # Reposition past the dissimilarity word.
                rng_t.laplace(0.0, scale)
            value = matrix[row] + rng_t.laplace(0.0, threshold, size=n_types)
            if released is not None:
                released[filled:row] = last
                released[row] = value
            last = value
            filled = row + 1
            published[row] = True
            budgets[row] = budget
            after_publication(t, budget, trace, state)
            pass_stop = 0
            row += 1
            skip_until = row + zero_budget_until(t + 1, state) - (t + 1)
        if released is not None:
            released[filled:n] = last
        trace.published.extend(published[start:])
        trace.publication_budgets.extend(budgets[start:])
        trace.dissimilarity_budgets.extend_constant(self.charge, n - start)
        host.last_release = last
        host.t = base + n
        return certified, boundary, zero_budget

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

        This is the pre-kernel release loop's body, verbatim: the whole
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
                if uniform >= 0.5:
                    # numpy random_laplace, loc=0: branch and
                    # arithmetic order replayed exactly.
                    noise = 0.0 - scale * math.log(2.0 - uniform - uniform)
                elif uniform > 0.0:
                    noise = 0.0 + scale * math.log(uniform + uniform)
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


# ---------------------------------------------------------------------------
# The landmark resolve stage
# ---------------------------------------------------------------------------


class LandmarkKernel:
    """Plan → scan → resolve driver for one landmark releaser.

    Landmark privacy has two row kinds with very different decision
    shapes, and the kernel exploits both:

    - **regular rows** never touch the release state (their noise is
      per-timestamp, parallel-composed); during a prepass
      (``released=None``) the kernel hops over them entirely — zero
      draws, zero Python work — which is what shrinks the checkpoint
      prepass toward the landmark publication steps alone;
    - **landmark rows** carry the adaptive budget thread
      (``remaining_publication`` / ``landmarks_left``); their skip
      decisions scan exactly like the w-event schedulers': nominal
      budgets for the segment are exact closed-form floats
      (``remaining / left`` with ``left`` counting down per landmark),
      so certified-skip landmarks are bulk-applied with no generator
      touches and only boundary/publishing landmarks fall back to the
      scalar :meth:`~repro.baselines.landmark.LandmarkReleaser._advance`.
    """

    def __init__(self, config: ScanConfig):
        self.config = config

    def run_block(self, host, matrix: np.ndarray, released) -> None:
        config = self.config
        n = matrix.shape[0]
        if n == 0:
            return
        if not config.enabled:
            # scan=off: the pre-kernel per-row loop, verbatim.
            for row in range(n):
                value = host._advance(matrix[row])
                if released is not None:
                    released[row] = value
            return
        mechanism = host.mechanism
        mask = host._landmarks
        t0 = host.t
        sensitivity = mechanism.sensitivity
        n_types = host.n_types
        regular_scale = sensitivity / mechanism.regular_epsilon
        # The dissimilarity draw's scale, spelled exactly as _advance
        # spells it (total landmark scale, then the per-type division
        # at the laplace call).
        dissimilarity_scale = (
            host._n_landmarks * sensitivity / host._landmark_dissimilarity
            if host._landmark_dissimilarity > 0
            else 0.0
        )
        uniform_scale = dissimilarity_scale / n_types
        uniforms = (
            host._children.first_uniforms(t0, t0 + n)
            if n >= config.prefetch_min
            else None
        )
        # Landmark rows of this block, as block-relative offsets.  Rows
        # past the mask's end fall off the slice; the loop raises the
        # scalar path's own error when it reaches them.
        block_mask = mask[t0 : t0 + n]
        limit = block_mask.shape[0]
        landmark_rows = np.nonzero(block_mask)[0]
        # Scan segment cache over landmark ordinals: built at a
        # landmark ordinal against the budget thread at that point,
        # valid until a publication changes it.  Bounded and doubling
        # for the same reason as the w-event kernel's segments: every
        # publication throws the cache away, so unbounded segments go
        # quadratic on publish-dense landmark stretches.
        chunk = config.prefetch_min
        seg_ordinal = -1
        seg_end = 0
        seg_stops: Optional[np.ndarray] = None
        ordinal = 0  # landmark rows consumed so far
        row = 0
        (
            obs_certified,
            obs_boundary,
            _obs_zero_budget,
            obs_segments,
        ) = _kernel_telemetry()
        while row < n:
            if row >= limit:
                # Replicate _advance's bounds error (state already
                # advanced through the in-mask prefix, as stepping
                # would have).
                raise ValueError(
                    f"landmark mask covers {mask.shape[0]} windows; "
                    f"cannot step past it (t={host.t})"
                )
            if not block_mask[row]:
                # Regular rows: individual budget, no state coupling.
                if released is None:
                    # Prepass: the draws are discarded and the state
                    # untouched — hop to the next landmark row.
                    position = np.searchsorted(landmark_rows, row)
                    hop = (
                        int(landmark_rows[position]) - row
                        if position < landmark_rows.shape[0]
                        else min(n, limit) - row
                    )
                    host.t += hop
                    row += hop
                    continue
                rng_t = host._children.generator(host.t)
                released[row] = matrix[row] + rng_t.laplace(
                    0.0, regular_scale, size=n_types
                )
                host.t += 1
                row += 1
                continue
            # Landmark row.
            scannable = (
                uniforms is not None
                and host.last_release is not None
                and host._n_landmarks > 0
            )
            if scannable:
                if seg_stops is None or ordinal < seg_ordinal:
                    chunk = config.prefetch_min
                elif ordinal >= seg_end:
                    # Segment consumed without a publication: scan
                    # farther ahead this time.
                    chunk = min(chunk * 2, _SCAN_SEGMENT_MAX)
                    seg_stops = None
                if seg_stops is None:
                    seg_ordinal = ordinal
                    seg_end = min(landmark_rows.shape[0], ordinal + chunk)
                    obs_segments.observe(seg_end - ordinal)
                    seg_stops = self._scan_landmarks(
                        host,
                        matrix,
                        uniforms,
                        landmark_rows[ordinal:seg_end],
                        sensitivity,
                        uniform_scale,
                    )
                run = _certified_run(seg_stops, seg_ordinal, ordinal, seg_end)
                if run > 0:
                    stop_row = (
                        int(landmark_rows[ordinal + run])
                        if ordinal + run < landmark_rows.shape[0]
                        else min(n, limit)
                    )
                    if config.audit:
                        self._audit_landmarks(
                            host,
                            matrix,
                            uniforms,
                            landmark_rows[ordinal : ordinal + run],
                            sensitivity,
                            uniform_scale,
                        )
                    # Bulk-apply the certified-skip landmarks (zero
                    # draws) and release the interleaved regular rows.
                    span_rows = landmark_rows[ordinal : ordinal + run]
                    if released is not None:
                        released[span_rows] = host.last_release
                        for regular in range(row, stop_row):
                            if block_mask[regular]:
                                continue
                            rng_t = host._children.generator(t0 + regular)
                            released[regular] = matrix[regular] + (
                                rng_t.laplace(
                                    0.0, regular_scale, size=n_types
                                )
                            )
                    # The per-step clamp max(0, left - 1) composes to
                    # one clamped subtraction over the run.
                    host._landmarks_left = max(0, host._landmarks_left - run)
                    obs_certified.inc(run)
                    host.t = t0 + stop_row
                    row = stop_row
                    ordinal += run
                    continue
            remaining_before = host._remaining_publication
            value = host._advance(matrix[row])
            obs_boundary.inc()
            if released is not None:
                released[row] = value
            if host._remaining_publication != remaining_before:
                # A publication moved the budget thread; certified
                # verdicts past this landmark are stale.
                seg_stops = None
            ordinal += 1
            row += 1

    def _landmark_nominals(self, host, count: int) -> np.ndarray:
        """Exact nominal budgets for the next ``count`` landmark rows.

        Assumes no publication in the span: ``left`` counts down by one
        per landmark while ``remaining`` stays fixed, exactly the
        scalar ``remaining / left if left > 0 else 0.0`` per step.
        """
        remaining = host._remaining_publication
        left = host._landmarks_left - np.arange(count)
        nominals = np.zeros(count)
        positive = left > 0
        np.divide(remaining, left, out=nominals, where=positive)
        # A fully spent thread yields nominal <= 0 → unreachable
        # threshold downstream; negative nominals (impossible by
        # construction, guarded anyway) are zeroed too.
        nominals[nominals < 0.0] = 0.0
        return nominals

    def _scan_landmarks(
        self,
        host,
        matrix,
        uniforms,
        rows: np.ndarray,
        sensitivity: float,
        uniform_scale: float,
    ) -> np.ndarray:
        """Classify the remaining landmark rows; offsets of non-skips."""
        nominals = self._landmark_nominals(host, rows.shape[0])
        thresholds = decision_thresholds(nominals, sensitivity)
        distances = (
            np.add.reduce(
                np.abs(matrix[rows] - host.last_release), axis=1
            )
            / host.n_types
        )
        noises, needs_exact = laplace_noise_from_uniforms(
            uniforms[rows], uniform_scale
        )
        verdicts = classify_decisions(
            distances, noises, needs_exact, thresholds, self.config.margin
        )
        return np.nonzero(verdicts != CERTAIN_SKIP)[0]

    def _audit_landmarks(
        self,
        host,
        matrix,
        uniforms,
        rows: np.ndarray,
        sensitivity: float,
        uniform_scale: float,
    ) -> None:
        """Re-verify certified landmark skips with scalar arithmetic."""
        remaining = host._remaining_publication
        left = host._landmarks_left
        log = math.log
        for offset, row in enumerate(rows):
            nominal = (
                remaining / (left - offset) if left - offset > 0 else 0.0
            )
            if nominal <= 0:
                continue
            uniform = uniforms[row]
            if uniform <= 0.0:
                raise ScanMarginError(
                    f"landmark timestamp {host.t + int(row)} was certified "
                    f"as a skip but its uniform ({uniform}) needs the "
                    f"exact generator path"
                )
            if uniform >= 0.5:
                noise = -uniform_scale * log(2.0 - uniform - uniform)
            else:
                noise = uniform_scale * log(uniform + uniform)
            distance = float(
                np.add.reduce(np.abs(matrix[row] - host.last_release))
                / host.n_types
            )
            if distance + noise > sensitivity / nominal:
                raise ScanMarginError(
                    f"landmark timestamp {host.t + int(row)} was certified "
                    f"as a skip but the exact arithmetic publishes; widen "
                    f"the scan margin"
                )
