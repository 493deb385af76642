"""w-event differential privacy machinery (Kellaris et al., VLDB 2014).

w-event ε-DP protects any event sequence occurring within a sliding
window of ``w`` timestamps: over any ``w`` consecutive releases the
total budget spent must not exceed ε.  The two classic schedulers —
Budget Distribution (BD) and Budget Absorption (BA) — share the same
skeleton, implemented here:

1. split ε into ``ε_1 = ε/2`` for *dissimilarity* estimation and
   ``ε_2 = ε/2`` for *publications*;
2. at each timestamp, privately estimate the distance between the
   current statistics and the last release (spending ``ε_1/w``);
3. publish a fresh Laplace release when the estimated distance exceeds
   the error a publication would itself introduce, otherwise
   re-release the previous output (an *approximation*, free of charge);
4. the publication budget per timestamp is chosen by the subclass
   (:class:`~repro.baselines.budget_distribution.BudgetDistribution` or
   :class:`~repro.baselines.budget_absorption.BudgetAbsorption`).

The release loop is exposed both batched (:meth:`WEventMechanism.perturb`)
and incrementally (:meth:`WEventMechanism.online_releaser`, used by
:class:`repro.cep.online.OnlineSession`); the batch path runs on top of
the same releaser, so the two agree bit for bit under the same seed.

The release is decided in one tight loop (:meth:`OnlineReleaser._resolve`)
that calls the scheduler's budget hooks directly and decides every row
by the cheapest sound test it passes, in three stages:

**bound**
    Per chunk of :data:`_CHUNK_ROWS` rows, one vectorized pass computes
    every row's norm ``a_r = mean|x_r|`` (:func:`_row_norms`) and an
    approximate dissimilarity noise (:func:`_approximate_noises`, ``np.log``
    on the prefetched first uniforms).  With ``b = mean|last|``, one
    reduce per publication, the triangle inequality bounds the distance
    of any real row: ``|b − a_r| ≤ d_r ≤ b + a_r``.  A row whose
    upper-bound score stays below the threshold is a certified skip; one
    whose lower-bound score clears it is a certified publication.
    Neither needs a distance.

**pass**
    Only rows between the two bounds reach a vectorized distance pass
    (:func:`_release_distances`) over the next :data:`_PASS_ROWS` rows
    against the last release; a publication invalidates it.

**resolve**
    The budget hook runs once per constant-budget stretch (the
    scheduler's ``_budget_until``), zero-budget stretches are hopped,
    skip runs are applied as one ``released[a:b]`` fill and only
    publications are logged to the trace.  Only publishing rows (and
    ``u <= 0`` rows) draw from a child generator, and every row near a
    decision boundary is decided by the exact scalar arithmetic.

Blocks shorter than :data:`_PREFETCH_MIN` rows (single pushes, async
micro-batches) and the first release of a run go through the exact
scalar step (:meth:`OnlineReleaser._exact_step`) instead.  Both paths
are pinned bit for bit against the independent seed loop,
:func:`repro.runtime.reference.reference_w_event_perturb`, which
derives one generator per window and reduces with ``.mean()``.

Why the margins are sound: the exact decision compares the scalar
distance plus the scalar ``math.log`` noise against the threshold.
A pass-decided row takes the exact noise (:func:`_laplace_noise`), so
the only disagreement its margin must cover is the vectorized distance
pass rounding differently than the scalar per-row reduction; it is
decided from the pass only when its score clears the threshold by more
than ``margin * (1 + |noise| + θ)``.  A bound-decided row additionally
takes the vectorized noise and norms, whose errors are ulp-level
relative to ``|noise|``, ``a_r`` and ``b``; its slack is
``margin * (1 + |noise| + θ + a_r + b)``, so it scales with every
magnitude involved.  The triangle inequality holds for any real
vectors, and every rounding error in play is ulps relative to those
magnitudes — astronomically narrower than the slack at :data:`_MARGIN`
``= 1e-9``, yet the slack is vanishingly unlikely to catch a real
decision (the score is a continuous random variable).  Rows inside a
band fall through to the next stage, so a margin that is *too wide*
only costs speed, never correctness.

The scheduler hooks see only the timestamp and the scheduler's own
``state``; the accounting record of a run is a :class:`ReleaseTrace`,
one log of the publications from which the per-timestamp columns the
w-event checks read are derived.

In this library the per-timestamp statistics are the windowed existence
indicators (one 0/1 entry per event type, L1 sensitivity 1 under a
single-event change); released vectors are thresholded at 1/2 to answer
the binary pattern queries.
"""

from __future__ import annotations

import abc
import copy
import math
from array import array
from typing import Dict, Optional, Tuple

import numpy as np

from repro.baselines.base import StreamMechanism, as_statistics
from repro.obs.metrics import default_registry
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive_int

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
            "Rows decided by a certified bound or distance-pass verdict.",
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


def _release_distances(rows: np.ndarray, release: np.ndarray) -> np.ndarray:
    """Mean absolute deviation of every row from ``release``.

    The distance pass.  Reducing along ``axis=1`` may sum in a
    different order than the scalar per-row reduction, so the values
    equal the exact distances only up to ulps — decisions taken from
    them are protected by the margin band.
    """
    return np.add.reduce(np.abs(rows - release), axis=1) / rows.shape[1]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Mean absolute value ``a_r`` of every row.

    The bound precompute: with ``b`` the mean absolute value of the
    last release, every row's distance lies in ``[|b − a_r|, b + a_r]``.
    The reduction is ulp-accurate, which the bound slack covers.
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


class ReleaseTrace:
    """Accounting record of a w-event run, kept as a publication log.

    Every timestamp spends the same dissimilarity charge ``ε_1/w`` and
    only a publication spends publication budget, so the log holds just
    each publication's timestamp and budget (``times``, ``budgets``)
    and the number of timestamps stepped (``steps``).  The
    per-timestamp columns — :attr:`published`,
    :attr:`publication_budgets`, :attr:`dissimilarity_budgets` — are
    read-only arrays derived from it on each access.
    """

    def __init__(self, dissimilarity_charge: float):
        self.dissimilarity_charge = dissimilarity_charge
        self.steps = 0
        self.times = array("q")
        self.budgets = array("d")

    def _column(self, values, dtype) -> np.ndarray:
        column = np.zeros(self.steps, dtype=dtype)
        column[np.array(self.times, dtype=np.intp)] = values
        column.flags.writeable = False
        return column

    @property
    def published(self) -> np.ndarray:
        """Whether each timestamp published a fresh release."""
        return self._column(True, bool)

    @property
    def publication_budgets(self) -> np.ndarray:
        """Each timestamp's publication budget (0 where it skipped)."""
        return self._column(np.array(self.budgets), float)

    @property
    def dissimilarity_budgets(self) -> np.ndarray:
        """Each timestamp's dissimilarity charge, ``ε_1/w`` on every row."""
        column = np.full(self.steps, self.dissimilarity_charge)
        column.flags.writeable = False
        return column

    def _spend_prefix(self) -> np.ndarray:
        """Prefix sums of the per-timestamp total spend.

        ``prefix[t]`` is the budget spent strictly before timestamp
        ``t``, so any window's spend is one subtraction.  Both window
        accessors read through this, keeping them mutually consistent.
        """
        totals = self.publication_budgets + self.dissimilarity_budgets
        prefix = np.empty(totals.shape[0] + 1)
        prefix[0] = 0.0
        np.cumsum(totals, out=prefix[1:])
        return prefix

    def spent_in_window(self, start: int, w: int) -> float:
        """Total budget spent in the ``w`` timestamps from ``start``."""
        start = min(max(start, 0), self.steps)
        stop = min(start + w, self.steps)
        prefix = self._spend_prefix()
        return float(prefix[stop] - prefix[start])

    def max_window_spend(self, w: int) -> float:
        """The largest spend over any sliding window of ``w`` timestamps.

        The w-event guarantee requires this never to exceed ε.  Computed
        from the spend prefix sums in O(n) — not O(n·w) slicing.
        """
        if not self.steps:
            return 0.0
        prefix = self._spend_prefix()
        starts = np.arange(self.steps)
        stops = np.minimum(starts + w, self.steps)
        return float(np.max(prefix[stops] - prefix[starts]))


class OnlineReleaser:
    """Incremental w-event release, one block of timestamps at a time.

    Owns the scheduler state, the accounting trace (a publication log,
    appended to only when a timestamp publishes), the last release and
    the decision loop itself (the bound → pass → resolve pipeline of
    the module docstring), which calls the mechanism's budget hooks
    directly; created by :meth:`WEventMechanism.online_releaser`.
    :meth:`step_block` is bit-identical to the seed per-timestamp loop
    (:func:`repro.runtime.reference.reference_w_event_perturb`) — the
    vectorized values only decide rows the margin band certifies, never
    what any timestamp releases.

    The per-timestamp randomness is ``derive_rng(rng, "w-event", t)``,
    drawn through an :class:`~repro.runtime.rng_pool.IndexedRngPool`:
    bit-identical to per-step derivation, but the pool prefetches parent
    entropy — exactly ``horizon`` words when the stream length is known
    (the batch path), in blocks otherwise.

    Sharded and cluster runs use one releaser as well: the parent
    releases the whole stream through it, exactly as the batch path
    does, and the shards only match the released rows
    (:func:`repro.runtime.sharding.checkpoint_prepass`).
    """

    def __init__(
        self,
        mechanism: "WEventMechanism",
        n_types: int,
        rng: RngLike,
        *,
        horizon: Optional[int] = None,
    ):
        if n_types <= 0:
            raise ValueError(f"n_types must be positive, got {n_types}")
        self.mechanism = mechanism
        self.n_types = n_types
        from repro.runtime.rng_pool import IndexedRngPool

        self._children = IndexedRngPool(rng, "w-event", count=horizon)
        self.trace = ReleaseTrace(
            mechanism.epsilon_dissimilarity / mechanism.w
        )
        self.last_release: Optional[np.ndarray] = None
        self.t = 0
        self.scheduler_state: Dict = mechanism._initial_scheduler_state()
        # Per-step constants, hoisted out of the hot loop (identical
        # floating-point values to recomputing them per timestamp).
        self._dissimilarity_draw_scale = (
            mechanism.w
            * mechanism.sensitivity
            / mechanism.epsilon_dissimilarity
            / n_types
        )

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        """Release a block of timestamps; rows are indicator vectors.

        Per-timestamp draws come from the index-derived child streams,
        so the loop is free to consume them smartly without changing a
        single output bit: with prefetched uniforms only publishing
        timestamps (and ``u <= 0`` rows) install a child generator.
        Blocks shorter than :data:`_PREFETCH_MIN` run :meth:`_exact_step`
        row by row.
        """
        matrix = as_statistics(matrix, self.n_types)
        released = np.empty_like(matrix)
        n = matrix.shape[0]
        if n == 0:
            return released
        certified, boundary, zero_budget = _kernel_telemetry()
        if n < _PREFETCH_MIN:
            for row in range(n):
                self._exact_step(matrix, released, row)
            boundary.inc(n)
            return released
        uniforms = self._children.first_uniforms(self.t, self.t + n)
        counts = self._resolve(matrix, released, uniforms)
        certified.inc(counts[0])
        boundary.inc(counts[1])
        zero_budget.inc(counts[2])
        return released

    # -- the decision loop ---------------------------------------------

    def _resolve(self, matrix, released, uniforms) -> Tuple[int, ...]:
        """The publication-paced resolve over a prefetched block.

        Each constant-budget stretch asks the budget hook once.  A row
        is decided, cheapest first, by its bound certificate (no
        distance at all), by the current distance pass outside the
        margin band, or by the exact scalar arithmetic (in-band and
        ``u <= 0`` rows); the noise of a row that reaches the pass is
        its prefetched uniform spelled exactly as :meth:`_exact_step`
        spells it.  Zero-budget stretches are hopped, skipped rows are
        filled in runs, and only publications are logged to the trace.
        Returns the ``(certified, boundary, zero_budget)`` row counts.
        """
        mechanism = self.mechanism
        budget_of = mechanism._publication_budget
        budget_until = mechanism._budget_until
        after_publication = mechanism._after_publication
        trace = self.trace
        log_time = trace.times.append
        log_budget = trace.budgets.append
        state = self.scheduler_state
        children = self._children
        scale = self._dissimilarity_draw_scale
        sensitivity = mechanism.sensitivity
        n_types = self.n_types
        margin = _MARGIN
        laplace_noise = _laplace_noise
        n = matrix.shape[0]
        boundary = zero_budget = 0
        start = 0
        if self.last_release is None:
            # The first release ever publishes without a distance.
            self._exact_step(matrix, released, 0)
            boundary = start = 1
        base = self.t - start  # row r is timestamp base + r
        last = self.last_release
        spread = float(np.add.reduce(np.abs(last))) / n_types  # b
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
                budget = budget_of(t, state)
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
                row += 1
                continue
            t = base + row
            rng_t = None
            # A certified publication (even the lower bound |b - a_r| on
            # the distance lifts the score above the threshold) needs no
            # distance.  ``not >`` keeps NaN bounds (u <= 0) out of it.
            if not abs(spread - norms[i]) + lows[i] > publish_above:
                uniform = chunk_uniforms[i]
                if uniform > 0.0:
                    noise = laplace_noise(uniform, scale)
                    if row >= pass_stop:
                        pass_start = row
                        pass_stop = min(n, row + _PASS_ROWS)
                        distances = _release_distances(
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
            released[filled:row] = last
            released[row] = value
            last = value
            spread = float(np.add.reduce(np.abs(last))) / n_types
            filled = row + 1
            log_time(t)
            log_budget(budget)
            after_publication(t, budget, state)
            pass_stop = 0
            row += 1
            stretch_end = row
        released[filled:n] = last
        self.last_release = last
        self.t = trace.steps = base + n
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
        norms = _row_norms(rows)
        noises = _approximate_noises(uniforms, self._dissimilarity_draw_scale)
        reach = _MARGIN * (1.0 + np.abs(noises) + norms)
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

    def _exact_step(self, matrix, released, row: int) -> None:
        """One timestamp through the exact scalar arithmetic.

        This is the seed release loop's body, run on blocks below the
        prefetch threshold and on the first release of a run.
        """
        mechanism = self.mechanism
        trace = self.trace
        state = self.scheduler_state
        last_release = self.last_release
        scale = self._dissimilarity_draw_scale
        budget = mechanism._publication_budget(self.t, state)
        publish = False
        rng_t = None
        if last_release is None:
            publish = budget > 0
        elif budget > 0:
            # Private dissimilarity: the distance from the last release
            # plus Laplace noise (Kellaris' `dis`).
            rng_t = self._children.generator(self.t)
            noise = float(rng_t.laplace(0.0, scale))
            true_distance = self._distance(matrix[row], last_release)
            publish = true_distance + noise > mechanism.sensitivity / budget
        if publish:
            if rng_t is None:  # the first release draws no dissimilarity
                rng_t = self._children.generator(self.t)
            noise_vector = rng_t.laplace(
                0.0, mechanism.sensitivity / budget, size=self.n_types
            )
            self.last_release = matrix[row] + noise_vector
            trace.times.append(self.t)
            trace.budgets.append(budget)
            mechanism._after_publication(self.t, budget, state)
        elif last_release is None:
            # Nothing released yet and no budget: emit pure noise
            # around 1/2 so the output is data-independent.
            self.last_release = np.full(self.n_types, 0.5)
        released[row] = self.last_release
        self.t = trace.steps = self.t + 1

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> Dict:
        """A picklable checkpoint of the full release state at time ``t``.

        Captures everything a bit-identical continuation needs: the
        scheduler state, the trace's publication log (its timestamps
        and budgets; ``t`` is its step count), the last release, the
        step counter and the rng-pool derivation source.  Restoring it
        on a fresh releaser (same mechanism parameters) and stepping on
        reproduces an uninterrupted run exactly.
        """
        return {
            "format": 2,
            "t": self.t,
            "n_types": self.n_types,
            "scheduler_state": copy.deepcopy(self.scheduler_state),
            "last_release": (
                None
                if self.last_release is None
                else np.array(self.last_release, copy=True)
            ),
            "publications": (
                self.trace.times.tolist(),
                self.trace.budgets.tolist(),
            ),
            "rng": self._children.snapshot(),
        }

    def restore(self, snapshot: Dict) -> None:
        """Adopt a checkpoint produced by :meth:`snapshot`.

        The trace object is mutated in place (not replaced) so callers
        holding a reference — ``mechanism.last_trace``, the runtime
        stepper — keep observing the restored run.  Format-1 snapshots,
        whose ``"trace"`` holds the three per-timestamp columns, restore
        too: their publication log is read off the columns.
        """
        if snapshot["n_types"] != self.n_types:
            raise ValueError(
                f"checkpoint covers {snapshot['n_types']} event types, "
                f"this releaser has {self.n_types}"
            )
        self.t = int(snapshot["t"])
        self.scheduler_state = copy.deepcopy(snapshot["scheduler_state"])
        last_release = snapshot["last_release"]
        self.last_release = (
            None if last_release is None else np.array(last_release, copy=True)
        )
        if "trace" in snapshot:
            published, budgets, _dissimilarity = snapshot["trace"]
            times = np.flatnonzero(published)
            budgets = np.asarray(budgets, dtype=float)[times]
        else:
            times, budgets = snapshot["publications"]
        self.trace.steps = self.t
        self.trace.times = array("q", times)
        self.trace.budgets = array("d", budgets)
        self._children.restore(snapshot["rng"], position=self.t)


class WEventMechanism(StreamMechanism):
    """Shared skeleton of the BD and BA schedulers."""

    #: L1 sensitivity of the per-timestamp statistics: an indicator
    #: vector changes in one entry under a single-event change.
    sensitivity = 1.0

    def __init__(self, epsilon: float, w: int):
        super().__init__(epsilon)
        self.w = check_positive_int("w", w)
        self.epsilon_dissimilarity = epsilon / 2.0
        self.epsilon_publication = epsilon / 2.0
        self.last_trace: Optional[ReleaseTrace] = None

    # -- subclass hooks -----------------------------------------------------

    def _initial_scheduler_state(self) -> Dict:
        """Fresh per-run scheduler state (subclasses may extend)."""
        return {}

    @abc.abstractmethod
    def _publication_budget(self, t: int, state: Dict) -> float:
        """Budget available for publishing at timestamp ``t`` (0 = skip).

        A scheduler keeps whatever it needs from earlier timestamps in
        ``state``.  The decision loop calls it once per constant-budget
        stretch (:meth:`_budget_until`); the exact step and the seed
        loop call it on every timestamp.
        """

    def _after_publication(self, t: int, budget: float, state: Dict) -> None:
        """Hook invoked after a publication is committed."""

    def _budget_until(self, t: int, state: Dict) -> float:
        """Exclusive end of the constant-budget stretch starting at ``t``.

        Asked right after :meth:`_publication_budget` ran at ``t``: if
        no publication happens, every ``t'`` in ``[t, end)`` gets the
        budget ``t`` got, and calling the budget hook at ``t'`` leaves
        ``state`` unchanged.  ``end`` may be ``math.inf``.  The decision
        loop therefore calls the budget hook once per stretch, and
        hops a zero-budget stretch (BA's nullified periods) without
        consuming any randomness — bit-identical to stepping, since
        zero-budget steps never draw.  The default, ``t + 1``, declares
        a one-timestamp stretch.
        """
        return t + 1

    # -- release -----------------------------------------------------------

    def online_releaser(
        self,
        n_types: int,
        *,
        rng: RngLike = None,
        horizon: Optional[int] = None,
    ) -> OnlineReleaser:
        """An incremental releaser for push-based processing.

        Pass ``horizon`` when the number of steps is known up front: the
        releaser then consumes exactly as much parent entropy as the
        equivalent sequence of ``derive_rng`` calls.
        """
        return OnlineReleaser(self, n_types, rng, horizon=horizon)

    def perturb(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> IndicatorStream:
        matrix = stream.matrix_view().astype(float)
        n_windows, n_types = matrix.shape
        releaser = self.online_releaser(n_types, rng=rng, horizon=n_windows)
        released = releaser.step_block(matrix)
        self.last_trace = releaser.trace
        return stream.with_matrix(released >= 0.5)
