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

:class:`OnlineReleaser` decides the timestamps of a block with the
bound → scan → resolve pipeline of :mod:`repro.runtime.decisions`,
calling the scheduler's budget hooks directly — triangle-inequality
distance bounds decide most rows without any distance, vectorized
distance passes decide the rows a margin band certifies, exact scalar
arithmetic decides everything near a decision boundary.  ``scan=`` on
the mechanism constructor (or the ``scan=`` spec key) picks the mode:
``margin`` (the default), ``exact`` (audit) or ``off`` (the scalar
loop on every row).

In this library the per-timestamp statistics are the windowed existence
indicators (one 0/1 entry per event type, L1 sensitivity 1 under a
single-event change); released vectors are thresholded at 1/2 to answer
the binary pattern queries.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.baselines.base import StreamMechanism, as_statistics
from repro.runtime import decisions
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive, check_positive_int


class TraceColumn:
    """One trace column on chunk-doubling numpy storage.

    Behaves like the plain Python list it replaces — ``append``,
    ``extend``, ``len``, indexing/slicing (slices return lists),
    iteration, equality against lists — but stores the values in a
    contiguous typed buffer that grows geometrically, so
    million-timestamp traces stop paying per-element object overhead
    and the accounting accessors read straight numpy arrays.

    Two additions the release loop relies on:

    - :meth:`extend_constant` appends ``count`` copies of one value
      without materializing a Python list (the bulk-skip paths);
    - :attr:`version` counts mutations, letting
      :meth:`ReleaseTrace._spend_prefix` cache derived arrays and
      invalidate on any append/extend/restore.
    """

    def __init__(self, values: Iterable = (), *, dtype=float):
        self._dtype = np.dtype(dtype)
        self._data = np.zeros(0, dtype=self._dtype)
        self._n = 0
        self.version = 0
        if values is not None:
            self.extend(values)

    def _reserve(self, extra: int) -> None:
        needed = self._n + extra
        capacity = self._data.shape[0]
        if needed <= capacity:
            return
        grown = np.zeros(max(16, 2 * capacity, needed), dtype=self._dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def _view(self) -> np.ndarray:
        return self._data[: self._n]

    def append(self, value) -> None:
        self._reserve(1)
        self._data[self._n] = value
        self._n += 1
        self.version += 1

    def extend(self, values: Iterable) -> None:
        if isinstance(values, TraceColumn):
            values = values._view()
        elif not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        count = len(values)
        if count:
            self._reserve(count)
            self._data[self._n : self._n + count] = values
            self._n += count
        self.version += 1

    def extend_constant(self, value, count: int) -> None:
        """Append ``count`` copies of ``value`` (one buffer fill)."""
        if count:
            self._reserve(count)
            self._data[self._n : self._n + count] = value
            self._n += count
        self.version += 1

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._view()[key].tolist()
        return self._view()[key].item()

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice) and key == slice(None, None, None):
            # Full-slice replacement (the restore path) may change the
            # length, exactly as ``list[:] = values`` does.
            self._n = 0
            self.extend(value)
            return
        self._view()[key] = value
        self.version += 1

    def __iter__(self):
        return iter(self._view().tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceColumn):
            return (
                self._n == other._n
                and bool(np.array_equal(self._view(), other._view()))
            )
        if isinstance(other, (list, tuple)):
            return self._view().tolist() == list(other)
        if isinstance(other, np.ndarray):
            return bool(np.array_equal(self._view(), other))
        return NotImplemented

    __hash__ = None

    def __array__(self, dtype=None, copy=None):
        view = self._view()
        if dtype is not None and np.dtype(dtype) != self._dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view

    def tolist(self) -> List:
        return self._view().tolist()

    def __repr__(self) -> str:
        return f"TraceColumn({self._view().tolist()!r})"


def _bool_column() -> TraceColumn:
    return TraceColumn(dtype=bool)


@dataclass
class ReleaseTrace:
    """Per-timestamp record of a w-event run (for tests and ablations)."""

    published: TraceColumn = field(default_factory=_bool_column)
    publication_budgets: TraceColumn = field(default_factory=TraceColumn)
    dissimilarity_budgets: TraceColumn = field(default_factory=TraceColumn)

    def __post_init__(self):
        if not isinstance(self.published, TraceColumn):
            self.published = TraceColumn(self.published, dtype=bool)
        if not isinstance(self.publication_budgets, TraceColumn):
            self.publication_budgets = TraceColumn(self.publication_budgets)
        if not isinstance(self.dissimilarity_budgets, TraceColumn):
            self.dissimilarity_budgets = TraceColumn(
                self.dissimilarity_budgets
            )
        self._prefix_cache: Optional[Tuple[Tuple[int, int, int], np.ndarray]]
        self._prefix_cache = None

    def _spend_prefix(self) -> np.ndarray:
        """Prefix sums of the per-timestamp total spend.

        ``prefix[t]`` is the budget spent strictly before timestamp
        ``t``, so any window's spend is one subtraction.  Both window
        accessors read through this, keeping them mutually consistent.

        The array is cached against the columns' length and mutation
        counters — any append, bulk extend or restore invalidates it —
        so repeated guarantee checks on a long trace cost O(1) after
        the first instead of recomputing the full cumsum every call.
        """
        key = (
            len(self.publication_budgets),
            self.publication_budgets.version,
            self.dissimilarity_budgets.version,
        )
        cached = self._prefix_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        totals = np.asarray(self.publication_budgets, dtype=float) + (
            np.asarray(self.dissimilarity_budgets, dtype=float)
        )
        prefix = np.empty(totals.shape[0] + 1)
        prefix[0] = 0.0
        np.cumsum(totals, out=prefix[1:])
        self._prefix_cache = (key, prefix)
        return prefix

    def spent_in_window(self, start: int, w: int) -> float:
        """Total budget spent in the ``w`` timestamps from ``start``."""
        n = len(self.published)
        start = min(max(start, 0), n)
        stop = min(start + w, n)
        prefix = self._spend_prefix()
        return float(prefix[stop] - prefix[start])

    def max_window_spend(self, w: int) -> float:
        """The largest spend over any sliding window of ``w`` timestamps.

        The w-event guarantee requires this never to exceed ε.  Computed
        from the spend prefix sums in O(n) — not O(n·w) slicing — so the
        guarantee checks stay cheap on long traces.
        """
        if not self.published:
            return 0.0
        prefix = self._spend_prefix()
        n = len(self.published)
        starts = np.arange(n)
        stops = np.minimum(starts + w, n)
        return float(np.max(prefix[stops] - prefix[starts]))


class OnlineReleaser:
    """Incremental w-event release, one block of timestamps at a time.

    Owns the scheduler state, the dissimilarity/publication accounting
    trace, the last release and the decision loop itself (the bound →
    scan → resolve pipeline of :mod:`repro.runtime.decisions`), which
    calls the mechanism's budget hooks directly; created by
    :meth:`WEventMechanism.online_releaser`.  :meth:`step_block` is
    bit-identical to the seed per-timestamp loop in every ``scan`` mode
    — the vectorized values only decide rows the margin band certifies,
    never what any timestamp releases.

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
        self.trace = ReleaseTrace()
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
        self._dissimilarity_charge = (
            mechanism.epsilon_dissimilarity / mechanism.w
        )

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        """Release a block of timestamps; rows are indicator vectors.

        Per-timestamp draws come from the index-derived child streams,
        so the loop is free to consume them smartly without changing a
        single output bit: with prefetched uniforms only publishing
        timestamps (and ``u <= 0`` rows) install a child generator.
        ``scan=off`` and blocks shorter than the prefetch threshold run
        :meth:`_exact_step` row by row.
        """
        matrix = as_statistics(matrix, self.n_types)
        released = np.empty_like(matrix)
        n = matrix.shape[0]
        if n == 0:
            return released
        uniforms = (
            self._children.first_uniforms(self.t, self.t + n)
            if n >= decisions._PREFETCH_MIN
            else None
        )
        certified, boundary, zero_budget = decisions._kernel_telemetry()
        if self.mechanism.scan == "off" or uniforms is None:
            for row in range(n):
                self._exact_step(matrix, released, row, uniforms)
            boundary.inc(n)
            return released
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
        filled in runs, and the trace columns are appended once at the
        end — so the scheduler hooks see a trace that may lag within the
        block.  Returns the ``(certified, boundary, zero_budget)`` row
        counts.
        """
        mechanism = self.mechanism
        budget_of = mechanism._publication_budget
        budget_until = mechanism._budget_until
        after_publication = mechanism._after_publication
        trace = self.trace
        state = self.scheduler_state
        children = self._children
        scale = self._dissimilarity_draw_scale
        sensitivity = mechanism.sensitivity
        n_types = self.n_types
        margin = decisions._MARGIN
        audit = mechanism.scan == "exact"
        laplace_noise = decisions._laplace_noise
        n = matrix.shape[0]
        boundary = zero_budget = 0
        start = 0
        if self.last_release is None:
            # The first release ever publishes without a distance.
            self._exact_step(matrix, released, 0, uniforms)
            boundary = start = 1
        base = self.t - start  # row r is timestamp base + r
        last = self.last_release
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
                chunk_stop = min(n, row + decisions._CHUNK_ROWS)
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
                        laplace_noise(chunk_uniforms[i], scale),
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
                        laplace_noise(chunk_uniforms[i], scale),
                        threshold,
                    )
            else:
                uniform = chunk_uniforms[i]
                if uniform > 0.0:
                    noise = laplace_noise(uniform, scale)
                    if row >= pass_stop:
                        pass_start = row
                        pass_stop = min(n, row + decisions._PASS_ROWS)
                        distances = decisions.release_distances(
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
        released[filled:n] = last
        trace.published.extend(published[start:])
        trace.publication_budgets.extend(budgets[start:])
        trace.dissimilarity_budgets.extend_constant(
            self._dissimilarity_charge, n - start
        )
        self.last_release = last
        self.t = base + n
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
        norms = decisions.row_norms(rows)
        noises = decisions._approximate_noises(
            uniforms, self._dissimilarity_draw_scale
        )
        reach = decisions._MARGIN * (1.0 + np.abs(noises) + norms)
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
            raise decisions.ScanMarginError(
                f"timestamp {t} was certified as {verdict} but the exact "
                f"arithmetic disagrees (noise {noise!r}, threshold "
                f"{threshold!r}); the platform's rounding exceeds the "
                f"built-in scan margin {decisions._MARGIN!r}"
            )

    def _exact_step(self, matrix, released, row: int, uniforms) -> None:
        """One timestamp through the exact scalar arithmetic.

        This is the seed release loop's body: the whole loop under
        ``scan=off`` (the oracle the resolve is pinned against), blocks
        below the prefetch threshold, and the first release of a run.
        """
        mechanism = self.mechanism
        trace = self.trace
        state = self.scheduler_state
        last_release = self.last_release
        scale = self._dissimilarity_draw_scale
        budget = mechanism._publication_budget(self.t, trace, state)
        publish = False
        rng_t = None
        if last_release is None:
            publish = budget > 0
        elif budget > 0:
            # Private dissimilarity: the distance from the last release
            # plus Laplace noise (Kellaris' `dis`).
            if uniforms is None:
                rng_t = self._children.generator(self.t)
                noise = float(rng_t.laplace(0.0, scale))
            else:
                uniform = uniforms[row]
                if uniform > 0.0:
                    noise = decisions._laplace_noise(uniform, scale)
                else:
                    # U == 0 retries inside numpy; take the real
                    # generator for this (astronomically rare) step.
                    rng_t = self._children.generator(self.t)
                    noise = float(rng_t.laplace(0.0, scale))
            true_distance = self._distance(matrix[row], last_release)
            publish = true_distance + noise > mechanism.sensitivity / budget
        trace.dissimilarity_budgets.append(self._dissimilarity_charge)
        if publish:
            if rng_t is None:
                rng_t = self._children.generator(self.t)
                if last_release is not None:
                    # The stepped stream spent one word on the
                    # dissimilarity draw; reposition past it.
                    rng_t.laplace(0.0, scale)
            noise_vector = rng_t.laplace(
                0.0, mechanism.sensitivity / budget, size=self.n_types
            )
            self.last_release = matrix[row] + noise_vector
            trace.published.append(True)
            trace.publication_budgets.append(budget)
            mechanism._after_publication(self.t, budget, trace, state)
        else:
            if last_release is None:
                # Nothing released yet and no budget: emit pure noise
                # around 1/2 so the output is data-independent.
                self.last_release = np.full(self.n_types, 0.5)
            trace.published.append(False)
            trace.publication_budgets.append(0.0)
        released[row] = self.last_release
        self.t += 1

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> Dict:
        """A picklable checkpoint of the full release state at time ``t``.

        Captures everything a bit-identical continuation needs: the
        scheduler state, the accounting trace, the last release, the
        step counter and the rng-pool derivation source.  Restoring it
        on a fresh releaser (same mechanism parameters) and stepping on
        reproduces an uninterrupted run exactly.
        """
        return {
            "format": 1,
            "t": self.t,
            "n_types": self.n_types,
            "scheduler_state": copy.deepcopy(self.scheduler_state),
            "last_release": (
                None
                if self.last_release is None
                else np.array(self.last_release, copy=True)
            ),
            "trace": (
                list(self.trace.published),
                list(self.trace.publication_budgets),
                list(self.trace.dissimilarity_budgets),
            ),
            "rng": self._children.snapshot(),
        }

    def restore(self, snapshot: Dict) -> None:
        """Adopt a checkpoint produced by :meth:`snapshot`.

        The trace object is mutated in place (not replaced) so callers
        holding a reference — ``mechanism.last_trace``, the runtime
        stepper — keep observing the restored run.
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
        published, budgets, dissimilarity = snapshot["trace"]
        self.trace.published[:] = published
        self.trace.publication_budgets[:] = budgets
        self.trace.dissimilarity_budgets[:] = dissimilarity
        self._children.restore(snapshot["rng"])


class WEventMechanism(StreamMechanism):
    """Shared skeleton of the BD and BA schedulers."""

    def __init__(
        self,
        epsilon: float,
        w: int,
        *,
        sensitivity: float = 1.0,
        scan: str = "margin",
    ):
        super().__init__(epsilon)
        self.w = check_positive_int("w", w)
        self.sensitivity = check_positive("sensitivity", sensitivity)
        self.epsilon_dissimilarity = epsilon / 2.0
        self.epsilon_publication = epsilon / 2.0
        self.scan = decisions.check_scan(scan)
        self.last_trace: Optional[ReleaseTrace] = None

    # -- subclass hooks -----------------------------------------------------

    def _initial_scheduler_state(self) -> Dict:
        """Fresh per-run scheduler state (subclasses may extend)."""
        return {}

    @abc.abstractmethod
    def _publication_budget(
        self, t: int, trace: ReleaseTrace, state: Dict
    ) -> float:
        """Budget available for publishing at timestamp ``t`` (0 = skip).

        ``trace`` may lag within a block: the release loop appends a
        block's trace columns once, after its last row, so a scheduler
        must keep whatever it needs from earlier timestamps of the same
        block in ``state`` (as BD and BA do).  ``scan=margin|exact``
        call it once per constant-budget stretch (:meth:`_budget_until`);
        the ``scan=off`` loop and the seed loop call it on every
        timestamp.
        """

    def _after_publication(
        self, t: int, budget: float, trace: ReleaseTrace, state: Dict
    ) -> None:
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
