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
the same stepper, so the two agree bit for bit under the same seed.

The per-timestamp decision loop itself lives in
:mod:`repro.runtime.decisions`: each scheduler declares its decision
rule as data (:meth:`WEventMechanism.decision_rule`) and the shared
plan → bound → scan → resolve kernel drives the release — triangle-
inequality distance bounds decide most rows without any distance,
vectorized distance passes decide the rows a margin band certifies,
exact scalar arithmetic decides everything near a decision boundary.
``scan=`` on the mechanism constructor (or the ``scan=/margin=/prefetch=``
spec keys) tunes or disables the scan.

In this library the per-timestamp statistics are the windowed existence
indicators (one 0/1 entry per event type, L1 sensitivity 1 under a
single-event change); released vectors are thresholded at 1/2 to answer
the binary pattern queries.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.base import StreamMechanism, as_statistics
from repro.runtime.decisions import DecisionRule, ScanConfig, WEventKernel
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

    Two additions the release kernel relies on:

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
    """Incremental w-event release: one indicator vector per step.

    Owns the scheduler state, the dissimilarity/publication accounting
    trace and the last release; created by
    :meth:`WEventMechanism.online_releaser`.  The decision loop itself
    is the shared :class:`~repro.runtime.decisions.WEventKernel`,
    driven by the mechanism's declared
    :class:`~repro.runtime.decisions.DecisionRule`.

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
        self._kernel = WEventKernel(
            mechanism.decision_rule(),
            mechanism.scan_config,
            n_types=n_types,
            sensitivity=mechanism.sensitivity,
            dissimilarity_scale=self._dissimilarity_draw_scale,
            dissimilarity_charge=self._dissimilarity_charge,
        )

    def step(self, true_vector: np.ndarray) -> np.ndarray:
        """Release one timestamp's statistics."""
        true_vector = as_statistics(true_vector, self.n_types, block=False)
        self._kernel.run_block(self, true_vector.reshape(1, -1), None)
        return self.last_release.copy()

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        """Release a block of timestamps; rows are indicator vectors."""
        matrix = as_statistics(matrix, self.n_types, block=True)
        released = np.empty_like(matrix)
        self._kernel.run_block(self, matrix, released)
        return released

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
        scan: Union[None, str, ScanConfig] = None,
    ):
        super().__init__(epsilon)
        self.w = check_positive_int("w", w)
        self.sensitivity = check_positive("sensitivity", sensitivity)
        self.epsilon_dissimilarity = epsilon / 2.0
        self.epsilon_publication = epsilon / 2.0
        self.scan_config = ScanConfig.coerce(scan)
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

        ``trace`` may lag within a block: the decision kernel appends a
        block's trace columns once, after its last row, so a scheduler
        must keep whatever it needs from earlier timestamps of the same
        block in ``state`` (as BD and BA do).  The kernel calls it once
        per constant-budget stretch (:meth:`_budget_until`); the
        ``scan=off`` loop and the seed loop call it on every timestamp.
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
        kernel therefore calls the budget hook once per stretch, and
        hops a zero-budget stretch (BA's nullified periods) without
        consuming any randomness — bit-identical to stepping, since
        zero-budget steps never draw.  The default, ``t + 1``, declares
        a one-timestamp stretch.
        """
        return t + 1

    def decision_rule(self) -> DecisionRule:
        """This scheduler's decision logic as data (the kernel's *plan*)."""
        return DecisionRule(
            publication_budget=self._publication_budget,
            budget_until=self._budget_until,
            after_publication=self._after_publication,
        )

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
