"""Shard planning, the shard runners, the shared run loop and the merge.

The service phase is embarrassingly parallel across windows for every
mechanism whose stepper can *seek* — skip a prefix of windows while
still drawing the randomness the batch path would draw for the
remainder (per-type flip PPMs, whole-matrix randomized response, the
identity).  Both parallel executors —
:class:`~repro.runtime.executors.ShardedExecutor` (threads) and
:class:`~repro.runtime.cluster.ClusterExecutor` (a worker-process
fleet) — run through :func:`run_sharded`: it splits the stream into
contiguous shards, hands one task per shard to the executor's fan-out,
and merges the shards' outputs once (:func:`merge_results`).

Bit-identity with :class:`~repro.runtime.executors.BatchExecutor` under
the same seed rests on two invariants:

1. **RNG by absolute window index** — every shard constructs its
   stepper from the *same* parent entropy (seeds re-derive, generators
   are state-cloned), then seeks to the shard's absolute start window,
   so each shard consumes exactly the slice of the child streams the
   batch path would spend on those windows;
2. **writes by absolute window slice** — a shard runner writes its
   answers, truth and released rows into preallocated output arrays at
   the shard's own window range, so the outputs come out in window
   order however the shards were scheduled (and a rerun of a shard
   writes the same bytes to the same place).

Sequential schedulers (BD/BA, landmark) carry data-dependent state from
window to window and cannot seek.  The run loop runs their sequential
part once in the parent (:func:`checkpoint_prepass`) and fans out only
the rest (:func:`run_shard_from_checkpoint`):

- **BD/BA release once, shards match.**  The prepass *is* the release:
  one stepper steps the whole matrix, exactly as the batch path does,
  and publishes ``mechanism.last_trace``.  Each shard receives its
  slice of the released rows and only computes truth and matching,
  the work that parallelises.  Bit-identity holds by construction.
- **Landmark snapshots and re-steps.**  Its regular rows draw noise per
  timestamp, so re-stepping them is real parallel work.  The prepass
  walks the stream without materializing rows, snapshotting the
  release state at every shard boundary; each shard restores its
  snapshot and re-steps its range, bit-identical to the batch path
  because the per-timestamp randomness is derived by absolute index.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.confusion import ConfusionCounts
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of window indices, ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"shard start must be >= 0, got {self.start}")
        if self.stop < self.start:
            raise ValueError(
                f"shard stop {self.stop} precedes start {self.start}"
            )

    @property
    def n_windows(self) -> int:
        return self.stop - self.start


def plan_shards(n_windows: int, n_shards: int) -> List[Shard]:
    """Split ``[0, n_windows)`` into at most ``n_shards`` balanced shards.

    Shards are contiguous, cover every window exactly once, and differ
    in size by at most one window.  The plan never produces empty
    shards: the shard count is capped at ``n_windows``.
    """
    if n_windows < 0:
        raise ValueError(f"n_windows must be >= 0, got {n_windows}")
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if n_windows == 0:
        return []
    count = min(n_shards, n_windows)
    base, extra = divmod(n_windows, count)
    shards: List[Shard] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(start, start + size))
        start += size
    return shards


def clone_rng(rng: RngLike) -> RngLike:
    """An equivalent-but-independent rng for one shard worker.

    Seeds (``int``/``None``) pass through — ``derive_rng`` re-seeds a
    fresh parent from them on every call, so every shard derives the
    same children the batch path derives.  Generators are deep-copied so
    that each shard replays the *same* parent state the batch path
    consumed at stepper construction, without racing the caller's
    generator across workers.
    """
    if isinstance(rng, np.random.Generator):
        return copy.deepcopy(rng)
    return rng


def resolve_pool(
    n_workers: Optional[int], n_shards: Optional[int]
) -> Tuple[int, int]:
    """Validate a parallel executor's worker and shard counts.

    ``n_workers`` defaults to ``os.cpu_count()``, ``n_shards`` to the
    worker count.
    """
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    if n_shards is not None and n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    return n_workers, n_shards if n_shards is not None else n_workers


# ---------------------------------------------------------------------------
# Shard outputs and the runner pair
# ---------------------------------------------------------------------------


@dataclass
class ShardOutputs:
    """The output arrays shard runners write into.

    - ``answers`` / ``truth`` — ``(n_queries, n)`` boolean arrays, rows
      ordered as ``query_names``; ``None`` when the pipeline registers
      no queries;
    - ``released`` — the ``(n, width)`` released rows; ``None`` when
      the run does not materialize streams.

    Column (row) ``0`` holds window ``offset``: a whole run's outputs
    start at window 0, a framed cluster worker's shard-sized outputs at
    its shard's start.  The arrays are plain ndarrays on threads and
    views of attached shared-memory segments in cluster workers.
    """

    query_names: Tuple[str, ...]
    answers: Optional[np.ndarray]
    truth: Optional[np.ndarray]
    released: Optional[np.ndarray]
    offset: int = 0

    @classmethod
    def allocate(
        cls,
        query_names: Sequence[str],
        shard: Shard,
        width: int,
        *,
        materialize: bool,
    ) -> "ShardOutputs":
        """Uninitialized outputs covering ``shard``'s windows."""
        names = tuple(query_names)
        n_windows = shard.n_windows
        return cls(
            query_names=names,
            answers=np.empty((len(names), n_windows), bool) if names else None,
            truth=np.empty((len(names), n_windows), bool) if names else None,
            released=(
                np.empty((n_windows, width), bool) if materialize else None
            ),
            offset=shard.start,
        )


@dataclass(frozen=True)
class ShardReceipt:
    """What a shard runner returns: its bounds and confusion counts.

    The bulky outputs were already written into the output arrays; only
    the shard bounds and the four confusion counts travel back.
    """

    shard: Shard
    counts: ConfusionCounts


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order.

    Checkpointed runs set one of the last two fields: ``decisions``,
    the shard's released bool rows when the prepass was the release
    (BD/BA), or ``snapshot``, the release state at the shard's start
    when the shard re-steps (landmark).
    """

    shard: Shard
    rng: RngLike
    snapshot: Optional[dict] = None
    decisions: Optional[np.ndarray] = None


def _record(
    pipeline,
    rows: np.ndarray,
    shard: Shard,
    released: np.ndarray,
    outputs: ShardOutputs,
) -> ShardReceipt:
    """Match one shard's windows and write them into ``outputs``."""
    matcher = pipeline.matcher
    answers = matcher.answer(released)
    truth = matcher.answer(rows)
    window = slice(shard.start - outputs.offset, shard.stop - outputs.offset)
    if outputs.released is not None:
        outputs.released[window] = released
    for row, name in enumerate(outputs.query_names):
        outputs.answers[row, window] = answers[name]
        outputs.truth[row, window] = truth[name]
    return ShardReceipt(
        shard=shard, counts=ConfusionCounts.micro(truth, answers)
    )


def run_shard(
    pipeline,
    rows: np.ndarray,
    shard: Shard,
    outputs: ShardOutputs,
    *,
    alphabet: EventAlphabet,
    horizon: int,
    rng: RngLike,
) -> ShardReceipt:
    """Release one shard's windows through a seeked chunk stepper.

    ``rows`` is the shard's slice of the indicator matrix (rows
    ``shard.start:shard.stop`` of the full stream); ``horizon`` is the
    *full* stream length, which budget-per-horizon mechanisms
    (user-level RR) need regardless of shard boundaries.
    """
    stepper = pipeline.runtime_mechanism.stepper(
        alphabet, rng=rng, horizon=horizon
    )
    stepper.seek(shard.start)
    released = stepper.step_block(rows)
    return _record(pipeline, rows, shard, released, outputs)


def run_shard_from_checkpoint(
    pipeline,
    rows: np.ndarray,
    shard: Shard,
    outputs: ShardOutputs,
    snapshot: Optional[dict],
    decisions: Optional[np.ndarray],
    *,
    alphabet: EventAlphabet,
    horizon: int,
    rng: RngLike,
) -> ShardReceipt:
    """Finish one shard of a checkpointed run.

    BD/BA shards get their released rows (``decisions``) from the
    prepass, which already released the whole stream, and only match
    them.  Landmark shards restore a fresh stepper to the prepass
    state at ``shard.start`` and re-step the range, drawing from the
    same index-derived child streams an uninterrupted run draws from.
    """
    released = decisions
    if released is None:
        stepper = pipeline.runtime_mechanism.stepper(
            alphabet, rng=rng, horizon=horizon, snapshot=snapshot
        )
        released = stepper.step_block(rows)
    return _record(pipeline, rows, shard, released, outputs)


def run_task(
    pipeline,
    rows: np.ndarray,
    task: ShardTask,
    outputs: ShardOutputs,
    *,
    alphabet: EventAlphabet,
    horizon: int,
) -> ShardReceipt:
    """Run one task through the runner its kind needs.

    The runners are looked up on this module at call time, so a
    wrapper installed on ``sharding.run_shard`` sees every shard.
    """
    if task.snapshot is None and task.decisions is None:
        return run_shard(
            pipeline,
            rows,
            task.shard,
            outputs,
            alphabet=alphabet,
            horizon=horizon,
            rng=task.rng,
        )
    return run_shard_from_checkpoint(
        pipeline,
        rows,
        task.shard,
        outputs,
        task.snapshot,
        task.decisions,
        alphabet=alphabet,
        horizon=horizon,
        rng=task.rng,
    )


# ---------------------------------------------------------------------------
# Checkpoint prepass
# ---------------------------------------------------------------------------


@dataclass
class CheckpointPlan:
    """Outcome of a checkpointed run's sequential phase.

    ``released`` holds the whole stream's released rows when the phase
    was the release itself (BD/BA); otherwise ``snapshots[i]`` is the
    release state before shard ``i``'s first window (landmark).
    """

    shards: List[Shard]
    snapshots: List[dict] = field(default_factory=list)
    released: Optional[np.ndarray] = None

    def tasks(self, rng: RngLike) -> List[ShardTask]:
        """One work order per shard, each with its own clone of ``rng``."""
        if self.released is not None:
            return [
                ShardTask(
                    shard,
                    clone_rng(rng),
                    decisions=self.released[shard.start : shard.stop],
                )
                for shard in self.shards
            ]
        return [
            ShardTask(shard, clone_rng(rng), snapshot=snapshot)
            for shard, snapshot in zip(self.shards, self.snapshots)
        ]


def checkpoint_prepass(
    pipeline,
    matrix: np.ndarray,
    shards: Sequence[Shard],
    *,
    alphabet: EventAlphabet,
    horizon: int,
    rng: RngLike,
) -> CheckpointPlan:
    """The sequential phase of a checkpointed run, in the parent.

    For BD/BA this is the run's one release: the ``step_block`` call
    the batch path makes, through
    :class:`~repro.baselines.w_event.OnlineReleaser`, which also
    publishes ``mechanism.last_trace``.  The shards then only match their slices
    of the released rows.

    Landmark is the one releaser with ``advance_block``, a walk cheaper
    than a release: regular rows are hopped outright and no rows are
    materialized.  The prepass walks with it, snapshotting the release
    state at every shard boundary, and the shards re-step from those
    snapshots.
    """
    stepper = pipeline.runtime_mechanism.stepper(
        alphabet, rng=rng, horizon=horizon
    )
    plan = CheckpointPlan(shards=list(shards))
    if not hasattr(stepper.releaser, "advance_block"):
        plan.released = stepper.step_block(matrix)
        return plan
    for shard in plan.shards:
        plan.snapshots.append(stepper.snapshot())
        stepper.advance_block(matrix[shard.start : shard.stop])
    return plan


# ---------------------------------------------------------------------------
# The run loop and the merge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardJob:
    """What every shard of one run shares."""

    pipeline: object
    matrix: np.ndarray
    alphabet: EventAlphabet
    horizon: int
    materialize: bool

    def outputs(self) -> ShardOutputs:
        """Outputs covering the whole run, as plain ndarrays."""
        return ShardOutputs.allocate(
            self.pipeline.matcher.query_names,
            Shard(0, self.horizon),
            len(self.alphabet),
            materialize=self.materialize,
        )

    def run(self, task: ShardTask, outputs: ShardOutputs) -> ShardReceipt:
        """Run ``task`` in this process against the job's matrix."""
        shard = task.shard
        return run_task(
            self.pipeline,
            self.matrix[shard.start : shard.stop],
            task,
            outputs,
            alphabet=self.alphabet,
            horizon=self.horizon,
        )


def run_sharded(
    pipeline,
    indicators: IndicatorStream,
    *,
    rng: RngLike,
    n_shards: int,
    materialize: bool,
    fan_out,
):
    """Run ``pipeline`` over ``indicators`` shard by shard.

    The one run loop behind every parallel executor: it applies the rng
    policy, picks the seek or checkpoint path, runs zero or one shard
    in-process, and merges once.  ``fan_out(job, tasks)`` is the only
    part an executor supplies — a context manager that runs every task
    and yields ``(receipts, outputs)``, keeping ``outputs`` valid until
    the merge has copied them out.

    Mechanisms that can neither seek nor checkpoint raise
    ``TypeError``.
    """
    runtime = pipeline.runtime_mechanism
    checkpointed = not runtime.shardable
    if checkpointed and not getattr(runtime, "checkpointable", False):
        raise TypeError(
            f"mechanism {runtime.name!r} supports only batch "
            "perturbation and cannot be sharded; use BatchExecutor"
        )
    if isinstance(rng, np.random.Generator):
        # Shards replay the generator's *current* state (first use is
        # bit-identical to a batch run from that state); advance the
        # caller's generator one derivation word — as derive_rng
        # would — so consecutive runs off one shared generator draw
        # fresh randomness instead of repeating the previous run's.
        source = clone_rng(rng)
        rng.integers(0, 2**63 - 1)
    else:
        source = rng
    matrix = indicators.matrix_view()
    job = ShardJob(
        pipeline=pipeline,
        matrix=matrix,
        alphabet=indicators.alphabet,
        horizon=matrix.shape[0],
        materialize=materialize,
    )
    shards = plan_shards(job.horizon, n_shards)

    if len(shards) <= 1:
        # Zero or one shard: run in-process, no pool or fleet overhead.
        outputs = job.outputs()
        receipts = []
        for shard in shards:
            if checkpointed:
                # A plain sequential run: the release a BD/BA prepass
                # makes, and no landmark snapshot is needed.  The
                # stepper publishes its own trace.
                stepper = runtime.stepper(
                    job.alphabet, rng=clone_rng(source), horizon=job.horizon
                )
                released = stepper.step_block(matrix)
                receipts.append(
                    _record(pipeline, matrix, shard, released, outputs)
                )
            else:
                receipts.append(
                    job.run(ShardTask(shard, clone_rng(source)), outputs)
                )
        return merge_results(receipts, outputs, indicators=indicators)
    if not checkpointed:
        tasks = [ShardTask(shard, clone_rng(source)) for shard in shards]
        with fan_out(job, tasks) as (receipts, outputs):
            return merge_results(receipts, outputs, indicators=indicators)
    plan = checkpoint_prepass(
        pipeline,
        matrix,
        shards,
        alphabet=job.alphabet,
        horizon=job.horizon,
        rng=clone_rng(source),
    )
    with fan_out(job, plan.tasks(source)) as (receipts, outputs):
        return merge_results(receipts, outputs, indicators=indicators)


def merge_results(
    receipts: Sequence[ShardReceipt],
    outputs: ShardOutputs,
    *,
    indicators: IndicatorStream,
):
    """Merge one run's shard outputs into a ``PipelineResult``.

    The per-query vectors and the released matrix already sit
    contiguously in window order inside ``outputs`` — the runners wrote
    them there by absolute window slice — so merging is one copy out of
    each array (into arrays that outlive shared-memory segments) plus
    the confusion-count sum.
    """
    from repro.runtime.executors import PipelineResult

    answers = {}
    true_answers = {}
    for row, name in enumerate(outputs.query_names):
        answers[name] = outputs.answers[row].copy()
        true_answers[name] = outputs.truth[row].copy()
    confusion = sum(
        (receipt.counts for receipt in receipts), ConfusionCounts()
    )
    original = released = None
    if outputs.released is not None:
        # The caller already holds the original stream — nothing to
        # reassemble — and IndicatorStream's constructor copies the
        # released rows.
        original = indicators
        released = IndicatorStream(indicators.alphabet, outputs.released)
    return PipelineResult(
        answers=answers,
        true_answers=true_answers,
        n_windows=len(indicators),
        original=original,
        released=released,
        confusion=confusion,
    )
