"""Execution strategies for the streaming pipeline.

Every executor takes the same prepared pipeline and produces the same
:class:`PipelineResult` — the difference is purely operational:

- :class:`BatchExecutor` materializes the indicator matrix end-to-end
  and perturbs it in one vectorized pass;
- :class:`ShardedExecutor` partitions the windows into contiguous
  shards and runs each through a seeked chunk stepper on a thread
  pool.  Its outputs are bit-identical to the batch executor under the
  same seed, because every shard draws its randomness by absolute
  window index (see :mod:`repro.runtime.sharding`).  The multi-process
  counterpart is :class:`~repro.runtime.cluster.ClusterExecutor`.

An unbounded stream is not an executor's job: the service sessions
(:mod:`repro.cep.online`, :mod:`repro.cep.async_session`) step it
one block of windows at a time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.metrics.confusion import ConfusionCounts
from repro.metrics.quality import DataQuality
from repro.obs.tracing import trace_span
from repro.runtime import sharding
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike


@dataclass
class PipelineResult:
    """Outcome of one pipeline execution.

    ``original``/``released`` are ``None`` when a run is asked not to
    materialize the streams (bounded-memory mode); the per-query
    answers, the window count and ``confusion`` — released-versus-truth
    counts micro-averaged over all queries (Section III-B) — are always
    populated.
    """

    answers: Dict[str, np.ndarray]
    true_answers: Dict[str, np.ndarray]
    n_windows: int
    original: Optional[IndicatorStream] = None
    released: Optional[IndicatorStream] = None
    confusion: ConfusionCounts = field(default_factory=ConfusionCounts)

    def quality(self, alpha: float = 0.5) -> DataQuality:
        """Micro-averaged released-versus-truth quality ``Q``."""
        return DataQuality.from_confusion(self.confusion, alpha=alpha)


class BatchExecutor:
    """Vectorized whole-stream execution."""

    def run(
        self,
        pipeline,
        indicators: IndicatorStream,
        *,
        rng: RngLike = None,
    ) -> PipelineResult:
        with trace_span("executor.batch", windows=len(indicators)):
            released = pipeline.runtime_mechanism.perturb_batch(
                indicators, rng=rng
            )
            answers = pipeline.matcher.answer(released.matrix_view())
            true_answers = pipeline.matcher.answer(
                indicators.matrix_view()
            )
        return PipelineResult(
            answers=answers,
            true_answers=true_answers,
            n_windows=len(indicators),
            original=indicators,
            released=released,
            confusion=ConfusionCounts.micro(true_answers, answers),
        )


class ShardedExecutor:
    """Parallel execution over contiguous window shards on threads.

    Splits the stream into (at most) ``n_shards`` balanced contiguous
    shards and executes each through the mechanism's chunk stepper on a
    thread pool (the hot stages release the GIL inside numpy), seeking
    every shard's stepper to its absolute start window first.  Because
    seeking reproduces exactly the randomness a sequential run would
    have consumed, the merged result is *bit-identical* to
    :class:`BatchExecutor` under the same seed — whatever the worker
    count (pinned by ``tests/test_runtime_sharding.py`` and
    ``benchmarks/test_bench_sharding.py``).

    Mechanisms whose steppers can seek — the pattern-level flip PPMs,
    whole-matrix randomized response and the identity — shard directly.
    Sequential schedulers (BD/BA, landmark) carry data-dependent state
    across windows and cannot seek.  BD/BA release the whole stream
    once, as the batch path does, and the shards only match their
    slices; landmark snapshots its release state at every shard
    boundary and the shards re-step from there — both bit-identical to
    :class:`BatchExecutor` under the same seed (see
    :func:`repro.runtime.sharding.checkpoint_prepass`).  Mechanisms
    supporting only batch perturbation raise ``TypeError``.

    Multi-process sharding is
    :class:`~repro.runtime.cluster.ClusterExecutor`; both executors
    share one run loop (:func:`repro.runtime.sharding.run_sharded`).

    Parameters
    ----------
    n_workers:
        Thread-pool size; defaults to ``os.cpu_count()``.
    n_shards:
        Shard count; defaults to ``n_workers``.
    materialize:
        Keep the original/released indicator streams on the result
        (matching :class:`BatchExecutor`); ``False`` returns only the
        per-query answers and metrics.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        n_shards: Optional[int] = None,
        materialize: bool = True,
    ):
        self.n_workers, self.n_shards = sharding.resolve_pool(
            n_workers, n_shards
        )
        self.materialize = materialize

    def run(
        self,
        pipeline,
        indicators: IndicatorStream,
        *,
        rng: RngLike = None,
    ) -> PipelineResult:
        with trace_span("executor.sharded", windows=len(indicators)):
            return sharding.run_sharded(
                pipeline,
                indicators,
                rng=rng,
                n_shards=self.n_shards,
                materialize=self.materialize,
                fan_out=self._fan_out,
            )

    @contextmanager
    def _fan_out(self, job, tasks):
        """Run every task on a thread pool over shared plain arrays."""
        outputs = job.outputs()
        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            receipts = list(
                pool.map(lambda task: job.run(task, outputs), tasks)
            )
        yield receipts, outputs
