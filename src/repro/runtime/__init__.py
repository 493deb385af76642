"""The unified streaming runtime.

One vectorized pipeline — ``IndicatorExtractor → Mechanism → Matcher``,
with released-versus-truth confusion counted onto each
:class:`~repro.runtime.executors.PipelineResult` — shared by the CEP
engine facade, the baseline mechanisms and the experiment harness, with
three interchangeable execution strategies:

- :class:`~repro.runtime.executors.BatchExecutor` materializes the
  whole indicator matrix and runs every stage vectorized (no per-event
  Python loops in windowing, extraction or perturbation);
- :class:`~repro.runtime.executors.ShardedExecutor` fans contiguous
  window shards out over a thread pool, seeking each shard's stepper
  to its absolute start window (sequential schedulers release in the
  parent, or re-step from a checkpoint) — bit-identical to the batch
  executor;
- :class:`~repro.runtime.cluster.ClusterExecutor`, the multi-process
  path, ships the same shards to a spawned worker fleet over a framed
  message protocol (shared-memory descriptors locally, framed bytes
  otherwise) with heartbeats, timeouts and requeue-on-worker-death —
  still bit-identical to the batch executor.

An unbounded stream is served one block of windows at a time through a
mechanism's chunk stepper by the service sessions
(:mod:`repro.cep.online`), not by an executor.

See ARCHITECTURE.md for how the layers map onto the runtime.
"""

from repro.runtime.adapters import (
    FlipStepper,
    RuntimeMechanism,
    runtime_mechanism,
)
from repro.runtime.cluster import ClusterExecutor
from repro.runtime.executors import (
    BatchExecutor,
    PipelineResult,
    ShardedExecutor,
)
from repro.runtime.pipeline import StreamPipeline
from repro.runtime.rng_pool import IndexedRngPool
from repro.runtime.sharding import Shard, merge_results, plan_shards
from repro.runtime.shm import ArrayDescriptor, SegmentPlane
from repro.runtime.stages import (
    IndicatorExtractor,
    QueryMatcher,
    WindowStage,
)

__all__ = [
    "ArrayDescriptor",
    "BatchExecutor",
    "ClusterExecutor",
    "FlipStepper",
    "IndexedRngPool",
    "IndicatorExtractor",
    "PipelineResult",
    "QueryMatcher",
    "RuntimeMechanism",
    "SegmentPlane",
    "Shard",
    "ShardedExecutor",
    "StreamPipeline",
    "WindowStage",
    "merge_results",
    "plan_shards",
    "runtime_mechanism",
]
