"""Cluster execution: a framed worker fleet behind one merge point.

:class:`ClusterExecutor` runs shard work on a fleet of spawned worker
processes speaking a small length-prefixed frame protocol over
:mod:`multiprocessing.connection` pipes — the shape a TCP deployment
would keep, with only the connection factory swapped.  Every message
is one frame::

    !4sBI header  =  magic b"RPC1" | kind | payload length
    payload       =  pickled body (msgpack-shaped dicts and dataclasses)

The executor is the multi-process fan-out of the shared shard run
loop (:func:`~repro.runtime.sharding.run_sharded`): planning, the rng
policy, the checkpoint prepass and the merge happen there; this
module only ships the tasks.  Work ships as
:class:`~repro.runtime.shm.ArrayDescriptor` descriptors plus a
transport URL:

- ``transport="shm"`` (local fleet, the default) — the parent
  publishes the run's :class:`ShardPlanes` once per worker
  (``shm://<segment>``); workers attach the shared-memory plane
  directly, write their outputs into it, and a task frame carries
  only a :class:`~repro.runtime.sharding.ShardTask`.
- ``transport="framed"`` (the fallback where ``/dev/shm`` is
  unavailable) — workers never touch the parent's memory; each task
  frame carries the shard's matrix slice as framed bytes, the worker
  writes into arrays sized to its shard, and those ride back to the
  parent, which deposits them by absolute window slice.

Both transports end in :func:`~repro.runtime.sharding.merge_results`,
so a cluster run is bit-identical to
:class:`~repro.runtime.executors.BatchExecutor` for seekable
mechanisms and to the checkpoint-prepass path for sequential
schedulers (BD/BA/landmark) under the same seed.  Every task frame's
size is counted in ``repro_cluster_task_frame_bytes_total``.

Fault tolerance: every worker heartbeats on a daemon thread; the
parent requeues a worker's in-flight shard when its pipe drops, its
process dies, or its heartbeat goes stale, then respawns a
replacement — a killed worker never loses a shard, and reruns are
bit-identical because each task's rng clone is fixed at plan time and
plane deposits are idempotent by absolute window slice.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback

from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    default_registry,
    use_registry,
)
from repro.obs.tracing import current_recorder, trace_span
from repro.runtime.executors import PipelineResult
from repro.runtime.sharding import (
    ShardJob,
    ShardOutputs,
    resolve_pool,
    run_sharded,
    run_task,
)
from repro.runtime.shm import ArrayDescriptor, SegmentPlane, attach
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike

__all__ = ["ClusterExecutor", "TRANSPORTS"]

#: Shard transports a cluster spec may pick: ``shm`` attaches local
#: workers to the shared-memory plane, ``framed`` ships shard slices
#: as framed bytes (the remote-style fallback).
TRANSPORTS = ("shm", "framed")


def validate_transport(transport: str) -> str:
    """Reject unknown cluster transports."""
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; available: "
            f"{list(TRANSPORTS)}"
        )
    return transport


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------

_MAGIC = b"RPC1"
_HEADER = struct.Struct("!4sBI")

#: Frame kinds (one byte on the wire).
_HELLO, _JOB, _TASK, _RESULT, _ERROR, _HEARTBEAT, _SHUTDOWN = range(7)
#: Telemetry frame: right before each _RESULT the worker ships the
#: task's metrics-registry snapshot and wall time; the parent merges it
#: into the process default registry (first frame per task id wins, so
#: a requeued shard's duplicate never double-counts).
_METRICS = 7


class ProtocolError(RuntimeError):
    """A frame failed magic/length validation."""


def _pack_frame(kind: int, payload=None) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, kind, len(body)) + body


def _unpack_frame(blob: bytes):
    if len(blob) < _HEADER.size:
        raise ProtocolError(f"short frame: {len(blob)} bytes")
    magic, kind, length = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    body = blob[_HEADER.size :]
    if len(body) != length:
        raise ProtocolError(
            f"frame length mismatch: header {length}, body {len(body)}"
        )
    return kind, pickle.loads(body)


def _send_frame(connection, kind: int, payload=None) -> None:
    connection.send_bytes(_pack_frame(kind, payload))


def _recv_frame(connection):
    return _unpack_frame(connection.recv_bytes())


# ---------------------------------------------------------------------------
# Shared-memory data plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlanes:
    """Descriptors of one run's shared-memory data plane.

    Everything an ``shm`` worker needs to reach its input rows and to
    deposit its outputs without a single pickled array:

    - ``matrix`` — the *full* indicator matrix; workers slice their
      shard's ``[start, stop)`` row range out of the attached view;
    - ``answers`` / ``truth`` / ``released`` — the run's output planes,
      laid out as :class:`~repro.runtime.sharding.ShardOutputs`.

    The whole object pickles to a few hundred bytes however many
    windows the stream holds.
    """

    matrix: ArrayDescriptor
    query_names: Tuple[str, ...]
    answers: Optional[ArrayDescriptor] = None
    truth: Optional[ArrayDescriptor] = None
    released: Optional[ArrayDescriptor] = None

    @classmethod
    def build(cls, plane: SegmentPlane, job: ShardJob) -> "ShardPlanes":
        """Share the job's matrix into ``plane``; preallocate outputs.

        The caller owns ``plane`` and closes it (see
        :class:`~repro.runtime.shm.SegmentPlane`).
        """
        n_windows, width = job.matrix.shape
        names = tuple(job.pipeline.matcher.query_names)
        per_query = (len(names), n_windows)
        return cls(
            matrix=plane.share(job.matrix),
            query_names=names,
            answers=plane.allocate(per_query, bool) if names else None,
            truth=plane.allocate(per_query, bool) if names else None,
            released=(
                plane.allocate((n_windows, width), bool)
                if job.materialize
                else None
            ),
        )

    def outputs(self, view) -> ShardOutputs:
        """The output planes as arrays, each mapped through ``view``."""

        def mapped(descriptor):
            return None if descriptor is None else view(descriptor)

        return ShardOutputs(
            self.query_names,
            mapped(self.answers),
            mapped(self.truth),
            mapped(self.released),
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Test hook: called with the task message before executing each shard
#: (fork-inherited), so fault tests can kill or freeze a worker
#: mid-shard deterministically.  Never set in production.
_TASK_FAULT_HOOK = None


def _execute_task(job: dict, message: dict):
    """Run one shard under the job's transport; return its result.

    ``shm`` workers write into the attached output planes and return
    the receipt; ``framed`` workers write into arrays sized to their
    shard and return them with the receipt.
    """
    task = message["work"]
    pipeline = job["pipeline"]
    kwargs = dict(alphabet=job["alphabet"], horizon=job["horizon"])
    if job["transport"] == "framed":
        outputs = ShardOutputs.allocate(
            pipeline.matcher.query_names,
            task.shard,
            len(job["alphabet"]),
            materialize=job["materialize"],
        )
        rows = message["matrix"]
        return run_task(pipeline, rows, task, outputs, **kwargs), outputs
    with ExitStack() as stack:
        return _run_attached(stack, job["planes"], pipeline, task, **kwargs)


def _run_attached(stack, planes, pipeline, task, **kwargs):
    """Attach the plane and run ``task`` in one frame, so every view of
    the segments dies on return, before ``stack`` detaches them."""

    def view(descriptor):
        return stack.enter_context(attach(descriptor))

    shard = task.shard
    rows = view(planes.matrix)[shard.start : shard.stop]
    return run_task(pipeline, rows, task, planes.outputs(view), **kwargs)


def _worker_main(connection, heartbeat_interval: float) -> None:
    """One fleet worker: heartbeat thread + frame-dispatch loop."""
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(kind: int, payload=None) -> None:
        with send_lock:
            _send_frame(connection, kind, payload)

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send(_HEARTBEAT)
            except OSError:
                return

    job: Optional[dict] = None
    try:
        send(_HELLO, {"pid": os.getpid()})
        heartbeat = threading.Thread(target=beat, daemon=True)
        heartbeat.start()
        while True:
            kind, payload = _recv_frame(connection)
            if kind == _SHUTDOWN:
                return
            if kind == _JOB:
                job = payload
                continue
            if kind != _TASK:
                raise ProtocolError(f"unexpected frame kind {kind}")
            try:
                if _TASK_FAULT_HOOK is not None:
                    _TASK_FAULT_HOOK(payload)
                # Each task runs against its own fresh registry so the
                # snapshot shipped back is exactly this task's delta —
                # the parent can merge every task once without
                # double-counting fork-inherited state.
                task_registry = MetricsRegistry()
                task_started = time.monotonic()
                with use_registry(task_registry):
                    result = _execute_task(job, payload)
                task_seconds = time.monotonic() - task_started
                # Metrics go first: the pipe is FIFO, so by the time
                # the parent sees the result that may complete the
                # whole run (and stop draining frames), this task's
                # telemetry has already been merged.
                send(
                    _METRICS,
                    {
                        "task": payload["task"],
                        "seconds": task_seconds,
                        "metrics": task_registry.snapshot(),
                    },
                )
                send(_RESULT, {"task": payload["task"], "result": result})
            except Exception:
                send(
                    _ERROR,
                    {
                        "task": payload["task"],
                        "shard": payload["work"].shard,
                        "traceback": traceback.format_exc(),
                    },
                )
    except (EOFError, OSError):
        # Parent went away (run finished or crashed): just exit.
        return
    finally:
        stop.set()
        try:
            connection.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side handle on one fleet member."""

    process: object
    connection: object
    last_seen: float
    ready: bool = False
    dead: bool = False
    task: Optional[dict] = None
    #: When the in-flight task was dispatched (perf_counter clock);
    #: the parent-side per-shard span runs dispatch → result.
    task_sent: float = 0.0

    def send(self, kind: int, payload=None) -> None:
        _send_frame(self.connection, kind, payload)


class ClusterExecutor:
    """Cluster worker-fleet execution over the framed shard protocol.

    Drop-in executor (``run(pipeline, indicators, rng=...)``)
    spawning ``n_workers`` subprocesses that speak the module's frame
    protocol.  Shard planning, rng derivation and merging happen in
    the shared run loop (:func:`~repro.runtime.sharding.run_sharded`,
    also behind :class:`~repro.runtime.executors.ShardedExecutor`), so
    results are bit-identical to :class:`BatchExecutor` (seekable
    mechanisms) and to the checkpoint-prepass path (sequential
    schedulers) under the same seed — including runs where a worker is
    killed mid-shard and its shard is requeued.

    Parameters
    ----------
    n_workers:
        Fleet size; defaults to ``os.cpu_count()``.
    transport:
        ``"shm"`` (default) attaches workers to the shared-memory data
        plane; ``"framed"`` ships shard slices as framed bytes, the
        fallback for hosts or workers without ``/dev/shm`` (a framed
        run creates no shared-memory segment).
    n_shards:
        Shard count; defaults to ``n_workers``.
    materialize:
        Keep the original/released streams on the result.
    heartbeat_interval:
        Seconds between worker heartbeats (also the parent's poll
        tick).
    worker_timeout:
        Heartbeat staleness after which a worker is declared dead, its
        in-flight shard requeued and a replacement spawned.
    max_restarts:
        Worker deaths tolerated per run before giving up; defaults to
        ``max(4, 2 * n_workers)``.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        transport: str = "shm",
        n_shards: Optional[int] = None,
        materialize: bool = True,
        heartbeat_interval: float = 0.25,
        worker_timeout: float = 10.0,
        max_restarts: Optional[int] = None,
    ):
        n_workers, n_shards = resolve_pool(n_workers, n_shards)
        validate_transport(transport)
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got "
                f"{heartbeat_interval}"
            )
        if worker_timeout <= heartbeat_interval:
            raise ValueError(
                f"worker_timeout ({worker_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})"
            )
        self.n_workers = n_workers
        self.transport = transport
        self.n_shards = n_shards
        self.materialize = materialize
        self.heartbeat_interval = heartbeat_interval
        self.worker_timeout = worker_timeout
        self.max_restarts = (
            max_restarts if max_restarts is not None else max(4, 2 * n_workers)
        )
        # Per-run restart count lives in an obs counter; last_restarts
        # stays as the delegating view the fault tests/benches read.
        # Created lazily at dispatch: spec-built executors must stay
        # structurally identical, and a Counter carries a lock that
        # never compares equal.
        self._restarts_counter: Optional[Counter] = None
        self._merged_metrics: set = set()

    @property
    def last_restarts(self) -> int:
        """Worker deaths survived by the most recent run (requeued and
        respawned); 0 on a clean fleet.  A view over the run's obs
        restart counter."""
        if self._restarts_counter is None:
            return 0
        return int(self._restarts_counter.value)

    def run(
        self,
        pipeline,
        indicators: IndicatorStream,
        *,
        rng: RngLike = None,
    ) -> PipelineResult:
        with trace_span(
            "executor.cluster",
            transport=self.transport,
            windows=len(indicators),
        ):
            return run_sharded(
                pipeline,
                indicators,
                rng=rng,
                n_shards=self.n_shards,
                materialize=self.materialize,
                fan_out=self._fan_out,
            )

    # -- fleet orchestration -------------------------------------------

    @contextmanager
    def _fan_out(self, job: ShardJob, tasks):
        """Run every task on the fleet; yield receipts and outputs."""
        fleet_job = {
            "transport": self.transport,
            "pipeline": job.pipeline,
            "alphabet": job.alphabet,
            "horizon": job.horizon,
            "materialize": job.materialize,
        }
        messages = [
            {"task": index, "work": task} for index, task in enumerate(tasks)
        ]
        if self.transport == "framed":
            for message in messages:
                shard = message["work"].shard
                message["matrix"] = np.ascontiguousarray(
                    job.matrix[shard.start : shard.stop]
                )
            fleet_job["url"] = "framed://pipe"
            outputs = job.outputs()
            yield self._dispatch(fleet_job, messages, outputs), outputs
            return
        with SegmentPlane() as plane:
            planes = ShardPlanes.build(plane, job)
            fleet_job["url"] = f"shm://{planes.matrix.segment}"
            fleet_job["planes"] = planes
            outputs = planes.outputs(plane.view)
            try:
                yield self._dispatch(fleet_job, messages, outputs), outputs
            finally:
                # The views die with the plane, but a traceback keeps
                # every frame that bound ``outputs`` alive: drop them
                # so reading those frames later touches no freed page.
                outputs.answers = outputs.truth = outputs.released = None

    @staticmethod
    def _deposit_part(outputs: ShardOutputs, part):
        """Copy a framed worker's shard-sized outputs into the run's.

        The framed transport's counterpart of the shm workers' direct
        writes — idempotent by absolute window slice, so a requeued
        shard rerun deposits the same bytes.
        """
        receipt, shard_outputs = part
        window = slice(receipt.shard.start, receipt.shard.stop)
        if outputs.released is not None:
            outputs.released[window] = shard_outputs.released
        if outputs.answers is not None:
            outputs.answers[:, window] = shard_outputs.answers
            outputs.truth[:, window] = shard_outputs.truth
        return receipt

    def _spawn(self, context, job: dict) -> _Worker:
        parent_connection, child_connection = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(child_connection, self.heartbeat_interval),
            daemon=True,
        )
        process.start()
        child_connection.close()
        worker = _Worker(
            process=process,
            connection=parent_connection,
            last_seen=time.monotonic(),
        )
        worker.send(_JOB, job)
        return worker

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Force one worker down (it may be frozen: SIGKILL, not TERM)."""
        try:
            worker.connection.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)

    def _shutdown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            try:
                worker.send(_SHUTDOWN)
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            self._reap(worker)

    def _dispatch(
        self, job: dict, messages: List[dict], outputs: ShardOutputs
    ) -> List:
        """Feed the fleet until every task has a receipt.

        The requeue invariant: a task leaves ``pending`` only while
        exactly one live worker carries it, and returns to the front of
        ``pending`` the moment that worker is declared dead (pipe
        EOF/error, process exit, or stale heartbeat) — so a killed
        worker never loses a shard, and a late duplicate result is
        ignored by task id.
        """
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        fleet_size = max(1, min(self.n_workers, len(messages)))
        completed: Dict[int, object] = {}
        pending = deque(messages)
        restarts = 0
        self._restarts_counter = Counter("cluster_restarts")
        self._merged_metrics = set()
        registry = default_registry()
        obs_requeues = registry.counter(
            "repro_cluster_requeues_total",
            "Shards requeued after their worker was declared dead.",
        )
        obs_restarts = registry.counter(
            "repro_cluster_worker_restarts_total",
            "Cluster workers reaped and respawned.",
        )
        obs_misses = registry.counter(
            "repro_cluster_heartbeat_misses_total",
            "Workers declared dead on heartbeat staleness alone.",
        )
        obs_frame_bytes = registry.counter(
            "repro_cluster_task_frame_bytes_total",
            "Bytes of task frames sent to cluster workers.",
        )
        workers = [self._spawn(context, job) for _ in range(fleet_size)]
        try:
            while len(completed) < len(messages):
                ready = _wait_connections(
                    [worker.connection for worker in workers],
                    timeout=self.heartbeat_interval,
                )
                now = time.monotonic()
                for worker in workers:
                    if worker.connection not in ready:
                        continue
                    try:
                        while worker.connection.poll():
                            kind, payload = _recv_frame(worker.connection)
                            self._handle_frame(
                                worker, kind, payload, completed, outputs
                            )
                        worker.last_seen = now
                    except (EOFError, OSError, ProtocolError):
                        worker.dead = True
                # Liveness sweep: drop dead/stale workers, requeue
                # their in-flight shard, spawn replacements.
                for worker in list(workers):
                    stale = now - worker.last_seen > self.worker_timeout
                    if not (
                        worker.dead or stale or not worker.process.is_alive()
                    ):
                        continue
                    workers.remove(worker)
                    self._reap(worker)
                    if stale:
                        obs_misses.inc()
                    if (
                        worker.task is not None
                        and worker.task["task"] not in completed
                    ):
                        pending.appendleft(worker.task)
                        obs_requeues.inc()
                    restarts += 1
                    self._restarts_counter.inc()
                    obs_restarts.inc()
                    if restarts > self.max_restarts:
                        raise RuntimeError(
                            f"cluster fleet lost {restarts} workers "
                            f"(max_restarts={self.max_restarts}); "
                            "giving up"
                        )
                    if len(completed) < len(messages):
                        workers.append(self._spawn(context, job))
                # Dispatch: one in-flight task per ready worker.
                for worker in workers:
                    if not pending:
                        break
                    if worker.ready and worker.task is None:
                        message = pending.popleft()
                        frame = _pack_frame(_TASK, message)
                        try:
                            worker.connection.send_bytes(frame)
                            obs_frame_bytes.inc(len(frame))
                            worker.task = message
                            worker.task_sent = time.perf_counter()
                        except OSError:
                            pending.appendleft(message)
                            worker.dead = True
            return [completed[index] for index in sorted(completed)]
        finally:
            self._shutdown(workers)

    def _handle_frame(
        self, worker: _Worker, kind: int, payload, completed, outputs
    ) -> None:
        if kind == _HELLO:
            worker.ready = True
            return
        if kind == _HEARTBEAT:
            return
        if kind == _RESULT:
            task_id = payload["task"]
            had_task = worker.task is not None
            worker.task = None
            if task_id in completed:
                return  # late duplicate after a requeue race
            recorder = current_recorder()
            if recorder is not None and had_task:
                recorder.record_span(
                    "cluster.shard",
                    worker.task_sent,
                    time.perf_counter(),
                    task=task_id,
                )
            default_registry().counter(
                "repro_cluster_tasks_total",
                "Shard tasks completed by cluster worker fleets.",
            ).inc()
            result = payload["result"]
            if self.transport == "framed":
                result = self._deposit_part(outputs, result)
            completed[task_id] = result
            return
        if kind == _METRICS:
            task_id = payload["task"]
            if task_id not in self._merged_metrics:
                self._merged_metrics.add(task_id)
                registry = default_registry()
                registry.merge_snapshot(payload["metrics"])
                registry.histogram(
                    "repro_cluster_task_seconds",
                    "Per-task worker wall time (worker-side clock).",
                ).observe(payload["seconds"])
            return
        if kind == _ERROR:
            raise RuntimeError(
                f"cluster worker failed on shard {payload['shard']}:\n"
                f"{payload['traceback']}"
            )
        raise ProtocolError(f"unexpected frame kind {kind} from worker")
