"""Asynchronous (push-based, backpressured) service sessions.

:class:`~repro.cep.online.OnlineSession` answers queries window by
window but couples the producer and the consumer: each ``push`` blocks
the caller for the full perturb-and-match step.  Real ingestion is a
*pipeline* — events arrive from sockets or brokers while the mechanism
steps — so :class:`AsyncSession` decouples the two with an asyncio
queue:

- producers ``await submit(window_types)`` and receive an
  :class:`asyncio.Future` resolving to that window's private answers;
  the service layer's pump submits whole row blocks instead, one
  future per block resolving to per-query answer vectors;
- a single drainer task steps everything queued (at most
  ``max_pending`` windows) as one batch through the release core the
  synchronous session uses (:class:`~repro.cep.online._ReleaseCore`),
  so answers and checkpoints are identical to one-by-one pushes under
  the same seed;
- the queue is bounded in windows (``max_pending``): when the stepper
  falls behind, ``submit`` suspends — backpressure propagates to the
  producer instead of buffering unboundedly;
- closing the session (``aclose`` or leaving the ``async with`` block)
  flushes every queued window before the drainer exits, so no accepted
  window is ever dropped;
- a session outlives its event loop: each ``asyncio.run`` cancels the
  drainer at teardown, and when that happened while the session was
  quiescent (every submitted window processed) the next submit or
  ``async with`` on a later loop starts a fresh drainer — the same
  session, rng position and budget charge carry on, so sliced serving
  across ``asyncio.run`` calls is one session charged once.  Closing
  such a session has nothing left to flush.  A drainer that died any
  other way (a stepping error, a cancellation with windows in flight)
  is never restarted: the session reports it as failed.

Mechanisms that only support batch perturbation — and the user-level
baseline, whose budget split needs the stream horizon — are rejected
with ``TypeError`` at session construction, exactly like the
synchronous session.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cep.engine import CEPEngine
from repro.cep.online import _ReleaseCore
from repro.obs.metrics import default_registry
from repro.obs.tracing import trace_span
from repro.utils.rng import RngLike

#: Queue sentinel signalling the drainer to flush and exit.
_CLOSE = object()


class AsyncSession:
    """An asyncio ingestion loop over the sessions' shared release core.

    Parameters
    ----------
    engine:
        The configured :class:`~repro.cep.engine.CEPEngine` (queries
        registered, mechanism attached).  The engine's accountant is
        charged once, at construction, like every other session/release.
    rng:
        Session seed; the same seed over the same windows reproduces
        the batch and online answers exactly (flip mechanisms).
    max_pending:
        Bound on queued-but-unprocessed windows (counted in windows,
        whatever the block sizes); ``submit`` suspends when full
        (backpressure).  It is also the largest block one submit may
        hold (:attr:`block_rows`) and so the largest batch the drainer
        steps.  Answers do not depend on block or batch boundaries.
    """

    def __init__(
        self,
        engine: CEPEngine,
        *,
        rng: RngLike = None,
        max_pending: int = 1024,
    ):
        if max_pending <= 0:
            raise ValueError(
                f"max_pending must be positive, got {max_pending}"
            )
        self._init(_ReleaseCore(engine, rng), max_pending)

    @classmethod
    def _continuing(
        cls, core: _ReleaseCore, max_pending: int
    ) -> "AsyncSession":
        """A session carrying on ``core``'s release (no second
        charge): how ``StreamService.pump`` serves a sync session, and
        how ``StreamService.resume`` opens a restored core."""
        session = cls.__new__(cls)
        session._init(core, max_pending)
        return session

    def _init(self, core: _ReleaseCore, max_pending: int) -> None:
        self._core = core
        self._max_pending = max_pending
        #: Optional block egress hook, called in the drainer once per
        #: drained batch as ``on_release(start, rows, released,
        #: answers)``: the batch's first window index, its original and
        #: released ``(k, width)`` rows and per-query answer vectors
        #: (shared with the batch's futures, so read-only), in
        #: submission order — the service layer's pump attaches sink
        #: connectors here so sanitized rows stream out as they are
        #: released, and answers truth from the original rows only when
        #: its sink wants it.  It runs before the batch's futures
        #: resolve; an exception fails those futures and the drainer
        #: like any stepping error (no accepted window hangs).
        self._on_release = None
        #: Accepted blocks awaiting the drainer, in submission order:
        #: ``(rows, future, submitted_at, per_window)`` entries, then
        #: the close sentinel.  ``_backlog`` counts their windows.
        self._entries: deque = deque()
        self._backlog = 0
        #: Producers suspended until the backlog has room, and the
        #: drainer suspended until an entry arrives.
        self._space_waiters: deque = deque()
        self._entry_waiter: Optional[asyncio.Future] = None
        self._drainer: Optional[asyncio.Task] = None
        self._closed = False
        #: Windows accepted but not yet released.  Counted on its own,
        #: not against the core's window count, so a core carried on
        #: from a synchronous session may be stepped through both.
        self._queued = 0
        # End-to-end latency instrumentation: every entry carries its
        # submit time and the drainer observes submit→release once per
        # entry, weighted by its windows.  Bound to the default
        # registry at construction so gateways can scope sessions to
        # their own registry via use_registry().
        registry = default_registry()
        self._obs_latency = registry.histogram(
            "repro_window_latency_seconds",
            "End-to-end window latency: submit to released answers.",
        )
        self._obs_windows = registry.counter(
            "repro_session_windows_total",
            "Windows processed by async session drainers.",
        )
        #: Producers currently suspended waiting for room — aclose
        #: must let them land before the close sentinel goes in, or
        #: their windows would slip in behind it and never be drained.
        self._inflight = 0

    # -- lifecycle -----------------------------------------------------

    async def __aenter__(self) -> "AsyncSession":
        self._ensure_started()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")
        if self._drainer is None or self._drainer_idle_cancelled():
            self._drainer = asyncio.create_task(self._drain())
        elif self._drainer.done():
            # Otherwise a drainer only exits early on failure (normal
            # exit happens through aclose, which flips _closed first).
            raise RuntimeError(
                "session drainer failed; close the session to retrieve "
                "the error"
            )

    def _drainer_idle_cancelled(self) -> bool:
        """Whether the drainer was cancelled with nothing in flight —
        what an earlier event loop's teardown does between slices."""
        return self._drainer.cancelled() and self._queued == 0

    async def aclose(self) -> None:
        """Flush every queued window, then stop the drainer.

        Re-raises the drainer's error if stepping failed mid-stream
        (every pending future is failed with that error first).  A
        drainer an earlier event loop cancelled while the session was
        quiescent has nothing to flush: the session just closes.
        """
        if self._closed:
            return
        self._closed = True
        if self._drainer is None or self._drainer_idle_cancelled():
            return
        # Let producers already waiting for room land first — the
        # sentinel must be the *last* entry, or windows behind it would
        # never be drained.  The drainer keeps consuming while we wait;
        # a dead drainer frees no room, so stop waiting.
        while self._inflight > 0 and not self._drainer.done():
            await asyncio.sleep(0)
        if not self._drainer.done():
            # The sentinel holds no window, so it never waits for room.
            self._entries.append(_CLOSE)
            self._wake_drainer()
        try:
            await self._drainer
        except BaseException as error:
            # Fail any submissions that raced past the drainer's own
            # cleanup before re-raising; failing them also frees room,
            # waking producers still waiting to land.
            while True:
                self._fail_entries(error)
                if self._inflight == 0 and not self._entries:
                    break
                await asyncio.sleep(0)
            raise

    def _fail_entries(self, error: BaseException) -> None:
        """Fail every queued entry's future with ``error``."""
        while self._entries:
            entry = self._entries.popleft()
            if entry is not _CLOSE:
                self._backlog -= len(entry[0])
                if not entry[1].done():
                    entry[1].set_exception(error)
        self._wake_producers()

    def _wake_drainer(self) -> None:
        waiter = self._entry_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _wake_producers(self) -> None:
        waiters = self._space_waiters
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> Dict:
        """A picklable checkpoint of the session's release state.

        Only meaningful while the session is quiescent — every
        submitted window fully processed — because windows sitting in
        the queue are not part of the stepper state yet; a snapshot
        taken mid-drain would silently drop them on restore.  Raises
        ``RuntimeError`` when windows are still in flight.
        """
        if self._queued:
            raise RuntimeError(
                f"cannot snapshot with {self._queued} windows still queued; "
                "await their answers first"
            )
        return self._core.snapshot()

    def restore(self, snapshot: Dict) -> None:
        """Resume from a checkpoint produced by :meth:`snapshot`.

        The session must be freshly configured like the snapshotted one
        (same engine configuration and seed) and must not have
        processed any windows yet.
        """
        if self._queued:
            raise RuntimeError(
                "cannot restore while windows are still queued"
            )
        self._core.restore(snapshot)

    # -- ingestion -----------------------------------------------------

    @property
    def windows_submitted(self) -> int:
        return self._core.windows + self._queued

    @property
    def windows_processed(self) -> int:
        return self._core.windows

    @property
    def backlog(self) -> int:
        """Queued-but-unprocessed windows (bounded by ``max_pending``)."""
        return self._backlog

    @property
    def block_rows(self) -> int:
        """Most windows one submitted block may hold: ``max_pending``,
        so a block always fits the queue."""
        return self._max_pending

    async def submit(
        self, window_types: Iterable[str]
    ) -> "asyncio.Future[Dict[str, bool]]":
        """Enqueue one closed window; resolve to its private answers.

        Suspends while the queue is full — backpressure — and returns a
        future so producers may pipeline many windows before awaiting
        any answer.
        """
        return await self._enqueue(
            self._core.pipeline.extractor.extract_matrix([window_types]),
            True,
        )

    async def _submit_row(
        self, rows: np.ndarray
    ) -> "asyncio.Future[Dict[str, np.ndarray]]":
        """Enqueue a block of already-extracted indicator rows.

        ``rows`` is a ``(k, width)`` matrix with ``1 <= k <=``
        :attr:`block_rows`.  The returned future resolves to per-query
        boolean answer vectors of length ``k``, one entry per row in
        order.  Suspends while the block does not fit the queue.
        """
        return await self._enqueue(rows, False)

    async def _enqueue(
        self, rows: np.ndarray, per_window: bool
    ) -> asyncio.Future:
        self._ensure_started()
        windows = len(rows)
        if not 1 <= windows <= self.block_rows:
            raise ValueError(
                f"a block holds 1..{self.block_rows} windows "
                f"(max_pending={self._max_pending}), got {windows}"
            )
        loop = asyncio.get_running_loop()
        if self._backlog + windows > self._max_pending:
            self._inflight += 1
            try:
                while self._backlog + windows > self._max_pending:
                    waiter = loop.create_future()
                    self._space_waiters.append(waiter)
                    await waiter
            finally:
                self._inflight -= 1
        future = loop.create_future()
        self._entries.append((rows, future, time.monotonic(), per_window))
        self._backlog += windows
        self._queued += windows
        self._wake_drainer()
        return future

    async def process(
        self, window_types: Iterable[str]
    ) -> Dict[str, bool]:
        """Submit one window and await its answers (no pipelining)."""
        future = await self.submit(window_types)
        return await future

    async def run(
        self, type_sets: Iterable[Iterable[str]]
    ) -> Dict[str, List[bool]]:
        """Feed every window of an iterable source, collect all answers.

        Ingestion and stepping overlap (bounded by ``max_pending``);
        the per-query answer lists are in submission order.
        """
        futures = [await self.submit(window) for window in type_sets]
        answers = {
            name: [] for name in self._core.pipeline.matcher.query_names
        }
        for future in futures:
            for name, value in (await future).items():
                answers[name].append(value)
        return answers

    # -- the drainer ---------------------------------------------------

    async def _drain(self) -> None:
        entries = self._entries
        core = self._core
        loop = asyncio.get_running_loop()
        batch: List[Tuple] = []
        try:
            while True:
                while not entries:
                    self._entry_waiter = loop.create_future()
                    await self._entry_waiter
                    self._entry_waiter = None
                if entries[0] is _CLOSE:
                    return
                # Step everything queued before the close sentinel as
                # one batch: the backlog bound keeps it within
                # max_pending windows.
                windows = 0
                while entries and entries[0] is not _CLOSE:
                    batch.append(entries.popleft())
                    windows += len(batch[-1][0])
                self._backlog -= windows
                self._wake_producers()
                if len(batch) == 1:
                    matrix = batch[0][0]
                else:
                    matrix = np.concatenate([entry[0] for entry in batch])
                with trace_span("session.drain", windows=windows):
                    released, answers = core.release(matrix)
                for vector in answers.values():
                    # Futures resolve to slices of these vectors and the
                    # release hook sees them whole: no consumer may
                    # change the answers another one reads.
                    vector.flags.writeable = False
                # Egress before any future resolves: a failing egress
                # fails this batch's futures too, so no producer holds
                # answers for windows its sink never received.
                if self._on_release is not None:
                    self._on_release(core.windows, matrix, released, answers)
                released_at = time.monotonic()
                self._obs_windows.inc(windows)
                position = 0
                for rows, future, submitted_at, per_window in batch:
                    count = len(rows)
                    self._obs_latency.observe(
                        released_at - submitted_at, count
                    )
                    if not future.done():
                        if per_window:
                            result = {
                                name: bool(vector[position])
                                for name, vector in answers.items()
                            }
                        else:
                            end = position + count
                            result = {
                                name: vector[position:end]
                                for name, vector in answers.items()
                            }
                        future.set_result(result)
                    position += count
                core.windows += windows
                self._queued -= windows
                batch = []
                # Yield to producers between batches so backpressured
                # submitters get room before the next drain.
                await asyncio.sleep(0)
        except BaseException as error:
            # Stepping failed: no accepted window may hang forever.
            # Fail the in-flight batch and everything still queued, then
            # surface the error through aclose()/the drainer task.
            for entry in batch:
                if not entry[1].done():
                    entry[1].set_exception(error)
            self._fail_entries(error)
            raise
