"""The compiled service: one coherent lifecycle over the runtime.

:class:`StreamService` compiles a :class:`~repro.service.spec.ServiceSpec`
into the existing runtime — the engine, pipeline, executors and
sessions from PRs 1–3 — and exposes the full lifecycle behind one
surface:

- :meth:`run` / :meth:`run_indicators` — the batch service phase under
  the spec's executor;
- :meth:`open_session` / :meth:`open_async_session` — push-based
  ingestion, resumable through :meth:`checkpoint` /
  :meth:`StreamService.resume` (the PR-3 ``snapshot()``/``restore()``
  protocol);
- :meth:`pump` — continuous ingestion from a declarative *source
  connector* into a declarative *sink connector* (:mod:`repro.io`),
  with the async session's bounded queue (``max_pending``, the one
  serving setting) as the backpressure boundary; checkpoints
  additionally capture the in-flight source offset;
- :meth:`sweep` — the (mechanism × ε) evaluation grid, bridging into
  :class:`~repro.experiments.runner.WorkloadEvaluation`.

Everything is driven by the spec's seed, so a service rebuilt from the
same JSON blob reproduces its runs bit for bit.  The service alone
decides whether a sink continues: its active sink, passed again or
omitted, appends, as does a resumed service's first sink; any other
sink starts fresh.
"""

from __future__ import annotations

import asyncio
import time

from collections import deque
from typing import Dict, List, Mapping, Optional, Union

from repro.cep.engine import CEPEngine, EngineReport
from repro.obs.metrics import default_registry
from repro.obs.tracing import current_recorder
from repro.service.registry import (
    MechanismContext,
    build_executor_from_spec,
    build_mechanism_from_spec,
)
from repro.service.spec import ServiceSpec
from repro.streams.indicator import IndicatorStream
from repro.streams.stream import EventStream
from repro.utils.rng import RngLike

__all__ = ["StreamService"]


class StreamService:
    """A private stream service stood up from one declarative spec.

    Construction compiles the spec: the alphabet, patterns, queries,
    quality requirement and accounting budget configure a
    :class:`~repro.cep.engine.CEPEngine`; the mechanism and executor
    spec strings resolve through the plugin registries.  ``history``
    supplies historical windows for data-driven mechanisms (the
    adaptive PPM's Algorithm 1 fit).
    """

    def __init__(
        self,
        spec: Union[ServiceSpec, Mapping, str],
        *,
        history: Optional[IndicatorStream] = None,
    ):
        if isinstance(spec, str):
            spec = ServiceSpec.from_json(spec)
        elif isinstance(spec, Mapping):
            spec = ServiceSpec.from_dict(spec)
        if not isinstance(spec, ServiceSpec):
            raise TypeError(
                "StreamService takes a ServiceSpec (or its dict/JSON "
                f"form), got {type(spec).__name__}"
            )
        self._spec = spec
        self._history = history
        self._session = None
        self._session_kind: Optional[str] = None
        self._session_options: Dict = {}
        self._source = None
        self._sink = None
        #: Set by resume(): the pre-crash run already egressed output,
        #: so the first sink this service opens appends to it.
        self._sink_append = False
        mechanism = None
        if spec.mechanism is not None:
            mechanism = build_mechanism_from_spec(
                spec.mechanism,
                self._mechanism_context(),
                **spec.mechanism_options,
            )
        self._engine = CEPEngine(
            spec.event_alphabet(),
            patterns=spec.pattern_objects(),
            queries=spec.query_objects(),
            quality=spec.quality.to_requirement(),
            mechanism=mechanism,
            accounting=spec.accounting,
        )
        self._executor = build_executor_from_spec(
            spec.executor, **spec.executor_options
        )

    def _mechanism_context(self) -> MechanismContext:
        spec = self._spec
        extras = {}
        if self._history is not None:
            # Deliberately NOT exported as "n_windows": that extra is the
            # *evaluation* horizon (the user-level budget split), and the
            # history length is unrelated to it — user-rr specs must name
            # their horizon explicitly (n_windows= in the options).
            extras["history"] = self._history
        return MechanismContext(
            alphabet=spec.event_alphabet(),
            private_patterns=spec.pattern_objects(),
            target_patterns=tuple(
                query.pattern for query in spec.query_objects()
            ),
            alpha=spec.quality.alpha,
            extras=extras,
        )

    # -- introspection -------------------------------------------------

    @property
    def spec(self) -> ServiceSpec:
        """The declarative spec this service was compiled from."""
        return self._spec

    @property
    def engine(self) -> CEPEngine:
        """The compiled engine (the spec's runtime artifact)."""
        return self._engine

    @property
    def mechanism(self):
        """The instantiated privacy mechanism (``None`` unprotected)."""
        return self._engine.mechanism

    @property
    def executor(self):
        """The instantiated runtime executor."""
        return self._executor

    @property
    def accountant(self):
        """The budget ledger (``None`` without ``accounting=``)."""
        return self._engine.accountant

    @property
    def session(self):
        """The most recently opened (or resumed) session, if any."""
        return self._session

    def _seeded(self, rng: RngLike) -> RngLike:
        return self._spec.seed if rng is None else rng

    # -- connector compilation -----------------------------------------

    @property
    def last_source(self):
        """The active *streaming* source (pump/resume), if any.

        Batch :meth:`run` passes are independent and never appear
        here; this is the source whose offset :meth:`checkpoint`
        records.
        """
        return self._source

    @property
    def last_sink(self):
        """The most recently compiled sink connector, if any.

        After a :meth:`run`/:meth:`pump` with a ``sink=`` (spec field
        or argument), ``service.last_sink.result()`` holds whatever
        the sink accumulated (the memory sink's collected stream, the
        metrics sink's quality aggregate, ...).
        """
        return self._sink

    def _compile_source(
        self, source, *, reuse: bool = False, track: bool = True
    ):
        """Resolve a source argument/spec into a bound StreamSource.

        ``reuse=True`` continues the service's active source when no
        argument is given (a resumed/partially pumped stream picks up
        exactly where it left off instead of starting over).
        ``track=False`` keeps the compiled source off
        :attr:`last_source` — batch runs are independent full passes,
        and must not masquerade as the session's streaming position
        when a checkpoint records its source offset.
        """
        from repro.io.registry import resolve_source
        from repro.io.sources import MemorySource, StreamSource

        spec = self._spec
        if source is None:
            if reuse and self._source is not None:
                return self._source
            if spec.source is None:
                raise ValueError(
                    "no data to serve: pass a stream/source here or "
                    "declare source= on the spec (e.g. 'csv:<path>')"
                )
            source = resolve_source(spec.source, **spec.source_options)
        elif isinstance(source, str):
            source = resolve_source(source)
        elif not isinstance(source, StreamSource):
            source = MemorySource(source)
        source = source.bind(self._engine.alphabet)
        if track:
            self._source = source
        return source

    def _continue_sink(self, sink):
        """Resolve a sink argument/spec and open it (``None`` passes).

        The one continuation rule: the active sink — passed again or
        omitted — appends, as does a resumed service's first sink (the
        pre-crash run already egressed into it); any other sink starts
        fresh.
        """
        from repro.io.registry import resolve_sink
        from repro.io.sinks import StreamSink

        if self._sink is None:
            append = self._sink_append
        else:
            sink = self._sink if sink is None else sink
            append = sink is self._sink
        spec = self._spec
        if sink is None:
            if spec.sink is None:
                return None
            sink = resolve_sink(spec.sink, **spec.sink_options)
        elif isinstance(sink, str):
            sink = resolve_sink(sink)
        elif not isinstance(sink, StreamSink):
            raise TypeError(
                "sink must be a registered sink spec string or a "
                f"StreamSink, got {type(sink).__name__}"
            )
        sink.open(
            alphabet=self._engine.alphabet,
            query_names=tuple(query.name for query in self._spec.queries),
            append=append,
        )
        self._sink = sink
        return sink

    def _egress_report(self, report: EngineReport, sink) -> None:
        """Write a batch report through a sink as one block."""
        names = list(report.answers)
        answers = {name: report.answers[name].detections for name in names}
        truth = None
        if sink.wants_truth:
            truth = {
                name: report.true_answers[name].detections for name in names
            }
        try:
            sink.write_block(0, report.perturbed.matrix_view(), answers, truth)
        finally:
            sink.close()

    # -- batch service phase -------------------------------------------

    def run(
        self,
        source=None,
        *,
        rng: RngLike = None,
        window=None,
        sink=None,
    ) -> EngineReport:
        """The full service phase over ``source``.

        ``source`` may be raw events (an
        :class:`~repro.streams.stream.EventStream`, windowed by the
        spec's ``window`` grammar or an explicit ``window=`` assigner),
        an :class:`~repro.streams.indicator.IndicatorStream`, per-window
        event-type collections, a :class:`~repro.io.StreamSource`, or a
        registered source spec string; omitted, the spec's own
        ``source=`` connector supplies the windows.  Runs under the
        spec's executor and seed (``rng=`` overrides the seed for one
        run) and answers every declared query; accounting is charged
        when enabled.  The released stream and answers are additionally
        egressed through ``sink`` (or the spec's ``sink=``) when one is
        declared; the opened connector stays on :attr:`last_sink`, and
        passing it again (or omitting ``sink``) appends to it.
        """
        from repro.io.sources import StreamSource

        if isinstance(source, EventStream):
            assigner = (
                window if window is not None else self._spec.window_assigner()
            )
            if assigner is None:
                raise ValueError(
                    "running from raw events needs a window: declare "
                    "window= on the spec (e.g. 'tumbling:10') or pass "
                    "window= here"
                )
            report = self._engine.process_events(
                source,
                assigner,
                rng=self._seeded(rng),
                executor=self._executor,
            )
            return self._after_run(report, sink)
        if source is None or isinstance(source, (str, StreamSource)):
            # A batch run is an independent full pass over the data; it
            # does not advance (or pose as) the session's streaming
            # position — only pump() moves the checkpointed offset.
            source = self._compile_source(
                source, track=False
            ).indicator_stream()
        elif not isinstance(source, IndicatorStream):
            source = self._engine.service_pipeline().indicators_from(source)
        return self._after_run(self.run_indicators(source, rng=rng), sink)

    def _after_run(self, report: EngineReport, sink) -> EngineReport:
        compiled = self._continue_sink(sink)
        if compiled is not None:
            self._egress_report(report, compiled)
        return report

    def run_indicators(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> EngineReport:
        """The service phase over an already-extracted indicator stream."""
        return self._engine.process_indicators(
            stream, rng=self._seeded(rng), executor=self._executor
        )

    # -- push-based sessions -------------------------------------------

    def open_session(self, *, rng: RngLike = None):
        """Open a synchronous push-based session (window in, answers out).

        Uses the spec seed unless overridden; the session is retained on
        :attr:`session` and is what :meth:`checkpoint` snapshots.
        """
        from repro.cep.online import OnlineSession

        return self._hold_online(
            OnlineSession(self._engine, rng=self._seeded(rng))
        )

    def _hold_online(self, session):
        """Retain ``session`` as the open synchronous session."""
        self._session = session
        self._session_kind = "online"
        return session

    def open_async_session(
        self,
        *,
        rng: RngLike = None,
        max_pending: int = 1024,
    ):
        """Open a backpressured asyncio ingestion session."""
        from repro.cep.async_session import AsyncSession

        return self._hold_async(
            AsyncSession(
                self._engine, rng=self._seeded(rng), max_pending=max_pending
            )
        )

    def _hold_async(self, session):
        """Retain ``session`` as the open async session."""
        self._session = session
        self._session_kind = "async"
        # Remembered so checkpoints can rebuild an equivalent session
        # (a resumed async session keeps its queue bound).
        self._session_options = {"max_pending": session.block_rows}
        return session

    # -- continuous ingestion (source → session → sink) ----------------

    async def pump(
        self,
        source=None,
        *,
        sink=None,
        max_pending: int = 1024,
        max_windows: Optional[int] = None,
    ) -> Dict[str, List[bool]]:
        """Drive a source connector through an async session into a sink.

        The end-to-end streaming pipeline: windows are drawn from
        ``source`` (a :class:`~repro.io.StreamSource`, a registered
        spec string, in-memory data, or — omitted — the spec's own
        ``source=``), submitted to a backpressured
        :class:`~repro.cep.async_session.AsyncSession` (reusing the
        open/restored one when present, continuing an open synchronous
        session's release — no second budget charge, no restart at
        window 0 — else opening a fresh one with ``max_pending`` under
        the spec seed), and every answered window
        is egressed through ``sink`` (or the spec's ``sink=``) in
        submission order.  All of it runs on row blocks
        (:meth:`~repro.io.StreamSource.ablocks`, one session future
        per block and one sink ``write_block`` per drained batch): a
        block holds whatever the source has ready without waiting, up
        to ``max_pending`` windows — a file or in-memory source fills
        whole ``max_pending`` blocks, a paced, throttled or trickling
        live feed hands over only what has arrived — and the drainer
        steps everything queued (at most ``max_pending`` windows) as
        one batch.  Offsets and checkpoints stay row-exact.  The
        session's bounded queue is the flow-control boundary: when the
        mechanism falls behind, ``submit`` suspends the pump, which
        stops drawing from the source — a ``queue:`` source then stops
        taking from its live queue and the producer blocks on its own
        ``put``.  A sink that fails fails the pump with its error, and
        no window of the failed batch is returned as answered.

        ``max_windows`` stops after that many windows, leaving the
        source mid-stream (the gateway serves in slices this way; a
        slice may run under its own ``asyncio.run``, and the next one
        continues the same session, whose drainer restarts on the new
        loop).  A slice draws no block larger than itself, so a ready
        source reads only the slice's rows; ``max_windows=0`` draws
        none.  The sink continues as in :meth:`run`: the active sink,
        passed again or omitted, appends the slice's output.  Returns
        the per-query answer lists in submission order.
        """
        source = self._compile_source(source, reuse=True)
        compiled_sink = self._continue_sink(sink)
        session = self._session
        if self._session_kind == "online":
            from repro.cep.async_session import AsyncSession

            # Serve on through the open synchronous session's release:
            # its stepper position, window count and one budget charge.
            session = self._hold_async(
                AsyncSession._continuing(session._core, max_pending)
            )
        elif session is None or session._closed:
            session = self.open_async_session(max_pending=max_pending)
        matcher = self._engine.service_pipeline().matcher
        if compiled_sink is not None:
            wants_truth = compiled_sink.wants_truth

            # Egress happens inside the drainer, one block write per
            # drained batch in submission order, on the *released*
            # rows — the sink never sees original data, only the truth
            # answered from it when it asks, and nothing is buffered
            # beyond the bounded queue.
            def egress(start, rows, released, batch_answers):
                truth = matcher.answer(rows) if wants_truth else None
                compiled_sink.write_block(
                    start, released, batch_answers, truth
                )

            session._on_release = egress
        pending: deque = deque()
        answers = {name: [] for name in matcher.query_names}

        async def settle() -> None:
            block_answers = await pending.popleft()
            for name, vector in block_answers.items():
                answers[name].extend(vector.tolist())

        pumped = 0
        pump_started = time.perf_counter()
        block_rows = session.block_rows
        if max_windows is not None:
            # A slice draws no block larger than itself, so a ready
            # source never hands over a row past the slice's end.
            block_rows = max(1, min(block_rows, max_windows))
        blocks = source.ablocks(block_rows)
        try:
            while max_windows is None or pumped < max_windows:
                block = await anext(blocks, None)
                if block is None:
                    break
                room = None if max_windows is None else max_windows - pumped
                if room is not None and len(block) > room:
                    # A later block of a trickling feed overshot the
                    # slice: hand its tail back, so the source (and a
                    # checkpoint's offset) stands exactly after the
                    # last submitted window.
                    source.unemit_block(block[room:])
                    block = block[:room]
                try:
                    future = await session._submit_row(block)
                except BaseException:
                    # Cancelled/failed inside submit: the drawn block
                    # was never accepted — push it back so neither a
                    # later pump on this source nor a checkpointed
                    # fresh one skips a window no run released.
                    source.unemit_block(block)
                    raise
                pending.append(future)
                while pending and (
                    pending[0].done() or len(pending) > session._max_pending
                ):
                    await settle()
                pumped += len(block)
            while pending:
                await settle()
        except BaseException:
            # Retrieve (or cancel) what the pump will never settle, so
            # the error surfaces once — here — and not again as
            # futures or a drainer whose exceptions nobody retrieved.
            for future in pending:
                if not future.cancel() and not future.cancelled():
                    future.exception()
            drainer = session._drainer
            if drainer and drainer.done() and not drainer.cancelled():
                drainer.exception()
            raise
        finally:
            # Close the generator *here*, not at garbage collection: a
            # max_windows break leaves it suspended mid-yield, and a
            # source with an overlapped fetch in flight (broker) must
            # settle it before checkpoint_mark() or a fresh generator
            # reuses the connection.
            try:
                await blocks.aclose()
            except Exception:
                pass
            # Windows the session already accepted will be released by
            # the drainer regardless; wait for quiescence so a
            # cancelled pump leaves the session checkpointable and
            # every released window egressed before the sink closes
            # (sink, session counters and offsets stay consistent).
            drainer = session._drainer
            while (
                session.windows_processed < session.windows_submitted
                and drainer is not None
                and not drainer.done()
            ):
                await asyncio.sleep(0)
            if compiled_sink is not None:
                session._on_release = None
                compiled_sink.close()
            # Timed manually (not via trace_span) so the cleanup above
            # stays inside the measured window and an exception in it
            # cannot leave a live span on the recorder's parent stack.
            recorder = current_recorder()
            if recorder is not None:
                recorder.record_span(
                    "service.pump",
                    pump_started,
                    time.perf_counter(),
                    windows=pumped,
                    source=type(source).__name__,
                )
            default_registry().counter(
                "repro_pump_windows_total",
                "Windows drawn from sources by StreamService.pump.",
            ).inc(pumped)
        return answers

    # -- checkpoint / resume -------------------------------------------

    def checkpoint(self) -> Dict:
        """A picklable checkpoint of the open session plus its spec.

        Captures the spec (as a dict) and the session's full release
        state — window counter, scheduler state, accounting trace and
        rng position (see the PR-3 ``snapshot()`` protocol).  Restoring
        it via :meth:`resume` continues mid-stream with exactly the
        randomness and budget state an uninterrupted run would have
        had.  Async sessions must be quiescent (all submitted windows
        answered).
        """
        if self._session is None:
            raise RuntimeError(
                "no open session to checkpoint; call open_session() or "
                "open_async_session() first"
            )
        checkpoint = {
            "format": 1,
            "kind": self._session_kind,
            "spec": self._spec.to_dict(),
            "session": self._session.snapshot(),
        }
        if self._session_kind == "async":
            checkpoint["session_options"] = dict(self._session_options)
        if self._source is not None:
            # At-least-once sources commit at exactly this boundary:
            # the broker source acks everything emitted so far, so an
            # entry is acked iff a checkpoint captures its window.  A
            # failed commit raises here and no checkpoint is produced.
            self._source.checkpoint_mark()
            # The in-flight ingestion position: a resumed service skips
            # a fresh source here and continues with exactly the
            # windows an uninterrupted run would have seen next.
            checkpoint["source_offset"] = self._source.offset
        # Whether output was already egressed, here or before a resume
        # (a resumed service's first sink then appends instead of
        # truncating it).
        checkpoint["sink_opened"] = (
            self._sink is not None or self._sink_append
        )
        return checkpoint

    @classmethod
    def resume(
        cls,
        spec: Union[ServiceSpec, Mapping, str],
        checkpoint: Mapping,
        *,
        history: Optional[IndicatorStream] = None,
        source=None,
    ) -> "StreamService":
        """Rebuild a service and continue from a :meth:`checkpoint`.

        ``spec`` must equal the checkpointed spec (the checkpoint's
        release state is only meaningful under the same configuration
        and seed).  Returns the rebuilt service with the restored
        session available on :attr:`session`.

        When the checkpoint carries an in-flight source offset (taken
        mid-:meth:`pump`), the source — ``source=`` here, or the
        spec's own ``source=`` connector — is rebuilt and skipped to
        that offset, so the next :meth:`pump` continues with exactly
        the windows an uninterrupted run would have seen (live
        ``queue:`` feeds cannot seek; bind a fresh queue instead).
        """
        if isinstance(spec, str):
            spec = ServiceSpec.from_json(spec)
        elif isinstance(spec, Mapping):
            spec = ServiceSpec.from_dict(spec)
        recorded = checkpoint.get("spec")
        if (
            recorded is not None
            and recorded != spec.to_dict()
            # Only a dict that differs from this spec's own is parsed
            # (and validated anew): one that differs only in form, such
            # as tuples for lists, still describes the same spec.
            and ServiceSpec.from_dict(recorded) != spec
        ):
            raise ValueError(
                "checkpoint was taken under a different spec; resume "
                "with the spec recorded in the checkpoint"
            )
        from repro.cep.async_session import AsyncSession
        from repro.cep.online import OnlineSession, _ReleaseCore

        service = cls(spec, history=history)
        # The session opens at the snapshot: its generators adopt the
        # snapshotted states, none is derived only to be overwritten,
        # and the accountant is charged once, as on any open.
        core = _ReleaseCore(
            service._engine, service._seeded(None), checkpoint["session"]
        )
        if checkpoint.get("kind", "online") == "async":
            # Only the queue bound is a session option; older
            # checkpoints may carry retired ones, which are ignored.
            options = checkpoint.get("session_options") or {}
            service._hold_async(
                AsyncSession._continuing(
                    core, options.get("max_pending", 1024)
                )
            )
        else:
            service._hold_online(OnlineSession._continuing(core))
        offset = checkpoint.get("source_offset")
        if source is not None or (
            offset is not None and spec.source is not None
        ):
            compiled = service._compile_source(source)
            if offset:
                if compiled.seekable:
                    compiled.skip(int(offset))
                else:
                    # A live feed supplies the remainder itself, but the
                    # count must continue where the pre-crash run left
                    # off, or later checkpoints would under-report it.
                    compiled._offset = int(offset)
        service._sink_append = bool(checkpoint.get("sink_opened"))
        return service

    # -- evaluation ----------------------------------------------------

    def sweep(
        self,
        epsilon_grid,
        *,
        stream: IndicatorStream,
        mechanisms=("uniform-ppm", "bd", "ba", "landmark", "event-rr",
                    "user-rr"),
        history: Optional[IndicatorStream] = None,
        w: int = 10,
        n_trials: int = 5,
        conversion_mode: str = "worst_case",
        rng: RngLike = None,
        executor=None,
    ) -> List:
        """Evaluate mechanism specs over an ε grid on this service's
        patterns and queries.

        Bridges into the experiment harness: the spec's patterns and
        queries plus the given evaluation ``stream`` form a
        :class:`~repro.datasets.workload.Workload`, and every
        (mechanism, ε) cell is built through the mechanism registry and
        measured by
        :meth:`~repro.experiments.runner.WorkloadEvaluation.sweep`.
        ``history`` (or the service's build history) enables
        ``"adaptive-ppm"`` cells.  ``executor`` runs each cell's
        trials and is the sweep's one parallel layer: an executor
        object or a registered executor spec string (``"sharded:..."``
        or ``"cluster:..."`` run bit-identically to batch), defaulting
        to this service's executor.
        """
        from repro.datasets.workload import Workload
        from repro.experiments.runner import WorkloadEvaluation
        from repro.service.registry import validate_mechanism_spec

        history = history if history is not None else self._history
        if history is None:
            data_driven = [
                mechanism
                for mechanism in mechanisms
                if validate_mechanism_spec(mechanism) == "adaptive-ppm"
            ]
            if data_driven:
                raise ValueError(
                    f"sweeping {data_driven} needs historical windows "
                    "disjoint from the evaluation stream (fitting on "
                    "the stream under evaluation would leak); pass "
                    "history= here or at build time"
                )
        workload = Workload(
            name="service",
            stream=stream,
            # Non-adaptive cells never read the history; reusing the
            # evaluation stream keeps the workload constructible.
            history=history if history is not None else stream,
            private_patterns=list(self._spec.pattern_objects()),
            target_patterns=[
                query.pattern for query in self._spec.query_objects()
            ],
            w=w,
        )
        if isinstance(executor, str):
            executor = build_executor_from_spec(executor)
        elif executor is None:
            executor = self._executor
        return WorkloadEvaluation(workload).sweep(
            epsilon_grid=epsilon_grid,
            mechanisms=list(mechanisms),
            alpha=self._spec.quality.alpha,
            n_trials=n_trials,
            conversion_mode=conversion_mode,
            rng=self._seeded(rng),
            executor=executor,
        )
