"""Row blocks on the served path match the per-row reference exactly.

``StreamService.pump`` draws row blocks from its source — whatever
the source has ready, up to the session's ``max_pending`` — submits
one block per session future and egresses one sink write per drained
batch.  Block sizes must never show in the output: every test here
compares a block-served run against a per-row reference (an online
session stepped one window at a time, egressed through per-window
``write`` calls) for the answers, every sink kind's output, the
source offset and the checkpointed offset.
"""

import asyncio
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.io import (
    CallbackSink,
    CsvSink,
    CsvSource,
    JsonlSink,
    MemorySink,
    MemorySource,
    MetricsSink,
    QueueSource,
    StreamSink,
    StreamSource,
    SyntheticSource,
    write_indicator_csv,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import SpanRecorder, use_recorder
from repro.service import ServiceSpec, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)

N_WINDOWS = 120

MECHANISMS = {
    "uniform-ppm": {"epsilon": 1.0},
    "bd": {"epsilon": 1.0, "w": 10},
}


def make_spec(mechanism="uniform-ppm", **fields):
    return ServiceSpec(
        alphabet=ALPHABET.types,
        patterns=[("p", ("e1", "e2"))],
        queries=[("q1", ("e2", "e3")), ("q2", ("e4",))],
        mechanism=mechanism,
        mechanism_options=MECHANISMS[mechanism],
        seed=7,
        **fields,
    )


def make_matrix(n_windows=N_WINDOWS, seed=3):
    return np.random.default_rng(seed).random((n_windows, 5)) < 0.45


def make_source(kind, tmp_path, matrix=None):
    """A fresh source of ``kind`` and the matrix it emits."""
    if kind == "synthetic":
        source = SyntheticSource("bernoulli", N_WINDOWS, 5)
        reference = SyntheticSource("bernoulli", N_WINDOWS, 5)
        stream = reference.bind(ALPHABET).indicator_stream()
        return source, stream.matrix_view()
    matrix = make_matrix() if matrix is None else matrix
    if kind == "csv":
        path = str(tmp_path / "stream.csv")
        write_indicator_csv(IndicatorStream(ALPHABET, matrix), path)
        return CsvSource(path), matrix
    if kind == "memory":
        return MemorySource(matrix), matrix
    assert kind == "queue"
    return QueueSource(filled_queue(matrix)), matrix


def filled_queue(rows):
    queue = asyncio.Queue()
    for row in rows:
        queue.put_nowait(row)
    queue.put_nowait(None)
    return queue


class Tee(StreamSink):
    """Fans every write out to several sinks; asks for the truth."""

    wants_truth = True

    def __init__(self, sinks):
        super().__init__()
        self.sinks = sinks

    def _open(self, *, append):
        for sink in self.sinks:
            sink.open(
                alphabet=self.alphabet,
                query_names=self.query_names,
                append=append,
            )

    def write_block(self, start, rows, answers, truth=None):
        for sink in self.sinks:
            sink.write_block(start, rows, answers, truth)

    def _write(self, index, row, answers, truth):
        for sink in self.sinks:
            sink.write(index, row, answers, truth)

    def close(self):
        for sink in self.sinks:
            sink.close()


def every_sink(directory):
    """One sink of each kind, teed; and a reader of their outputs."""
    directory.mkdir()
    calls = []
    sinks = [
        MemorySink(),
        CsvSink(str(directory / "released.csv")),
        JsonlSink(str(directory / "released.jsonl")),
        MetricsSink(),
        CallbackSink(
            lambda index, row, answers: calls.append(
                (index, row.tolist(), dict(answers))
            )
        ),
    ]

    def outputs():
        memory, csv_sink, jsonl_sink, metrics, _callback = sinks
        collected = memory.result()
        quality = metrics.result()
        return {
            "released": collected["released"].matrix_view().tolist(),
            "answers": collected["answers"],
            "csv": Path(csv_sink.path).read_text(),
            "jsonl": Path(jsonl_sink.path).read_text(),
            "confusion": quality["per_query"],
            "metrics_windows": quality["windows"],
            "callback": calls,
        }

    return Tee(sinks), outputs


def reference(spec, matrix, sink):
    """The per-row reference: one window at a time through an online
    session, egressed with one ``write`` per window."""
    service = spec.build()
    session = service.open_session()
    matcher = service.engine.service_pipeline().matcher
    sink.open(alphabet=ALPHABET, query_names=matcher.query_names)
    answers = {name: [] for name in matcher.query_names}
    for index, row in enumerate(matrix):
        window = row.reshape(1, -1)
        released, window_answers = session._core.release(window)
        verdicts = {
            name: bool(vector[0]) for name, vector in window_answers.items()
        }
        truth = {
            name: bool(vector[0])
            for name, vector in matcher.answer(window).items()
        }
        sink.write(index, released[0], verdicts, truth)
        for name, value in verdicts.items():
            answers[name].append(value)
    sink.close()
    return answers


def pump_in_slices(service, source, sink, max_pending, max_windows):
    """Serve everything, ``max_windows`` per pump (each on a new event
    loop); return the stitched answers and, after every slice, the
    windows served with the source's and the checkpoint's offsets."""
    answers = {}
    positions = []
    first = True
    while True:
        got = asyncio.run(
            service.pump(
                source if first else None,
                sink=sink if first else None,
                max_pending=max_pending,
                max_windows=max_windows,
            )
        )
        first = False
        for name, values in got.items():
            answers.setdefault(name, []).extend(values)
        positions.append(
            (
                service.session.windows_processed,
                service.last_source.offset,
                service.checkpoint()["source_offset"],
            )
        )
        served = len(next(iter(got.values())))
        if max_windows is None or served < max_windows:
            return answers, positions


#: Block bounds: single rows, small and mid blocks, the default, and
#: one block larger than the whole stream.
MAX_PENDING = [1, 7, 64, 1024, 4 * N_WINDOWS]


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
@pytest.mark.parametrize("max_windows", [None, 1, 13, 100])
@pytest.mark.parametrize("max_pending", MAX_PENDING)
@pytest.mark.parametrize("kind", ["csv", "memory", "synthetic", "queue"])
def test_blocks_match_the_per_row_reference(
    kind, max_pending, max_windows, mechanism, tmp_path
):
    spec = make_spec(mechanism)
    source, matrix = make_source(kind, tmp_path)
    sink, outputs = every_sink(tmp_path / "served")
    answers, positions = pump_in_slices(
        spec.build(), source, sink, max_pending, max_windows
    )

    reference_sink, reference_outputs = every_sink(tmp_path / "reference")
    assert answers == reference(spec, matrix, reference_sink)
    assert outputs() == reference_outputs()

    step = len(matrix) if max_windows is None else max_windows
    for index, (processed, offset, checkpointed) in enumerate(positions):
        expected = min((index + 1) * step, len(matrix))
        assert processed == offset == checkpointed == expected


class Flipper(MemorySink):
    """Tries to negate the answers it is handed, in place."""

    def write_block(self, start, rows, answers, truth=None):
        for vector in answers.values():
            vector[:] = ~vector
        super().write_block(start, rows, answers, truth)


def test_sink_cannot_change_the_pumped_answers():
    # The sink's answer vectors are the ones the pump's futures slice:
    # writing to them must fail loudly, never corrupt what pump returns.
    service = make_spec().build()
    with pytest.raises(ValueError, match="read-only"):
        asyncio.run(
            service.pump(
                MemorySource(make_matrix()), sink=Flipper(), max_pending=7
            )
        )


class FailsAtWindow(MemorySink):
    """Raises on the first write that reaches window ``end``."""

    def __init__(self, end):
        super().__init__()
        self.end = end

    def write_block(self, start, rows, answers, truth=None):
        if start + len(rows) >= self.end:
            raise OSError("sink is full")
        super().write_block(start, rows, answers, truth)


@pytest.mark.parametrize("max_pending", [7, N_WINDOWS, 1024])
def test_sink_error_on_the_final_block_fails_the_pump(max_pending):
    # Egress runs before the batch's futures resolve, so the pump
    # cannot return answers for windows its sink never received.
    service = make_spec().build()
    sink = FailsAtWindow(N_WINDOWS)
    with pytest.raises(OSError, match="sink is full"):
        asyncio.run(
            service.pump(
                MemorySource(make_matrix()),
                sink=sink,
                max_pending=max_pending,
            )
        )
    written = len(sink.result()["answers"]["q1"])
    assert written < N_WINDOWS
    assert written % max_pending == 0
    with pytest.raises(OSError, match="sink is full"):
        asyncio.run(service.session.aclose())


def test_failed_pump_retrieves_the_futures_it_abandons():
    # Ten one-row blocks are queued when the sink fails on the first:
    # the pump raises that error and retrieves the nine futures it
    # will never settle (the suite fails a test that leaves a failed
    # future to the garbage collector).
    matrix = make_matrix(10)

    async def go():
        service = make_spec().build()
        session = service.open_async_session()
        gate = asyncio.Event()
        drain = session._drain

        async def gated_drain():
            await gate.wait()
            await drain()

        session._drain = gated_drain
        queue = asyncio.Queue()

        async def produce():
            for row in matrix:
                queue.put_nowait(row)
                await asyncio.sleep(0)
            gate.set()
            queue.put_nowait(None)

        producer = asyncio.ensure_future(produce())
        try:
            await service.pump(QueueSource(queue), sink=FailsAtWindow(1))
        finally:
            await producer
            assert session.windows_submitted == len(matrix)

    with pytest.raises(OSError, match="sink is full"):
        asyncio.run(go())


@pytest.mark.parametrize("max_pending", [1, 7, 1024])
def test_memory_blocks_are_copies_of_the_callers_matrix(max_pending):
    # Unprotected, the released rows are the very blocks the source
    # handed over: changing the caller's matrix after the pump must
    # change none of them.
    spec = ServiceSpec(
        alphabet=ALPHABET.types,
        queries=[("q1", ("e2", "e3"))],
        seed=7,
    )
    matrix = make_matrix()
    expected = matrix.copy()
    service = spec.build()
    session = service.open_async_session(max_pending=max_pending)
    released = []
    session._on_release = lambda _start, _rows, rows, _answers: (
        released.append(rows)
    )
    asyncio.run(service.pump(MemorySource(matrix)))
    matrix[:] = ~matrix
    assert np.array_equal(np.concatenate(released), expected)


@pytest.mark.parametrize("kind", ["csv", "memory", "synthetic", "queue"])
def test_kill_and_resume_stitch_bit_identically(kind, tmp_path):
    out = tmp_path / "released.jsonl"
    source, matrix = make_source(kind, tmp_path)
    fields = {"sink": f"jsonl:{out}"}
    if kind in ("csv", "synthetic"):
        fields["source"] = (
            f"csv:{source.path}"
            if kind == "csv"
            else "synthetic:generator=bernoulli,windows=120,seed=5"
        )
        source = None
    spec = make_spec("bd", **fields)

    stitched = {}
    service = spec.build()
    served = 0
    while served < len(matrix):
        got = asyncio.run(
            service.pump(source, max_pending=7, max_windows=29)
        )
        for name, values in got.items():
            stitched.setdefault(name, []).extend(values)
        served += len(got["q1"])
        checkpoint = pickle.loads(pickle.dumps(service.checkpoint()))
        assert checkpoint["source_offset"] == served
        # Kill: the service is discarded; a fresh one resumes.
        remainder = None
        if kind == "memory":
            remainder = MemorySource(matrix)
        elif kind == "queue":
            remainder = QueueSource(filled_queue(matrix[served:]))
        service = StreamService.resume(spec, checkpoint, source=remainder)
        source = None

    expected_sink = JsonlSink(str(tmp_path / "reference.jsonl"))
    assert stitched == reference(spec, matrix, expected_sink)
    assert out.read_text() == Path(expected_sink.path).read_text()


def test_cancel_mid_submit_pushes_the_whole_block_back(tmp_path):
    spec = make_spec("bd")
    matrix = make_matrix()
    sink = MemorySink()

    async def go():
        service = spec.build()
        session = service.open_async_session(max_pending=8)
        gate = asyncio.Event()
        drain = session._drain

        async def gated_drain():
            await gate.wait()
            await drain()

        session._drain = gated_drain
        source = MemorySource(matrix)
        pump = asyncio.ensure_future(service.pump(source, sink=sink))
        for _ in range(20):
            await asyncio.sleep(0)
        # One 8-row block fills the queue; the second waits in submit.
        assert session.windows_submitted == session.backlog == 8
        assert service.last_source.offset == 16
        pump.cancel()
        await asyncio.sleep(0)
        gate.set()
        with pytest.raises(asyncio.CancelledError):
            await pump
        # Every row of the block that was never accepted is back.
        assert service.last_source.offset == 8
        assert session.windows_processed == 8
        checkpoint = service.checkpoint()
        assert checkpoint["source_offset"] == 8
        # The same source continues with exactly the pushed-back rows.
        rest = await service.pump()
        return checkpoint, rest

    checkpoint, rest = asyncio.run(go())
    expected = reference(spec, matrix, MemorySink())
    assert {name: values[8:] for name, values in expected.items()} == rest
    assert sink.result()["answers"] == expected

    # A fresh source skipped to the checkpoint continues just as well.
    resumed = StreamService.resume(
        spec, checkpoint, source=MemorySource(matrix)
    )
    tail = asyncio.run(resumed.pump())
    assert tail == rest


def test_queued_windows_never_exceed_max_pending():
    spec = make_spec()
    matrix = make_matrix()

    async def go():
        queue = asyncio.Queue(maxsize=3)
        service = spec.build()
        session = service.open_async_session(max_pending=5)
        observed = []

        async def produce():
            for row in matrix:
                await queue.put(row)
                observed.append(session.backlog)
            await queue.put(None)

        producer = asyncio.ensure_future(produce())
        answers = await service.pump(QueueSource(queue))
        await producer
        return answers, observed

    answers, observed = asyncio.run(go())
    assert max(observed) <= 5
    assert answers == reference(spec, matrix, MemorySink())


def test_drainer_steps_everything_queued_as_one_batch():
    # A hundred one-row blocks queue behind a gated drainer; released,
    # it steps them as one batch (the backlog bound is the only cap).
    spec = make_spec("bd")
    matrix = make_matrix(100)

    async def go():
        service = spec.build()
        session = service.open_async_session(max_pending=128)
        gate = asyncio.Event()
        drain = session._drain

        async def gated_drain():
            await gate.wait()
            await drain()

        session._drain = gated_drain
        futures = [
            await session._submit_row(matrix[index : index + 1])
            for index in range(len(matrix))
        ]
        assert session.backlog == 100
        gate.set()
        answers = {"q1": [], "q2": []}
        for future in futures:
            for name, vector in (await future).items():
                answers[name].extend(vector.tolist())
        await session.aclose()
        return answers

    with use_recorder(SpanRecorder()) as recorder:
        answers = asyncio.run(go())
    batches = [
        span.attrs["windows"] for span in recorder.spans("session.drain")
    ]
    assert batches == [100]
    assert answers == reference(spec, matrix, MemorySink())


SINK_KINDS = {
    "csv": lambda path: CsvSink(f"{path}.csv"),
    "jsonl": lambda path: JsonlSink(f"{path}.jsonl"),
    "memory": lambda path: MemorySink(),
}


def sink_output(sink):
    if isinstance(sink, MemorySink):
        return sink.result()
    return Path(sink.path).read_text()


@pytest.mark.parametrize("kind", sorted(SINK_KINDS))
def test_second_slice_into_the_same_sink_appends(kind, tmp_path):
    # Passing the active sink again continues it: two slices write
    # what one uninterrupted pump writes.
    spec = make_spec("bd")
    matrix = make_matrix(40)
    sink = SINK_KINDS[kind](tmp_path / "sliced")
    service = spec.build()
    source = MemorySource(matrix)
    first = asyncio.run(service.pump(source, sink=sink, max_windows=25))
    second = asyncio.run(service.pump(source, sink=sink, max_windows=25))
    whole_sink = SINK_KINDS[kind](tmp_path / "whole")
    whole = asyncio.run(
        spec.build().pump(MemorySource(matrix), sink=whole_sink)
    )
    assert {name: first[name] + second[name] for name in whole} == whole
    assert sink.windows_written == len(matrix)
    assert sink_output(sink) == sink_output(whole_sink)


def test_oversized_block_is_rejected():
    async def go():
        service = make_spec().build()
        session = service.open_async_session(max_pending=4)
        assert session.block_rows == 4
        async with session:
            with pytest.raises(ValueError, match="1..4 windows"):
                await session._submit_row(make_matrix(5))

    asyncio.run(go())


def test_latency_histogram_counts_every_window():
    registry = MetricsRegistry()
    with use_registry(registry):
        asyncio.run(make_spec().build().pump(make_matrix(), max_pending=7))
    latency = registry.histogram("repro_window_latency_seconds")
    windows = registry.counter("repro_session_windows_total")
    assert latency.count == windows.value == N_WINDOWS
    assert sum(latency.bucket_counts()) == N_WINDOWS


def test_queue_blocks_take_only_what_is_queued():
    matrix = make_matrix(10)

    async def go():
        queue = asyncio.Queue()
        source = QueueSource(queue).bind(ALPHABET)
        blocks = source.ablocks(64)
        for row in matrix[:3]:
            queue.put_nowait(row)
        first = await blocks.__anext__()
        # Nothing queued: the next block waits for one row only.
        pending = asyncio.ensure_future(blocks.__anext__())
        await asyncio.sleep(0)
        assert not pending.done()
        queue.put_nowait(matrix[3])
        second = await pending
        for row in matrix[4:]:
            queue.put_nowait(row)
        queue.put_nowait(None)
        rest = [block async for block in blocks]
        return first, second, rest

    first, second, rest = asyncio.run(go())
    assert len(first) == 3 and len(second) == 1
    assert [len(block) for block in rest] == [6]
    assert np.array_equal(np.concatenate([first, second, *rest]), matrix)


def test_queue_end_of_stream_survives_a_sliced_block():
    # The end-of-stream marker is taken while filling the last block;
    # a slice that ends inside that block must still end the next one.
    spec = make_spec()
    matrix = make_matrix(10)
    service = spec.build()
    source = QueueSource(filled_queue(matrix))
    first = asyncio.run(service.pump(source, max_windows=4))
    second = asyncio.run(service.pump())
    expected = reference(spec, matrix, MemorySink())
    assert {name: first[name] + second[name] for name in first} == expected


@pytest.fixture
def handed_back(monkeypatch):
    """Every block (or block tail) a source is handed back, copied."""
    blocks = []
    unemit_block = StreamSource.unemit_block

    def spy(source, block):
        blocks.append(np.array(block))
        unemit_block(source, block)

    monkeypatch.setattr(StreamSource, "unemit_block", spy)
    return blocks


class TestSliceBoundedBlocks:
    """A slice draws no block larger than itself: a ready source never
    hands over a row past the slice, so nothing is handed back."""

    @pytest.mark.parametrize("max_windows", [1, 7, 234, 1000])
    def test_csv_slices_read_only_their_rows(
        self, max_windows, tmp_path, handed_back
    ):
        spec = make_spec("bd")
        matrix = make_matrix(600)
        path = str(tmp_path / "sliced.csv")
        write_indicator_csv(IndicatorStream(ALPHABET, matrix), path)
        service = spec.build()
        source = CsvSource(path)
        answers = {}
        while True:
            got = asyncio.run(service.pump(source, max_windows=max_windows))
            for name, values in got.items():
                answers.setdefault(name, []).extend(values)
            # The cursor has read the header and exactly the windows
            # served so far, never a line beyond them.
            assert source._cursor.line == source.offset + 1
            if len(got["q1"]) < max_windows:
                break

        assert handed_back == []
        assert source.offset == len(matrix)
        assert answers == reference(spec, matrix, MemorySink())

    def test_trickling_feed_hands_back_the_overshoot(self, handed_back):
        spec = make_spec()
        matrix = make_matrix(10)

        async def go():
            queue = asyncio.Queue()
            service = spec.build()
            for row in matrix[:3]:
                queue.put_nowait(row)
            pump = asyncio.ensure_future(
                service.pump(QueueSource(queue), max_windows=5)
            )
            for _ in range(20):
                await asyncio.sleep(0)
            # Only three rows have arrived: the pump waits for more.
            assert not pump.done()
            assert service.last_source.offset == 3
            # The next block takes five ready rows; the slice has room
            # for two, so three go back.
            for row in matrix[3:]:
                queue.put_nowait(row)
            queue.put_nowait(None)
            first = await pump
            offset = service.last_source.offset
            rest = await service.pump()
            return first, offset, rest

        first, offset, rest = asyncio.run(go())
        assert offset == 5
        assert len(handed_back) == 1
        assert np.array_equal(handed_back[0], matrix[5:8])
        expected = reference(spec, matrix, MemorySink())
        assert {name: first[name] + rest[name] for name in first} == expected

    @pytest.mark.parametrize("kind", ["csv", "queue"])
    def test_empty_slice_serves_nothing(self, kind, tmp_path):
        service = make_spec().build()
        if kind == "csv":
            source, _matrix = make_source("csv", tmp_path)
        else:
            # Nothing is queued: an empty slice must not wait for a row.
            source = QueueSource(asyncio.Queue())
        answers = asyncio.run(
            asyncio.wait_for(service.pump(source, max_windows=0), 10)
        )
        assert answers == {"q1": [], "q2": []}
        assert service.last_source.offset == 0
        assert service.session.windows_processed == 0
        assert service.checkpoint()["source_offset"] == 0


class TestCsvBlocks:
    def test_malformed_line_after_the_offset_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        matrix = make_matrix(60)
        write_indicator_csv(IndicatorStream(ALPHABET, matrix), str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[45] = "1,0,x,0,1\n"  # line 46 of the file
        path.write_text("".join(lines), newline="")

        source = CsvSource(str(path)).bind(ALPHABET).skip(30)
        with pytest.raises(ValueError, match=r"bad\.csv:46: non-integer"):
            list(source.rows())

        async def drain(source):
            return [block async for block in source.ablocks(64)]

        source = CsvSource(str(path)).bind(ALPHABET).skip(30)
        with pytest.raises(ValueError, match=r"bad\.csv:46: non-integer"):
            asyncio.run(drain(source))

    def test_skip_does_not_validate_the_skipped_prefix(self, tmp_path):
        path = tmp_path / "prefix.csv"
        matrix = make_matrix(20)
        write_indicator_csv(IndicatorStream(ALPHABET, matrix), str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "1,0,2,0,1\n"
        path.write_text("".join(lines), newline="")
        source = CsvSource(str(path)).bind(ALPHABET).skip(5)
        assert np.array_equal(
            source.indicator_stream().matrix_view(), matrix[5:]
        )

    @pytest.mark.parametrize(
        "line",
        ["1,0,1,0,1", " 1,0,01,0,1\r\n", "1,0,1,0,1\n"],
        ids=["no-line-end", "padded", "bare-newline"],
    )
    def test_lenient_lines_parse_like_the_row_validator(self, tmp_path, line):
        path = tmp_path / "lenient.csv"
        matrix = make_matrix(9)
        write_indicator_csv(IndicatorStream(ALPHABET, matrix), str(path))
        text = path.read_text()
        path.write_text(text + line, newline="")

        async def drain():
            source = CsvSource(str(path)).bind(ALPHABET)
            return np.concatenate(
                [block async for block in source.ablocks(4)]
            )

        rows = CsvSource(str(path)).bind(ALPHABET).indicator_stream()
        assert np.array_equal(asyncio.run(drain()), rows.matrix_view())
        assert rows.n_windows == 10


class TestSessionAcrossEventLoops:
    """A served session outlives the event loop it started on.

    Every ``asyncio.run`` cancels the session's drainer at teardown.
    The next slice on a later loop continues the *same* session: a
    fresh drainer starts, the rng position carries on and the budget
    stays charged once.
    """

    def test_sliced_pump_is_one_session_charged_once(self):
        spec = make_spec("bd", accounting=5.0)
        matrix = make_matrix()
        straight = spec.build()
        expected = asyncio.run(straight.pump(MemorySource(matrix)))

        service = spec.build()
        answers = {"q1": [], "q2": []}
        source = MemorySource(matrix)
        sessions = []
        for _ in range(3):
            got = asyncio.run(service.pump(source, max_windows=40))
            source = None
            sessions.append(service.session)
            for name, values in got.items():
                answers[name].extend(values)

        assert answers == expected
        assert all(session is sessions[0] for session in sessions)
        assert sessions[0].windows_processed == N_WINDOWS
        spends = service.accountant.spends
        assert len(spends) == 1
        assert spends == straight.accountant.spends

    def test_failed_drainer_is_not_restarted(self, monkeypatch):
        service = make_spec("bd").build()
        source = MemorySource(make_matrix())
        asyncio.run(service.pump(source, max_windows=40))
        session = service.session

        def boom(rows):
            raise RuntimeError("stepping failed")

        monkeypatch.setattr(session._core.stepper, "step_block", boom)
        with pytest.raises(RuntimeError, match="stepping failed"):
            asyncio.run(service.pump(max_windows=40))
        drainer = session._drainer
        with pytest.raises(RuntimeError, match="session drainer failed"):
            asyncio.run(service.pump(max_windows=40))
        assert session._drainer is drainer
        assert service.session is session
        with pytest.raises(RuntimeError, match="stepping failed"):
            asyncio.run(session.aclose())

    def test_drainer_cancelled_mid_flight_is_not_restarted(self):
        service = make_spec("bd").build()
        session = service.open_async_session()

        async def stalled_drain():
            await asyncio.Event().wait()

        async def submit_and_leave():
            await session._submit_row(make_matrix(8))

        # The loop's teardown cancels the drainer with 8 windows queued.
        session._drain = stalled_drain
        asyncio.run(submit_and_leave())
        del session._drain
        assert session.windows_submitted == 8
        assert session.windows_processed == 0
        with pytest.raises(RuntimeError, match="session drainer failed"):
            asyncio.run(service.pump(make_matrix(), max_windows=8))
        assert service.session is session

    def test_async_with_on_a_later_loop(self):
        spec = make_spec("bd")
        matrix = make_matrix()
        expected = asyncio.run(spec.build().pump(MemorySource(matrix)))
        service = spec.build()
        head = asyncio.run(service.pump(MemorySource(matrix), max_windows=40))

        rest_stream = IndicatorStream(ALPHABET, matrix[40:])

        async def rest():
            async with service.session as session:
                return await session.run(
                    [
                        rest_stream.window_types(index)
                        for index in range(rest_stream.n_windows)
                    ]
                )

        tail = asyncio.run(rest())
        stitched = {name: head[name] + tail[name] for name in expected}
        assert stitched == expected
        assert service.session.windows_processed == N_WINDOWS
        with pytest.raises(RuntimeError, match="session is closed"):
            asyncio.run(service.session.process(["e1"]))

    def test_aclose_on_a_later_loop_closes_quietly(self):
        service = make_spec().build()
        asyncio.run(service.pump(make_matrix(), max_windows=50))
        session = service.session
        asyncio.run(session.aclose())
        asyncio.run(session.aclose())
        with pytest.raises(RuntimeError, match="session is closed"):
            asyncio.run(session.process(["e1"]))
        # A closed session is never reused: the next pump opens one.
        asyncio.run(service.pump(make_matrix(), max_windows=10))
        assert service.session is not session
