"""Tests for repro.io sources: registry, streaming, offsets, skip."""

import asyncio
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.io import (
    CsvSource,
    JsonlSource,
    MemorySource,
    QueueSource,
    ReplaySource,
    SyntheticSource,
    read_indicator_csv,
    register_source,
    registered_sources,
    resolve_source,
    write_indicator_csv,
)
from repro.io.registry import resolve_sink
from repro.service.registry import UnknownSpecError
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)


@pytest.fixture
def stream():
    rng = np.random.default_rng(13)
    return IndicatorStream(ALPHABET, rng.random((80, 5)) < 0.4)


@pytest.fixture
def csv_path(stream, tmp_path):
    path = str(tmp_path / "stream.csv")
    write_indicator_csv(stream, path)
    return path


def materialized(source):
    return source.bind(ALPHABET).indicator_stream()


def type_sets(matrix):
    """Each row of ``matrix`` as the list of its event types."""
    return [[ALPHABET.types[j] for j in np.flatnonzero(row)] for row in matrix]


class TestRegistry:
    def test_builtin_sources_registered(self):
        for name in (
            "memory", "csv", "jsonl", "synthetic", "replay", "queue",
        ):
            assert name in registered_sources()

    def test_unknown_source_lists_registered_names(self):
        with pytest.raises(UnknownSpecError) as excinfo:
            resolve_source("kafka:trips")
        message = str(excinfo.value)
        assert "unknown source spec 'kafka'" in message
        for name in registered_sources():
            assert name in message

    def test_source_object_passes_through(self, stream):
        source = MemorySource(stream)
        assert resolve_source(source) is source

    def test_options_rejected_on_objects(self, stream):
        with pytest.raises(ValueError, match="spec strings"):
            resolve_source(MemorySource(stream), p=0.5)

    def test_third_party_source_registers(self, stream):
        @register_source("test-constant")
        class ConstantSource(MemorySource):
            """Every window contains every event type."""

            def __init__(self, n=3):
                super().__init__(np.ones((n, len(ALPHABET)), dtype=bool))

        out = materialized(resolve_source("test-constant:n=2"))
        assert out.n_windows == 2
        assert out.matrix_view().all()


class TestCsvSource:
    def test_round_trips_written_stream(self, stream, csv_path):
        assert materialized(CsvSource(csv_path)) == stream
        assert materialized(resolve_source(f"csv:{csv_path}")) == stream

    def test_read_indicator_csv_round_trip(self, stream, csv_path):
        assert read_indicator_csv(csv_path) == stream
        with open(csv_path) as handle:
            assert handle.readline().rstrip("\r\n") == ",".join(
                ALPHABET.types
            )

    def test_rows_are_streamed_not_materialized(self, stream, csv_path):
        source = CsvSource(csv_path).bind(ALPHABET)
        rows = source.rows()
        first = next(rows)
        assert first.dtype == bool
        assert np.array_equal(first, stream.matrix_view()[0])
        assert source.offset == 1  # only what was consumed

    def test_alphabet_mismatch_rejected(self, csv_path):
        with pytest.raises(ValueError, match="alphabet"):
            CsvSource(csv_path).bind(EventAlphabet.numbered(3))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            CsvSource(str(path)).bind(ALPHABET)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("e1,e2,e3,e4,e5\n1,0\n")
        source = CsvSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match="columns"):
            list(source.rows())

    def test_non_integer_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("e1,e2,e3,e4,e5\n1,0,x,0,1\n")
        source = CsvSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match="non-integer"):
            list(source.rows())

    def test_non_binary_value_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("e1,e2,e3,e4,e5\n1,0,2,0,1\n")
        source = CsvSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match="0/1"):
            list(source.rows())

    def test_skip_fast_forwards(self, stream, csv_path):
        source = CsvSource(csv_path).bind(ALPHABET).skip(30)
        assert source.offset == 30
        assert source.indicator_stream() == stream.slice_windows(30, 80)
        assert source.offset == stream.n_windows

    @pytest.mark.parametrize("layout", ["crlf", "lf", "quoted"])
    def test_resume_at_every_offset_matches_one_pass(
        self, stream, tmp_path, layout
    ):
        ending = "\n" if layout == "lf" else "\r\n"
        cell = '"{}"' if layout == "quoted" else "{}"
        lines = [",".join(cell.format(name) for name in ALPHABET.types)]
        for row in stream.matrix_view():
            lines.append(",".join(cell.format(int(value)) for value in row))
        path = tmp_path / f"{layout}.csv"
        path.write_bytes((ending.join(lines) + ending).encode())

        def blocked(source, max_rows):
            async def drain():
                return [block async for block in source.ablocks(max_rows)]

            return np.concatenate(asyncio.run(drain()))

        matrix = stream.matrix_view()
        assert np.array_equal(
            materialized(CsvSource(str(path))).matrix_view(), matrix
        )
        for offset in range(stream.n_windows):
            rows = materialized(CsvSource(str(path)).skip(offset))
            assert np.array_equal(rows.matrix_view(), matrix[offset:])
            source = CsvSource(str(path)).bind(ALPHABET).skip(offset)
            assert np.array_equal(blocked(source, 16), matrix[offset:])
            assert source.offset == stream.n_windows

    def test_skip_past_the_end_yields_nothing(self, stream, csv_path):
        source = CsvSource(csv_path).bind(ALPHABET)
        source.skip(stream.n_windows + 5)
        assert list(source.rows()) == []

        async def drain():
            source = CsvSource(csv_path).bind(ALPHABET)
            source.skip(stream.n_windows + 5)
            return [block async for block in source.ablocks(16)]

        assert asyncio.run(drain()) == []

    def test_skip_after_iteration_rejected(self, csv_path):
        source = CsvSource(csv_path).bind(ALPHABET)
        next(source.rows())
        with pytest.raises(RuntimeError, match="skip"):
            source.skip(1)


class TestCsvFileLifetime:
    """The csv source's file closes at the end of the pass, on a
    malformed line, and when a source dropped mid-file is collected."""

    #: A pass one row at a time, and one in row blocks.
    PASSES = {
        "rows": lambda source: list(source.rows()),
        "stream": lambda source: source.indicator_stream(),
    }

    @pytest.mark.parametrize("view", sorted(PASSES))
    def test_closed_at_the_end_of_the_pass(self, stream, csv_path, view):
        source = CsvSource(csv_path).bind(ALPHABET)
        self.PASSES[view](source)
        assert source.offset == stream.n_windows
        assert source._cursor.handle.closed

    @pytest.mark.parametrize("view", sorted(PASSES))
    def test_closed_on_a_malformed_line(self, tmp_path, view):
        path = tmp_path / "bad.csv"
        path.write_text("e1,e2,e3,e4,e5\n1,0,1,0,1\n1,0,x,0,1\n")
        source = CsvSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-integer"):
            self.PASSES[view](source)
        assert source._cursor.handle.closed
        assert list(source.rows()) == []

    @pytest.mark.parametrize("view", ["rows", "ablocks"])
    def test_dropped_source_closes_when_collected(self, csv_path, view):
        import gc
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            source = CsvSource(csv_path).bind(ALPHABET)
            if view == "rows":
                rows = source.rows()
                next(rows)
                handle = source._cursor.handle
                del rows
            else:

                async def one_block():
                    blocks = source.ablocks(4)
                    await anext(blocks)
                    await blocks.aclose()

                asyncio.run(one_block())
                handle = source._cursor.handle
            assert not handle.closed
            del source
            gc.collect()
            assert handle.closed
        assert not [
            warning
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
        ]


class TestReadIndicatorCsv:
    """The whole-file reader shares the source's row validation."""

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty"),
            ("a,b\n1\n", "columns"),
            ("a,b\n1,x\n", "non-integer"),
            ("a,b\n1,2\n", "0/1"),
        ],
        ids=["empty", "ragged", "non-integer", "non-binary"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "broken.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_indicator_csv(str(path))

    def test_empty_stream_round_trip(self, tmp_path):
        empty = IndicatorStream(
            EventAlphabet(["a", "b"]), np.zeros((0, 2), dtype=bool)
        )
        path = str(tmp_path / "empty.csv")
        write_indicator_csv(empty, path)
        assert read_indicator_csv(path) == empty

    def test_append_continues_the_stream(self, stream, tmp_path):
        path = str(tmp_path / "appended.csv")
        matrix = stream.matrix_view()
        write_indicator_csv(IndicatorStream(ALPHABET, matrix[:30]), path)
        write_indicator_csv(
            IndicatorStream(ALPHABET, matrix[30:]), path, append=True
        )
        assert read_indicator_csv(path) == stream


class TestJsonlSource:
    def test_reads_arrays_and_objects(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(
            json.dumps(["e1", "e3"]) + "\n"
            + json.dumps({"types": ["e2"], "answers": {"q": True}}) + "\n"
            + "\n"  # blank lines are skipped
            + json.dumps([]) + "\n"
        )
        out = materialized(JsonlSource(str(path)))
        expected = IndicatorStream.from_window_sets(
            ALPHABET, [["e1", "e3"], ["e2"], []]
        )
        assert out == expected

    def test_unknown_types_ignored_like_the_engine(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(json.dumps(["e1", "not-an-event"]) + "\n")
        out = materialized(JsonlSource(str(path)))
        assert out == IndicatorStream.from_window_sets(ALPHABET, [["e1"]])

    def test_invalid_json_rejected_with_line(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('["e1"]\n{oops\n')
        source = JsonlSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match=":2"):
            list(source.rows())

    def test_object_without_types_rejected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"answers": {}}\n')
        source = JsonlSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match="types"):
            list(source.rows())

    def test_missing_file_rejected_at_bind(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            JsonlSource(str(tmp_path / "nope.jsonl")).bind(ALPHABET)


def synthetic(generator="bernoulli", windows=40, seed=9, **options):
    return resolve_source(
        f"synthetic:generator={generator},windows={windows},seed={seed}",
        **options,
    )


class TestSyntheticSource:
    def test_same_spec_same_windows(self):
        one = materialized(synthetic())
        two = materialized(synthetic())
        assert one == two
        assert one.n_windows == 40

    def test_skip_regenerates_deterministically(self):
        full = materialized(synthetic())
        tail = materialized(synthetic().skip(15))
        assert tail == full.slice_windows(15, 40)

    def test_uniform_generator_rate(self):
        dense = materialized(synthetic("uniform", 200, 1, p=0.95))
        assert dense.matrix_view().mean() > 0.8

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            SyntheticSource("gauss", 10, 0)

    def test_seeds_differ(self):
        assert materialized(synthetic(seed=1)) != materialized(
            synthetic(seed=2)
        )


class TestReplaySource:
    def test_replays_csv_contents(self, stream, csv_path):
        assert materialized(
            resolve_source(f"replay:{csv_path}:0")
        ) == stream

    def test_rate_paces_emission(self, stream, csv_path):
        import time

        source = ReplaySource(csv_path, rate=1000.0).bind(ALPHABET)
        start = time.perf_counter()
        rows = source.rows()
        for _ in range(20):
            next(rows)
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.018  # ≥ 20 windows / 1000 per second-ish

    def test_skip_does_not_wait(self, stream, csv_path):
        import time

        source = ReplaySource(csv_path, rate=10.0).bind(ALPHABET)
        source.skip(stream.n_windows - 1)
        start = time.perf_counter()
        remaining = list(source.rows())
        assert len(remaining) == 1
        assert time.perf_counter() - start < 5.0  # one delay, not eighty

    def test_negative_rate_rejected(self, csv_path):
        with pytest.raises(ValueError, match="rate"):
            ReplaySource(csv_path, rate=-1.0)


class TestMemorySource:
    def test_accepts_stream_matrix_and_type_sets(self, stream):
        as_stream = materialized(MemorySource(stream))
        as_matrix = materialized(MemorySource(stream.matrix()))
        sets = [stream.window_types(i) for i in range(stream.n_windows)]
        as_sets = materialized(MemorySource(sets))
        assert as_stream == stream
        assert as_matrix == stream
        assert as_sets == stream

    def test_unbound_memory_spec_fails_pointedly(self):
        source = resolve_source("memory").bind(ALPHABET)
        with pytest.raises(ValueError, match="no data"):
            list(source.rows())

    def test_foreign_alphabet_rejected(self, stream):
        with pytest.raises(ValueError, match="alphabet"):
            MemorySource(stream).bind(EventAlphabet.numbered(3))


class TestQueueSource:
    def test_sync_iteration_rejected(self):
        source = QueueSource(asyncio.Queue()).bind(ALPHABET)
        with pytest.raises(TypeError, match="asynchronous"):
            list(source.rows())

    def test_skip_rejected(self):
        with pytest.raises(RuntimeError, match="cannot skip"):
            QueueSource(asyncio.Queue()).skip(3)

    def test_unbound_queue_fails_pointedly(self):
        async def drive():
            source = resolve_source("queue").bind(ALPHABET)
            async for _row in source.arows():
                pass

        with pytest.raises(ValueError, match="no live queue"):
            asyncio.run(drive())

    def test_drains_type_sets_and_rows_until_sentinel(self, stream):
        async def drive():
            queue = asyncio.Queue()
            source = QueueSource(queue).bind(ALPHABET)
            queue.put_nowait(stream.window_types(0))
            queue.put_nowait(stream.matrix_view()[1])
            queue.put_nowait("e1")  # a single type name
            queue.put_nowait(None)
            return [row async for row in source.arows()]

        rows = asyncio.run(drive())
        assert np.array_equal(rows[0], stream.matrix_view()[0])
        assert np.array_equal(rows[1], stream.matrix_view()[1])
        assert np.array_equal(
            rows[2], [True, False, False, False, False]
        )


class TestIndicatorStream:
    def test_empty_source(self):
        out = materialized(MemorySource(np.zeros((0, 5), dtype=bool)))
        assert out.matrix_view().shape == (0, 5)

    def test_spans_multiple_blocks(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((10000, 5)) < 0.5
        for data in (matrix, type_sets(matrix)):
            out = materialized(MemorySource(data))
            assert np.array_equal(out.matrix_view(), matrix)

    def test_csv_sink_output_feeds_csv_source(self, stream, tmp_path):
        # The sanitized-egress format is itself a valid source.
        path = str(tmp_path / "released.csv")
        sink = resolve_sink(f"csv:{path}")
        sink.open(alphabet=ALPHABET, query_names=("q",))
        for index in range(stream.n_windows):
            sink.write(index, stream.matrix_view()[index], {"q": False})
        sink.close()
        assert materialized(CsvSource(path)) == stream


class TestColonPaths:
    """Path-taking specs keep colons and numeric names verbatim."""

    def test_csv_path_with_colon_and_numeric_name(self, stream, tmp_path):
        for name in ("we:ird.csv", "2024"):
            path = str(tmp_path / name)
            write_indicator_csv(stream, path)
            assert materialized(resolve_source(f"csv:{path}")) == stream

    def test_replay_path_with_colon_keeps_rate(self, stream, tmp_path):
        path = str(tmp_path / "we:ird.csv")
        write_indicator_csv(stream, path)
        source = resolve_source(f"replay:{path}:250")
        assert source.path == path
        assert source.rate == 250.0
        source_no_rate = resolve_source(f"replay:{path}")
        assert source_no_rate.path == path
        assert source_no_rate.rate == 0.0

    def test_jsonl_sink_path_with_colon(self, stream, tmp_path):
        from repro.io import JsonlSource

        path = str(tmp_path / "out:put.jsonl")
        sink = resolve_sink(f"jsonl:{path}")
        sink.open(alphabet=ALPHABET, query_names=("q",))
        matrix = stream.matrix_view()
        for index in range(stream.n_windows):
            sink.write(index, matrix[index], {"q": False})
        sink.close()
        assert materialized(JsonlSource(path)) == stream


class TestPacedCancellation:
    def test_cancel_during_delay_loses_no_row(self, stream, csv_path):
        import asyncio

        async def go():
            source = ReplaySource(csv_path, rate=200.0).bind(ALPHABET)
            collected = []

            async def consume():
                async for row in source.arows():
                    collected.append(row)

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.012)  # mid-stream, likely mid-delay
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            before = len(collected)
            assert source.offset == before
            # Continuing on the SAME source yields every remaining row.
            source.delay = 0.0
            async for row in source.arows():
                collected.append(row)
            return collected

        collected = asyncio.run(go())
        assert len(collected) == stream.n_windows
        assert np.array_equal(np.stack(collected), stream.matrix_view())


class FakeClock:
    """A deterministic stand-in for the pacing clock.

    ``sleep`` overshoots every request by ``jitter`` seconds — the
    scheduler never wakes a real process exactly on time — so a paced
    source that sleeps a *relative* delay per row drifts by one jitter
    per row, while absolute-deadline pacing re-anchors on the grid.
    """

    def __init__(self, jitter=0.0):
        self.now = 100.0
        self.jitter = jitter
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0  # the source must not sleep non-positive
        self.sleeps.append(seconds)
        self.now += seconds + self.jitter


class TestAbsoluteDeadlinePacing:
    def drain(self, source, n):
        rows = source.rows()
        return [next(rows) for _ in range(n)]

    def test_jitter_does_not_accumulate(self, csv_path, monkeypatch):
        from repro.io import sources as sources_module

        clock = FakeClock(jitter=0.002)
        monkeypatch.setattr(sources_module, "time", clock)
        source = ReplaySource(csv_path, rate=100.0).bind(ALPHABET)
        self.drain(source, 50)
        elapsed = clock.now - 100.0
        # 50 rows at 10ms: the deadline grid ends at 500ms; only the
        # *last* sleep's jitter is outstanding.  Relative pacing would
        # have accumulated all 50 jitters (600ms total).
        assert elapsed == pytest.approx(50 * 0.01 + 0.002)

    def test_deadlines_stay_on_the_grid(self, csv_path, monkeypatch):
        from repro.io import sources as sources_module

        clock = FakeClock(jitter=0.004)
        monkeypatch.setattr(sources_module, "time", clock)
        source = ReplaySource(csv_path, rate=100.0).bind(ALPHABET)
        self.drain(source, 10)
        # Every sleep targets deadline k*10ms, so after the first full
        # delay each wait is one period minus the previous overshoot.
        assert clock.sleeps[0] == pytest.approx(0.01)
        assert all(
            wait == pytest.approx(0.01 - 0.004)
            for wait in clock.sleeps[1:]
        )

    def test_slow_consumer_emits_immediately_without_sleeping(
        self, csv_path, monkeypatch
    ):
        from repro.io import sources as sources_module

        clock = FakeClock()
        monkeypatch.setattr(sources_module, "time", clock)
        source = ReplaySource(csv_path, rate=100.0).bind(ALPHABET)
        rows = source.rows()
        next(rows)  # sleeps the first full delay
        clock.now += 0.1  # consumer stalls for ten periods
        for _ in range(5):
            next(rows)  # catching up: all overdue, no sleeping
        assert len(clock.sleeps) == 1

    def test_unpaced_source_never_consults_the_clock(
        self, csv_path, monkeypatch
    ):
        from repro.io import sources as sources_module

        class ExplodingClock:
            def monotonic(self):  # pragma: no cover - must not run
                raise AssertionError("unpaced sources must not pace")

            sleep = monotonic

        monkeypatch.setattr(sources_module, "time", ExplodingClock())
        source = ReplaySource(csv_path, rate=0.0).bind(ALPHABET)
        assert len(self.drain(source, 10)) == 10


# ---------------------------------------------------------------------------
# Hand-back and resume across every built-in source
# ---------------------------------------------------------------------------

HANDBACK_WINDOWS = 40
HANDBACK_MATRIX = np.random.default_rng(21).random((HANDBACK_WINDOWS, 5)) < 0.5
#: Rows per chunked broker entry.
CHUNK = 3

_stream_names = itertools.count()


@pytest.fixture(scope="module")
def handback_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("handback")
    csv_file = str(directory / "stream.csv")
    write_indicator_csv(IndicatorStream(ALPHABET, HANDBACK_MATRIX), csv_file)
    jsonl_file = str(directory / "stream.jsonl")
    with open(jsonl_file, "w") as handle:
        for types in type_sets(HANDBACK_MATRIX):
            handle.write(json.dumps(types) + "\n")
    return {"csv": csv_file, "jsonl": jsonl_file}


@pytest.fixture(scope="module")
def broker_server():
    from repro.broker import FakeRedisServer

    with FakeRedisServer() as server:
        yield server


class HandBackFeed:
    """Fresh sources of one kind over one stream, plus what a resumed
    service would bind in place of a discarded one."""

    def __init__(self, kind, files, server):
        self.kind = kind
        self.files = files
        self.server = server
        self.matrix = HANDBACK_MATRIX
        #: Rows per broker entry.
        self.width = CHUNK if kind == "broker-chunks" else 1
        if kind == "synthetic":
            self.matrix = (
                SyntheticSource("bernoulli", HANDBACK_WINDOWS, 4)
                .bind(ALPHABET)
                .indicator_stream()
                .matrix_view()
            )
        if kind.startswith("broker"):
            from repro.broker.connectors import publish_indicator_stream

            self.stream = f"handback-{next(_stream_names)}"
            publish_indicator_stream(
                server.url,
                self.stream,
                IndicatorStream(ALPHABET, self.matrix),
                rows_per_entry=self.width,
            )

    def fresh(self, offset=0):
        kind = self.kind
        if kind == "matrix":
            source = MemorySource(self.matrix)
        elif kind == "types":
            source = MemorySource(type_sets(self.matrix))
        elif kind == "csv":
            source = CsvSource(self.files["csv"])
        elif kind == "jsonl":
            source = JsonlSource(self.files["jsonl"])
        elif kind == "synthetic":
            source = SyntheticSource("bernoulli", HANDBACK_WINDOWS, 4)
        elif kind == "replay":
            source = ReplaySource(self.files["csv"], rate=0.0)
        elif kind == "queue":
            queue = asyncio.Queue()
            for row in self.matrix[offset:]:
                queue.put_nowait(row)
            queue.put_nowait(None)
            source = QueueSource(queue)
        else:
            from repro.broker import BrokerSource

            source = BrokerSource(
                self.server.url,
                stream=self.stream,
                group="g",
                consumer="c0",
                batch=4,
            )
        source.bind(ALPHABET)
        if source.seekable:
            return source.skip(offset)
        source._offset = offset  # what StreamService.resume does
        return source

    def assert_pending(self, kept):
        """After a checkpoint at ``kept`` rows, the pending list holds
        every delivered entry not kept whole, and a delivered eos (the
        stream's last entry, never acked)."""
        record = self.server._streams[self.stream]
        group = record.groups["g"]
        eos = len(record.entries) - 1
        expected = set()
        for index, (entry_id, _fields) in enumerate(record.entries):
            if entry_id > group.last_delivered:
                break
            end = min((index + 1) * self.width, len(self.matrix))
            if index == eos or end > kept:
                expected.add(entry_id)
        assert set(group.pending) == expected


HANDBACK_KINDS = [
    "matrix",
    "types",
    "csv",
    "jsonl",
    "synthetic",
    "replay",
    "queue",
    "broker-rows",
    "broker-chunks",
]


class TestHandBackAndResume:
    """Random block sizes, handed-back tails and resumed fresh sources
    stitch to one uninterrupted pass, with row-exact offsets."""

    @pytest.mark.parametrize("kind", HANDBACK_KINDS)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(1, 12), st.integers(0, 12), st.booleans()
            ),
            max_size=25,
        )
    )
    @example(steps=[(12, 0, False)] * 5)  # draws past the end
    @settings(max_examples=25, deadline=None)
    def test_stitched_rows_equal_one_pass(
        self, kind, steps, handback_files, broker_server
    ):
        feed = HandBackFeed(kind, handback_files, broker_server)
        kept = asyncio.run(self.drive(feed, steps))
        assert np.array_equal(np.concatenate(kept), feed.matrix)

    async def drive(self, feed, steps):
        kept = [np.zeros((0, 5), dtype=bool)]
        count = 0
        #: Handed-back rows the source has not served again yet.
        outstanding = 0
        source = feed.fresh()
        ended = False
        for max_rows, hand_back, resume in steps:
            blocks = source.ablocks(max_rows)
            block = await anext(blocks, None)
            await blocks.aclose()
            if block is None:
                # A live queue's end marker is taken once: drawing
                # past it would wait for rows that never come.
                ended = True
                break
            outstanding -= min(outstanding, len(block))
            hand_back = min(hand_back, len(block))
            if hand_back:
                source.unemit_block(block[len(block) - hand_back :])
                outstanding += hand_back
            kept.append(block[: len(block) - hand_back])
            count += len(block) - hand_back
            self.check(feed, source, count, outstanding)
            if resume:
                source = self.resume(feed, source, count)
                outstanding = 0
        if not ended:
            async for block in source.ablocks(7):
                outstanding -= min(outstanding, len(block))
                kept.append(block)
                count += len(block)
                self.check(feed, source, count, outstanding)
        if feed.kind.startswith("broker"):
            source.checkpoint_mark()
            feed.assert_pending(count)
            source.close()
        return kept

    def check(self, feed, source, count, outstanding):
        assert source.offset == count
        cursor = getattr(source, "_cursor", None)
        if feed.kind == "csv" and cursor is not None and not outstanding:
            assert cursor.line == count + 1

    def resume(self, feed, source, count):
        if feed.kind.startswith("broker"):
            source.checkpoint_mark()
            feed.assert_pending(count)
            source.close()
        return feed.fresh(count)
