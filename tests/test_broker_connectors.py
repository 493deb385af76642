"""Integration tests for the ``broker:`` connectors.

The acceptance bar for the broker subsystem: a broker-fed tenant is
bit-identical to a memory-fed run — through checkpoint/kill/resume
cycles *and* injected connection faults — because acks happen at
checkpoint boundaries and every recovery path re-delivers the un-acked
suffix from the consumer group's pending list.  Also covers the
pointed unbound-feed errors shared by ``queue:`` and ``broker:``, the
dead-letter policy for poison entries, the sink round trip, and the
soak harness's broker mode.
"""

import asyncio
import gc
import json
import warnings

import numpy as np
import pytest

from repro.broker import BrokerSink, BrokerSource, FakeRedisServer
from repro.broker.client import BrokerClient, RetryPolicy
from repro.broker.connectors import publish_indicator_stream
from repro.broker.resp import BrokerError
from repro.io import (
    MemorySink,
    resolve_sink,
    resolve_source,
    write_indicator_csv,
)
from repro.io.sources import QueueSource
from repro.obs.soak import run_soak
from repro.service import ServiceSpec, StreamGateway, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)


def make_stream(seed=3, n=100):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n, 5)) < 0.4)


def make_spec(source, seed=7, **overrides):
    kwargs = dict(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="bd",
        mechanism_options={"epsilon": 1.0, "w": 10},
        source=source,
        seed=seed,
    )
    kwargs.update(overrides)
    return ServiceSpec(**kwargs)


def broker_spec(url, stream="w", seed=7, *, batch=16, **overrides):
    return make_spec(
        f"broker:url={url},stream={stream},group=g,consumer=c0,"
        f"block_ms=100,batch={batch}",
        seed=seed,
        **overrides,
    )


def memory_fed(stream, seed=7):
    """The reference answers: the same spec fed from memory."""
    return asyncio.run(StreamService(make_spec(None, seed)).pump(stream))


class BlockLengths(MemorySink):
    """A memory sink that also records each written block's length."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write_block(self, start, rows, answers, truth=None):
        self.lengths.append(len(rows))
        super().write_block(start, rows, answers, truth)


@pytest.fixture
def server():
    with FakeRedisServer() as fake:
        yield fake


class TestSpecResolution:
    def test_source_spec_builds_configured_source(self):
        source = resolve_source(
            "broker:url=redis://h:7777,stream=s,group=g,consumer=c9,"
            "block_ms=50,batch=8"
        )
        assert isinstance(source, BrokerSource)
        assert source.url == "redis://h:7777"
        assert source.stream == "s"
        assert source.group == "g"
        assert source.consumer == "c9"
        assert source.block_ms == 50
        assert source.batch == 8
        assert source.live_feed_bound

    def test_bare_broker_declares_intent_only(self):
        source = resolve_source("broker")
        assert source.url is None
        assert not source.live_feed_bound

    def test_sink_spec_builds_configured_sink(self):
        sink = resolve_sink("broker:url=redis://h:7777,stream=out,eos=1")
        assert isinstance(sink, BrokerSink)
        assert sink.url == "redis://h:7777"
        assert sink.stream == "out"
        assert sink.eos is True

    def test_spec_json_round_trip(self, server):
        spec = broker_spec(server.url)
        assert ServiceSpec.from_json(spec.to_json()) == spec


class TestSourceContract:
    def test_synchronous_run_rejected(self):
        with pytest.raises(TypeError, match="asynchronous"):
            StreamService(
                make_spec("broker:url=redis://h:1,stream=s")
            ).run()

    def test_skip_rejected_for_live_feed(self):
        source = BrokerSource("redis://h:1")
        assert source.skip(0) is source
        with pytest.raises(RuntimeError, match="cannot skip"):
            source.skip(3)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="block_ms"):
            BrokerSource("redis://h:1", block_ms=0)
        with pytest.raises(ValueError, match="batch"):
            BrokerSource("redis://h:1", batch=0)


class TestEndToEnd:
    def test_broker_fed_matches_memory_fed(self, server):
        stream = make_stream()
        published = publish_indicator_stream(server.url, "w", stream)
        assert published == stream.n_windows
        answers = asyncio.run(
            StreamService(broker_spec(server.url)).pump()
        )
        assert answers == memory_fed(stream)

    def test_checkpoint_acks_everything_emitted(self, server):
        stream = make_stream(n=40)
        publish_indicator_stream(server.url, "w", stream)
        service = StreamService(broker_spec(server.url))
        asyncio.run(service.pump())
        # Pre-checkpoint: every window plus the eos marker is pending.
        assert server.pending_count("w", "g") == 41
        service.checkpoint()
        # Every *window* is acked; the eos marker stays pending on
        # purpose, so a resumed consumer re-observes end-of-stream.
        assert server.pending_count("w", "g") == 1

    def test_acceptance_kill_resume_with_drop_fault(self, server):
        """The subsystem's acceptance bar: checkpoint/kill/resume plus
        a dropped connection lose nothing and double-count nothing."""
        stream = make_stream()
        baseline = memory_fed(stream)
        publish_indicator_stream(server.url, "w", stream)

        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url))
        asyncio.run(gateway.serve(max_windows=30))
        checkpoint = gateway.checkpoint()
        assert server.pending_count("w", "g") > 0  # the stranded tail

        # The "kill": discard the gateway; the broker spec is fully
        # declarative, so resume rebinds the feed from the url alone.
        # A dropped connection greets the resumed consumer.
        server.inject_fault("drop", command="XREADGROUP", count=1)
        resumed = StreamGateway.resume(checkpoint)
        asyncio.run(resumed.serve())

        combined = {
            name: gateway.results()["t"][name]
            + resumed.results()["t"][name]
            for name in baseline
        }
        assert combined == baseline
        assert server.faults_fired == [("drop", "XREADGROUP")]
        # The batch tail fetched past window 30 was stranded in the
        # PEL by the kill; the resume drained it back.
        redelivered = resumed.registry.get(
            "repro_broker_redelivered_total"
        )
        assert redelivered is not None and redelivered.value >= 1
        resumed.checkpoint()
        # Only the never-acked eos marker remains pending.
        assert server.pending_count("w", "g") == 1

    def test_reset_faults_mid_run_bit_identical(self, server):
        stream = make_stream(seed=5)
        baseline = memory_fed(stream)
        publish_indicator_stream(server.url, "w", stream)
        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url, batch=8))
        asyncio.run(gateway.serve(max_windows=20))
        server.inject_fault("reset", command="XREADGROUP", count=1)
        server.inject_fault("drop", command="XREADGROUP", count=1)
        asyncio.run(gateway.serve())
        assert gateway.results()["t"] == baseline
        assert len(server.faults_fired) == 2

    def test_double_kill_resume_cycle(self, server):
        stream = make_stream(seed=9, n=60)
        baseline = memory_fed(stream, seed=11)
        publish_indicator_stream(server.url, "w", stream)
        generations = []
        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url, "w", seed=11))
        for _ in range(2):
            asyncio.run(gateway.serve(max_windows=20))
            generations.append(gateway.results()["t"])
            gateway = StreamGateway.resume(gateway.checkpoint())
        asyncio.run(gateway.serve())
        generations.append(gateway.results()["t"])
        combined = {
            name: sum((g[name] for g in generations), [])
            for name in baseline
        }
        assert combined == baseline

    def test_resume_after_full_consumption_terminates(self, server):
        """A consumer resumed past the end of a finite feed must
        re-observe eos from the pending list and finish — not block
        forever waiting for entries that will never come."""
        stream = make_stream(n=10)
        publish_indicator_stream(server.url, "w", stream)
        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url))
        asyncio.run(gateway.serve())
        resumed = StreamGateway.resume(gateway.checkpoint())
        asyncio.run(resumed.serve(max_windows=32))
        assert resumed.results()["t"]["q"] == []

    def test_poison_entry_dead_lettered(self, server):
        stream = make_stream(n=6)
        matrix = stream.matrix_view()
        client = BrokerClient(server.url)
        for index in range(3):
            client.xadd("w", {"row": "".join(
                "1" if v else "0" for v in matrix[index]
            )})
        client.xadd("w", {"row": "not-bits"})  # poison
        for index in range(3, 6):
            client.xadd("w", {"row": "".join(
                "1" if v else "0" for v in matrix[index]
            )})
        client.xadd("w", {"eos": "1"})
        answers = asyncio.run(
            StreamService(broker_spec(server.url)).pump()
        )
        # All six real windows flowed; the poison entry went to the
        # dead stream with its provenance instead of wedging the group.
        assert answers == memory_fed(stream)
        dead = client.xrange("w:dead")
        assert len(dead) == 1
        assert dead[0][1]["source_id"] == "4-0"
        assert dead[0][1]["row"] == "not-bits"
        assert "row" in dead[0][1]["reason"]

    def test_sink_publishes_windows_and_eos(self, server):
        stream = make_stream(n=12)
        spec = make_spec(
            None, sink=f"broker:url={server.url},stream=out,eos=1"
        )
        asyncio.run(StreamService(spec).pump(stream))
        client = BrokerClient(server.url)
        entries = client.xrange("out")
        assert len(entries) == 13
        assert entries[-1][1] == {"eos": "1"}
        for index, (_, fields) in enumerate(entries[:-1]):
            assert fields["window"] == str(index)
            assert set(fields["row"]) <= {"0", "1"}
            assert len(fields["row"]) == len(ALPHABET)
            answers = json.loads(fields["answers"])
            assert set(answers) == {"q"}

    def test_sanitized_stream_can_be_served_again(self, server):
        """A BrokerSink's output is itself a valid BrokerSource feed."""
        stream = make_stream(n=10)
        spec = make_spec(
            None, sink=f"broker:url={server.url},stream=out,eos=1"
        )
        asyncio.run(StreamService(spec).pump(stream))
        downstream = asyncio.run(
            StreamService(
                broker_spec(server.url, "out", seed=23)
            ).pump()
        )
        assert len(downstream["q"]) == 10


class TestChunkedTransport:
    """Chunked entries (``rows_per_entry > 1``): record batching.

    One stream entry carries many windows, so the ack ledger tracks
    rows while the broker tracks entries: a checkpoint may only ack
    entries whose *last* row it covers, and a resumed offset must
    skip the already-released prefix of a redelivered chunk
    row-exactly.
    """

    def test_chunked_feed_matches_memory_fed(self, server):
        # 100 rows, 7 per entry: the last chunk is partial.
        stream = make_stream()
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        answers = asyncio.run(
            StreamService(broker_spec(server.url)).pump()
        )
        assert answers == memory_fed(stream)

    def test_kill_resume_mid_chunk_is_exact(self, server):
        stream = make_stream(seed=13)
        baseline = memory_fed(stream)
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url))
        # 30 is not a multiple of 7: the kill lands mid-chunk, so the
        # resumed consumer must replay only the unreleased tail of
        # that chunk (rows 28-29 stay, rows released before the kill
        # must not re-release).
        asyncio.run(gateway.serve(max_windows=30))
        resumed = StreamGateway.resume(gateway.checkpoint())
        asyncio.run(resumed.serve())
        combined = {
            name: gateway.results()["t"][name]
            + resumed.results()["t"][name]
            for name in baseline
        }
        assert combined == baseline
        redelivered = resumed.registry.get(
            "repro_broker_redelivered_total"
        )
        assert redelivered is not None and redelivered.value >= 1

    def test_checkpoint_acks_only_completed_chunks(self, server):
        # 100 rows, 7 per entry = 15 chunk entries + eos, all
        # delivered by one batch=16 fetch.
        stream = make_stream()
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url))
        asyncio.run(gateway.serve(max_windows=10))
        assert server.pending_count("w", "g") == 16
        gateway.checkpoint()
        # Windows 0-9 were released, but only chunk 0 (rows 0-6) is
        # complete; chunk 1's unfinished tail keeps its whole entry
        # pending so a later drain can replay rows 7-9 row-exactly.
        assert server.pending_count("w", "g") == 15

    @pytest.mark.parametrize("max_pending", [10, 1024])
    def test_block_spanning_chunks_matches_memory_fed(
        self, server, max_pending
    ):
        # 100 rows, 7 per entry, all fetched at once: every block runs
        # across several chunked entries (a 10-row block cuts two of
        # them mid-way).
        stream = make_stream()
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        sink = BlockLengths()
        answers = asyncio.run(
            StreamService(broker_spec(server.url)).pump(
                sink=sink, max_pending=max_pending
            )
        )
        assert answers == memory_fed(stream)
        block = min(max_pending, 100)
        assert sink.lengths == [block] * (100 // block)

    @pytest.mark.parametrize("max_pending", [10, 1024])
    def test_kill_resume_inside_a_spanning_block_is_exact(
        self, server, max_pending
    ):
        stream = make_stream(seed=13)
        baseline = memory_fed(stream)
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        gateway = StreamGateway()
        gateway.add_tenant(
            "t", broker_spec(server.url), max_pending=max_pending
        )
        # Window 23 lies inside a block and inside chunk 3 (rows
        # 21-27): the block's tail goes back, and the checkpoint acks
        # chunks 0-2 only.
        asyncio.run(gateway.serve(max_windows=23))
        checkpoint = gateway.checkpoint()
        assert server.pending_count("w", "g") == 16 - 3
        resumed = StreamGateway.resume(checkpoint)
        asyncio.run(resumed.serve())
        combined = {
            name: gateway.results()["t"][name]
            + resumed.results()["t"][name]
            for name in baseline
        }
        assert combined == baseline

    def test_spanning_block_acks_and_drains_only_completed_entries(
        self, server
    ):
        stream = make_stream()
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        client = BrokerClient(server.url)
        ids = [entry_id for entry_id, _ in client.xrange("w")]
        client.close()
        service = StreamService(broker_spec(server.url))
        # One 17-row block: chunks 0 and 1 whole, chunk 2 rows 14-16.
        asyncio.run(service.pump(max_pending=17, max_windows=17))
        assert service.last_source._last_entry_id == ids[1]
        service.checkpoint()
        assert server.pending_count("w", "g") == 16 - 2
        rest = asyncio.run(service.pump())
        assert len(rest["q"]) == 100 - 17

    def test_undecodable_chunk_raises_instead_of_dead_letter(
        self, server
    ):
        # Dead-lettering a chunk would shift every later window
        # against its base index, silently desyncing the offset; the
        # source must wedge loudly instead.
        client = BrokerClient(server.url)
        client.xadd("w", {"rows": "01x01", "base": "0"})
        client.xadd("w", {"eos": "1"})
        with pytest.raises(BrokerError, match="shift"):
            asyncio.run(
                StreamService(broker_spec(server.url)).pump()
            )
        assert client.xrange("w:dead") == []
        client.close()

    def test_publisher_rejects_nonpositive_rows_per_entry(
        self, server
    ):
        with pytest.raises(ValueError, match="rows_per_entry"):
            publish_indicator_stream(
                server.url, "w", make_stream(n=5), rows_per_entry=0
            )

    def test_resumed_offset_skips_fully_covered_chunk(self, server):
        # Direct-drive the source exactly as StreamService.resume
        # drives a live feed: bind the alphabet, set the offset.  The
        # first chunk (rows 0-6) sits entirely behind the offset: it
        # must emit nothing, never be acked (eos-like: stays pending),
        # and not stall the chunks after it.
        stream = make_stream(n=21)
        matrix = stream.matrix_view()
        publish_indicator_stream(
            server.url, "w", stream, rows_per_entry=7
        )
        source = BrokerSource(
            server.url,
            stream="w",
            group="g",
            consumer="c0",
            block_ms=100,
            batch=4,
        ).bind(ALPHABET)
        source._offset = 7

        async def collect():
            emitted = []
            async for row in source.arows():
                emitted.append(row)
            return emitted

        emitted = asyncio.run(collect())
        assert len(emitted) == 14
        assert all(
            np.array_equal(row, matrix[7 + index])
            for index, row in enumerate(emitted)
        )
        source.checkpoint_mark()
        # Chunks 1 and 2 acked; the skipped chunk 0 and the eos
        # marker stay pending by design.
        assert server.pending_count("w", "g") == 2
        source.close()


class TestUnboundFeedErrors:
    def test_serving_unbound_broker_tenant_names_tenant_and_spec(self):
        gateway = StreamGateway()
        gateway.add_tenant("edge", make_spec("broker"))
        with pytest.raises(RuntimeError, match="no feed bound") as err:
            asyncio.run(gateway.serve(max_windows=1))
        assert "'edge'" in str(err.value)
        assert "'broker'" in str(err.value)

    def test_serving_unbound_queue_tenant_names_tenant_and_spec(self):
        gateway = StreamGateway()
        gateway.add_tenant("live", make_spec("queue"))
        with pytest.raises(RuntimeError, match="no feed bound") as err:
            asyncio.run(gateway.serve(max_windows=1))
        assert "'live'" in str(err.value)
        assert "'queue'" in str(err.value)

    def test_resuming_queue_tenant_without_feed_is_pointed(self):
        stream = make_stream(n=8)

        async def drive():
            queue = asyncio.Queue()
            gateway = StreamGateway()
            gateway.add_tenant(
                "live", make_spec("queue"), source=QueueSource(queue)
            )
            for index in range(4):
                await queue.put(stream.window_types(index))
            await gateway.serve(max_windows=4)
            return gateway.checkpoint()

        checkpoint = asyncio.run(drive())
        with pytest.raises(
            RuntimeError, match="cannot resume tenant 'live'"
        ) as err:
            StreamGateway.resume(checkpoint)
        assert "sources={'live': ...}" in str(err.value)

    def test_resuming_broker_tenant_rebinds_from_spec(self, server):
        # The counterpart contract: a broker feed *is* named by its
        # spec, so resume needs no sources= override.
        stream = make_stream(n=20)
        publish_indicator_stream(server.url, "w", stream)
        gateway = StreamGateway()
        gateway.add_tenant("t", broker_spec(server.url))
        asyncio.run(gateway.serve(max_windows=5))
        resumed = StreamGateway.resume(gateway.checkpoint())
        asyncio.run(resumed.serve())
        assert (
            len(gateway.results()["t"]["q"])
            + len(resumed.results()["t"]["q"])
            == 20
        )


class TestSoakBrokerMode:
    def test_soak_over_broker_sources_is_exact(self, server, tmp_path):
        path = str(tmp_path / "replay.csv")
        write_indicator_csv(make_stream(seed=2, n=120), path)
        faults = []

        def arm_fault(slice_number):
            if slice_number == 1:
                server.inject_fault("drop", command="XREADGROUP", count=2)
                faults.append(slice_number)

        report = run_soak(
            path,
            tenants=2,
            duration=30.0,
            slice_windows=32,
            kill_every=2,
            seed=5,
            broker_url=server.url,
            fault_hook=arm_fault,
        )
        assert report.broker
        # Zero lost, zero double-counted: every window of every tenant
        # exactly once, despite kills and dropped connections.
        assert report.windows_total == 2 * 120
        assert report.delivered_entries > 0
        assert faults == [1]
        assert len(server.faults_fired) == 2

    def test_soak_closes_every_fleets_broker_sockets(self, server, tmp_path):
        # Each kill discards a fleet, and the last fleet outlives the
        # soak: none of them may leave a broker connection open.
        path = str(tmp_path / "replay.csv")
        write_indicator_csv(make_stream(seed=2, n=120), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_soak(
                path,
                tenants=2,
                duration=30.0,
                slice_windows=32,
                kill_every=2,
                seed=5,
                broker_url=server.url,
            )
            gc.collect()
        assert report.windows_total == 2 * 120
        assert report.resumes > 0
        unclosed = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
            and "socket" in str(warning.message)
        ]
        assert unclosed == []

    def test_file_soak_reports_no_broker_section(self, tmp_path):
        path = str(tmp_path / "replay.csv")
        write_indicator_csv(make_stream(seed=2, n=40), path)
        report = run_soak(
            path, tenants=1, duration=5.0, rate=0.0, kill_every=0
        )
        assert not report.broker
        assert "broker:" not in report.summary()


class TestBrokerRetryWiring:
    def test_source_retry_policy_rides_through(self, server):
        stream = make_stream(n=10)
        publish_indicator_stream(server.url, "w", stream)
        source = BrokerSource(
            server.url,
            stream="w",
            group="g",
            consumer="c0",
            retry=RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0),
        )
        server.inject_fault("reset", command="XGROUP")
        answers = asyncio.run(
            StreamService(make_spec(None)).pump(source)
        )
        assert answers == memory_fed(stream)
        source.close()
