"""Tests for StreamGateway: tenancy, isolation, checkpoint/resume."""

import asyncio
import dataclasses
import json
import re

import numpy as np
import pytest

from repro.io import (
    CallbackSink,
    QueueSource,
    StreamSink,
    write_indicator_csv,
)
from repro.mechanisms.accountant import BudgetExceededError
from repro.service import ServiceSpec, StreamGateway, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)


def make_stream(seed, n=100):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n, 5)) < 0.4)


def make_spec(seed=7, **overrides):
    kwargs = dict(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="uniform-ppm",
        mechanism_options={"epsilon": 2.0},
        seed=seed,
    )
    kwargs.update(overrides)
    return ServiceSpec(**kwargs)


@pytest.fixture
def csv_specs(tmp_path):
    """Two tenants' specs over distinct csv files."""
    specs = {}
    for name, seed, mech, opts in [
        ("a", 7, "uniform-ppm", {"epsilon": 2.0}),
        ("b", 8, "bd", {"epsilon": 1.0, "w": 10}),
    ]:
        path = str(tmp_path / f"{name}.csv")
        write_indicator_csv(make_stream(seed + 100), path)
        specs[name] = make_spec(
            seed, mechanism=mech, mechanism_options=opts,
            source=f"csv:{path}",
        )
    return specs


class TestTenancy:
    def test_duplicate_tenant_rejected(self, csv_specs):
        gateway = StreamGateway()
        gateway.add_tenant("a", csv_specs["a"])
        with pytest.raises(ValueError, match="already registered"):
            gateway.add_tenant("a", csv_specs["b"])

    def test_empty_name_rejected(self, csv_specs):
        with pytest.raises(ValueError, match="name"):
            StreamGateway().add_tenant("", csv_specs["a"])

    def test_sourceless_tenant_rejected(self):
        with pytest.raises(ValueError, match="no source"):
            StreamGateway().add_tenant("a", make_spec())

    def test_unknown_tenant_lookup(self, csv_specs):
        gateway = StreamGateway()
        gateway.add_tenant("a", csv_specs["a"])
        with pytest.raises(KeyError, match="unknown tenant"):
            gateway.service("nope")

    def test_serving_empty_gateway_rejected(self):
        with pytest.raises(RuntimeError, match="no tenants"):
            asyncio.run(StreamGateway().serve())

    def test_tenant_names_in_registration_order(self, csv_specs):
        gateway = StreamGateway()
        gateway.add_tenant("b", csv_specs["b"])
        gateway.add_tenant("a", csv_specs["a"])
        assert gateway.tenant_names == ["b", "a"]


class TestIsolation:
    def test_per_tenant_budgets_are_independent(self, tmp_path):
        path = str(tmp_path / "s.csv")
        write_indicator_csv(make_stream(1, 40), path)
        # Tenant "small" can afford exactly one ε=2 release; tenant
        # "large" has plenty.  Serving both must charge each ledger
        # separately.
        gateway = StreamGateway()
        gateway.add_tenant(
            "small",
            make_spec(1, source=f"csv:{path}", accounting=2.0),
        )
        gateway.add_tenant(
            "large",
            make_spec(2, source=f"csv:{path}", accounting=100.0),
        )
        gateway.run()
        small = gateway.service("small").accountant
        large = gateway.service("large").accountant
        assert small.remaining() == pytest.approx(0.0)
        assert large.remaining() == pytest.approx(98.0)
        # The exhausted tenant refuses another session; the other works.
        with pytest.raises(BudgetExceededError):
            gateway.service("small").open_session()
        gateway.service("large").open_session()

    def test_seeds_do_not_leak_between_tenants(self, tmp_path):
        # Same data, same seed → identical outputs even when served
        # concurrently with a third, different tenant.
        path = str(tmp_path / "s.csv")
        write_indicator_csv(make_stream(1, 60), path)
        twin_spec = make_spec(5, source=f"csv:{path}")

        solo = StreamGateway()
        solo.add_tenant("twin", twin_spec)
        expected = solo.run()["twin"]

        crowded = StreamGateway()
        crowded.add_tenant("twin", twin_spec)
        crowded.add_tenant(
            "noisy",
            make_spec(
                6,
                source="synthetic:generator=bernoulli,windows=200,seed=3",
                mechanism="event-rr",
                mechanism_options={"epsilon": 0.5},
            ),
        )
        assert crowded.run()["twin"] == expected


class TestQueueAndCallbackTenants:
    def test_live_queue_source_and_callback_sink(self):
        stream = make_stream(42, 30)
        egressed = []

        async def drive():
            queue = asyncio.Queue(maxsize=8)
            gateway = StreamGateway()
            gateway.add_tenant(
                "live",
                make_spec(3, source="queue"),
                source=QueueSource(queue),
                sink=CallbackSink(
                    lambda index, row, answers: egressed.append(index)
                ),
            )

            async def produce():
                for index in range(stream.n_windows):
                    await queue.put(stream.window_types(index))
                await queue.put(None)

            producer = asyncio.ensure_future(produce())
            await gateway.serve()
            await producer
            return gateway.results()

        results = asyncio.run(drive())
        assert len(results["live"]["q"]) == stream.n_windows
        assert egressed == list(range(stream.n_windows))
        # Identical to feeding the same windows in memory.
        alone = asyncio.run(make_spec(3).build().pump(stream))
        assert results["live"] == alone


class BlockLog(StreamSink):
    """Records each written block in a shared log; ``on_block`` (if
    set) runs after every write."""

    def __init__(self, name, log, on_block=None):
        super().__init__()
        self.name = name
        self.log = log
        self.on_block = on_block

    def write_block(self, start, rows, answers, truth=None):
        self.log.append((self.name, start, len(rows)))
        if self.on_block is not None:
            self.on_block()


class TestFairness:
    def test_bulk_blocks_do_not_starve_a_live_tenant(self, tmp_path):
        # A bulk csv tenant fills whole max_pending blocks; a window
        # offered to a queue tenant meanwhile is egressed within two
        # further bulk blocks, however long the bulk stream is.
        blocks = 16
        path = str(tmp_path / "bulk.csv")
        write_indicator_csv(make_stream(5, blocks * 1024), path)
        bulk_spec = make_spec(
            8,
            mechanism="bd",
            mechanism_options={"epsilon": 1.0, "w": 10},
            source=f"csv:{path}",
        )
        log = []

        async def drive():
            queue = asyncio.Queue()

            def offer():
                if len(log) == 3:
                    log.append(("offer", None, 1))
                    queue.put_nowait(make_stream(6, 1).window_types(0))

            def end_live():
                queue.put_nowait(None)

            gateway = StreamGateway()
            gateway.add_tenant(
                "bulk", bulk_spec, sink=BlockLog("bulk", log, offer)
            )
            gateway.add_tenant(
                "live",
                make_spec(3, source="queue"),
                source=QueueSource(queue),
                sink=BlockLog("live", log, end_live),
            )
            await gateway.serve()
            return gateway.results()

        results = asyncio.run(drive())
        assert len(results["live"]["q"]) == 1
        assert len(results["bulk"]["q"]) == blocks * 1024
        names = [name for name, _start, _rows in log]
        assert names.count("bulk") == blocks
        offered = names.index("offer")
        egressed = names.index("live")
        assert names[offered + 1 : egressed].count("bulk") <= 2


class TestCheckpointResume:
    def test_sliced_serving_resumes_bit_identically(self, csv_specs):
        uninterrupted = StreamGateway()
        for name, spec in csv_specs.items():
            uninterrupted.add_tenant(name, spec)
        expected = uninterrupted.run()

        gateway = StreamGateway()
        for name, spec in csv_specs.items():
            gateway.add_tenant(name, spec)
        asyncio.run(gateway.serve(max_windows=35))
        checkpoint = gateway.checkpoint()

        # ... the process dies; a fresh gateway resumes mid-stream.
        resumed = StreamGateway.resume(checkpoint)
        assert resumed.tenant_names == list(csv_specs)
        asyncio.run(resumed.serve())
        for name in csv_specs:
            combined = {
                query: gateway.results()[name][query]
                + resumed.results()[name][query]
                for query in expected[name]
            }
            assert combined == expected[name], name

    def test_resume_parses_the_recorded_spec_only_when_it_differs(
        self, csv_specs, monkeypatch
    ):
        spec = csv_specs["b"]
        expected = asyncio.run(spec.build().pump())
        service = spec.build()
        head = asyncio.run(service.pump(max_windows=30))
        checkpoint = service.checkpoint()

        parsed = []
        from_dict = ServiceSpec.from_dict.__func__

        def spy(cls, data):
            parsed.append(data)
            return from_dict(cls, data)

        monkeypatch.setattr(ServiceSpec, "from_dict", classmethod(spy))
        # A JSON round trip leaves the recorded dict equal to the
        # spec's own: nothing is parsed.
        travelled = json.loads(json.dumps(checkpoint["spec"]))
        travelled = dict(checkpoint, spec=travelled)
        resumed = StreamService.resume(spec, travelled)
        assert parsed == []
        tail = asyncio.run(resumed.pump())
        assert {name: head[name] + tail[name] for name in head} == expected

        # A recorded dict that differs only in form (tuples for lists)
        # is parsed, and the spec it describes is accepted.
        recorded = dict(
            checkpoint["spec"], alphabet=tuple(checkpoint["spec"]["alphabet"])
        )
        resumed = StreamService.resume(spec, dict(checkpoint, spec=recorded))
        assert parsed == [recorded]
        assert asyncio.run(resumed.pump()) == tail

        reseeded = dict(checkpoint, spec=spec.with_(seed=99).to_dict())
        with pytest.raises(ValueError, match="different spec"):
            StreamService.resume(spec, reseeded)

    def test_checkpoint_records_source_offsets(self, csv_specs):
        gateway = StreamGateway()
        for name, spec in csv_specs.items():
            gateway.add_tenant(name, spec)
        asyncio.run(gateway.serve(max_windows=20))
        checkpoint = gateway.checkpoint()
        for name in csv_specs:
            assert checkpoint["tenants"][name]["source_offset"] == 20

    def test_checkpoint_before_serving_rejected(self, csv_specs):
        gateway = StreamGateway()
        gateway.add_tenant("a", csv_specs["a"])
        with pytest.raises(RuntimeError, match="no open session"):
            gateway.checkpoint()

    def test_resumed_csv_sink_appends(self, csv_specs, tmp_path):
        from repro.io import read_indicator_csv

        out = str(tmp_path / "released.csv")
        spec = csv_specs["a"].with_(sink=f"csv:{out}")

        gateway = StreamGateway()
        gateway.add_tenant("a", spec)
        asyncio.run(gateway.serve(max_windows=40))
        checkpoint = gateway.checkpoint()
        resumed = StreamGateway.resume(checkpoint)
        asyncio.run(resumed.serve())

        released = read_indicator_csv(out)
        assert released.n_windows == 100
        # Identical to an uninterrupted run's released stream.
        alone = StreamGateway()
        alone_out = str(tmp_path / "alone.csv")
        alone.add_tenant("a", csv_specs["a"].with_(sink=f"csv:{alone_out}"))
        alone.run()
        assert released == read_indicator_csv(alone_out)

    def test_resume_ignores_retired_session_options(self, csv_specs):
        # Checkpoints written before the queue bound became the only
        # session option also carry max_batch/record; they still resume.
        gateway = StreamGateway()
        gateway.add_tenant("a", csv_specs["a"], max_pending=32)
        asyncio.run(gateway.serve(max_windows=40))
        checkpoint = gateway.checkpoint()
        checkpoint["tenants"]["a"]["session_options"] = {
            "max_pending": 32,
            "max_batch": 8,
            "record": True,
        }
        resumed = StreamGateway.resume(checkpoint)
        assert resumed.service("a").session.block_rows == 32
        asyncio.run(resumed.serve())
        assert resumed.windows_served() == {"a": 100}

    def test_sync_session_tenant_resumes_and_serves(self, csv_specs):
        # A tenant whose service holds a sync session checkpoints with
        # no session options; the resumed gateway serves it to the end
        # on that session's one charge.
        spec = dataclasses.replace(csv_specs["a"], accounting=10.0)
        service = spec.build()
        service.open_session()
        gateway = StreamGateway()
        gateway.add_tenant("a", service)
        checkpoint = gateway.checkpoint()
        assert checkpoint["tenants"]["a"]["kind"] == "online"
        assert "session_options" not in checkpoint["tenants"]["a"]
        resumed = StreamGateway.resume(checkpoint)
        results = resumed.run()
        assert resumed.windows_served() == {"a": 100}
        assert len(results["a"]["q"]) == 100
        ledger = resumed.service("a").accountant.spends
        assert [spend.epsilon for spend in ledger] == [2.0]

    def test_sync_session_tenant_with_exact_budget_serves(self, csv_specs):
        # accounting == ε leaves room for exactly one release.
        spec = dataclasses.replace(csv_specs["a"], accounting=2.0)
        service = spec.build()
        service.open_session()
        gateway = StreamGateway()
        gateway.add_tenant("a", service)
        resumed = StreamGateway.resume(gateway.checkpoint())
        resumed.run()
        assert resumed.windows_served() == {"a": 100}
        assert resumed.service("a").accountant.spent() == 2.0

    def test_windows_served_counts(self, csv_specs):
        gateway = StreamGateway()
        for name, spec in csv_specs.items():
            gateway.add_tenant(name, spec)
        asyncio.run(gateway.serve(max_windows=10))
        assert gateway.windows_served() == {"a": 10, "b": 10}


class TestBindOnce:
    """A served source is validated when first bound, not again on
    every slice that binds it."""

    def test_sliced_csv_tenant_reads_each_header_once(
        self, csv_specs, monkeypatch
    ):
        from repro.io import sources

        expected = StreamGateway()
        for name, spec in csv_specs.items():
            expected.add_tenant(name, spec)
        uninterrupted = expected.run()

        reads = []
        header = sources._csv_header

        def counting(path):
            reads.append(path)
            return header(path)

        monkeypatch.setattr(sources, "_csv_header", counting)
        gateway = StreamGateway()
        for name, spec in csv_specs.items():
            gateway.add_tenant(name, spec)
        served = {name: [] for name in csv_specs}
        compiled = {name: [] for name in csv_specs}
        for slice_number in range(5):
            if slice_number == 3:
                # A resume builds each tenant one new source.
                served_so_far = gateway.results()
                gateway = StreamGateway.resume(gateway.checkpoint())
                for name in csv_specs:
                    served[name].append(served_so_far[name])
            asyncio.run(gateway.serve(max_windows=20))
            for name in csv_specs:
                source = gateway.service(name).last_source
                if all(source is not seen for seen in compiled[name]):
                    compiled[name].append(source)
        for name, spec in csv_specs.items():
            head = served[name][0]
            tail = gateway.results()[name]
            assert {q: head[q] + tail[q] for q in head} == uninterrupted[name]
            path = spec.source[len("csv:"):]
            assert len(compiled[name]) == 2
            assert reads.count(path) == len(compiled[name])
        assert len(reads) == 2 * len(csv_specs)

        source = compiled["a"][-1]
        assert source.bind(ALPHABET) is source
        with pytest.raises(ValueError, match="different alphabet"):
            source.bind(EventAlphabet.numbered(6))
        assert len(reads) == 2 * len(csv_specs)


class TestCrossLoopSlicedServing:
    """Sliced serving spans asyncio.run calls: each run() tears down
    its loop (killing drainer tasks), so the next slice must rebuild
    sessions from their quiescent snapshots."""

    def test_two_serve_calls_on_separate_loops(self, csv_specs):
        expected = StreamGateway()
        for name, spec in csv_specs.items():
            expected.add_tenant(name, spec)
        uninterrupted = expected.run()

        gateway = StreamGateway()
        for name, spec in csv_specs.items():
            gateway.add_tenant(name, spec)
        asyncio.run(gateway.serve(max_windows=30))  # loop 1
        asyncio.run(gateway.serve(max_windows=30))  # loop 2
        asyncio.run(gateway.serve())                # loop 3
        assert gateway.results() == uninterrupted

    def test_service_pump_across_loops(self, csv_specs):
        service = csv_specs["b"].build()
        first = asyncio.run(service.pump(max_windows=40))
        second = asyncio.run(service.pump())
        alone = asyncio.run(csv_specs["b"].build().pump())
        for name in alone:
            assert first[name] + second[name] == alone[name]


class TestCancelledPumpConsistency:
    """A cancelled pump must leave sink, session counters and
    checkpoint offsets mutually consistent: every released window is
    egressed, no unreleased window is skipped on resume."""

    def test_cancel_mid_pump_keeps_sink_and_offset_consistent(
        self, tmp_path
    ):
        from repro.io import read_indicator_csv

        path = str(tmp_path / "in.csv")
        stream = make_stream(55, 200)
        write_indicator_csv(stream, path)
        out = str(tmp_path / "out.csv")
        # A paced replay (≈2 ms/window) keeps the pump mid-stream when
        # the cancel lands, whatever the host speed.
        spec = make_spec(9, source=f"replay:{path}:500", sink=f"csv:{out}")

        async def drive():
            service = spec.build()
            task = asyncio.ensure_future(service.pump(max_pending=8))
            await asyncio.sleep(0.08)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return service

        service = asyncio.run(drive())
        session = service.session
        # Quiescent and mutually consistent after the cancel.
        assert session.windows_submitted == session.windows_processed
        assert 0 < session.windows_processed < stream.n_windows
        released = read_indicator_csv(out)
        assert released.n_windows == session.windows_processed
        checkpoint = service.checkpoint()
        assert checkpoint["source_offset"] == session.windows_processed

        # Resume completes the stream; the appended sink equals an
        # uninterrupted run's released output.
        resumed = StreamService.resume(spec, checkpoint)
        asyncio.run(resumed.pump())
        alone_out = str(tmp_path / "alone.csv")
        alone = spec.with_(sink=f"csv:{alone_out}").build()
        asyncio.run(alone.pump())
        assert read_indicator_csv(out) == read_indicator_csv(alone_out)


class TestResumeEgressConsistency:
    """Review hardening pins: resumed sinks append, queue offsets
    carry across generations, cancelled submits lose no window."""

    def test_direct_resume_appends_to_file_sink(self, tmp_path):
        from repro.io import read_indicator_csv

        path = str(tmp_path / "in.csv")
        write_indicator_csv(make_stream(31, 100), path)
        out = str(tmp_path / "out.csv")
        spec = make_spec(9, source=f"csv:{path}", sink=f"csv:{out}")

        service = spec.build()
        asyncio.run(service.pump(max_windows=50))
        checkpoint = service.checkpoint()
        assert checkpoint["sink_opened"] is True
        resumed = StreamService.resume(spec, checkpoint)
        asyncio.run(resumed.pump())  # the first sink appends

        released = read_indicator_csv(out)
        assert released.n_windows == 100
        alone_out = str(tmp_path / "alone.csv")
        alone = spec.with_(sink=f"csv:{alone_out}").build()
        asyncio.run(alone.pump())
        assert released == read_indicator_csv(alone_out)

    def test_queue_resume_carries_offset_into_next_checkpoint(self):
        stream = make_stream(44, 90)
        spec = make_spec(3, source="queue")

        def feed(indices):
            queue = asyncio.Queue()
            for index in indices:
                queue.put_nowait(stream.window_types(index))
            queue.put_nowait(None)
            return queue

        service = spec.build()
        asyncio.run(service.pump(QueueSource(feed(range(45)))))
        first = service.checkpoint()
        assert first["source_offset"] == 45

        resumed = StreamService.resume(
            spec, first, source=QueueSource(feed(range(45, 90)))
        )
        asyncio.run(resumed.pump())
        second = resumed.checkpoint()
        assert second["source_offset"] == 90
        assert resumed.session.windows_processed == 90

    def test_cancelled_submit_window_is_not_lost_on_reused_source(self):
        stream = make_stream(12, 10)
        spec = make_spec(4, sink="memory")

        async def go():
            service = spec.build()
            session = service.open_async_session(max_pending=2)
            # Stall the drainer so the third submit suspends, then
            # cancel the pump mid-submit.
            gate = asyncio.Event()
            original_drain = session._drain

            async def gated_drain():
                await gate.wait()
                await original_drain()

            session._drain = gated_drain
            task = asyncio.ensure_future(service.pump(stream))
            for _ in range(20):
                await asyncio.sleep(0)
            assert not task.done()  # suspended inside submit
            task.cancel()
            gate.set()  # let accepted windows drain for the sink
            with pytest.raises(asyncio.CancelledError):
                await task
            source = service.last_source
            # The cancelled row was pushed back, not dropped.
            assert source.offset == service.session.windows_processed
            # A later pump on the SAME source re-emits it.
            rest = await service.pump()
            return service, rest

        service, _rest = asyncio.run(go())
        assert service.session.windows_processed == stream.n_windows
        result = service.last_sink.result()
        assert result["released"].n_windows == stream.n_windows
        # Released stream identical to an uninterrupted run.
        alone = spec.build()
        asyncio.run(alone.pump(stream))
        assert result["released"] == alone.last_sink.result()["released"]

    def test_cancelled_sinkless_pump_stays_checkpointable(self, tmp_path):
        path = str(tmp_path / "in.csv")
        write_indicator_csv(make_stream(17, 200), path)
        spec = make_spec(9, source=f"replay:{path}:500")

        async def drive():
            service = spec.build()
            task = asyncio.ensure_future(service.pump(max_pending=8))
            await asyncio.sleep(0.08)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return service

        service = asyncio.run(drive())
        session = service.session
        assert session.windows_submitted == session.windows_processed
        checkpoint = service.checkpoint()  # must not be wedged
        assert checkpoint["source_offset"] == session.windows_processed
        resumed = StreamService.resume(spec, checkpoint)
        second = asyncio.run(resumed.pump())
        # Counters are cumulative across restore: the resumed pump
        # answers exactly the windows the cancelled one never drew.
        assert len(second["q"]) == 200 - session.windows_processed
        assert resumed.session.windows_processed == 200


class TestCrossLoopBudgetAccounting:
    def test_sliced_serving_charges_the_budget_once(self, tmp_path):
        # ε=2 cap, ε=2 session charge: the sliced pattern must charge
        # once like an uninterrupted run, not once per rebuilt loop.
        path = str(tmp_path / "s.csv")
        write_indicator_csv(make_stream(3, 90), path)
        spec = make_spec(5, source=f"csv:{path}", accounting=2.0)

        gateway = StreamGateway()
        gateway.add_tenant("t", spec)
        asyncio.run(gateway.serve(max_windows=30))  # loop 1
        asyncio.run(gateway.serve(max_windows=30))  # loop 2 (rebuild)
        asyncio.run(gateway.serve())                # loop 3 (rebuild)
        accountant = gateway.service("t").accountant
        assert accountant.spent() == pytest.approx(2.0)

        alone = StreamGateway()
        alone.add_tenant("t", spec)
        assert gateway.results() == alone.run()


class TestBatchRunSessionSeparation:
    """Batch run() passes are independent of the session's streaming
    position: they never move the checkpointed offset, and egress on a
    resumed service appends rather than truncates."""

    def test_run_does_not_pollute_checkpoint_offset(self, tmp_path):
        path = str(tmp_path / "in.csv")
        write_indicator_csv(make_stream(23, 20), path)
        spec = make_spec(5, source=f"csv:{path}")
        service = spec.build()
        service.run()  # a full batch pass consumes its own source
        service.open_async_session()
        checkpoint = service.checkpoint()
        assert "source_offset" not in checkpoint
        resumed = StreamService.resume(spec, checkpoint)
        answers = asyncio.run(resumed.pump())
        assert len(answers["q"]) == 20  # nothing silently skipped

    def test_resumed_run_appends_to_file_sink(self, tmp_path):
        from repro.io import read_indicator_csv

        path = str(tmp_path / "in.csv")
        write_indicator_csv(make_stream(24, 30), path)
        out = str(tmp_path / "out.csv")
        spec = make_spec(6, source=f"csv:{path}", sink=f"csv:{out}")
        service = spec.build()
        asyncio.run(service.pump(max_windows=10))
        checkpoint = service.checkpoint()
        resumed = StreamService.resume(spec, checkpoint)
        resumed.run()  # an independent batch release over all 30
        # 10 pre-crash pump rows + 30 batch rows, nothing truncated.
        assert read_indicator_csv(out).n_windows == 40

    def test_callback_sink_cannot_corrupt_pump_answers(self):
        stream = make_stream(25, 20)
        spec = make_spec(7)

        def vandal(index, row, answers):
            answers.clear()
            answers["q"] = "CORRUPTED"

        service = spec.build()
        answers = asyncio.run(
            service.pump(stream, sink=CallbackSink(vandal))
        )
        expected = asyncio.run(spec.build().pump(stream))
        assert answers == expected

    def test_pathless_raw_tail_specs_rejected_pointedly(self):
        with pytest.raises(ValueError, match="csv:<path>"):
            make_spec(1, source="csv")
        with pytest.raises(ValueError, match="jsonl:<path>"):
            make_spec(1, sink="jsonl")
        from repro.io import resolve_source

        with pytest.raises(ValueError, match="needs a path"):
            resolve_source("csv:")


class TestElasticity:
    """PR 7: tenant scheduling, rate limits, shed surfacing, scatter."""

    def _declarative_spec(self, seed, n=60):
        return make_spec(
            seed,
            source=(
                f"synthetic:generator=bernoulli,windows={n},"
                f"seed={seed + 100},p=0.4"
            ),
            sink="metrics",
        )

    def test_add_tenant_accepts_tenant_spec(self):
        from repro.service import TenantSpec

        tenant = TenantSpec(
            name="t",
            service=self._declarative_spec(3),
            seed=11,
            budget=8.0,
        )
        gateway = StreamGateway()
        service = gateway.add_tenant(tenant)
        assert gateway.tenant_names == ["t"]
        assert service.spec.seed == 11
        assert service.spec.accounting == 8.0

    def test_tenant_spec_json_round_trip(self):
        from repro.service import TenantSpec

        tenant = TenantSpec(
            name="t",
            service=self._declarative_spec(3),
            seed=11,
            rate_limit=100.0,
            burst=5.0,
        )
        assert TenantSpec.from_json(tenant.to_json()) == tenant
        with pytest.raises(ValueError, match="unknown fields"):
            TenantSpec.from_dict({"name": "t", "bogus": 1})
        with pytest.raises(ValueError, match="burst without"):
            TenantSpec(
                name="t", service=self._declarative_spec(3), burst=2.0
            )

    def test_fleet_from_one_json_document(self):
        import json

        from repro.service import TenantSpec

        document = json.dumps(
            {
                "format": 1,
                "tenants": [
                    TenantSpec(
                        name="a", service=self._declarative_spec(1)
                    ).to_dict(),
                    TenantSpec(
                        name="b", service=self._declarative_spec(2)
                    ).to_dict(),
                ],
            }
        )
        gateway = StreamGateway.from_json(document)
        assert gateway.tenant_names == ["a", "b"]
        results = gateway.run()
        assert len(results["a"]["q"]) == 60
        assert len(results["b"]["q"]) == 60
        # Bit-identical to standing the fleet up by hand.
        reference = StreamGateway()
        reference.add_tenant("a", self._declarative_spec(1))
        reference.add_tenant("b", self._declarative_spec(2))
        assert reference.run() == results
        with pytest.raises(ValueError, match="unknown fields"):
            StreamGateway.from_json('{"format": 1, "tenants": [], "x": 1}')

    @pytest.mark.parametrize("key", ["scan", "sensitivity"])
    def test_fleet_with_a_removed_key_fails_at_tenant_parsing(
        self, monkeypatch, key
    ):
        from repro.service import TenantSpec

        tenant = TenantSpec(
            name="a",
            service=self._declarative_spec(1).with_(
                mechanism="bd:epsilon=1.0,w=10",
                mechanism_options={},
            ),
        ).to_dict()
        tenant["service"]["mechanism"] = f"bd:epsilon=1.0,w=10,{key}=1"
        message = (
            f"unknown key '{key}' for mechanism spec 'bd'; valid keys: "
            "conversion_mode, epsilon, pattern_epsilon, w"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            TenantSpec.from_dict(tenant)
        added = []
        monkeypatch.setattr(
            StreamGateway,
            "add_tenant",
            lambda gateway, *args, **kwargs: added.append(args),
        )
        document = json.dumps({"format": 1, "tenants": [tenant]})
        with pytest.raises(ValueError, match=re.escape(message)):
            StreamGateway.from_json(document)
        assert added == []

    def test_rate_limited_tenant_sheds_and_surfaces(self):
        # A frozen clock admits exactly the burst, sheds the rest.
        clock = lambda: 0.0  # noqa: E731
        gateway = StreamGateway()
        gateway.add_tenant(
            "lim",
            self._declarative_spec(5),
            rate_limit=1.0,
            burst=10.0,
            clock=clock,
        )
        results = gateway.run()
        assert len(results["lim"]["q"]) == 10
        assert gateway.shed_windows() == {"lim": 50}
        sink_result = gateway.sink_result("lim")
        assert sink_result["windows"] == 10
        assert sink_result["shed"] == 50
        # The admitted prefix is bit-identical to an unlimited run.
        unlimited = StreamGateway()
        unlimited.add_tenant("lim", self._declarative_spec(5))
        assert (
            results["lim"]["q"] == unlimited.run()["lim"]["q"][:10]
        )

    def test_shed_windows_are_consumed_not_replayed(self):
        """A shed window is spent: resume continues past it."""
        clock = lambda: 0.0  # noqa: E731
        gateway = StreamGateway()
        gateway.add_tenant(
            "lim",
            self._declarative_spec(6),
            rate_limit=1.0,
            burst=5.0,
            clock=clock,
        )
        gateway.run()
        checkpoint = gateway.checkpoint()
        assert checkpoint["rate_limits"]["lim"] == {
            "rate_limit": 1.0,
            "burst": 5.0,
        }
        # All 60 source windows were consumed: 5 answered, 55 shed.
        assert checkpoint["tenants"]["lim"]["source_offset"] == 60
        assert gateway.shed_windows()["lim"] == 55
        resumed = StreamGateway.resume(checkpoint)
        assert resumed._tenants["lim"].rate_limit == 1.0
        resumed.run()
        # Nothing left to serve — shed windows are lost by design.
        assert resumed.results()["lim"]["q"] == []

    def test_serve_scattered_matches_local(self):
        reference = StreamGateway()
        for index, name in enumerate(["a", "b", "c"]):
            reference.add_tenant(name, self._declarative_spec(index))
        expected = reference.run()

        scattered = StreamGateway()
        for index, name in enumerate(["a", "b", "c"]):
            scattered.add_tenant(name, self._declarative_spec(index))
        results = scattered.serve_scattered(slots=2)
        assert results == expected
        assert scattered.windows_served() == {
            "a": 60, "b": 60, "c": 60,
        }
        sink_result = scattered.sink_result("a")
        assert sink_result["windows"] == 60

    def test_scattered_then_local_continuation(self):
        reference = StreamGateway()
        reference.add_tenant("a", self._declarative_spec(9))
        expected = reference.run()

        gateway = StreamGateway()
        gateway.add_tenant("a", self._declarative_spec(9))
        gateway.serve_scattered(slots=1, max_windows=25)
        gateway.run()
        assert gateway.results() == expected

    def test_scattered_slices_append_to_a_file_sink(self, tmp_path):
        # Each scattered slice resumes the tenant in a worker from the
        # parent's checkpoint; its file sink must keep appending.
        from repro.io import read_indicator_csv

        def spec(out):
            return self._declarative_spec(9).with_(sink=f"csv:{out}")

        alone = StreamGateway()
        alone.add_tenant("a", spec(tmp_path / "alone.csv"))
        alone.run()

        gateway = StreamGateway()
        gateway.add_tenant("a", spec(tmp_path / "sliced.csv"))
        gateway.serve_scattered(slots=1, max_windows=25)
        gateway.serve_scattered(slots=1, max_windows=25)
        gateway.run()
        released = read_indicator_csv(str(tmp_path / "sliced.csv"))
        assert released.n_windows == 60
        assert released == read_indicator_csv(str(tmp_path / "alone.csv"))

    def test_scattered_telemetry_matches_local(self):
        # The workers' session and pump counters reach the parent
        # registry: two scattered slices leave what two local ones do.
        def fleet():
            gateway = StreamGateway()
            for index, name in enumerate(["a", "b"]):
                gateway.add_tenant(
                    name, self._declarative_spec(index, n=300)
                )
            return gateway

        local = fleet()
        for _ in range(2):
            asyncio.run(local.serve(max_windows=150))
        scattered = fleet()
        for _ in range(2):
            scattered.serve_scattered(slots=2, max_windows=150)
        assert scattered.results() == local.results()
        for name in (
            "repro_session_windows_total",
            "repro_pump_windows_total",
        ):
            assert local.registry.counter(name).value == 600
            assert scattered.registry.counter(name).value == 600

    def test_scattered_shed_is_counted_once(self):
        gateway = StreamGateway()
        gateway.add_tenant(
            "a",
            self._declarative_spec(4, n=300),
            rate_limit=2000.0,
            burst=5.0,
        )
        sink_shed = 0
        for _ in range(2):
            gateway.serve_scattered(slots=2, max_windows=150)
            sink_shed += gateway.sink_result("a")["shed"]
        counter = gateway.registry.counter(
            "repro_tenant_shed_windows_total"
        ).labels(tenant="a")
        assert sink_shed > 0
        assert gateway.shed_windows() == {"a": sink_shed}
        assert counter.value == sink_shed

    def test_scattered_rejects_runtime_connectors(self):
        gateway = StreamGateway()
        gateway.add_tenant(
            "live",
            make_spec(3),
            source=make_stream(3, n=20),
        )
        with pytest.raises(ValueError, match="fully declarative"):
            gateway.serve_scattered()

    def test_tenant_scheduler_round_robin(self):
        from repro.service.gateway import TenantScheduler

        scheduler = TenantScheduler(2)
        assert scheduler.assign(["a", "b", "c"]) == [["a", "c"], ["b"]]
        assert TenantScheduler(5).assign(["a"]) == [["a"]]
        with pytest.raises(ValueError, match="positive int"):
            TenantScheduler(0)

    def test_token_bucket_refill(self):
        from repro.service.gateway import TokenBucket

        now = [0.0]
        bucket = TokenBucket(2.0, 3.0, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        now[0] = 1.0  # two tokens accrue at rate 2/s
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        with pytest.raises(ValueError):
            TokenBucket(0.0)
