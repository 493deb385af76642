"""Async ingestion sessions: parity, backpressure and flush-on-close."""

import asyncio
import pickle

import numpy as np
import pytest

from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.user_level import UserLevelRR
from repro.cep import (
    AsyncSession,
    CEPEngine,
    ContinuousQuery,
    OnlineSession,
    Pattern,
)
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)


def make_engine(mechanism="uniform", accounting=None):
    if mechanism == "uniform":
        mechanism = UniformPatternPPM(Pattern.of_types("p", "e1"), 1.0)
    return CEPEngine(
        ALPHABET,
        queries=[
            ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e2")),
            ContinuousQuery("q2", Pattern.of_types("q2", "e3")),
        ],
        mechanism=mechanism,
        accounting=accounting,
    )


def make_stream(n_windows, seed=3):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n_windows, 5)) < 0.4)


def type_sets_of(stream):
    return [stream.window_types(i) for i in range(stream.n_windows)]


class TestAsyncSession:
    def test_matches_online_session_bit_for_bit(self):
        stream = make_stream(150)
        sync_answers = OnlineSession(make_engine(), rng=11).run(stream)

        async def go():
            async with AsyncSession(
                make_engine(), rng=11, max_pending=8
            ) as session:
                return await session.run(type_sets_of(stream))

        assert asyncio.run(go()) == sync_answers

    def test_batch_boundaries_do_not_change_answers(self):
        stream = make_stream(97)

        async def go(max_pending):
            async with AsyncSession(
                make_engine(), rng=5, max_pending=max_pending
            ) as session:
                return await session.run(type_sets_of(stream))

        one_by_one = asyncio.run(go(1))
        large_batches = asyncio.run(go(64))
        assert one_by_one == large_batches

    def test_backpressure_bounds_backlog(self):
        async def go():
            session = AsyncSession(make_engine(), rng=2, max_pending=4)
            async with session:
                for window in type_sets_of(make_stream(50)):
                    await session.submit(window)
                    assert session.backlog <= 4
            return session.windows_processed

        assert asyncio.run(go()) == 50

    def test_flush_on_close_resolves_every_future(self):
        async def go():
            session = AsyncSession(make_engine(), rng=4, max_pending=8)
            session._ensure_started()
            futures = [
                await session.submit(window)
                for window in type_sets_of(make_stream(37))
            ]
            await session.aclose()
            assert session.windows_processed == 37
            return [await future for future in futures]

        answers = asyncio.run(go())
        assert len(answers) == 37
        assert all(set(a) == {"q1", "q2"} for a in answers)

    def test_submit_after_close_raises(self):
        async def go():
            session = AsyncSession(make_engine(), rng=1)
            async with session:
                await session.process(["e1"])
            with pytest.raises(RuntimeError, match="closed"):
                await session.submit(["e2"])

        asyncio.run(go())

    def test_identity_engine_releases_truth(self):
        stream = make_stream(40)

        async def go():
            async with AsyncSession(make_engine(None), rng=0) as session:
                return await session.run(type_sets_of(stream))

        answers = asyncio.run(go())
        matcher_truth = make_engine(None).service_pipeline().matcher.answer(
            stream.matrix_view()
        )
        for name, vector in matcher_truth.items():
            assert answers[name] == [bool(v) for v in vector]

    def test_close_races_with_blocked_producers(self):
        # Producers suspended inside submit() when aclose() starts must
        # land and be flushed — not stranded behind the close sentinel.
        async def go():
            session = AsyncSession(make_engine(), rng=6, max_pending=1)
            windows = type_sets_of(make_stream(6))

            async def producer(window):
                future = await session.submit(window)
                return await future

            async with session:
                tasks = [
                    asyncio.create_task(producer(window))
                    for window in windows
                ]
                # Let every producer start (most block in queue.put).
                await asyncio.sleep(0)
            # aclose() ran with producers mid-put; all must resolve.
            answers = await asyncio.wait_for(asyncio.gather(*tasks), 5)
            assert len(answers) == len(windows)
            assert session.windows_processed == len(windows)

        asyncio.run(go())

    def test_user_level_rejected(self):
        with pytest.raises(TypeError):
            AsyncSession(make_engine(UserLevelRR(100.0)))

    def test_rejected_mechanism_charges_no_budget(self):
        engine = make_engine(UserLevelRR(5.0), accounting=10.0)
        accountant = engine.accountant
        for _ in range(3):
            with pytest.raises(TypeError):
                AsyncSession(engine)
        assert accountant.spent() == 0.0
        with pytest.raises(TypeError):
            OnlineSession(engine)
        assert accountant.spent() == 0.0

    def test_engine_without_queries_rejected(self):
        with pytest.raises(ValueError):
            AsyncSession(CEPEngine(ALPHABET))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AsyncSession(make_engine(), max_pending=0)

    def test_drainer_failure_fails_futures_and_close(self):
        class ExplodingStepper:
            def step_block(self, matrix):
                raise RuntimeError("stepper blew up")

        async def failing():
            session = AsyncSession(make_engine(), rng=1, max_pending=4)
            session._core.stepper = ExplodingStepper()
            future = await session.submit(["e1"])
            with pytest.raises(RuntimeError, match="stepper blew up"):
                await session.aclose()
            # the accepted window's future carries the same error
            with pytest.raises(RuntimeError, match="stepper blew up"):
                await future
            return session

        asyncio.run(failing())

    def test_submit_after_drainer_failure_raises(self):
        class ExplodingStepper:
            def step_block(self, matrix):
                raise RuntimeError("stepper blew up")

        async def go():
            session = AsyncSession(make_engine(), rng=1, max_pending=4)
            session._core.stepper = ExplodingStepper()
            future = await session.submit(["e1"])
            with pytest.raises(RuntimeError):
                await future
            with pytest.raises(RuntimeError, match="drainer failed"):
                await session.submit(["e2"])
            with pytest.raises(RuntimeError, match="stepper blew up"):
                await session.aclose()

        asyncio.run(go())

    def test_sequential_mechanism_supported(self):
        stream = make_stream(30)

        async def go():
            async with AsyncSession(
                make_engine(BudgetDistribution(1.0, w=5)), rng=9
            ) as session:
                return await session.run(type_sets_of(stream))

        sync_answers = OnlineSession(
            make_engine(BudgetDistribution(1.0, w=5)), rng=9
        ).run(stream)
        assert asyncio.run(go()) == sync_answers

    @pytest.mark.parametrize(
        "mechanism_factory",
        [
            lambda: "uniform",
            lambda: MultiPatternPPM(
                [
                    UniformPatternPPM(Pattern.of_types("p1", "e1"), 1.0),
                    UniformPatternPPM(Pattern.of_types("p2", "e3"), 0.5),
                ]
            ),
        ],
        ids=["uniform-ppm", "multi-ppm"],
    )
    def test_answers_match_batch_for_flip_mechanisms(
        self, mechanism_factory
    ):
        stream = make_stream(150)
        batch = make_engine(mechanism_factory()).process_indicators(
            stream, rng=7
        )

        async def go():
            async with AsyncSession(
                make_engine(mechanism_factory()), rng=7, max_pending=16
            ) as session:
                return await session.run(type_sets_of(stream))

        answers = asyncio.run(go())
        assert set(answers) == set(batch.answers)
        for name, answer in batch.answers.items():
            assert answers[name] == [bool(v) for v in answer.detections]

    def test_accounting_charged_once_per_session(self):
        engine = make_engine(accounting=10.0)
        accountant = engine.accountant
        windows = type_sets_of(make_stream(100))

        async def go(seed):
            async with AsyncSession(engine, rng=seed) as session:
                await session.run(windows)

        asyncio.run(go(1))
        # One spend for the whole session, not one per window or batch.
        assert accountant.spent() == pytest.approx(1.0)
        asyncio.run(go(2))
        assert accountant.spent() == pytest.approx(2.0)


class TestAsyncCheckpointResume:
    @pytest.mark.parametrize(
        "mechanism_factory",
        [
            lambda: "uniform",
            lambda: BudgetDistribution(1.0, w=5),
        ],
        ids=["uniform", "bd"],
    )
    def test_restored_session_matches_uninterrupted(
        self, mechanism_factory
    ):
        stream = make_stream(60)
        windows = type_sets_of(stream)

        async def straight():
            async with AsyncSession(
                make_engine(mechanism_factory()), rng=6
            ) as session:
                return await session.run(windows)

        async def crash_and_resume():
            first = AsyncSession(make_engine(mechanism_factory()), rng=6)
            async with first:
                head = await first.run(windows[:25])
                snapshot = pickle.loads(pickle.dumps(first.snapshot()))
            resumed = AsyncSession(make_engine(mechanism_factory()), rng=6)
            resumed.restore(snapshot)
            async with resumed:
                tail = await resumed.run(windows[25:])
            return {
                name: head[name] + tail[name] for name in head
            }, resumed.windows_processed

        expected = asyncio.run(straight())
        resumed_answers, processed = asyncio.run(crash_and_resume())
        assert resumed_answers == expected
        assert processed == stream.n_windows

    def test_snapshot_requires_quiescence(self):
        async def go():
            async with AsyncSession(make_engine(), rng=1) as session:
                # Submit without awaiting the answer: the window may
                # still be queued, so a snapshot must be refused.
                await session.submit(["e1"])
                if session.windows_processed != session.windows_submitted:
                    with pytest.raises(RuntimeError, match="queued"):
                        session.snapshot()

        asyncio.run(go())


def recorded(session):
    """Record every block the session's release core releases."""
    rows = []
    release = session._core.release

    def record(block):
        released, answers = release(block)
        rows.append(released)
        return released, answers

    session._core.release = record
    return rows


def run_online(session, stream, start, stop):
    window = IndicatorStream(ALPHABET, stream.matrix_view()[start:stop])
    return session.run(window)


def run_async(session, stream, start, stop):
    async def go():
        async with session:
            return await session.run(type_sets_of(stream)[start:stop])

    return asyncio.run(go())


#: Session kind → (constructor, runner over windows ``[start, stop)``).
SESSION_KINDS = {
    "online": (OnlineSession, run_online),
    "async": (AsyncSession, run_async),
}

#: An online-session snapshot of ``make_engine()`` at seed 11 after the
#: first 40 windows of ``make_stream(120)``, as written before both
#: session kinds shared one release core: checkpoints in this format
#: must keep resuming.
PARENT_FORMAT_SNAPSHOT = {
    "format": 1,
    "windows": 40,
    "stepper": {
        "children": [
            [
                {
                    "bit_generator": "PCG64",
                    "state": {
                        "state": 304796664864065657233814821946281501637,
                        "inc": 256661977964380715300135134823031587865,
                    },
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            ]
        ]
    },
}


class TestOneSnapshotFormat:
    """Both session kinds write and restore the same checkpoint."""

    @pytest.mark.parametrize(
        "first, second", [("online", "async"), ("async", "online")]
    )
    @pytest.mark.parametrize(
        "mechanism_factory",
        [
            lambda: "uniform",
            lambda: BudgetDistribution(1.0, w=5),
        ],
        ids=["uniform-ppm", "bd"],
    )
    def test_snapshot_resumes_on_the_other_kind(
        self, first, second, mechanism_factory
    ):
        stream = make_stream(90)
        cut = 37
        straight = OnlineSession(make_engine(mechanism_factory()), rng=6)
        straight_rows = recorded(straight)
        expected = run_online(straight, stream, 0, stream.n_windows)

        make_head, run_head = SESSION_KINDS[first]
        head_session = make_head(make_engine(mechanism_factory()), rng=6)
        head_rows = recorded(head_session)
        head = run_head(head_session, stream, 0, cut)
        snapshot = pickle.loads(pickle.dumps(head_session.snapshot()))
        assert set(snapshot) == {"format", "windows", "stepper"}

        make_tail, run_tail = SESSION_KINDS[second]
        resumed = make_tail(make_engine(mechanism_factory()), rng=6)
        resumed.restore(snapshot)
        tail_rows = recorded(resumed)
        tail = run_tail(resumed, stream, cut, stream.n_windows)

        assert {name: head[name] + tail[name] for name in head} == expected
        assert np.array_equal(
            np.concatenate(head_rows + tail_rows),
            np.concatenate(straight_rows),
        )
        assert resumed.windows_processed == stream.n_windows

    @pytest.mark.parametrize("kind", sorted(SESSION_KINDS))
    def test_parent_format_snapshot_resumes(self, kind):
        stream = make_stream(120)
        expected = OnlineSession(make_engine(), rng=11).run(stream)
        make, run = SESSION_KINDS[kind]
        resumed = make(make_engine(), rng=11)
        resumed.restore(PARENT_FORMAT_SNAPSHOT)
        tail = run(resumed, stream, 40, stream.n_windows)
        assert tail == {name: values[40:] for name, values in expected.items()}
        assert resumed.windows_processed == stream.n_windows


class TestQueueSourceBackpressure:
    """The PR-5 satellite pin: a queue: source faster than the drainer
    blocks on submit at the configured bound, never grows the backlog
    past it, and stays snapshot/restore-exact mid-stream."""

    def test_submit_suspends_at_the_bound_while_drainer_stalls(self):
        async def go():
            session = AsyncSession(make_engine(), rng=2, max_pending=4)
            # Gate the drainer so the producer is strictly faster.
            gate = asyncio.Event()
            original_drain = session._drain

            async def gated_drain():
                await gate.wait()
                await original_drain()

            session._drain = gated_drain
            stream = make_stream(12)
            futures = [
                await session.submit(stream.window_types(index))
                for index in range(4)
            ]
            assert session.backlog == 4  # the bound is reached...

            extra = asyncio.ensure_future(
                session.submit(stream.window_types(4))
            )
            for _ in range(10):
                await asyncio.sleep(0)
                # ...the fifth submit suspends instead of growing it.
                assert not extra.done()
                assert session.backlog == 4

            gate.set()  # drainer catches up; the producer resumes
            futures.append(await extra)
            answers = [await future for future in futures]
            await session.aclose()
            assert session.backlog == 0
            return answers

        answers = asyncio.run(go())
        assert len(answers) == 5

    def test_pump_backlog_never_exceeds_bound(self):
        from repro.io import QueueSource
        from repro.service import ServiceSpec

        stream = make_stream(80)
        spec = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[("p", ("e1",))],
            queries=[("q1", ("e1", "e2")), ("q2", ("e3",))],
            mechanism="uniform-ppm",
            mechanism_options={"epsilon": 1.0},
            seed=2,
        )

        async def go():
            queue = asyncio.Queue(maxsize=2)
            service = spec.build()
            observed = []

            async def produce():
                for index in range(stream.n_windows):
                    await queue.put(stream.window_types(index))
                    observed.append(service.session.backlog)
                await queue.put(None)

            session = service.open_async_session(max_pending=4)
            producer = asyncio.ensure_future(produce())
            answers = await service.pump(QueueSource(queue))
            await producer
            assert max(observed) <= 4
            assert session.windows_processed == stream.n_windows
            return answers

        answers = asyncio.run(go())
        expected = asyncio.run(spec.build().pump(stream))
        assert answers == expected

    def test_queue_pump_snapshot_restore_exact_mid_stream(self):
        from repro.io import QueueSource
        from repro.service import ServiceSpec, StreamService

        stream = make_stream(90)
        spec = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[("p", ("e1",))],
            queries=[("q1", ("e1", "e2")), ("q2", ("e3",))],
            mechanism="bd",
            mechanism_options={"epsilon": 1.0, "w": 10},
            source="queue",
            seed=3,
        )

        def feed(indices):
            queue = asyncio.Queue()
            for index in indices:
                queue.put_nowait(stream.window_types(index))
            queue.put_nowait(None)
            return queue

        service = spec.build()
        first = asyncio.run(
            service.pump(QueueSource(feed(range(45))))
        )
        checkpoint = service.checkpoint()
        assert checkpoint["source_offset"] == 45

        # The live queue cannot seek: resume binds a fresh queue that
        # carries the not-yet-received remainder.
        resumed = StreamService.resume(
            spec, checkpoint, source=QueueSource(feed(range(45, 90)))
        )
        second = asyncio.run(resumed.pump())

        uninterrupted = asyncio.run(
            spec.build().pump(QueueSource(feed(range(90))))
        )
        for name in uninterrupted:
            assert first[name] + second[name] == uninterrupted[name], name
