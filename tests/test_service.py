"""Tests for repro.service.service — the StreamService lifecycle."""

import asyncio

import numpy as np
import pytest

from repro.baselines.conversion import BudgetConverter
from repro.mechanisms.accountant import BudgetExceededError
from repro.service import (
    MechanismContext,
    ServiceSpec,
    StreamService,
    build_executor_from_spec,
    build_mechanism_from_spec,
    register_executor,
    register_mechanism,
    registered_executors,
    registered_mechanisms,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = ("e1", "e2", "e3", "e4")


def spec_for(**overrides) -> ServiceSpec:
    kwargs = dict(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="uniform-ppm",
        mechanism_options={"epsilon": 2.0},
        seed=7,
    )
    kwargs.update(overrides)
    return ServiceSpec(**kwargs)


@pytest.fixture
def stream():
    rng = np.random.default_rng(3)
    return IndicatorStream(
        EventAlphabet(ALPHABET), rng.random((80, 4)) < 0.45
    )


class TestConstruction:
    def test_accepts_spec_dict_and_json(self, stream):
        spec = spec_for()
        reference = StreamService(spec).run(stream)
        for form in (spec.to_dict(), spec.to_json()):
            report = StreamService(form).run(stream)
            assert np.array_equal(
                report.perturbed.matrix_view(),
                reference.perturbed.matrix_view(),
            )

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError, match="ServiceSpec"):
            StreamService(42)

    def test_spec_build_equals_constructor(self, stream):
        spec = spec_for()
        assert np.array_equal(
            spec.build().run(stream).perturbed.matrix_view(),
            StreamService(spec).run(stream).perturbed.matrix_view(),
        )

    def test_unprotected_service_passes_stream_through(self, stream):
        spec = spec_for(mechanism=None, mechanism_options={})
        report = spec.build().run(stream)
        assert report.perturbed == stream
        assert spec.build().mechanism is None

    def test_executor_options_forwarded(self):
        service = spec_for(
            executor="sharded",
            executor_options={"n_shards": 5, "materialize": False},
        ).build()
        assert service.executor.n_shards == 5
        assert service.executor.materialize is False

    def test_sharded_executor_spec_forms(self):
        from repro.runtime import ShardedExecutor

        service = spec_for(
            executor="sharded:backend=thread,workers=3",
            executor_options={"n_shards": 6},
        ).build()
        executor = service.executor
        assert isinstance(executor, ShardedExecutor)
        assert executor.n_workers == 3
        assert executor.n_shards == 6
        keyed = spec_for(executor="sharded:workers=2").build()
        assert vars(keyed.executor) == vars(ShardedExecutor(2))

    def test_sharded_transport_flags(self):
        # Multi-process sharding is the cluster executor: every
        # process-backend or transport spelling of a sharded spec fails
        # at spec construction pointing at it.
        for spec in (
            "sharded:backend=process,workers=2",
            "sharded:transport=zerocopy",
            "sharded:workers=2,transport=copy",
        ):
            with pytest.raises(ValueError, match="cluster:workers=N"):
                spec_for(executor=spec)

    def test_conflicting_sharded_spec_rejected(self):
        with pytest.raises(ValueError, match="duplicate key 'workers'"):
            spec_for(executor="sharded:workers=2,workers=4")
        # Positional tails are no executor grammar at all: the error
        # lists the keys instead of guessing what the tokens meant.
        for spec in (
            "sharded:2:4",
            "sharded:thread:gpu",
            "sharded:process:8",
            "sharded:thread:2:zerocopy",
        ):
            with pytest.raises(
                ValueError,
                match="positional tail.*valid keys: backend, transport, "
                "workers",
            ):
                spec_for(executor=spec)
            with pytest.raises(ValueError, match="positional tail"):
                build_executor_from_spec(spec)


class TestMechanismFactories:
    def test_adaptive_without_history_is_pointed_error(self):
        spec = spec_for(
            mechanism="adaptive-ppm", mechanism_options={"epsilon": 2.0}
        )
        with pytest.raises(ValueError, match="history"):
            spec.build()

    def test_adaptive_with_history_builds(self, stream):
        spec = spec_for(
            mechanism="adaptive-ppm", mechanism_options={"epsilon": 2.0}
        )
        service = spec.build(history=stream)
        assert service.mechanism.ppms[0].fit_result is not None

    def test_ppm_without_private_patterns_rejected(self):
        spec = spec_for(patterns=())
        with pytest.raises(ValueError, match="private patterns"):
            spec.build()

    def test_exactly_one_budget_source_required(self):
        context = MechanismContext(
            alphabet=EventAlphabet(ALPHABET),
            private_patterns=spec_for().pattern_objects(),
        )
        with pytest.raises(ValueError, match="exactly one"):
            build_mechanism_from_spec("uniform-ppm", context)
        with pytest.raises(ValueError, match="exactly one"):
            build_mechanism_from_spec(
                "uniform-ppm", context, epsilon=1.0, pattern_epsilon=1.0
            )

    def test_bd_pattern_epsilon_converted(self):
        spec = spec_for(
            mechanism="bd",
            mechanism_options={"pattern_epsilon": 2.0, "w": 10},
        )
        mechanism = spec.build().mechanism
        converter = BudgetConverter(2)  # longest private pattern has m=2
        assert mechanism.epsilon == pytest.approx(
            converter.bd_native(2.0, 10)
        )
        assert mechanism.w == 10

    def test_bd_without_w_rejected(self):
        spec = spec_for(mechanism="bd", mechanism_options={"epsilon": 1.0})
        with pytest.raises(ValueError, match="w-event window"):
            spec.build()

    def test_landmark_pattern_epsilon_needs_mask(self):
        spec = spec_for(
            mechanism="landmark",
            mechanism_options={"pattern_epsilon": 2.0},
        )
        with pytest.raises(ValueError, match="landmark mask"):
            spec.build()

    def test_user_rr_pattern_epsilon_needs_horizon(self, stream):
        spec = spec_for(
            mechanism="user-rr",
            mechanism_options={"pattern_epsilon": 2.0},
        )
        with pytest.raises(ValueError, match="horizon"):
            spec.build()
        # The history length is NOT the evaluation horizon; building
        # with history must not silently substitute it.
        with pytest.raises(ValueError, match="horizon"):
            spec.build(history=stream)

    def test_user_rr_explicit_horizon_calibrates_split(self, stream):
        from repro.baselines.conversion import BudgetConverter

        spec = spec_for(
            mechanism="user-rr",
            mechanism_options={
                "pattern_epsilon": 2.0,
                "n_windows": stream.n_windows,
            },
        )
        converter = BudgetConverter(2)
        assert spec.build().mechanism.epsilon == pytest.approx(
            converter.user_level_native(
                2.0, stream.n_windows, len(ALPHABET)
            )
        )

    def test_mechanism_spec_colon_arguments(self, stream):
        # Colon arguments feed the factory positionally: epsilon first.
        via_colon = spec_for(
            mechanism="uniform-ppm:2.0", mechanism_options={}
        ).build()
        via_options = spec_for().build()
        assert np.array_equal(
            via_colon.run(stream).perturbed.matrix_view(),
            via_options.run(stream).perturbed.matrix_view(),
        )

    def test_unknown_mechanism_option_rejected(self):
        # The option keys are checked at spec construction, not build.
        with pytest.raises(ValueError, match="unknown key 'epsilonn'"):
            spec_for(mechanism_options={"epsilon": 2.0, "epsilonn": 1.0})


class TestAccounting:
    def test_budget_charged_and_enforced(self, stream):
        # Each uniform-ppm release spends its pattern-level ε = 2.
        service = spec_for(accounting=3.0).build()
        service.run(stream)
        assert service.accountant is not None
        assert service.accountant.spent() == pytest.approx(2.0)
        with pytest.raises(BudgetExceededError):
            service.run(stream)

    def test_no_accounting_by_default(self, stream):
        service = spec_for().build()
        service.run(stream)
        assert service.accountant is None


class TestSessions:
    def test_open_session_matches_batch_run(self, stream):
        service = spec_for().build()
        session = service.open_session()
        positives = 0
        for index in range(stream.n_windows):
            positives += session.push(stream.window_types(index))["q"]
        batch = spec_for().build().run(stream)
        assert positives == batch.answers["q"].detection_count()
        assert service.session is session

    def test_async_session_matches_sync_session(self, stream):
        sync_answers = spec_for().build().open_session().run(stream)

        async def drive():
            service = spec_for().build()
            async with service.open_async_session() as session:
                return await session.run(
                    [
                        stream.window_types(index)
                        for index in range(stream.n_windows)
                    ]
                )

        async_answers = asyncio.run(drive())
        assert async_answers == sync_answers


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("uniform-ppm", {"epsilon": 2.0}),
            ("bd", {"epsilon": 1.0, "w": 10}),
        ],
    )
    def test_resume_continues_bit_identically(
        self, stream, mechanism, options
    ):
        spec = spec_for(mechanism=mechanism, mechanism_options=options)
        uninterrupted = spec.build().open_session().run(stream)

        service = spec.build()
        session = service.open_session()
        for index in range(30):
            session.push(stream.window_types(index))
        checkpoint = service.checkpoint()

        resumed = StreamService.resume(spec, checkpoint)
        tail = {name: [] for name in uninterrupted}
        for index in range(30, stream.n_windows):
            for name, value in resumed.session.push(
                stream.window_types(index)
            ).items():
                tail[name].append(value)
        for name, values in tail.items():
            assert values == uninterrupted[name][30:]

    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("uniform-ppm", {"epsilon": 1.0}),
            ("bd", {"epsilon": 1.0, "w": 10}),
        ],
    )
    def test_pump_continues_a_resumed_sync_session(self, mechanism, options):
        # pump over a resumed online-kind session carries on its
        # release: one budget charge, the window count and the
        # randomness of an uninterrupted pump.
        rng = np.random.default_rng(11)
        matrix = rng.random((300, len(ALPHABET))) < 0.45
        spec = spec_for(
            mechanism=mechanism,
            mechanism_options=options,
            seed=11,
            accounting=10.0,
        )
        uninterrupted = asyncio.run(spec.build().pump(matrix))

        service = spec.build()
        head = service.open_session().run(
            IndicatorStream(EventAlphabet(ALPHABET), matrix[:100])
        )
        resumed = StreamService.resume(spec, service.checkpoint())
        tail = asyncio.run(resumed.pump(matrix[100:]))
        ledger = resumed.accountant.spends
        assert [spend.epsilon for spend in ledger] == [1.0]
        assert resumed.session.windows_processed == 300
        for name, values in uninterrupted.items():
            assert head[name] + tail[name] == values

    def test_pump_and_the_sync_session_share_one_release(self, stream):
        # Windows pushed through the sync session after pump carried it
        # on are counted, checkpointed and continued by the next pump.
        service = spec_for().build()
        online = service.open_session()
        asyncio.run(service.pump(stream.matrix_view()[:20]))
        online.push(stream.window_types(20))
        assert service.checkpoint()["session"]["windows"] == 21
        asyncio.run(service.pump(stream.matrix_view()[21:]))
        assert service.session.windows_processed == stream.n_windows

    def test_resume_async_checkpoint(self, stream):
        spec = spec_for()

        async def first_half():
            service = spec.build()
            async with service.open_async_session() as session:
                await session.run(
                    [stream.window_types(index) for index in range(30)]
                )
                return service.checkpoint()

        checkpoint = asyncio.run(first_half())
        assert checkpoint["kind"] == "async"

        async def second_half():
            service = StreamService.resume(spec, checkpoint)
            async with service.session as session:
                return await session.run(
                    [
                        stream.window_types(index)
                        for index in range(30, stream.n_windows)
                    ]
                )

        tail = asyncio.run(second_half())
        uninterrupted = spec.build().open_session().run(stream)
        for name, values in tail.items():
            assert values == uninterrupted[name][30:]

    def test_resume_preserves_async_session_options(self, stream):
        spec = spec_for()

        async def first_half():
            service = spec.build()
            async with service.open_async_session(max_pending=32) as session:
                await session.run(
                    [stream.window_types(index) for index in range(10)]
                )
                return service.checkpoint()

        checkpoint = asyncio.run(first_half())
        assert checkpoint["session_options"] == {"max_pending": 32}
        resumed = StreamService.resume(spec, checkpoint)
        assert resumed.session.block_rows == 32

    def test_resume_ignores_retired_session_options(self, stream):
        # Checkpoints written before the queue bound became the only
        # session option also carry max_batch/record; they still resume.
        spec = spec_for()
        service = spec.build()

        async def first_half():
            async with service.open_async_session(max_pending=32) as session:
                await session.run(
                    [stream.window_types(index) for index in range(10)]
                )

        asyncio.run(first_half())
        checkpoint = service.checkpoint()
        checkpoint["session_options"] = {
            "max_pending": 32,
            "max_batch": 8,
            "record": True,
        }
        resumed = StreamService.resume(spec, checkpoint)
        assert resumed.session.block_rows == 32
        assert resumed.session.windows_processed == 10

    def test_checkpoint_without_session_rejected(self):
        with pytest.raises(RuntimeError, match="no open session"):
            spec_for().build().checkpoint()

    def test_resume_spec_mismatch_rejected(self, stream):
        service = spec_for().build()
        service.open_session()
        checkpoint = service.checkpoint()
        with pytest.raises(ValueError, match="different spec"):
            StreamService.resume(spec_for(seed=8), checkpoint)

    def test_checkpoint_round_trips_through_pickle(self, stream):
        import pickle

        spec = spec_for(mechanism="bd", mechanism_options={"epsilon": 1.0, "w": 10})
        service = spec.build()
        session = service.open_session()
        for index in range(10):
            session.push(stream.window_types(index))
        checkpoint = pickle.loads(pickle.dumps(service.checkpoint()))
        resumed = StreamService.resume(spec, checkpoint)
        assert resumed.session.windows_processed == 10


class TestResumeAdoptsTheSnapshot:
    """A resumed session opens at its snapshot: its generators take
    the snapshotted states, and none is derived only to be replaced."""

    CUT = 120

    def run(self, spec):
        """The uninterrupted answers, then the head's answers and a
        pickled async checkpoint taken after :attr:`CUT` windows."""
        import pickle

        matrix = np.random.default_rng(11).random((300, len(ALPHABET))) < 0.45
        uninterrupted = asyncio.run(spec.build().pump(matrix))
        service = spec.build()
        head = asyncio.run(service.pump(matrix[: self.CUT]))
        checkpoint = pickle.loads(pickle.dumps(service.checkpoint()))
        assert checkpoint["kind"] == "async"
        return matrix, uninterrupted, head, checkpoint

    def finish(self, spec, resumed, matrix, uninterrupted, head):
        """Continue the resumed service; check the one charge (what
        opening a session charges) and the bit-identical
        continuation."""
        opened = spec.build()
        opened.open_async_session()
        tail = asyncio.run(resumed.pump(matrix[self.CUT :]))
        ledger = resumed.accountant.spends
        assert len(ledger) == 1
        assert [(spend.label, spend.epsilon) for spend in ledger] == [
            (spend.label, spend.epsilon)
            for spend in opened.accountant.spends
        ]
        assert resumed.session.windows_processed == matrix.shape[0]
        for name, values in uninterrupted.items():
            assert head[name] + tail[name] == values

    def test_uniform_ppm_resume_derives_no_flip_child(self, monkeypatch):
        from repro.runtime import adapters

        spec = spec_for(seed=11, accounting=10.0)
        matrix, uninterrupted, head, checkpoint = self.run(spec)
        calls = []
        derive_rng = adapters.derive_rng

        def counting(rng, *tokens):
            calls.append(tokens)
            return derive_rng(rng, *tokens)

        monkeypatch.setattr(adapters, "derive_rng", counting)
        resumed = StreamService.resume(spec, checkpoint)
        assert calls == []
        self.finish(spec, resumed, matrix, uninterrupted, head)
        # A session opened fresh does derive its flip children.
        spec.build().open_async_session()
        assert any("rr-flip" in tokens for tokens in calls)

    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("event-rr", {"epsilon": 2.0}),
            ("landmark", {"epsilon": 1.0, "landmarks": [True, False] * 150}),
        ],
    )
    def test_every_stepper_kind_resumes_from_adopted_states(
        self, mechanism, options
    ):
        # Matrix RR adopts its one generator's state; landmark restores
        # its pool at the release position (flip and BD/BA: above).
        spec = spec_for(
            mechanism=mechanism,
            mechanism_options=options,
            seed=11,
            accounting=10.0,
        )
        matrix, uninterrupted, head, checkpoint = self.run(spec)
        resumed = StreamService.resume(spec, checkpoint)
        self.finish(spec, resumed, matrix, uninterrupted, head)

    @pytest.mark.parametrize("mechanism", ["bd", "ba"])
    def test_sequential_resume_starts_the_pool_at_the_release(
        self, mechanism, monkeypatch
    ):
        from repro.runtime.rng_pool import IndexedRngPool

        spec = spec_for(
            mechanism=mechanism,
            mechanism_options={"epsilon": 1.0, "w": 10},
            seed=11,
            accounting=10.0,
        )
        matrix, uninterrupted, head, checkpoint = self.run(spec)
        derived = []
        derive = IndexedRngPool._derive

        def logging(pool, words, start, out):
            derived.append((start, len(words)))
            return derive(pool, words, start, out)

        monkeypatch.setattr(IndexedRngPool, "_derive", logging)
        resumed = StreamService.resume(spec, checkpoint)
        pool = resumed.session._core.stepper.releaser._children
        assert len(pool) == self.CUT
        assert derived == []
        self.finish(spec, resumed, matrix, uninterrupted, head)
        # The resumed tail is one block: one extend, from the release
        # position on, with nothing below it re-derived.
        assert len(derived) == 1
        assert derived[0][0] == self.CUT


class TestPluginRegistries:
    def test_third_party_mechanism_and_executor_hook_in(self, stream):
        @register_mechanism("test-identityish")
        def _build_test_mechanism(context, strength=1.0):
            """A do-nothing mechanism for registry tests."""

            class _Identity:
                name = "test-identityish"
                epsilon = strength

                def perturb(self, indicator_stream, *, rng=None):
                    return indicator_stream

            return _Identity()

        @register_executor("test-batchish")
        def _build_test_executor():
            """A thin wrapper over the batch executor for registry tests."""
            from repro.runtime.executors import BatchExecutor

            return BatchExecutor()

        assert "test-identityish" in registered_mechanisms()
        assert "test-batchish" in registered_executors()
        spec = spec_for(
            mechanism="test-identityish",
            mechanism_options={"strength": 3.0},
            executor="test-batchish",
        )
        report = spec.build().run(stream)
        assert report.perturbed == stream

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_mechanism("uniform-ppm")
            def _clash(context):
                """Never registered."""

    def test_native_only_plugin_participates_in_sweeps(self, tiny_workload):
        from repro.core.uniform import UniformPatternPPM
        from repro.experiments.runner import sweep

        @register_mechanism("test-native-only")
        def _build_native_only(context, *, epsilon):
            """A plugin taking only its native budget."""
            return UniformPatternPPM(context.private_patterns[0], epsilon)

        results = sweep(
            tiny_workload,
            epsilon_grid=[2.0],
            mechanisms=("test-native-only",),
            n_trials=1,
        )
        assert len(results) == 1
        assert results[0].mechanism == "test-native-only"

    def test_alias_collision_leaves_no_partial_registration(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_mechanism("test-fresh-name", aliases=("uniform",))
            def _half_registered(context):
                """Never registered."""

        # The non-colliding key must not have been inserted either.
        assert "test-fresh-name" not in registered_mechanisms()
