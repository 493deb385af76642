"""The imperative surface warns — once per callsite — and only there.

PR 4's contract: every deprecated imperative entry point emits exactly
one pointed ``DeprecationWarning`` per call (so ``-W
error::DeprecationWarning`` flags each callsite exactly once), while
the declarative service path — which is built *on* those entry points —
emits none at all.
"""

import asyncio
import warnings

import numpy as np
import pytest

from repro.cep.async_session import AsyncSession
from repro.cep.engine import CEPEngine, QualityRequirement
from repro.cep.online import OnlineSession
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.uniform import UniformPatternPPM
from repro.service import ServiceSpec, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(4)
PRIVATE = Pattern.of_types("private", "e1", "e2")
TARGET = Pattern.of_types("target", "e2", "e3")


def quiet_engine(*, mechanism=True) -> CEPEngine:
    """A configured engine built without tripping the shims."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        engine = CEPEngine(ALPHABET)
        engine.register_private_pattern(PRIVATE)
        engine.register_query(ContinuousQuery("q", TARGET))
        if mechanism:
            engine.attach_mechanism(UniformPatternPPM(PRIVATE, 2.0))
    return engine


def deprecation_warnings(callsite):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        callsite()
    return [
        entry
        for entry in record
        if issubclass(entry.category, DeprecationWarning)
    ]


def assert_exactly_one_warning(callsite, *, mentions):
    emitted = deprecation_warnings(callsite)
    assert len(emitted) == 1, (
        f"expected exactly one DeprecationWarning, got "
        f"{[str(entry.message) for entry in emitted]}"
    )
    message = str(emitted[0].message)
    assert mentions in message
    assert "ServiceSpec" in message  # every shim points at the new API


class TestEachShimWarnsExactlyOnce:
    def test_register_private_pattern(self):
        engine = CEPEngine(ALPHABET)
        assert_exactly_one_warning(
            lambda: engine.register_private_pattern(PRIVATE),
            mentions="register_private_pattern",
        )

    def test_register_query(self):
        engine = CEPEngine(ALPHABET)
        assert_exactly_one_warning(
            lambda: engine.register_query(ContinuousQuery("q", TARGET)),
            mentions="register_query",
        )

    def test_set_quality_requirement(self):
        engine = CEPEngine(ALPHABET)
        assert_exactly_one_warning(
            lambda: engine.set_quality_requirement(QualityRequirement()),
            mentions="set_quality_requirement",
        )

    def test_attach_mechanism(self):
        engine = CEPEngine(ALPHABET)
        assert_exactly_one_warning(
            lambda: engine.attach_mechanism(UniformPatternPPM(PRIVATE, 2.0)),
            mentions="attach_mechanism",
        )

    def test_enable_accounting(self):
        engine = CEPEngine(ALPHABET)
        assert_exactly_one_warning(
            lambda: engine.enable_accounting(10.0),
            mentions="enable_accounting",
        )

    def test_online_session_constructor(self):
        engine = quiet_engine()
        assert_exactly_one_warning(
            lambda: OnlineSession(engine, rng=1),
            mentions="OnlineSession",
        )

    def test_async_session_constructor(self):
        engine = quiet_engine()
        assert_exactly_one_warning(
            lambda: AsyncSession(engine, rng=1),
            mentions="AsyncSession",
        )

    def test_runner_build_mechanism(self, tiny_workload):
        from repro.experiments.runner import build_mechanism

        assert_exactly_one_warning(
            lambda: build_mechanism("uniform", tiny_workload, 2.0),
            mentions="build_mechanism",
        )


class TestShimsStillWork:
    """The deprecated calls keep their behavior under ``always``."""

    def test_imperative_flow_matches_service_flow(self):
        rng = np.random.default_rng(9)
        stream = IndicatorStream(ALPHABET, rng.random((50, 4)) < 0.4)
        engine = quiet_engine(mechanism=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            from repro.core.ppm import MultiPatternPPM

            engine.attach_mechanism(
                MultiPatternPPM([UniformPatternPPM(PRIVATE, 2.0)])
            )
        imperative = engine.process_indicators(stream, rng=7)
        service = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[PRIVATE],
            queries=[("q", TARGET)],
            mechanism="uniform-ppm",
            mechanism_options={"epsilon": 2.0},
            seed=7,
        ).build()
        report = service.run(stream)
        assert np.array_equal(
            report.perturbed.matrix_view(),
            imperative.perturbed.matrix_view(),
        )


class TestServicePathNeverWarns:
    """The declarative path stays clean under -W error::DeprecationWarning."""

    @pytest.fixture
    def stream(self):
        rng = np.random.default_rng(4)
        return IndicatorStream(ALPHABET, rng.random((40, 4)) < 0.4)

    def spec(self, **overrides):
        kwargs = dict(
            alphabet=ALPHABET,
            patterns=[PRIVATE],
            queries=[("q", TARGET)],
            mechanism="uniform-ppm",
            mechanism_options={"epsilon": 2.0},
            accounting=100.0,
            seed=7,
        )
        kwargs.update(overrides)
        return ServiceSpec(**kwargs)

    def test_build_run_and_sessions_emit_no_deprecation(self, stream):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = self.spec().build()
            service.run(stream)
            session = service.open_session()
            session.push(stream.window_types(0))
            checkpoint = service.checkpoint()
            StreamService.resume(self.spec(), checkpoint)

    def test_async_facade_emits_no_deprecation(self, stream):
        async def drive():
            service = self.spec().build()
            async with service.open_async_session() as session:
                return await session.run(
                    [stream.window_types(index) for index in range(10)]
                )

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            asyncio.run(drive())

    def test_engine_async_facade_emits_no_deprecation(self):
        from repro.streams.events import Event
        from repro.streams.stream import EventStream
        from repro.streams.windows import TumblingWindows

        engine = quiet_engine()
        events = EventStream(
            [Event("e1", 0.0), Event("e2", 11.0), Event("e3", 22.0)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            asyncio.run(
                engine.process_events_async(events, TumblingWindows(10.0))
            )

    def test_workload_evaluation_emits_no_deprecation(self, tiny_workload):
        from repro.experiments.runner import WorkloadEvaluation

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            context = WorkloadEvaluation(tiny_workload)
            context.evaluate("uniform", 2.0, n_trials=1, rng=3)


class TestIoShimsWarnExactlyOnce:
    """PR 5: the legacy datasets.io persistence helpers warn once per
    callsite and point at the connector API; the connector path itself
    (repro.io readers/writers, source=/sink= runs) never warns."""

    @pytest.fixture
    def csv_stream(self):
        rng = np.random.default_rng(8)
        return IndicatorStream(ALPHABET, rng.random((20, 4)) < 0.4)

    def assert_one_io_warning(self, callsite, *, mentions):
        emitted = deprecation_warnings(callsite)
        assert len(emitted) == 1, (
            f"expected exactly one DeprecationWarning, got "
            f"{[str(entry.message) for entry in emitted]}"
        )
        message = str(emitted[0].message)
        assert mentions in message
        assert "repro.io" in message  # every shim points at connectors

    def test_save_indicator_csv(self, csv_stream, tmp_path):
        from repro.datasets.io import save_indicator_csv

        self.assert_one_io_warning(
            lambda: save_indicator_csv(
                csv_stream, str(tmp_path / "s.csv")
            ),
            mentions="save_indicator_csv",
        )

    def test_load_indicator_csv(self, csv_stream, tmp_path):
        from repro.datasets.io import load_indicator_csv
        from repro.io import write_indicator_csv

        path = str(tmp_path / "s.csv")
        write_indicator_csv(csv_stream, path)
        self.assert_one_io_warning(
            lambda: load_indicator_csv(path),
            mentions="load_indicator_csv",
        )

    def test_save_workload_warns_once_despite_nested_saves(
        self, tiny_workload, tmp_path
    ):
        from repro.datasets.io import save_workload

        self.assert_one_io_warning(
            lambda: save_workload(tiny_workload, str(tmp_path / "w")),
            mentions="save_workload",
        )

    def test_load_workload_warns_once_despite_nested_loads(
        self, tiny_workload, tmp_path
    ):
        from repro.datasets.io import load_workload, save_workload

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            save_workload(tiny_workload, str(tmp_path / "w"))
        self.assert_one_io_warning(
            lambda: load_workload(str(tmp_path / "w")),
            mentions="load_workload",
        )

    def test_shims_round_trip_like_the_connectors(
        self, csv_stream, tmp_path
    ):
        from repro.datasets.io import load_indicator_csv, save_indicator_csv

        path = str(tmp_path / "s.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            save_indicator_csv(csv_stream, path)
            assert load_indicator_csv(path) == csv_stream

    def test_connector_path_never_warns(self, csv_stream, tmp_path):
        import asyncio

        from repro.io import read_indicator_csv, write_indicator_csv
        from repro.service import StreamGateway

        path = str(tmp_path / "s.csv")
        out = str(tmp_path / "out.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            write_indicator_csv(csv_stream, path)
            read_indicator_csv(path)
            spec = ServiceSpec(
                alphabet=ALPHABET,
                patterns=[PRIVATE],
                queries=[("q", TARGET)],
                mechanism="uniform-ppm",
                mechanism_options={"epsilon": 2.0},
                source=f"csv:{path}",
                sink=f"csv:{out}",
                seed=7,
            )
            service = spec.build()
            service.run()
            asyncio.run(spec.build().pump(sink="memory"))
            gateway = StreamGateway()
            gateway.add_tenant("a", spec)
            gateway.run()


class TestLegacySpecGrammarWarnsExactlyOnce:
    """PR 7: positional spec tails warn once per callsite with the
    key=value rewrite spelled out; key=value and bare-name specs —
    and raw-tail address specs (paths) — never warn."""

    def assert_one_spec_warning(self, callsite, *, mentions):
        emitted = deprecation_warnings(callsite)
        assert len(emitted) == 1, (
            f"expected exactly one DeprecationWarning, got "
            f"{[str(entry.message) for entry in emitted]}"
        )
        message = str(emitted[0].message)
        assert "key=value spec grammar" in message
        assert mentions in message
        assert "ServiceSpec" in message  # points at the new grammar

    def test_legacy_executor_spec_warns_with_rewrite(self):
        from repro.service import build_executor_from_spec

        self.assert_one_spec_warning(
            lambda: build_executor_from_spec("sharded:thread:8"),
            mentions="use 'sharded:backend=thread,workers=8' instead",
        )

    def test_legacy_chunked_spec_warns_with_rewrite(self):
        from repro.service import build_executor_from_spec

        self.assert_one_spec_warning(
            lambda: build_executor_from_spec("chunked:128"),
            mentions="use 'chunked:size=128' instead",
        )

    def test_legacy_source_spec_warns_with_rewrite(self):
        from repro.io import resolve_source

        self.assert_one_spec_warning(
            lambda: resolve_source("synthetic:bernoulli:400:21"),
            mentions=(
                "use 'synthetic:generator=bernoulli,windows=400,"
                "seed=21' instead"
            ),
        )

    def test_legacy_sink_spec_warns_with_rewrite(self):
        from repro.io import resolve_sink

        self.assert_one_spec_warning(
            lambda: resolve_sink("metrics:0.7"),
            mentions="use 'metrics:alpha=0.7' instead",
        )

    def test_spec_validation_warns_once_build_stays_silent(self):
        """ServiceSpec warns at validation; building and running the
        validated spec re-resolves the executor silently — one warning
        per callsite total, not one per phase."""
        rng = np.random.default_rng(3)
        stream = IndicatorStream(ALPHABET, rng.random((30, 4)) < 0.4)

        def callsite():
            spec = ServiceSpec(
                alphabet=ALPHABET,
                patterns=[PRIVATE],
                queries=[("q", TARGET)],
                mechanism="uniform-ppm",
                mechanism_options={"epsilon": 2.0},
                executor="sharded:thread:2",
                seed=7,
            )
            spec.build().run(stream)

        self.assert_one_spec_warning(
            callsite, mentions="'sharded:thread:2'"
        )

    def test_keyed_and_bare_specs_never_warn(self):
        from repro.io import resolve_sink, resolve_source
        from repro.service import build_executor_from_spec

        rng = np.random.default_rng(5)
        stream = IndicatorStream(ALPHABET, rng.random((30, 4)) < 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_executor_from_spec("batch")
            build_executor_from_spec(
                "sharded:backend=thread,workers=2"
            )
            build_executor_from_spec("cluster:workers=2,transport=shm")
            resolve_source(
                "synthetic:generator=bernoulli,windows=10,seed=1"
            )
            resolve_sink("metrics:alpha=0.7")
            ServiceSpec(
                alphabet=ALPHABET,
                patterns=[PRIVATE],
                queries=[("q", TARGET)],
                mechanism="uniform-ppm",
                mechanism_options={"epsilon": 2.0},
                executor="sharded:backend=thread,workers=2",
                seed=7,
            ).build().run(stream)

    def test_mechanism_specs_keep_positional_grammar_silently(self):
        """Mechanism specs are exempt: their short positional budget
        argument ('uniform-ppm' options) is not deprecated."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ServiceSpec(
                alphabet=ALPHABET,
                patterns=[PRIVATE],
                queries=[("q", TARGET)],
                mechanism="uniform-ppm",
                mechanism_options={"epsilon": 2.0},
                seed=7,
            )
