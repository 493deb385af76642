"""The retired setup surfaces stay gone, and nothing left warns.

Engines are built in one constructor call (named after the
``ServiceSpec`` fields), persistence goes through :mod:`repro.io`, and
executor/source/sink specs speak key=value.  These tests pin that the
deleted entry points do not creep back, and that every surviving path
— the engine, its sessions, the declarative service, the connectors
and the spec grammar — runs clean under ``-W
error::DeprecationWarning``.
"""

import asyncio
import importlib
import warnings

import numpy as np
import pytest

from repro.cep.async_session import AsyncSession
from repro.cep.engine import CEPEngine
from repro.cep.online import OnlineSession
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.service import ServiceSpec, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(4)
PRIVATE = Pattern.of_types("private", "e1", "e2")
TARGET = Pattern.of_types("target", "e2", "e3")


def engine(**setup) -> CEPEngine:
    setup.setdefault("mechanism", UniformPatternPPM(PRIVATE, 2.0))
    return CEPEngine(
        ALPHABET,
        patterns=[PRIVATE],
        queries=[ContinuousQuery("q", TARGET)],
        **setup,
    )


def spec(**overrides) -> ServiceSpec:
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


@pytest.fixture
def stream():
    rng = np.random.default_rng(4)
    return IndicatorStream(ALPHABET, rng.random((40, 4)) < 0.4)


@pytest.fixture
def no_deprecations():
    """Turn every DeprecationWarning, from any module, into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestRetiredSurfacesAreGone:
    @pytest.mark.parametrize(
        "mutator",
        [
            "register_private_pattern",
            "register_query",
            "set_quality_requirement",
            "attach_mechanism",
            "enable_accounting",
        ],
    )
    def test_engine_has_no_setup_mutator(self, mutator):
        assert not hasattr(CEPEngine, mutator)
        assert not hasattr(engine(), mutator)

    @pytest.mark.parametrize(
        "module", ["repro.datasets.io", "repro.utils.deprecation"]
    )
    def test_deleted_module_does_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_runner_has_no_module_level_build_mechanism(self):
        import repro.experiments as experiments
        import repro.experiments.runner as runner

        assert not hasattr(runner, "build_mechanism")
        assert not hasattr(experiments, "build_mechanism")
        assert callable(runner.WorkloadEvaluation.build_mechanism)


class TestSessionsNeverWarn:
    def test_online_session_constructor(self, no_deprecations):
        OnlineSession(engine(), rng=1)

    def test_async_session_constructor(self, no_deprecations):
        AsyncSession(engine(), rng=1)

    def test_constructor_flow_matches_service_flow(self, no_deprecations):
        rng = np.random.default_rng(9)
        stream = IndicatorStream(ALPHABET, rng.random((50, 4)) < 0.4)
        built = engine(
            mechanism=MultiPatternPPM([UniformPatternPPM(PRIVATE, 2.0)])
        )
        direct = built.process_indicators(stream, rng=7)
        report = spec(accounting=None).build().run(stream)
        assert np.array_equal(
            report.perturbed.matrix_view(),
            direct.perturbed.matrix_view(),
        )


class TestServicePathNeverWarns:
    def test_build_run_and_sessions(self, stream, no_deprecations):
        service = spec().build()
        service.run(stream)
        session = service.open_session()
        session.push(stream.window_types(0))
        checkpoint = service.checkpoint()
        StreamService.resume(spec(), checkpoint)

    def test_async_facade(self, stream, no_deprecations):
        async def drive():
            service = spec().build()
            async with service.open_async_session() as session:
                return await session.run(
                    [stream.window_types(index) for index in range(10)]
                )

        asyncio.run(drive())

    def test_workload_evaluation(self, tiny_workload, no_deprecations):
        from repro.experiments.runner import WorkloadEvaluation

        context = WorkloadEvaluation(tiny_workload)
        context.evaluate("uniform", 2.0, n_trials=1, rng=3)

    def test_connector_path(self, stream, tmp_path, no_deprecations):
        from repro.io import read_indicator_csv, write_indicator_csv
        from repro.service import StreamGateway

        path = str(tmp_path / "s.csv")
        out = str(tmp_path / "out.csv")
        write_indicator_csv(stream, path)
        assert read_indicator_csv(path) == stream
        served = spec(
            accounting=None, source=f"csv:{path}", sink=f"csv:{out}"
        )
        served.build().run()
        asyncio.run(served.build().pump(sink="memory"))
        gateway = StreamGateway()
        gateway.add_tenant("a", served)
        gateway.run()

    def test_keyed_and_bare_specs(self, stream, no_deprecations):
        from repro.io import resolve_sink, resolve_source
        from repro.service import build_executor_from_spec

        build_executor_from_spec("batch")
        build_executor_from_spec("sharded:backend=thread,workers=2")
        build_executor_from_spec("cluster:workers=2,transport=shm")
        resolve_source("synthetic:generator=bernoulli,windows=10,seed=1")
        resolve_sink("metrics:alpha=0.7")
        spec(executor="sharded:backend=thread,workers=2").build().run(
            stream
        )

    def test_mechanism_positional_tail(self, stream, no_deprecations):
        spec(mechanism="uniform-ppm:2.0", mechanism_options={}).build().run(
            stream
        )
