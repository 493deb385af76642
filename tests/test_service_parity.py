"""Parity: the declarative service reproduces a directly built engine.

The acceptance bar of the service API: for every registered mechanism
spec × executor spec, ``ServiceSpec.from_json(...).build().run(...)``
is bit-identical to constructing a ``CEPEngine`` with the same
configuration by hand — same seed, same answers, same perturbed
stream, same ``last_trace`` for the sequential schedulers.
"""

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.event_level import EventLevelRR
from repro.baselines.landmark import LandmarkPrivacy, landmarks_from_pattern
from repro.baselines.user_level import UserLevelRR
from repro.cep.engine import CEPEngine
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.adaptive import AdaptivePatternPPM
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.runtime.executors import (
    BatchExecutor,
    ShardedExecutor,
)
from repro.service import ServiceSpec, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.streams.events import Event
from repro.streams.windows import TumblingWindows

ALPHABET = ("e1", "e2", "e3", "e4", "e5")
SEED = 11
PRIVATE = Pattern.of_types("private", "e1", "e2")
TARGET = Pattern.of_types("target", "e2", "e3")


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(5)
    return IndicatorStream(
        EventAlphabet(ALPHABET), rng.random((120, 5)) < 0.45
    )


@pytest.fixture(scope="module")
def history():
    rng = np.random.default_rng(6)
    return IndicatorStream(
        EventAlphabet(ALPHABET), rng.random((60, 5)) < 0.45
    )


def landmark_mask(stream):
    return [
        bool(flag)
        for flag in landmarks_from_pattern(stream, ["e1", "e2"])
    ]


#: (mechanism spec, options factory, imperative equivalent factory) —
#: the seven registered mechanism specs of the paper's evaluation.
MECHANISMS = [
    (
        "uniform-ppm",
        lambda stream, history: {"epsilon": 2.0},
        lambda stream, history: MultiPatternPPM(
            [UniformPatternPPM(PRIVATE, 2.0)]
        ),
    ),
    (
        "adaptive-ppm",
        lambda stream, history: {"epsilon": 2.0},
        lambda stream, history: MultiPatternPPM(
            [AdaptivePatternPPM.fit(PRIVATE, 2.0, history, [TARGET])]
        ),
    ),
    (
        "bd",
        lambda stream, history: {"epsilon": 1.0, "w": 10},
        lambda stream, history: BudgetDistribution(1.0, 10),
    ),
    (
        "ba",
        lambda stream, history: {"epsilon": 1.0, "w": 10},
        lambda stream, history: BudgetAbsorption(1.0, 10),
    ),
    (
        "landmark",
        lambda stream, history: {
            "epsilon": 1.0,
            "landmarks": landmark_mask(stream),
        },
        lambda stream, history: LandmarkPrivacy(
            1.0, landmarks=landmarks_from_pattern(stream, ["e1", "e2"])
        ),
    ),
    (
        "event-rr",
        lambda stream, history: {"epsilon": 0.5},
        lambda stream, history: EventLevelRR(0.5),
    ),
    (
        "user-rr",
        lambda stream, history: {"epsilon": 60.0},
        lambda stream, history: UserLevelRR(60.0),
    ),
]

#: (executor spec, imperative equivalent factory) — the in-process
#: execution strategies.
EXECUTORS = [
    ("batch", BatchExecutor),
    ("sharded:workers=2", lambda: ShardedExecutor(2)),
    # Seven uneven shards (17/18 windows) put boundaries at offsets no
    # mechanism period lines up with.
    ("sharded:workers=7", lambda: ShardedExecutor(7)),
]


def imperative_report(stream, mechanism, executor):
    engine = CEPEngine(
        EventAlphabet(ALPHABET),
        patterns=[PRIVATE],
        queries=[ContinuousQuery("q", TARGET)],
        mechanism=mechanism,
    )
    return engine, engine.process_indicators(
        stream, rng=SEED, executor=executor
    )


def service_for(mechanism_spec, options, executor_spec, history):
    spec = ServiceSpec(
        alphabet=ALPHABET,
        patterns=[PRIVATE],
        queries=[("q", TARGET)],
        mechanism=mechanism_spec,
        mechanism_options=options,
        executor=executor_spec,
        seed=SEED,
    )
    # The acceptance bar: the run is reproducible from the JSON blob.
    rebuilt = ServiceSpec.from_json(spec.to_json())
    assert rebuilt == spec
    return StreamService(rebuilt, history=history)


def assert_reports_identical(report, expected):
    assert set(report.answers) == set(expected.answers)
    for name in expected.answers:
        assert np.array_equal(
            report.answers[name].detections,
            expected.answers[name].detections,
        )
        assert np.array_equal(
            report.true_answers[name].detections,
            expected.true_answers[name].detections,
        )
    assert np.array_equal(
        report.perturbed.matrix_view(), expected.perturbed.matrix_view()
    )


def assert_traces_identical(mechanism, expected_mechanism):
    trace = getattr(mechanism, "last_trace", None)
    expected = getattr(expected_mechanism, "last_trace", None)
    assert (trace is None) == (expected is None)
    if trace is None:
        return
    assert np.array_equal(trace.published, expected.published)
    assert np.array_equal(
        trace.publication_budgets, expected.publication_budgets
    )
    assert np.array_equal(
        trace.dissimilarity_budgets, expected.dissimilarity_budgets
    )


@pytest.mark.parametrize(
    "executor_spec, executor_factory",
    EXECUTORS,
    ids=[executor for executor, _factory in EXECUTORS],
)
@pytest.mark.parametrize(
    "mechanism_spec, options_factory, imperative_factory",
    MECHANISMS,
    ids=[mechanism for mechanism, _o, _i in MECHANISMS],
)
class TestServiceRunsBitIdenticalToImperativeEngine:
    def test_run_indicators_parity(
        self,
        stream,
        history,
        mechanism_spec,
        options_factory,
        imperative_factory,
        executor_spec,
        executor_factory,
    ):
        service = service_for(
            mechanism_spec,
            options_factory(stream, history),
            executor_spec,
            history,
        )
        report = service.run(stream)
        engine, expected = imperative_report(
            stream, imperative_factory(stream, history), executor_factory()
        )
        assert_reports_identical(report, expected)
        assert_traces_identical(service.mechanism, engine.mechanism)


class TestEventStreamParity:
    """Raw events through the spec's declarative window grammar."""

    @pytest.fixture(scope="class")
    def events(self):
        rng = np.random.default_rng(12)
        events = []
        for window in range(40):
            base = window * 10.0
            for offset, name in enumerate(ALPHABET):
                if rng.random() < 0.5:
                    events.append(Event(name, base + offset))
        return EventStream(events)

    def test_tumbling_window_run_matches_process_events(self, events):
        spec = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[PRIVATE],
            queries=[("q", TARGET)],
            mechanism="uniform-ppm",
            mechanism_options={"epsilon": 2.0},
            window="tumbling:10",
            seed=SEED,
        )
        report = ServiceSpec.from_json(spec.to_json()).build().run(events)
        engine = CEPEngine(
            EventAlphabet(ALPHABET),
            patterns=[PRIVATE],
            queries=[ContinuousQuery("q", TARGET)],
            mechanism=MultiPatternPPM([UniformPatternPPM(PRIVATE, 2.0)]),
        )
        expected = engine.process_events(
            events, TumblingWindows(10.0, emit_empty=True), rng=SEED
        )
        assert_reports_identical(report, expected)

    @pytest.mark.parametrize(
        "window", ["tumbling:10", "count:3", "session:3"]
    )
    @pytest.mark.parametrize(
        "mechanism, options_factory",
        [(mechanism, options) for mechanism, options, _i in MECHANISMS],
        ids=[mechanism for mechanism, _o, _i in MECHANISMS],
    )
    def test_run_matches_run_indicators_on_the_windows(
        self, events, history, window, mechanism, options_factory
    ):
        windows = ServiceSpec(
            alphabet=ALPHABET, window=window
        ).window_assigner().assign(events)
        indicators = IndicatorStream.from_window_sets(
            EventAlphabet(ALPHABET),
            [window.event_types() for window in windows],
        )
        spec = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[PRIVATE],
            queries=[("q", TARGET)],
            mechanism=mechanism,
            mechanism_options=options_factory(indicators, history),
            window=window,
            seed=SEED,
        )
        service = spec.build(history=history)
        report = service.run(events)
        expected_service = spec.build(history=history)
        expected = expected_service.run_indicators(indicators)
        assert report.perturbed.n_windows == len(windows)
        assert_reports_identical(report, expected)
        assert_traces_identical(service.mechanism, expected_service.mechanism)

    @pytest.mark.parametrize(
        "window", ["tumbling:10", "count:3", "session:3"]
    )
    @pytest.mark.parametrize(
        "mechanism, options",
        [("uniform-ppm", {"epsilon": 2.0}), ("bd", {"epsilon": 1.0, "w": 10})],
        ids=["uniform-ppm", "bd"],
    )
    def test_sharded_run_matches_batch_on_the_windows(
        self, events, window, mechanism, options
    ):
        spec = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[PRIVATE],
            queries=[("q", TARGET)],
            mechanism=mechanism,
            mechanism_options=options,
            window=window,
            seed=SEED,
        )
        batch = spec.build()
        sharded = spec.with_(executor="sharded:workers=3").build()
        assert_reports_identical(sharded.run(events), batch.run(events))
        assert_traces_identical(sharded.mechanism, batch.mechanism)

    def test_event_before_the_window_origin_rejected(self, events):
        spec = ServiceSpec(
            alphabet=ALPHABET,
            queries=[("q", TARGET)],
            seed=SEED,
        )
        origin = TumblingWindows(10.0, origin=1000.0)
        with pytest.raises(ValueError, match="precedes window origin 1000"):
            spec.build().run(events, window=origin)

    def test_run_without_window_rejected(self, events):
        spec = ServiceSpec(
            alphabet=ALPHABET,
            queries=[("q", TARGET)],
            seed=SEED,
        )
        with pytest.raises(ValueError, match="window"):
            spec.build().run(events)

    def test_explicit_window_overrides_spec(self, events):
        spec = ServiceSpec(
            alphabet=ALPHABET,
            patterns=[PRIVATE],
            queries=[("q", TARGET)],
            mechanism="uniform-ppm",
            mechanism_options={"epsilon": 2.0},
            seed=SEED,
        )
        report = spec.build().run(
            events, window=TumblingWindows(10.0, emit_empty=True)
        )
        via_spec = spec.with_(window="tumbling:10").build().run(events)
        assert_reports_identical(report, via_spec)


class TestRunSeedPolicy:
    def test_rng_argument_overrides_spec_seed(self, stream, history):
        service = service_for("uniform-ppm", {"epsilon": 2.0}, "batch", None)
        seeded = service.run(stream)
        overridden = service.run(stream, rng=SEED + 1)
        reseeded = service.run(stream, rng=SEED)
        assert_reports_identical(reseeded, seeded)
        assert not np.array_equal(
            overridden.perturbed.matrix_view(),
            seeded.perturbed.matrix_view(),
        )

    def test_type_set_source_matches_indicator_source(self, stream, history):
        service = service_for("uniform-ppm", {"epsilon": 2.0}, "batch", None)
        type_sets = [
            stream.window_types(index) for index in range(stream.n_windows)
        ]
        assert_reports_identical(
            service.run(type_sets), service.run(stream)
        )
