"""Tests for CEPEngine.process_events — the raw-events service path."""

import numpy as np
import pytest

from repro.cep.engine import CEPEngine
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.uniform import UniformPatternPPM
from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.streams.windows import TumblingWindows


@pytest.fixture
def alphabet():
    return EventAlphabet(["a", "b", "c"])


def make_engine(alphabet, **setup):
    return CEPEngine(
        alphabet,
        patterns=[Pattern.of_types("priv", "a", "b")],
        queries=[ContinuousQuery("q", Pattern.of_types("tar", "b", "c"))],
        **setup,
    )


@pytest.fixture
def engine(alphabet):
    return make_engine(alphabet)


@pytest.fixture
def event_stream():
    rng = np.random.default_rng(5)
    events = []
    for window in range(30):
        base = window * 10.0
        for offset, name in enumerate(("a", "b", "c")):
            if rng.random() < 0.5:
                events.append(Event(name, base + offset))
    return EventStream(events)


class TestProcessEvents:
    def test_matches_manual_reduction(self, engine, event_stream, alphabet):
        report = engine.process_events(
            event_stream, TumblingWindows(10.0), rng=3
        )
        windows = TumblingWindows(10.0).assign(event_stream)
        indicators = IndicatorStream.from_event_windows(
            alphabet, windows, strict=False
        )
        manual = engine.process_indicators(indicators, rng=3)
        assert np.array_equal(
            report.answers["q"].detections,
            manual.answers["q"].detections,
        )

    def test_with_mechanism(self, alphabet, event_stream):
        engine = make_engine(
            alphabet,
            mechanism=UniformPatternPPM(
                Pattern.of_types("priv", "a", "b"), 2.0
            ),
        )
        report = engine.process_events(
            event_stream, TumblingWindows(10.0), rng=3
        )
        # Column c is not protected, so released answers can only differ
        # from truth through the protected b column.
        true_answers = report.true_answers["q"].detections
        released = report.answers["q"].detections
        b_changed = (
            report.original.column("b") != report.perturbed.column("b")
        )
        differs = true_answers != released
        assert not (differs & ~b_changed).any()

    def test_events_outside_alphabet_ignored(self, engine):
        events = EventStream(
            [Event("a", 0.0), Event("unknown", 1.0), Event("b", 2.0)]
        )
        report = engine.process_events(events, TumblingWindows(10.0))
        assert report.original.n_windows == 1

    def test_empty_stream_yields_no_windows(self, engine):
        report = engine.process_events(
            EventStream([]), TumblingWindows(10.0)
        )
        assert report.original.n_windows == 0
        assert report.answers["q"].n_windows == 0
