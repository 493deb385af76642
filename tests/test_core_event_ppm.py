"""Tests for repro.core.event_ppm — Definition 5 over raw event streams."""

import numpy as np
import pytest

from repro.cep.patterns import Pattern
from repro.core.budget import BudgetAllocation
from repro.core.event_ppm import EventStreamPPM
from repro.core.ppm import apply_randomized_response
from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.streams.windows import TumblingWindows

ALPHABET = EventAlphabet(["a", "b", "c"])


@pytest.fixture
def event_stream():
    rng = np.random.default_rng(3)
    events = []
    for window in range(40):
        base = window * 10.0
        for offset, name in enumerate(("a", "b", "c")):
            if rng.random() < 0.5:
                events.append(Event(name, base + offset))
    return EventStream(events)


@pytest.fixture
def ppm():
    return EventStreamPPM(
        Pattern.of_types("p", "a", "b"), BudgetAllocation((1.0, 2.0))
    )


class TestConstruction:
    def test_uniform_constructor(self):
        ppm = EventStreamPPM.uniform(Pattern.of_types("p", "a", "b"), 4.0)
        assert ppm.allocation.epsilons == (2.0, 2.0)
        assert ppm.epsilon == pytest.approx(4.0)

    def test_requires_element_list(self):
        from repro.cep.patterns import OR

        with pytest.raises(ValueError):
            EventStreamPPM(
                Pattern("p", OR("a", "b")), BudgetAllocation((1.0, 1.0))
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EventStreamPPM(
                Pattern.of_types("p", "a"), BudgetAllocation((1.0, 1.0))
            )

    def test_guarantee_totals_budget(self, ppm):
        assert ppm.guarantee.epsilon == pytest.approx(3.0)


class TestPerturbation:
    def test_unprotected_events_untouched(self, ppm, event_stream):
        perturbed = ppm.perturb(event_stream, TumblingWindows(10.0), rng=0)
        original_c = [e.timestamp for e in event_stream if e.event_type == "c"]
        perturbed_c = [e.timestamp for e in perturbed if e.event_type == "c"]
        assert original_c == perturbed_c

    def test_output_is_valid_event_stream(self, ppm, event_stream):
        perturbed = ppm.perturb(event_stream, TumblingWindows(10.0), rng=0)
        timestamps = [event.timestamp for event in perturbed]
        assert timestamps == sorted(timestamps)

    def test_injected_events_marked_synthetic(self, ppm, event_stream):
        perturbed = ppm.perturb(event_stream, TumblingWindows(10.0), rng=1)
        injected = [
            e for e in perturbed if e.attribute("synthetic") is True
        ]
        assert injected  # with p ~ 0.2 over 40 windows some injections occur
        assert all(e.event_type in ("a", "b") for e in injected)

    def test_suppression_removes_whole_type_in_window(self, ppm):
        # Two a-events in one window: a suppression must remove both
        # (the existence indicator is all-or-nothing).
        events = EventStream([Event("a", 1.0), Event("a", 2.0)])
        windows = TumblingWindows(10.0).assign(events)
        for seed in range(50):
            perturbed = ppm.perturb_windows(windows, rng=seed)
            count = sum(
                1 for e in perturbed[0].events if e.event_type == "a"
            )
            assert count in (0, 2)

    def test_deterministic_under_seed(self, ppm, event_stream):
        first = ppm.perturb(event_stream, TumblingWindows(10.0), rng=9)
        second = ppm.perturb(event_stream, TumblingWindows(10.0), rng=9)
        assert first == second


class TestCommutativity:
    """Event-level perturbation commutes exactly with the reduction."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_perturb_then_reduce_equals_reduce_then_perturb(
        self, ppm, event_stream, seed
    ):
        windows = TumblingWindows(10.0, emit_empty=True).assign(event_stream)
        # Path 1: perturb events, then reduce to indicators.
        via_events = ppm.perturb_to_indicators(ALPHABET, windows, rng=seed)
        # Path 2: reduce to indicators, then flip columns.
        reduced = IndicatorStream.from_event_windows(
            ALPHABET, windows, strict=False
        )
        via_indicators = apply_randomized_response(
            reduced, ppm.flip_probability_by_type(), rng=seed
        )
        assert via_events == via_indicators

    def test_windowed_ppm_equivalence(self, event_stream):
        # The windowed PatternLevelPPM and the event-stream PPM with the
        # same pattern/allocation/seed release identical indicators.
        from repro.core.ppm import PatternLevelPPM

        pattern = Pattern.of_types("p", "a", "b")
        allocation = BudgetAllocation((1.5, 0.5))
        windowed = PatternLevelPPM(pattern, allocation)
        eventwise = EventStreamPPM(pattern, allocation)
        windows = TumblingWindows(10.0, emit_empty=True).assign(event_stream)
        reduced = IndicatorStream.from_event_windows(
            ALPHABET, windows, strict=False
        )
        assert eventwise.perturb_to_indicators(
            ALPHABET, windows, rng=7
        ) == windowed.perturb(reduced, rng=7)
