"""Property-based tests: event-stream PPM vs windowed PPM equivalence.

Definition 5 has two carriers in this library — raw event streams
(suppress/inject) and windowed indicators (bit flips).  For arbitrary
streams, allocations and seeds, the two must commute exactly with the
window reduction, and the event-level form must never touch
unprotected event types.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.patterns import Pattern
from repro.core.budget import BudgetAllocation
from repro.core.event_ppm import EventStreamPPM
from repro.core.ppm import PatternLevelPPM, apply_randomized_response
from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.streams.windows import TumblingWindows

ALPHABET = EventAlphabet(["a", "b", "c"])


@st.composite
def window_streams(draw):
    """An event stream organized in 10-unit windows plus its window list."""
    n_windows = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    events = []
    for window in range(n_windows):
        base = window * 10.0
        for offset, name in enumerate(("a", "b", "c")):
            if rng.random() < 0.5:
                events.append(Event(name, base + offset))
    # Guarantee at least one event so EventStream is non-trivial.
    if not events:
        events.append(Event("a", 0.0))
    return EventStream(events)


allocations2 = st.tuples(
    st.floats(min_value=0.05, max_value=6.0),
    st.floats(min_value=0.05, max_value=6.0),
)


class TestCarrierEquivalence:
    @given(
        stream=window_streams(),
        epsilons=allocations2,
        seed=st.integers(0, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_reduction(self, stream, epsilons, seed):
        pattern = Pattern.of_types("p", "a", "b")
        allocation = BudgetAllocation(epsilons)
        eventwise = EventStreamPPM(pattern, allocation)
        windows = TumblingWindows(10.0, emit_empty=True).assign(stream)
        via_events = eventwise.perturb_to_indicators(
            ALPHABET, windows, rng=seed
        )
        reduced = IndicatorStream.from_event_windows(
            ALPHABET, windows, strict=False
        )
        via_indicators = apply_randomized_response(
            reduced, eventwise.flip_probability_by_type(), rng=seed
        )
        assert via_events == via_indicators

    @given(
        stream=window_streams(),
        epsilons=allocations2,
        seed=st.integers(0, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_windowed_ppm(self, stream, epsilons, seed):
        pattern = Pattern.of_types("p", "a", "b")
        allocation = BudgetAllocation(epsilons)
        windowed = PatternLevelPPM(pattern, allocation)
        eventwise = EventStreamPPM(pattern, allocation)
        windows = TumblingWindows(10.0, emit_empty=True).assign(stream)
        reduced = IndicatorStream.from_event_windows(
            ALPHABET, windows, strict=False
        )
        assert eventwise.perturb_to_indicators(
            ALPHABET, windows, rng=seed
        ) == windowed.perturb(reduced, rng=seed)

    @given(stream=window_streams(), seed=st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_unprotected_types_pass_through(self, stream, seed):
        pattern = Pattern.of_types("p", "a", "b")
        ppm = EventStreamPPM.uniform(pattern, 2.0)
        perturbed = ppm.perturb(stream, TumblingWindows(10.0), rng=seed)
        original_c = [
            e.timestamp for e in stream if e.event_type == "c"
        ]
        perturbed_c = [
            e.timestamp for e in perturbed if e.event_type == "c"
        ]
        assert original_c == perturbed_c

    @given(stream=window_streams(), seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_output_temporally_ordered(self, stream, seed):
        pattern = Pattern.of_types("p", "a", "b")
        ppm = EventStreamPPM.uniform(pattern, 1.0)
        perturbed = ppm.perturb(stream, TumblingWindows(10.0), rng=seed)
        timestamps = [event.timestamp for event in perturbed]
        assert timestamps == sorted(timestamps)
