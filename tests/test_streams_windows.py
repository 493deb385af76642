"""Tests for repro.streams.windows — window assigners."""

import math

import pytest

from repro.streams.events import Event
from repro.streams.stream import EventStream
from repro.streams.windows import (
    CountWindows,
    SessionWindows,
    TumblingWindows,
)


def stream_at(timestamps, event_type="e"):
    return EventStream([Event(event_type, float(t)) for t in timestamps])


class TestTumblingWindows:
    def test_partitions_events(self):
        windows = TumblingWindows(10.0).assign(stream_at([0, 3, 9, 10, 25]))
        assert [len(w) for w in windows] == [3, 1, 1]

    def test_bounds_are_half_open(self):
        windows = TumblingWindows(10.0).assign(stream_at([0, 10]))
        assert windows[0].start == 0.0 and windows[0].end == 10.0
        assert windows[1].start == 10.0

    def test_every_event_in_exactly_one_window(self):
        events = stream_at(range(0, 50, 3))
        windows = TumblingWindows(7.0).assign(events)
        total = sum(len(w) for w in windows)
        assert total == len(events)

    def test_emit_empty_fills_gaps(self):
        windows = TumblingWindows(10.0, emit_empty=True).assign(
            stream_at([0, 35])
        )
        assert [len(w) for w in windows] == [1, 0, 0, 1]
        assert [w.index for w in windows] == [0, 1, 2, 3]

    def test_skip_empty_by_default(self):
        windows = TumblingWindows(10.0).assign(stream_at([0, 35]))
        assert [len(w) for w in windows] == [1, 1]

    def test_custom_origin(self):
        windows = TumblingWindows(10.0, origin=0.0).assign(stream_at([15]))
        assert windows[0].start == 10.0

    def test_event_before_origin_rejected(self):
        with pytest.raises(ValueError):
            TumblingWindows(10.0, origin=20.0).assign(stream_at([5]))

    def test_empty_stream(self):
        assert TumblingWindows(10.0).assign(EventStream([])) == []

    def test_invalid_width(self):
        with pytest.raises(Exception):
            TumblingWindows(0.0)


class TestCountWindows:
    def test_fixed_size_chunks(self):
        windows = CountWindows(3).assign(stream_at(range(7)))
        assert [len(w) for w in windows] == [3, 3, 1]

    def test_drop_partial(self):
        windows = CountWindows(3, drop_partial=True).assign(stream_at(range(7)))
        assert [len(w) for w in windows] == [3, 3]

    def test_exact_multiple(self):
        windows = CountWindows(2).assign(stream_at(range(6)))
        assert [len(w) for w in windows] == [2, 2, 2]

    def test_window_bounds_are_observed(self):
        windows = CountWindows(2).assign(stream_at([1, 5, 9]))
        assert windows[0].start == 1.0 and windows[0].end == 5.0

    def test_empty_stream(self):
        assert CountWindows(3).assign(EventStream([])) == []


class TestSessionWindows:
    def test_splits_on_gap(self):
        windows = SessionWindows(5.0).assign(stream_at([0, 2, 4, 20, 21]))
        assert [len(w) for w in windows] == [3, 2]

    def test_no_gap_single_session(self):
        windows = SessionWindows(5.0).assign(stream_at([0, 2, 4]))
        assert len(windows) == 1

    def test_gap_boundary_is_exclusive(self):
        # A gap of exactly `gap` does not split.
        windows = SessionWindows(5.0).assign(stream_at([0, 5]))
        assert len(windows) == 1
        windows = SessionWindows(5.0).assign(stream_at([0, 5.01]))
        assert len(windows) == 2

    def test_empty_stream(self):
        assert SessionWindows(5.0).assign(EventStream([])) == []


class TestAssignerArguments:
    """Each assigner rejects a bad parameter with the message a spec
    string's ``window=`` value surfaces."""

    @pytest.mark.parametrize(
        "width, message",
        [
            (-1.0, "width must be > 0, got -1.0"),
            (math.nan, "width must not be NaN"),
            (math.inf, "width must be finite, got inf"),
            ("10", "width must be a real number, got str"),
            (True, "width must be a real number, got bool"),
        ],
    )
    def test_tumbling_width_rejected(self, width, message):
        with pytest.raises(ValueError, match=message):
            TumblingWindows(width)

    @pytest.mark.parametrize(
        "size, message",
        [
            (0, "size must be > 0, got 0"),
            (2.5, "size must be an int, got float"),
            (3.0, "size must be an int, got float"),
            ("3", "size must be an int, got str"),
            (True, "size must be an int, got bool"),
        ],
    )
    def test_count_size_rejected(self, size, message):
        with pytest.raises(ValueError, match=message):
            CountWindows(size)

    @pytest.mark.parametrize(
        "gap, message",
        [
            (0.0, "gap must be > 0, got 0.0"),
            (-2, "gap must be > 0, got -2.0"),
            (math.nan, "gap must not be NaN"),
            (math.inf, "gap must be finite, got inf"),
        ],
    )
    def test_session_gap_rejected(self, gap, message):
        with pytest.raises(ValueError, match=message):
            SessionWindows(gap)

    def test_integer_width_and_gap_are_stored_as_floats(self):
        assert TumblingWindows(10).width == 10.0
        assert isinstance(TumblingWindows(10).width, float)
        assert isinstance(SessionWindows(3).gap, float)


class TestWindowObject:
    def test_event_types(self):
        window = TumblingWindows(10.0).assign(
            EventStream([Event("a", 0.0), Event("b", 1.0), Event("a", 2.0)])
        )[0]
        assert window.event_types() == frozenset({"a", "b"})

    def test_iteration(self):
        window = TumblingWindows(10.0).assign(stream_at([0, 1]))[0]
        assert len(list(window)) == 2
