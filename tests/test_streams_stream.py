"""Tests for repro.streams.stream — DataStream and EventStream."""

import itertools

import pytest

from repro.streams.events import DataTuple, Event
from repro.streams.stream import DataStream, EventStream


class TestDataStream:
    def test_replayable_from_sequence(self):
        stream = DataStream([DataTuple(0), DataTuple(1)])
        assert len(list(stream)) == 2
        assert len(list(stream)) == 2  # second iteration restarts

    def test_len_of_materialized(self):
        assert len(DataStream([DataTuple(0)])) == 1

    def test_factory_backed_stream(self):
        def factory():
            return (DataTuple(float(i)) for i in itertools.count())

        stream = DataStream(factory=factory)
        assert len(list(itertools.islice(stream, 5))) == 5

    def test_factory_len_undefined(self):
        stream = DataStream(factory=lambda: iter(()))
        with pytest.raises(TypeError):
            len(stream)

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            DataStream()
        with pytest.raises(ValueError):
            DataStream([DataTuple(0)], factory=lambda: iter(()))


class TestEventStream:
    def test_preserves_order(self, abc_stream):
        assert [e.event_type for e in abc_stream] == [
            "a", "x", "b", "c", "a", "b", "x", "c",
        ]

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError, match="temporal order"):
            EventStream([Event("a", 2.0), Event("b", 1.0)])

    def test_equal_timestamps_allowed(self):
        EventStream([Event("a", 1.0), Event("b", 1.0)])

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            EventStream([Event("a", 0.0), "not-an-event"])  # type: ignore[list-item]

    def test_len_and_getitem(self, abc_stream):
        assert len(abc_stream) == 8
        assert abc_stream[0].event_type == "a"

    def test_slice_returns_stream(self, abc_stream):
        sliced = abc_stream[2:4]
        assert isinstance(sliced, EventStream)
        assert [e.event_type for e in sliced] == ["b", "c"]

    def test_equality(self):
        a = EventStream([Event("a", 0.0)])
        b = EventStream([Event("a", 0.0)])
        assert a == b

    def test_events_copy(self, abc_stream):
        events = abc_stream.events
        events.pop()
        assert len(abc_stream) == 8
