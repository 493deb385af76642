"""Tests for repro.streams.extraction — tuple-to-event lifting."""

import itertools

import pytest

from repro.streams.events import DataTuple
from repro.streams.extraction import EventExtractor, extract_events
from repro.streams.stream import DataStream


@pytest.fixture
def gps_stream():
    speeds = [10, 80, 20, 90]
    return DataStream(
        [
            DataTuple(float(t), values={"speed": speed}, source="car")
            for t, speed in enumerate(speeds)
        ]
    )


class TestEventExtractor:
    def test_fixed_type_extraction(self, gps_stream):
        extractor = EventExtractor(
            "speeding", predicate=lambda t: t.value("speed") > 50
        )
        events = [
            extractor.extract(t)
            for t in gps_stream
            if extractor.extract(t) is not None
        ]
        assert len(events) == 2
        assert all(e.event_type == "speeding" for e in events)

    def test_no_predicate_accepts_everything(self, gps_stream):
        extractor = EventExtractor("sample")
        assert all(extractor.matches(t) for t in gps_stream)

    def test_callable_type(self, gps_stream):
        extractor = EventExtractor(
            lambda t: f"speed_{t.value('speed') // 50}",
        )
        first = extractor.extract(list(gps_stream)[0])
        assert first.event_type == "speed_0"

    def test_attribute_projection(self, gps_stream):
        extractor = EventExtractor(
            "sample", attributes=lambda t: {"s": t.value("speed")}
        )
        event = extractor.extract(list(gps_stream)[0])
        assert event.attributes == {"s": 10}

    def test_default_carries_payload(self, gps_stream):
        extractor = EventExtractor("sample")
        event = extractor.extract(list(gps_stream)[0])
        assert event.attribute("speed") == 10

    def test_source_preserved(self, gps_stream):
        extractor = EventExtractor("sample")
        assert extractor.extract(list(gps_stream)[0]).source == "car"

    def test_empty_type_rejected(self):
        with pytest.raises(ValueError):
            EventExtractor("")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            EventExtractor(42)  # type: ignore[arg-type]


class TestExtractEvents:
    def test_multiple_extractors_per_tuple(self, gps_stream):
        stream = extract_events(
            gps_stream,
            [
                EventExtractor("sample"),
                EventExtractor(
                    "speeding", predicate=lambda t: t.value("speed") > 50
                ),
            ],
        )
        # 4 samples + 2 speeding events.
        assert len(stream) == 6

    def test_temporal_order_maintained(self, gps_stream):
        stream = extract_events(gps_stream, [EventExtractor("sample")])
        timestamps = [event.timestamp for event in stream]
        assert timestamps == sorted(timestamps)

    def test_requires_extractors(self, gps_stream):
        with pytest.raises(ValueError):
            extract_events(gps_stream, [])

    def test_limit_bounds_infinite_streams(self):
        def factory():
            return (DataTuple(float(i)) for i in itertools.count())

        stream = DataStream(factory=factory)
        events = extract_events(stream, [EventExtractor("tick")], limit=10)
        assert len(events) == 10

    def test_event_timestamp_equals_tuple_timestamp(self, gps_stream):
        stream = extract_events(gps_stream, [EventExtractor("sample")])
        assert stream[0].timestamp == 0.0
