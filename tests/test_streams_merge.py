"""Tests for repro.streams.merge (per-source split of a merged stream)."""

from repro.streams.events import Event
from repro.streams.merge import partition_by_source
from repro.streams.stream import EventStream


class TestPartitionBySource:
    def test_round_trip(self):
        merged = EventStream(
            [
                Event("e", 0.0, source="a"),
                Event("e", 1.0, source="b"),
                Event("e", 2.0, source="a"),
            ]
        )
        parts = partition_by_source(merged)
        assert set(parts) == {"a", "b"}
        assert len(parts["a"]) == 2
        assert len(parts["b"]) == 1

    def test_sourceless_events_group_under_none(self):
        merged = EventStream([Event("x", 0.0)])
        parts = partition_by_source(merged)
        assert list(parts) == [None]
