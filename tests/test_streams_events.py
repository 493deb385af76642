"""Tests for repro.streams.events — Event and DataTuple."""

import pytest

from repro.streams.events import DataTuple, Event


class TestDataTuple:
    def test_basic_fields(self):
        t = DataTuple(5.0, values={"x": 1, "y": 2}, source="s1")
        assert t.timestamp == 5.0
        assert t.values == {"x": 1, "y": 2}
        assert t.source == "s1"

    def test_value_lookup(self):
        t = DataTuple(0, values={"x": 1})
        assert t.value("x") == 1
        assert t.value("missing") is None
        assert t.value("missing", 7) == 7

    def test_values_is_a_copy(self):
        t = DataTuple(0, values={"x": 1})
        t.values["x"] = 99
        assert t.value("x") == 1

    def test_empty_payload(self):
        assert DataTuple(0).values == {}

    def test_hashable_and_equal(self):
        a = DataTuple(1, values={"x": 1}, source="s")
        b = DataTuple(1, values={"x": 1}, source="s")
        assert a == b
        assert hash(a) == hash(b)

    def test_payload_order_does_not_matter(self):
        a = DataTuple(1, values={"x": 1, "y": 2})
        b = DataTuple(1, values={"y": 2, "x": 1})
        assert a == b


class TestEvent:
    def test_basic_fields(self):
        e = Event("gps", 3.0, attributes={"cell": 7}, source="taxi-1")
        assert e.event_type == "gps"
        assert e.timestamp == 3.0
        assert e.attribute("cell") == 7
        assert e.source == "taxi-1"

    def test_empty_type_rejected(self):
        with pytest.raises(ValueError):
            Event("", 0.0)

    def test_non_string_type_rejected(self):
        with pytest.raises(ValueError):
            Event(7, 0.0)  # type: ignore[arg-type]

    def test_equality_covers_all_fields(self):
        base = Event("a", 1.0, attributes={"k": 1}, source="s")
        assert base == Event("a", 1.0, attributes={"k": 1}, source="s")
        assert base != Event("b", 1.0, attributes={"k": 1}, source="s")
        assert base != Event("a", 2.0, attributes={"k": 1}, source="s")
        assert base != Event("a", 1.0, attributes={"k": 2}, source="s")
        assert base != Event("a", 1.0, attributes={"k": 1}, source="t")

    def test_hashable(self):
        events = {Event("a", 1.0), Event("a", 1.0), Event("b", 1.0)}
        assert len(events) == 2

    def test_attributes_is_a_copy(self):
        e = Event("a", 0.0, attributes={"k": 1})
        e.attributes["k"] = 2
        assert e.attribute("k") == 1

    def test_attribute_default(self):
        assert Event("a", 0.0).attribute("none", "d") == "d"
