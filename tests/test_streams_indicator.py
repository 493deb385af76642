"""Tests for repro.streams.indicator — the windowed binary reduction."""

import numpy as np
import pytest

from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.streams.windows import TumblingWindows


class TestEventAlphabet:
    def test_order_and_lookup(self):
        alphabet = EventAlphabet(["a", "b", "c"])
        assert alphabet.index("b") == 1
        assert list(alphabet) == ["a", "b", "c"]
        assert len(alphabet) == 3

    def test_contains(self):
        alphabet = EventAlphabet(["a"])
        assert "a" in alphabet
        assert "z" not in alphabet

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError, match="z"):
            EventAlphabet(["a"]).index("z")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            EventAlphabet(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EventAlphabet([])

    def test_numbered(self):
        alphabet = EventAlphabet.numbered(3)
        assert list(alphabet) == ["e1", "e2", "e3"]

    def test_numbered_custom_prefix(self):
        assert list(EventAlphabet.numbered(2, prefix="x")) == ["x1", "x2"]

    def test_equality_and_hash(self):
        assert EventAlphabet(["a", "b"]) == EventAlphabet(["a", "b"])
        assert EventAlphabet(["a", "b"]) != EventAlphabet(["b", "a"])
        assert hash(EventAlphabet(["a"])) == hash(EventAlphabet(["a"]))

    def test_indices(self):
        alphabet = EventAlphabet(["a", "b", "c"])
        assert alphabet.indices(["c", "a"]) == [2, 0]


class TestConstruction:
    def test_from_window_sets(self):
        alphabet = EventAlphabet(["a", "b"])
        stream = IndicatorStream.from_window_sets(
            alphabet, [{"a"}, {"a", "b"}, set()]
        )
        assert stream.n_windows == 3
        assert stream.contains(0, "a")
        assert not stream.contains(0, "b")
        assert stream.contains(1, "b")

    def test_strict_rejects_unknown_types(self):
        alphabet = EventAlphabet(["a"])
        with pytest.raises(KeyError):
            IndicatorStream.from_window_sets(alphabet, [{"z"}])

    def test_non_strict_ignores_unknown_types(self):
        alphabet = EventAlphabet(["a"])
        stream = IndicatorStream.from_window_sets(
            alphabet, [{"z", "a"}], strict=False
        )
        assert stream.contains(0, "a")

    def test_from_event_windows(self):
        events = EventStream([Event("a", 0.0), Event("b", 12.0)])
        windows = TumblingWindows(10.0).assign(events)
        alphabet = EventAlphabet(["a", "b"])
        stream = IndicatorStream.from_event_windows(alphabet, windows)
        assert stream.contains(0, "a") and not stream.contains(0, "b")
        assert stream.contains(1, "b")

    def test_zero_one_matrix_accepted(self):
        stream = IndicatorStream(
            EventAlphabet(["a"]), np.array([[0], [1]])
        )
        assert stream.contains(1, "a")

    def test_non_binary_matrix_rejected(self):
        with pytest.raises(ValueError):
            IndicatorStream(EventAlphabet(["a"]), np.array([[2]]))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            IndicatorStream(
                EventAlphabet(["a", "b"]), np.zeros((3, 3), dtype=bool)
            )

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            IndicatorStream(EventAlphabet(["a"]), np.zeros(3, dtype=bool))

    def test_empty_window_sets(self):
        stream = IndicatorStream.from_window_sets(EventAlphabet(["a"]), [])
        assert stream.n_windows == 0


class TestImmutability:
    def test_matrix_returns_copy(self, stream200):
        matrix = stream200.matrix()
        matrix[:] = False
        assert stream200.matrix().any()

    def test_matrix_view_read_only(self, stream200):
        with pytest.raises(ValueError):
            stream200.matrix_view()[0, 0] = True

    def test_constructor_copies_input(self):
        matrix = np.ones((2, 1), dtype=bool)
        stream = IndicatorStream(EventAlphabet(["a"]), matrix)
        matrix[0, 0] = False
        assert stream.contains(0, "a")


class TestDetection:
    def test_detect_all_is_containment(self, stream200):
        detected = stream200.detect_all(["e1", "e2"])
        expected = stream200.column("e1") & stream200.column("e2")
        assert np.array_equal(detected, expected)

    def test_single_element_detection(self, stream200):
        assert np.array_equal(
            stream200.detect_all(["e3"]), stream200.column("e3")
        )

    def test_empty_pattern_rejected(self, stream200):
        with pytest.raises(ValueError):
            stream200.detect_all([])

    def test_detection_count(self, stream200):
        count = stream200.detection_count(["e1"])
        assert count == int(stream200.column("e1").sum())

    def test_unknown_element_raises(self, stream200):
        with pytest.raises(KeyError):
            stream200.detect_all(["nope"])


class TestTransforms:
    def test_flip_changes_exactly_one_bit(self, stream200):
        flipped = stream200.flip(5, "e2")
        difference = stream200.matrix_view() != flipped.matrix_view()
        assert difference.sum() == 1
        assert difference[5, stream200.alphabet.index("e2")]

    def test_flip_is_involutive(self, stream200):
        assert stream200.flip(0, "e1").flip(0, "e1") == stream200

    def test_slice_windows(self, stream200):
        sliced = stream200.slice_windows(10, 20)
        assert sliced.n_windows == 10
        assert np.array_equal(
            sliced.matrix_view(), stream200.matrix_view()[10:20]
        )

    def test_split_partitions(self, stream200):
        history, evaluation = stream200.split(0.25)
        assert history.n_windows == 50
        assert evaluation.n_windows == 150
        rows = np.vstack([history.matrix_view(), evaluation.matrix_view()])
        assert np.array_equal(rows, stream200.matrix_view())

    def test_split_bad_fraction(self, stream200):
        with pytest.raises(ValueError):
            stream200.split(1.5)


class TestAccessors:
    def test_window_types(self):
        alphabet = EventAlphabet(["a", "b"])
        stream = IndicatorStream.from_window_sets(alphabet, [{"b"}])
        assert stream.window_types(0) == frozenset({"b"})

    def test_equality(self, stream200):
        same = IndicatorStream(stream200.alphabet, stream200.matrix())
        assert same == stream200
