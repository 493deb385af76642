"""Property-based tests on the stream substrate invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.merge import partition_by_source
from repro.streams.stream import EventStream
from repro.streams.windows import CountWindows, SessionWindows, TumblingWindows

ALPHABET = EventAlphabet(["a", "b", "c"])

matrices = arrays(
    dtype=bool,
    shape=st.tuples(
        st.integers(min_value=0, max_value=30), st.just(3)
    ),
)


class TestIndicatorStreamLaws:
    @given(matrix=matrices)
    def test_split_concat_round_trip(self, matrix):
        stream = IndicatorStream(ALPHABET, matrix)
        history, evaluation = stream.split(0.5)
        rows = np.vstack([history.matrix_view(), evaluation.matrix_view()])
        assert np.array_equal(rows, stream.matrix_view())

    @given(
        matrix=matrices.filter(lambda m: m.shape[0] > 0),
        window=st.integers(min_value=0, max_value=29),
        column=st.sampled_from(["a", "b", "c"]),
    )
    def test_flip_is_involutive(self, matrix, window, column):
        stream = IndicatorStream(ALPHABET, matrix)
        index = window % stream.n_windows
        assert stream.flip(index, column).flip(index, column) == stream

    @given(matrix=matrices.filter(lambda m: m.shape[0] > 0))
    def test_detection_subset_law(self, matrix):
        # Detecting a superset of elements can never fire in more
        # windows than a subset.
        stream = IndicatorStream(ALPHABET, matrix)
        small = stream.detect_all(["a"])
        large = stream.detect_all(["a", "b"])
        assert not (large & ~small).any()


timestamp_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=0,
    max_size=40,
).map(sorted)


class TestWindowLaws:
    @given(timestamps=timestamp_lists.filter(lambda ts: len(ts) > 0))
    def test_tumbling_windows_partition_events(self, timestamps):
        stream = EventStream([Event("e", t) for t in timestamps])
        windows = TumblingWindows(10.0).assign(stream)
        assert sum(len(w) for w in windows) == len(stream)

    @given(
        timestamps=timestamp_lists.filter(lambda ts: len(ts) > 0),
        size=st.integers(min_value=1, max_value=10),
    )
    def test_count_windows_partition_events(self, timestamps, size):
        stream = EventStream([Event("e", t) for t in timestamps])
        windows = CountWindows(size).assign(stream)
        assert sum(len(w) for w in windows) == len(stream)
        for window in windows[:-1]:
            assert len(window) == size

    @given(
        timestamps=timestamp_lists.filter(lambda ts: len(ts) > 0),
        gap=st.floats(min_value=0.5, max_value=100.0),
    )
    def test_session_windows_partition_and_respect_gap(self, timestamps, gap):
        stream = EventStream([Event("e", t) for t in timestamps])
        windows = SessionWindows(gap).assign(stream)
        assert sum(len(w) for w in windows) == len(stream)
        for window in windows:
            gaps = np.diff([e.timestamp for e in window.events])
            assert (gaps <= gap + 1e-12).all()

    @pytest.mark.parametrize(
        "assigner",
        [
            TumblingWindows(10.0),
            TumblingWindows(10.0, emit_empty=True),
            CountWindows(3),
            SessionWindows(5.0),
        ],
        ids=["tumbling", "tumbling-emit-empty", "count", "session"],
    )
    @given(timestamps=timestamp_lists)
    def test_each_event_lands_in_exactly_one_window(
        self, assigner, timestamps
    ):
        # A window's release spends epsilon once per member event, so
        # no assigner may put one event into two windows.
        stream = EventStream([Event("e", t) for t in timestamps])
        windows = assigner.assign(stream)
        members = [event for window in windows for event in window]
        assert len(members) == len(stream)
        assert all(a is b for a, b in zip(members, stream.events))
        assert [w.index for w in windows] == list(range(len(windows)))


stream_specs = st.lists(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=0,
        max_size=15,
    ).map(sorted),
    min_size=1,
    max_size=4,
)


class TestMergeLaws:
    @given(specs=stream_specs)
    @settings(max_examples=60)
    def test_partition_preserves_count_and_order(self, specs):
        merged = EventStream(
            sorted(
                (
                    Event("e", t, source=f"s{i}")
                    for i, timestamps in enumerate(specs)
                    for t in timestamps
                ),
                key=lambda event: event.timestamp,
            )
        )
        parts = partition_by_source(merged)
        assert sum(len(part) for part in parts.values()) == len(merged)
        for source, part in parts.items():
            assert all(event.source == source for event in part)
            timestamps = [event.timestamp for event in part]
            assert timestamps == sorted(timestamps)

    @given(specs=stream_specs)
    @settings(max_examples=60)
    def test_partition_inverts_merge_per_source(self, specs):
        # A stable sort on time merges the per-source streams.
        merged = EventStream(
            sorted(
                (
                    Event("e", t, source=f"s{i}")
                    for i, timestamps in enumerate(specs)
                    for t in timestamps
                ),
                key=lambda event: event.timestamp,
            )
        )
        parts = partition_by_source(merged)
        for i, timestamps in enumerate(specs):
            source = f"s{i}"
            if timestamps:
                got = [event.timestamp for event in parts[source]]
                assert got == timestamps
            else:
                assert source not in parts
