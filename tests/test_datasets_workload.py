"""Tests for repro.datasets.workload — the workload bundle."""

import numpy as np
import pytest

from repro.cep.patterns import Pattern
from repro.datasets.workload import Workload
from repro.streams.indicator import EventAlphabet, IndicatorStream


@pytest.fixture
def parts(alphabet6, stream200):
    history = stream200.slice_windows(0, 50)
    evaluation = stream200.slice_windows(50, 200)
    private = Pattern.of_types("private", "e1", "e2")
    target = Pattern.of_types("target", "e2", "e3")
    return evaluation, history, private, target


class TestConstruction:
    def test_valid_workload(self, parts):
        evaluation, history, private, target = parts
        workload = Workload(
            name="w",
            stream=evaluation,
            history=history,
            private_patterns=[private],
            target_patterns=[target],
        )
        assert workload.private_patterns == [private]

    def test_requires_patterns(self, parts):
        evaluation, history, private, target = parts
        with pytest.raises(ValueError):
            Workload("w", evaluation, history, [], [target])
        with pytest.raises(ValueError):
            Workload("w", evaluation, history, [private], [])

    def test_alphabet_mismatch_rejected(self, parts):
        evaluation, _history, private, target = parts
        other = IndicatorStream(
            EventAlphabet(["x"]), np.zeros((3, 1), dtype=bool)
        )
        with pytest.raises(ValueError):
            Workload("w", evaluation, other, [private], [target])

    def test_pattern_outside_alphabet_rejected(self, parts):
        evaluation, history, private, _target = parts
        stranger = Pattern.of_types("t", "zz")
        with pytest.raises(ValueError):
            Workload("w", evaluation, history, [private], [stranger])


class TestDerivedProperties:
    @pytest.fixture
    def workload(self, parts):
        evaluation, history, private, target = parts
        other_private = Pattern.of_types("other", "e5", "e6", "e4")
        return Workload(
            name="w",
            stream=evaluation,
            history=history,
            private_patterns=[private, other_private],
            target_patterns=[target],
        )

    def test_max_private_length(self, workload):
        assert workload.max_private_length == 3

    def test_private_elements_union(self, workload):
        assert set(workload.private_elements()) == {
            "e1", "e2", "e5", "e6", "e4",
        }

    def test_landmark_mask_matches_private_columns(self, workload):
        mask = workload.landmark_mask()
        expected = np.zeros(workload.stream.n_windows, dtype=bool)
        for element in workload.private_elements():
            expected |= workload.stream.column(element)
        assert np.array_equal(mask, expected)

    def test_most_overlapping_private(self, workload):
        # "private" shares e2 with the target; "other" shares e4.  Both
        # share one element; ties break to the first.
        assert workload.most_overlapping_private().name == "private"
