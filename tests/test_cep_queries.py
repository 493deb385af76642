"""Tests for repro.cep.queries — continuous queries and answers."""

import numpy as np
import pytest

from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery, QueryAnswer


class TestContinuousQuery:
    def test_construction(self):
        query = ContinuousQuery("q1", Pattern.of_types("p", "a"))
        assert query.name == "q1"

    def test_for_pattern_names_after_pattern(self):
        query = ContinuousQuery.for_pattern(Pattern.of_types("p", "a"))
        assert query.name == "q:p"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ContinuousQuery("", Pattern.of_types("p", "a"))

    def test_non_pattern_rejected(self):
        with pytest.raises(TypeError):
            ContinuousQuery("q", "not-a-pattern")  # type: ignore[arg-type]

    def test_invalid_within_rejected(self):
        with pytest.raises(ValueError):
            ContinuousQuery("q", Pattern.of_types("p", "a"), within=0.0)


class TestQueryAnswer:
    def test_detection_accessors(self):
        answer = QueryAnswer("q", np.array([True, False, True]))
        assert answer.n_windows == 3
        assert bool(answer.detections[0]) is True
        assert bool(answer.detections[1]) is False
        assert answer.detection_count() == 2

    def test_coerces_to_bool(self):
        answer = QueryAnswer("q", np.array([1, 0, 1]))
        assert answer.detections.dtype == bool
