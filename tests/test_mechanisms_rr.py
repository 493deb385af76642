"""Tests for repro.mechanisms.randomized_response (Definition 5)."""

import math

import pytest

from repro.mechanisms.randomized_response import (
    epsilon_to_flip_probability,
    flip_probability_to_epsilon,
)


class TestBudgetFlipConversion:
    def test_epsilon_zero_is_fair_coin(self):
        assert epsilon_to_flip_probability(0.0) == pytest.approx(0.5)

    def test_large_epsilon_approaches_zero(self):
        assert epsilon_to_flip_probability(20.0) < 1e-8

    def test_round_trip(self):
        for epsilon in (0.1, 0.5, 1.0, 3.0, 8.0):
            p = epsilon_to_flip_probability(epsilon)
            assert flip_probability_to_epsilon(p) == pytest.approx(epsilon)

    def test_known_value(self):
        # p = 1/(1+e), eps = ln((1-p)/p) = 1.
        p = epsilon_to_flip_probability(1.0)
        assert p == pytest.approx(1.0 / (1.0 + math.e))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            epsilon_to_flip_probability(-1.0)

    def test_flip_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flip_probability_to_epsilon(0.0)
        with pytest.raises(ValueError):
            flip_probability_to_epsilon(0.6)

    def test_monotone_decreasing(self):
        probabilities = [
            epsilon_to_flip_probability(epsilon)
            for epsilon in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert probabilities == sorted(probabilities, reverse=True)
