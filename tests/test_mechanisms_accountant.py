"""Tests for repro.mechanisms.accountant — budget accounting."""

import math

import pytest

from repro.mechanisms.accountant import (
    BudgetExceededError,
    PrivacyAccountant,
    composed_epsilon,
)


class TestComposedEpsilon:
    def test_sequential_adds(self):
        assert composed_epsilon([0.5, 0.3, 0.2]) == pytest.approx(1.0)

    def test_parallel_takes_max(self):
        assert composed_epsilon([0.5, 0.3], mode="parallel") == 0.5

    def test_parallel_empty_is_zero(self):
        assert composed_epsilon([], mode="parallel") == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            composed_epsilon([0.1], mode="magic")

    def test_negative_spend_rejected(self):
        with pytest.raises(Exception):
            composed_epsilon([-0.1])


class TestPrivacyAccountant:
    def test_spend_and_remaining(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend("a", 0.4)
        assert accountant.spent() == pytest.approx(0.4)
        assert accountant.remaining() == pytest.approx(0.6)

    def test_overspend_raises_before_recording(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend("a", 0.8)
        with pytest.raises(BudgetExceededError):
            accountant.spend("b", 0.3)
        # The failed spend is not recorded.
        assert accountant.spent() == pytest.approx(0.8)

    def test_exact_budget_allowed(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend("a", 0.5)
        accountant.spend("b", 0.5)
        assert accountant.remaining() == pytest.approx(0.0)

    def test_float_accumulation_tolerance(self):
        accountant = PrivacyAccountant(1.0)
        for i in range(10):
            accountant.spend(f"s{i}", 0.1)
        assert accountant.remaining() == pytest.approx(0.0, abs=1e-9)

    def test_can_spend(self):
        accountant = PrivacyAccountant(1.0)
        assert accountant.can_spend(1.0)
        accountant.spend("a", 0.9)
        assert not accountant.can_spend(0.2)

    def test_reset(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend("a", 1.0)
        accountant.reset()
        assert accountant.spent() == 0.0
        accountant.spend("b", 1.0)

    def test_infinite_budget_allowed(self):
        accountant = PrivacyAccountant(math.inf)
        accountant.spend("a", 1000.0)
        assert accountant.can_spend(1e9)

    def test_zero_spend_allowed(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend("noop", 0.0)
        assert accountant.spent() == 0.0

    def test_spends_are_copies(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend("a", 0.1)
        accountant.spends.clear()
        assert len(accountant.spends) == 1

    def test_invalid_total_rejected(self):
        with pytest.raises(Exception):
            PrivacyAccountant(0.0)
