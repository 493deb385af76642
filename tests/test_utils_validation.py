"""Tests for repro.utils.validation — argument checks."""

import math

import pytest

from repro.utils.validation import (
    ValidationError,
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("eps", 0.5) == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive("eps", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive("eps", -1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive("eps", float("nan"))

    def test_rejects_inf_by_default(self):
        with pytest.raises(ValidationError):
            check_positive("eps", math.inf)

    def test_allows_inf_when_asked(self):
        assert check_positive("eps", math.inf, allow_inf=True) == math.inf

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive("eps", True)

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_positive("eps", "1.0")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative("x", -0.001)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValidationError):
            check_probability("p", value)

    def test_fraction_alias(self):
        assert check_fraction("f", 0.25) == 0.25


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_outside_rejected(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 3.0, 1.0, 2.0)


class TestIntChecks:
    def test_positive_int(self):
        assert check_positive_int("n", 3) == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive_int("n", 0)

    def test_positive_int_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int("n", 3.0)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int("n", True)


class TestErrorMessages:
    def test_message_names_parameter(self):
        with pytest.raises(ValidationError, match="epsilon"):
            check_positive("epsilon", -2)

    def test_message_includes_value(self):
        with pytest.raises(ValidationError, match="-2"):
            check_positive("epsilon", -2)

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)
