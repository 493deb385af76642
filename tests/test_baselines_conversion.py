"""Tests for repro.baselines.conversion — pattern-level budget conversion."""

import pytest

from repro.baselines.conversion import (
    BudgetConverter,
    ba_timestep_coefficient,
    bd_timestep_coefficient,
    event_level_timestep_coefficient,
    landmark_timestep_coefficient,
    native_epsilon_for_pattern,
    user_level_timestep_coefficient,
)


class TestCoefficients:
    def test_bd_worst_case_formula(self):
        # ε_2/2 / ε + dissimilarity share: 1/4 + 1/(2w).
        assert bd_timestep_coefficient(10) == pytest.approx(0.25 + 0.05)

    def test_ba_worst_case_formula(self):
        # Full absorption: 1/2 + 1/(2w).
        assert ba_timestep_coefficient(10) == pytest.approx(0.5 + 0.05)

    def test_nominal_mode_shrinks_with_w(self):
        assert bd_timestep_coefficient(
            100, mode="nominal"
        ) < bd_timestep_coefficient(10, mode="nominal")

    def test_ba_worst_exceeds_bd_worst(self):
        # BA can concentrate more budget on one timestamp than BD.
        assert ba_timestep_coefficient(10) > bd_timestep_coefficient(10)

    def test_nominal_modes_agree_for_bd_ba(self):
        assert bd_timestep_coefficient(10, mode="nominal") == pytest.approx(
            ba_timestep_coefficient(10, mode="nominal")
        )

    def test_landmark_worst_case(self):
        # rho/2 + rho/(2L).
        assert landmark_timestep_coefficient(
            5, rho=0.5
        ) == pytest.approx(0.25 + 0.05)

    def test_landmark_nominal(self):
        assert landmark_timestep_coefficient(
            5, rho=0.5, mode="nominal"
        ) == pytest.approx(0.1)

    def test_event_level_is_identity(self):
        assert event_level_timestep_coefficient() == 1.0

    def test_user_level_divides_by_stream_size(self):
        assert user_level_timestep_coefficient(100, 20) == pytest.approx(
            1.0 / 2000.0
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            bd_timestep_coefficient(10, mode="magic")


class TestConversionInversion:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("coefficient", [0.05, 0.3, 1.0])
    def test_round_trip(self, m, coefficient):
        # ε_pattern = m × coefficient × ε_native.
        native = native_epsilon_for_pattern(2.0, m, coefficient)
        assert m * coefficient * native == pytest.approx(2.0)

    def test_monotone_in_pattern_epsilon(self):
        smaller = native_epsilon_for_pattern(1.0, 3, 0.3)
        larger = native_epsilon_for_pattern(2.0, 3, 0.3)
        assert larger > smaller

    def test_longer_patterns_get_less_native_budget(self):
        # Same pattern-level ε must be shared by more elements.
        short = native_epsilon_for_pattern(2.0, 1, 0.3)
        long = native_epsilon_for_pattern(2.0, 4, 0.3)
        assert long == pytest.approx(short / 4)


class TestBudgetConverter:
    @pytest.fixture
    def converter(self):
        return BudgetConverter(3, mode="worst_case")

    def test_bd_round_trip(self, converter):
        native = converter.bd_native(2.0, w=10)
        coefficient = bd_timestep_coefficient(10)
        assert 3 * coefficient * native == pytest.approx(2.0)

    def test_ba_round_trip(self, converter):
        native = converter.ba_native(2.0, w=10)
        coefficient = ba_timestep_coefficient(10)
        assert 3 * coefficient * native == pytest.approx(2.0)

    def test_landmark_round_trip(self, converter):
        native = converter.landmark_native(2.0, n_landmarks=7)
        coefficient = landmark_timestep_coefficient(7)
        assert 3 * coefficient * native == pytest.approx(2.0)

    def test_event_level(self, converter):
        # Group privacy over m events: per-event budget is ε/m.
        assert converter.event_level_native(3.0) == pytest.approx(1.0)

    def test_user_level(self, converter):
        native = converter.user_level_native(3.0, n_windows=10, n_types=5)
        assert native == pytest.approx(3.0 / 3 * 50)

    def test_ba_gets_less_native_budget_than_bd(self, converter):
        # BA's worst-case per-timestamp loss is larger, so the same
        # pattern-level ε allows a smaller native budget.
        assert converter.ba_native(2.0, w=10) < converter.bd_native(2.0, w=10)

    def test_conversion_direction_can_go_both_ways(self):
        # The paper: "an increase or a decrease of privacy budgets are
        # both possible after a conversion".
        converter = BudgetConverter(1)
        assert converter.bd_native(2.0, w=10) > 2.0  # increase
        converter_long = BudgetConverter(8)
        assert converter_long.ba_native(2.0, w=2) < 2.0  # decrease

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            BudgetConverter(3, mode="magic")

    def test_invalid_length(self):
        with pytest.raises(Exception):
            BudgetConverter(0)
