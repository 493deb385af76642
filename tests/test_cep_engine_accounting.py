"""Tests for the CEP engine's service-phase budget accounting."""

import pytest

from repro.baselines.event_level import EventLevelRR
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.cep.patterns import Pattern
from repro.mechanisms.accountant import BudgetExceededError


class TestAccounting:
    def test_disabled_by_default(
        self, make_engine, stream200, private_pattern
    ):
        engine = make_engine(mechanism=UniformPatternPPM(private_pattern, 1.0))
        assert engine.accountant is None
        for _ in range(5):
            engine.process_indicators(stream200, rng=0)  # no cap

    def test_spends_per_release(self, make_engine, stream200, private_pattern):
        engine = make_engine(
            mechanism=UniformPatternPPM(private_pattern, 1.0), accounting=2.5
        )
        engine.process_indicators(stream200, rng=0)
        assert engine.accountant.spent() == pytest.approx(1.0)
        engine.process_indicators(stream200, rng=1)
        assert engine.accountant.spent() == pytest.approx(2.0)

    def test_overspend_refused_before_noise(
        self, make_engine, stream200, private_pattern
    ):
        engine = make_engine(
            mechanism=UniformPatternPPM(private_pattern, 1.0), accounting=1.5
        )
        engine.process_indicators(stream200, rng=0)
        with pytest.raises(BudgetExceededError):
            engine.process_indicators(stream200, rng=1)
        # The failed release must not be recorded.
        assert engine.accountant.spent() == pytest.approx(1.0)

    def test_multi_pattern_spends_per_guarantee(
        self, make_engine, stream200, private_pattern
    ):
        other = Pattern.of_types("other", "e5", "e6")
        mechanism = MultiPatternPPM(
            [
                UniformPatternPPM(private_pattern, 1.0),
                UniformPatternPPM(other, 0.5),
            ]
        )
        engine = make_engine(mechanism=mechanism, accounting=10.0)
        engine.process_indicators(stream200, rng=0)
        by_label = engine.accountant.by_label()
        assert by_label["release:private"] == pytest.approx(1.0)
        assert by_label["release:other"] == pytest.approx(0.5)

    def test_atomic_refusal_for_multi_pattern(
        self, make_engine, stream200, private_pattern
    ):
        other = Pattern.of_types("other", "e5", "e6")
        mechanism = MultiPatternPPM(
            [
                UniformPatternPPM(private_pattern, 1.0),
                UniformPatternPPM(other, 1.0),
            ]
        )
        # The budget fits one guarantee, not both.
        engine = make_engine(mechanism=mechanism, accounting=1.5)
        with pytest.raises(BudgetExceededError):
            engine.process_indicators(stream200, rng=0)
        assert engine.accountant.spent() == 0.0  # nothing partially spent

    def test_plain_mechanism_spends_its_epsilon(self, make_engine, stream200):
        engine = make_engine(mechanism=EventLevelRR(0.7), accounting=1.0)
        engine.process_indicators(stream200, rng=0)
        assert engine.accountant.spent() == pytest.approx(0.7)

    def test_no_spend_without_mechanism(self, make_engine, stream200):
        engine = make_engine(accounting=1.0)
        engine.process_indicators(stream200, rng=0)
        assert engine.accountant.spent() == 0.0

    def test_invalid_total(self, make_engine):
        with pytest.raises(ValueError):
            make_engine(accounting=0.0)
