"""Tests for EngineReport quality measurement and requirements."""

import pytest

from repro.cep.engine import QualityRequirement
from repro.core.uniform import UniformPatternPPM


class TestMeasuredQuality:
    def test_perfect_without_mechanism(self, make_engine, stream200):
        report = make_engine().process_indicators(stream200)
        quality = report.measured_quality()
        assert quality.q == pytest.approx(1.0)
        assert report.measured_mre() == pytest.approx(0.0)

    def test_degrades_with_mechanism(
        self, make_engine, stream200, private_pattern
    ):
        engine = make_engine(mechanism=UniformPatternPPM(private_pattern, 0.5))
        report = engine.process_indicators(stream200, rng=1)
        assert report.measured_mre() > 0.05

    def test_alpha_weighting(self, make_engine, stream200, private_pattern):
        engine = make_engine(mechanism=UniformPatternPPM(private_pattern, 1.0))
        report = engine.process_indicators(stream200, rng=1)
        precision_only = report.measured_quality(alpha=1.0)
        recall_only = report.measured_quality(alpha=0.0)
        assert precision_only.q == pytest.approx(precision_only.precision)
        assert recall_only.q == pytest.approx(recall_only.recall)


class TestMeetsRequirement:
    def test_no_cap_always_met(self, make_engine, stream200, private_pattern):
        engine = make_engine(mechanism=UniformPatternPPM(private_pattern, 0.2))
        report = engine.process_indicators(stream200, rng=1)
        assert report.meets_requirement(QualityRequirement())

    def test_strict_cap_fails_at_tight_budget(
        self, make_engine, stream200, private_pattern
    ):
        engine = make_engine(mechanism=UniformPatternPPM(private_pattern, 0.2))
        report = engine.process_indicators(stream200, rng=1)
        assert not report.meets_requirement(
            QualityRequirement(max_mre=0.01)
        )

    def test_loose_cap_met_at_large_budget(
        self, make_engine, stream200, private_pattern
    ):
        engine = make_engine(
            mechanism=UniformPatternPPM(private_pattern, 50.0)
        )
        report = engine.process_indicators(stream200, rng=1)
        assert report.meets_requirement(QualityRequirement(max_mre=0.05))

    def test_engine_requirement_round_trip(
        self, make_engine, stream200, private_pattern
    ):
        requirement = QualityRequirement(alpha=0.5, max_mre=0.9)
        engine = make_engine(
            quality=requirement,
            mechanism=UniformPatternPPM(private_pattern, 2.0),
        )
        report = engine.process_indicators(stream200, rng=1)
        assert report.meets_requirement(engine.quality_requirement)
