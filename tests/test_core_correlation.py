"""Tests for repro.core.correlation — Section V-C proxy discovery."""

import numpy as np
import pytest

from repro.cep.patterns import Pattern
from repro.core.correlation import (
    augment_private_pattern,
    discover_relevant_events,
    event_pattern_correlations,
    leakage_after_protection,
    phi_coefficient,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream


@pytest.fixture
def proxy_stream():
    """A stream where e4 is a near-perfect proxy for seq(e1, e2).

    e1, e2 are independent coins; e4 copies the conjunction (with a few
    flips); e3 is independent noise.
    """
    rng = np.random.default_rng(5)
    n = 800
    e1 = rng.random(n) < 0.6
    e2 = rng.random(n) < 0.6
    detection = e1 & e2
    noise = rng.random(n) < 0.05
    e4 = detection ^ noise
    e3 = rng.random(n) < 0.5
    matrix = np.column_stack([e1, e2, e3, e4])
    return IndicatorStream(EventAlphabet(["e1", "e2", "e3", "e4"]), matrix)


@pytest.fixture
def private_pattern_12():
    return Pattern.of_types("p", "e1", "e2")


class TestPhiCoefficient:
    def test_identical_vectors(self):
        vector = np.array([True, False, True, True])
        assert phi_coefficient(vector, vector) == pytest.approx(1.0)

    def test_complementary_vectors(self):
        vector = np.array([True, False, True, False])
        assert phi_coefficient(vector, ~vector) == pytest.approx(-1.0)

    def test_independent_vectors_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.random(5000) < 0.5
        b = rng.random(5000) < 0.5
        assert abs(phi_coefficient(a, b)) < 0.05

    def test_constant_vector_gives_zero(self):
        constant = np.ones(10, dtype=bool)
        varying = np.array([True, False] * 5)
        assert phi_coefficient(constant, varying) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phi_coefficient(np.ones(3, dtype=bool), np.ones(4, dtype=bool))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi_coefficient(np.zeros(0, dtype=bool), np.zeros(0, dtype=bool))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.random(500) < 0.3
        b = rng.random(500) < 0.7
        assert phi_coefficient(a, b) == pytest.approx(phi_coefficient(b, a))


class TestEventPatternCorrelations:
    def test_proxy_detected_as_strongly_correlated(
        self, proxy_stream, private_pattern_12
    ):
        correlations = event_pattern_correlations(
            proxy_stream, private_pattern_12
        )
        assert correlations["e4"] > 0.8
        assert abs(correlations["e3"]) < 0.1

    def test_own_elements_correlate(self, proxy_stream, private_pattern_12):
        correlations = event_pattern_correlations(
            proxy_stream, private_pattern_12
        )
        assert correlations["e1"] > 0.3
        assert correlations["e2"] > 0.3

    def test_requires_element_list(self, proxy_stream):
        from repro.cep.patterns import OR

        with pytest.raises(ValueError):
            event_pattern_correlations(
                proxy_stream, Pattern("p", OR("e1", "e2"))
            )


class TestDiscovery:
    def test_discovers_only_the_proxy(self, proxy_stream, private_pattern_12):
        report = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.3
        )
        assert [proxy.event_type for proxy in report.proxies] == ["e4"]
        assert report.proxies[0].correlation > 0.8

    def test_threshold_filters(self, proxy_stream, private_pattern_12):
        strict = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.99
        )
        assert [proxy.event_type for proxy in strict.proxies] == []

    def test_max_proxies_caps(self, proxy_stream, private_pattern_12):
        report = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.0, max_proxies=1
        )
        assert len(report.proxies) == 1
        assert report.proxies[0].event_type == "e4"  # strongest first

    def test_declared_elements_never_reported(
        self, proxy_stream, private_pattern_12
    ):
        report = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.0
        )
        assert "e1" not in [proxy.event_type for proxy in report.proxies]
        assert "e2" not in [proxy.event_type for proxy in report.proxies]

    def test_invalid_threshold(self, proxy_stream, private_pattern_12):
        with pytest.raises(Exception):
            discover_relevant_events(
                proxy_stream, private_pattern_12, threshold=1.5
            )


class TestAugmentation:
    def test_augmented_pattern_includes_proxies(
        self, proxy_stream, private_pattern_12
    ):
        report = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.3
        )
        augmented = augment_private_pattern(private_pattern_12, report)
        assert augmented.elements == ("e1", "e2", "e4")
        assert augmented.name == "p+proxies"

    def test_no_proxies_returns_same_pattern(
        self, proxy_stream, private_pattern_12
    ):
        report = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.99
        )
        assert augment_private_pattern(private_pattern_12, report) is (
            private_pattern_12
        )

    def test_report_pattern_mismatch_rejected(
        self, proxy_stream, private_pattern_12
    ):
        report = discover_relevant_events(
            proxy_stream, Pattern.of_types("other", "e3"), threshold=0.0
        )
        with pytest.raises(ValueError):
            augment_private_pattern(private_pattern_12, report)

    def test_augmentation_dilutes_budget(self, proxy_stream, private_pattern_12):
        # Protecting the proxy grows m, so the same ε spreads thinner —
        # the trade-off Section V-C implies.
        from repro.core.uniform import UniformPatternPPM

        report = discover_relevant_events(
            proxy_stream, private_pattern_12, threshold=0.3
        )
        augmented = augment_private_pattern(private_pattern_12, report)
        original_ppm = UniformPatternPPM(private_pattern_12, 3.0)
        augmented_ppm = UniformPatternPPM(augmented, 3.0)
        assert max(
            augmented_ppm.flip_probability_by_type().values()
        ) > max(original_ppm.flip_probability_by_type().values())


class TestLeakageDiagnostic:
    def test_unprotected_proxy_flagged(self, proxy_stream, private_pattern_12):
        residual = leakage_after_protection(
            proxy_stream, private_pattern_12, ["e1", "e2"]
        )
        assert list(residual)[0] == "e4"
        assert residual["e4"] > 0.8

    def test_protecting_proxy_removes_flag(
        self, proxy_stream, private_pattern_12
    ):
        residual = leakage_after_protection(
            proxy_stream, private_pattern_12, ["e1", "e2", "e4"]
        )
        assert "e4" not in residual
        assert all(value < 0.1 for value in residual.values())
