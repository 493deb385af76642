"""Tests for repro.experiments.runner — mechanism building and scoring."""

import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.conversion import BudgetConverter
from repro.baselines.event_level import EventLevelRR
from repro.baselines.landmark import LandmarkPrivacy
from repro.baselines.user_level import UserLevelRR
from repro.core.ppm import MultiPatternPPM
from repro.experiments.runner import (
    WorkloadEvaluation,
    evaluate_mechanism,
    measure_quality,
    sweep,
)


def build(workload, kind, pattern_epsilon):
    return WorkloadEvaluation(workload).build_mechanism(kind, pattern_epsilon)


class TestBuildMechanism:
    def test_uniform_builds_one_ppm_per_private_pattern(self, tiny_workload):
        mechanism = build(tiny_workload, "uniform", 2.0)
        assert isinstance(mechanism, MultiPatternPPM)
        assert len(mechanism.ppms) == len(tiny_workload.private_patterns)
        for ppm in mechanism.ppms:
            assert ppm.epsilon == pytest.approx(2.0)

    def test_adaptive_fits_on_history(self, tiny_workload):
        mechanism = build(tiny_workload, "adaptive", 2.0)
        assert isinstance(mechanism, MultiPatternPPM)
        for ppm in mechanism.ppms:
            assert ppm.fit_result is not None
            assert ppm.epsilon == pytest.approx(2.0)

    def test_bd_budget_converted(self, tiny_workload):
        mechanism = build(tiny_workload, "bd", 2.0)
        assert isinstance(mechanism, BudgetDistribution)
        converter = BudgetConverter(tiny_workload.max_private_length)
        assert mechanism.epsilon == pytest.approx(
            converter.bd_native(2.0, tiny_workload.w)
        )

    def test_ba_budget_converted(self, tiny_workload):
        mechanism = build(tiny_workload, "ba", 2.0)
        assert isinstance(mechanism, BudgetAbsorption)

    def test_landmark_gets_workload_mask(self, tiny_workload):
        mechanism = build(tiny_workload, "landmark", 2.0)
        assert isinstance(mechanism, LandmarkPrivacy)

    def test_event_and_user_level(self, tiny_workload):
        assert isinstance(
            build(tiny_workload, "event-level", 2.0), EventLevelRR
        )
        assert isinstance(
            build(tiny_workload, "user-level", 2.0), UserLevelRR
        )

    def test_unknown_kind_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="unknown mechanism"):
            build(tiny_workload, "magic", 2.0)

    def test_invalid_epsilon_rejected(self, tiny_workload):
        with pytest.raises(Exception):
            build(tiny_workload, "uniform", 0.0)


class TestMeasureQuality:
    def test_trial_count(self, tiny_workload):
        mechanism = build(tiny_workload, "uniform", 2.0)
        qualities = measure_quality(
            tiny_workload, mechanism, n_trials=4, rng=0
        )
        assert len(qualities) == 4

    def test_deterministic_under_seed(self, tiny_workload):
        mechanism = build(tiny_workload, "uniform", 2.0)
        a = measure_quality(tiny_workload, mechanism, n_trials=2, rng=5)
        b = measure_quality(tiny_workload, mechanism, n_trials=2, rng=5)
        assert [q.q for q in a] == [q.q for q in b]

    def test_huge_budget_perfect_quality(self, tiny_workload):
        mechanism = build(tiny_workload, "uniform", 1000.0)
        qualities = measure_quality(
            tiny_workload, mechanism, n_trials=2, rng=0
        )
        for quality in qualities:
            assert quality.q == pytest.approx(1.0, abs=1e-6)


class TestEvaluateMechanism:
    def test_result_fields(self, tiny_workload):
        result = evaluate_mechanism(
            tiny_workload, "uniform", 2.0, n_trials=2, rng=1
        )
        assert result.workload == tiny_workload.name
        assert result.mechanism == "uniform"
        assert result.pattern_epsilon == 2.0
        assert 0.0 <= result.mre <= 1.0
        assert result.n_trials == 2

    def test_pattern_level_beats_bd_here(self, tiny_workload):
        ours = evaluate_mechanism(
            tiny_workload, "uniform", 2.0, n_trials=2, rng=1
        )
        theirs = evaluate_mechanism(
            tiny_workload, "bd", 2.0, n_trials=2, rng=1
        )
        assert ours.mre < theirs.mre

    def test_mre_decreases_with_budget(self, tiny_workload):
        low = evaluate_mechanism(
            tiny_workload, "uniform", 0.5, n_trials=3, rng=1
        )
        high = evaluate_mechanism(
            tiny_workload, "uniform", 8.0, n_trials=3, rng=1
        )
        assert high.mre < low.mre


class TestSweep:
    def test_grid_coverage(self, tiny_workload):
        results = sweep(
            tiny_workload,
            epsilon_grid=(1.0, 2.0),
            mechanisms=("uniform", "bd"),
            n_trials=1,
            rng=0,
        )
        cells = {(r.mechanism, r.pattern_epsilon) for r in results}
        assert cells == {
            ("uniform", 1.0),
            ("uniform", 2.0),
            ("bd", 1.0),
            ("bd", 2.0),
        }
