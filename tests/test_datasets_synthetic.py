"""Tests for repro.datasets.synthetic — Algorithm 2."""

import numpy as np
import pytest

from repro.datasets.synthetic import (
    SyntheticConfig,
    synthesize_dataset,
    synthesize_many,
)


class TestSyntheticConfig:
    def test_paper_defaults(self):
        config = SyntheticConfig()
        assert config.n_event_types == 20
        assert config.n_windows == 1000
        assert config.n_patterns == 20
        assert config.pattern_length == 3
        assert config.n_private == 3
        assert config.n_target == 5

    def test_pattern_length_bounded_by_alphabet(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_event_types=2, pattern_length=3)

    def test_role_counts_bounded_by_pool(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_patterns=5, n_private=3, n_target=5)

    def test_non_disjoint_roles_relax_bound(self):
        SyntheticConfig(
            n_patterns=5, n_private=3, n_target=5, disjoint_roles=False
        )


class TestSynthesizeDataset:
    @pytest.fixture
    def workload(self):
        return synthesize_dataset(
            SyntheticConfig(n_windows=200, n_history_windows=100), rng=3
        )

    def test_shapes(self, workload):
        assert workload.stream.n_windows == 200
        assert workload.history.n_windows == 100
        assert len(workload.stream.alphabet) == 20

    def test_role_counts(self, workload):
        assert len(workload.private_patterns) == 3
        assert len(workload.target_patterns) == 5

    def test_patterns_have_three_distinct_elements(self, workload):
        for pattern in workload.private_patterns + workload.target_patterns:
            assert len(pattern.elements) == 3
            assert len(set(pattern.elements)) == 3

    def test_roles_disjoint_by_default(self, workload):
        private_names = {p.name for p in workload.private_patterns}
        target_names = {p.name for p in workload.target_patterns}
        assert not private_names & target_names

    def test_deterministic_under_seed(self):
        config = SyntheticConfig(n_windows=50, n_history_windows=20)
        a = synthesize_dataset(config, rng=9)
        b = synthesize_dataset(config, rng=9)
        assert a.stream == b.stream
        assert [p.elements for p in a.private_patterns] == [
            p.elements for p in b.private_patterns
        ]

    def test_occurrence_rates_match_probabilities_statistically(self):
        # Windows are iid Bernoulli per event type; evaluation and
        # history rates should agree within sampling noise.
        workload = synthesize_dataset(
            SyntheticConfig(n_windows=4000, n_history_windows=4000), rng=13
        )
        eval_rates = workload.stream.matrix_view().mean(axis=0)
        hist_rates = workload.history.matrix_view().mean(axis=0)
        assert eval_rates == pytest.approx(hist_rates, abs=0.05)

    def test_detection_rule_is_containment(self, workload):
        # Algorithm 2 line 14: detected iff all three events in window.
        pattern = workload.target_patterns[0]
        detections = workload.stream.detect_all(list(pattern.elements))
        matrix = workload.stream.matrix_view()
        columns = workload.stream.alphabet.indices(list(pattern.elements))
        assert np.array_equal(detections, matrix[:, columns].all(axis=1))


class TestSynthesizeMany:
    def test_count(self):
        config = SyntheticConfig(n_windows=30, n_history_windows=10)
        datasets = list(synthesize_many(4, config, rng=1))
        assert len(datasets) == 4

    def test_datasets_are_independent(self):
        config = SyntheticConfig(n_windows=30, n_history_windows=10)
        first, second = list(synthesize_many(2, config, rng=1))
        assert first.stream != second.stream

    def test_reproducible_collection(self):
        config = SyntheticConfig(n_windows=30, n_history_windows=10)
        a = [w.stream for w in synthesize_many(3, config, rng=5)]
        b = [w.stream for w in synthesize_many(3, config, rng=5)]
        assert a == b

    def test_names_enumerated(self):
        config = SyntheticConfig(n_windows=30, n_history_windows=10)
        names = [w.name for w in synthesize_many(2, config, rng=0)]
        assert names == ["synthetic-0", "synthetic-1"]

    def test_invalid_count(self):
        with pytest.raises(Exception):
            list(synthesize_many(0))
