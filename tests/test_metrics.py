"""Tests for repro.metrics — Eq. (1)-(4) and aggregation."""

import numpy as np
import pytest

from repro.metrics.aggregate import summarize
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.mre import mean_relative_error
from repro.metrics.quality import DataQuality, quality_score


class TestConfusionCounts:
    def test_from_vectors(self):
        truth = np.array([1, 1, 0, 0], dtype=bool)
        predicted = np.array([1, 0, 1, 0], dtype=bool)
        counts = ConfusionCounts.from_vectors(truth, predicted)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts.from_vectors([True], [True, False])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)

    def test_precision_recall_eq1_eq2(self):
        counts = ConfusionCounts(tp=6, fp=2, fn=4, tn=8)
        assert counts.precision == pytest.approx(6 / 8)
        assert counts.recall == pytest.approx(6 / 10)

    def test_empty_denominator_conventions(self):
        silent = ConfusionCounts(tp=0, fp=0, fn=3, tn=3)
        assert silent.precision == 1.0  # never fired: no false claims
        no_positives = ConfusionCounts(tp=0, fp=2, fn=0, tn=3)
        assert no_positives.recall == 1.0  # nothing to miss

    def test_addition(self):
        total = ConfusionCounts(tp=1, fp=2) + ConfusionCounts(tp=3, tn=4)
        assert total.tp == 4 and total.fp == 2 and total.tn == 4

    def test_fractional_counts_supported(self):
        # The analytic quality model uses expected (fractional) counts.
        counts = ConfusionCounts(tp=0.5, fp=0.5, fn=0.5, tn=0.5)
        assert counts.precision == pytest.approx(0.5)

    def test_derived_totals(self):
        counts = ConfusionCounts(tp=1, fp=2, fn=3, tn=4)
        assert counts.total == 10
        assert counts.positives == 4
        assert counts.detections == 3


class TestQuality:
    def test_eq3_formula(self):
        assert quality_score(0.8, 0.4, alpha=0.5) == pytest.approx(0.6)
        assert quality_score(0.8, 0.4, alpha=1.0) == pytest.approx(0.8)
        assert quality_score(0.8, 0.4, alpha=0.0) == pytest.approx(0.4)

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            quality_score(1.5, 0.5)
        with pytest.raises(Exception):
            quality_score(0.5, 0.5, alpha=-0.1)

    def test_from_confusion(self):
        counts = ConfusionCounts(tp=5, fp=5, fn=5, tn=5)
        quality = DataQuality.from_confusion(counts, alpha=0.5)
        assert quality.precision == pytest.approx(0.5)
        assert quality.q == pytest.approx(0.5)

    def test_invalid_fields_rejected(self):
        with pytest.raises(Exception):
            DataQuality(precision=2.0, recall=0.5)


class TestMre:
    def test_eq4_formula(self):
        assert mean_relative_error(0.8, 0.6) == pytest.approx(0.25)

    def test_no_loss_is_zero(self):
        assert mean_relative_error(0.7, 0.7) == 0.0

    def test_total_loss_is_one(self):
        assert mean_relative_error(0.5, 0.0) == 1.0

    def test_negative_when_ppm_improves(self):
        assert mean_relative_error(0.5, 0.6) < 0.0

    def test_clip_floors_at_zero(self):
        assert mean_relative_error(0.5, 0.6, clip=True) == 0.0

    def test_zero_ordinary_quality_rejected(self):
        with pytest.raises(ValueError):
            mean_relative_error(0.0, 0.5)


class TestSummarize:
    def test_mean_and_std(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.n == 3

    def test_single_value(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.ci95 == (5.0, 5.0)

    def test_ci_contains_mean(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        low, high = summary.ci95
        assert low < summary.mean < high

    def test_ci_width_shrinks_with_n(self):
        narrow = summarize([1.0, 2.0] * 50)
        wide = summarize([1.0, 2.0])
        assert (narrow.ci95[1] - narrow.ci95[0]) < (wide.ci95[1] - wide.ci95[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
