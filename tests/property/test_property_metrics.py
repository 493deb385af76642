"""Property-based tests on the quality metrics (Eq. (1)-(4))."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics.aggregate import summarize
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.mre import mean_relative_error
from repro.metrics.quality import quality_score

unit = st.floats(min_value=0.0, max_value=1.0)
counts = st.floats(min_value=0.0, max_value=1000.0)
bool_vectors = arrays(dtype=bool, shape=st.integers(0, 50))


class TestQualityScoreLaws:
    @given(precision=unit, recall=unit, alpha=unit)
    def test_bounded_by_components(self, precision, recall, alpha):
        q = quality_score(precision, recall, alpha)
        assert min(precision, recall) - 1e-12 <= q <= max(precision, recall) + 1e-12

    @given(precision=unit, recall=unit)
    def test_alpha_interpolates_linearly(self, precision, recall):
        assert quality_score(precision, recall, 1.0) == precision
        assert quality_score(precision, recall, 0.0) == recall
        midpoint = quality_score(precision, recall, 0.5)
        assert math.isclose(
            midpoint, (precision + recall) / 2, rel_tol=1e-12, abs_tol=1e-300
        )

    @given(p1=unit, p2=unit, recall=unit, alpha=unit)
    def test_monotone_in_precision(self, p1, p2, recall, alpha):
        low, high = sorted([p1, p2])
        assert quality_score(low, recall, alpha) <= quality_score(
            high, recall, alpha
        ) + 1e-12


class TestConfusionLaws:
    @given(tp=counts, fp=counts, fn=counts, tn=counts)
    def test_rates_in_unit_interval(self, tp, fp, fn, tn):
        c = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
        assert 0.0 <= c.precision <= 1.0
        assert 0.0 <= c.recall <= 1.0

    @given(
        a=st.tuples(counts, counts, counts, counts),
        b=st.tuples(counts, counts, counts, counts),
    )
    def test_addition_commutative(self, a, b):
        first = ConfusionCounts(*a) + ConfusionCounts(*b)
        second = ConfusionCounts(*b) + ConfusionCounts(*a)
        assert first == second

    @given(truth=bool_vectors, seed=st.integers(0, 2**16))
    @settings(max_examples=80)
    def test_from_vectors_counts_partition_total(self, truth, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.random(truth.shape) < 0.5
        c = ConfusionCounts.from_vectors(truth, predicted)
        assert c.total == truth.size

    @given(truth=bool_vectors)
    def test_perfect_detector(self, truth):
        c = ConfusionCounts.from_vectors(truth, truth)
        assert c.fp == 0 and c.fn == 0
        assert c.precision == 1.0 and c.recall == 1.0


class TestMreLaws:
    @given(
        q_ord=st.floats(min_value=0.01, max_value=1.0),
        q_ppm=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounded_above_by_one(self, q_ord, q_ppm):
        assert mean_relative_error(q_ord, q_ppm) <= 1.0

    @given(q_ord=st.floats(min_value=0.01, max_value=1.0))
    def test_zero_iff_no_loss(self, q_ord):
        assert mean_relative_error(q_ord, q_ord) == 0.0

    @given(
        q_ord=st.floats(min_value=0.01, max_value=1.0),
        loss1=unit,
        loss2=unit,
    )
    def test_monotone_in_quality_loss(self, q_ord, loss1, loss2):
        small_loss, big_loss = sorted([loss1, loss2])
        q_good = q_ord * (1 - small_loss)
        q_bad = q_ord * (1 - big_loss)
        assert mean_relative_error(q_ord, q_bad) >= mean_relative_error(
            q_ord, q_good
        ) - 1e-12


class TestSummarizeLaws:
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=1, max_size=40
        )
    )
    def test_mean_within_range(self, values):
        summary = summarize(values)
        assert min(values) - 1e-9 <= summary.mean <= max(values) + 1e-9

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=2, max_size=40
        )
    )
    def test_ci_is_symmetric_around_mean(self, values):
        summary = summarize(values)
        low, high = summary.ci95
        assert math.isclose(
            summary.mean - low, high - summary.mean, rel_tol=1e-9, abs_tol=1e-9
        )

    @given(value=st.floats(min_value=-100, max_value=100), n=st.integers(1, 30))
    def test_constant_values_zero_std(self, value, n):
        summary = summarize([value] * n)
        # Mean computation can leave ~1 ulp of residue per element.
        assert summary.std <= 1e-12 * max(1.0, abs(value))
        assert math.isclose(summary.mean, value, rel_tol=1e-12, abs_tol=1e-300)
