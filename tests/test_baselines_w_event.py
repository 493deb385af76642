"""Tests for the w-event DP baselines (BD and BA)."""

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.w_event import WEventMechanism
from repro.streams.indicator import EventAlphabet, IndicatorStream


class _ZeroBudget(WEventMechanism):
    """A scheduler that never grants publication budget (edge cases)."""

    mechanism_name = "zero"

    def _publication_budget(self, t, state):
        return 0.0


@pytest.fixture
def indicator_stream():
    rng = np.random.default_rng(11)
    alphabet = EventAlphabet.numbered(5)
    return IndicatorStream(alphabet, rng.random((80, 5)) < 0.3)


@pytest.mark.parametrize("mechanism_cls", [BudgetDistribution, BudgetAbsorption])
class TestCommonBehaviour:
    def test_output_same_shape(self, mechanism_cls, indicator_stream):
        mechanism = mechanism_cls(1.0, w=10)
        released = mechanism.perturb(indicator_stream, rng=0)
        assert released.n_windows == indicator_stream.n_windows
        assert released.alphabet == indicator_stream.alphabet

    def test_deterministic_under_seed(self, mechanism_cls, indicator_stream):
        mechanism = mechanism_cls(1.0, w=10)
        a = mechanism.perturb(indicator_stream, rng=5)
        b = mechanism.perturb(indicator_stream, rng=5)
        assert a == b

    def test_perturbs_every_column(self, mechanism_cls, indicator_stream):
        # Unlike the pattern-level PPMs, the stream baselines damage the
        # whole alphabet at tight budgets.
        mechanism = mechanism_cls(0.5, w=10)
        released = mechanism.perturb(indicator_stream, rng=1)
        changed = sum(
            not np.array_equal(
                released.column(name), indicator_stream.column(name)
            )
            for name in indicator_stream.alphabet
        )
        assert changed == len(indicator_stream.alphabet)

    def test_high_budget_tracks_data(self, mechanism_cls, indicator_stream):
        mechanism = mechanism_cls(500.0, w=4)
        released = mechanism.perturb(indicator_stream, rng=2)
        agreement = (
            released.matrix_view() == indicator_stream.matrix_view()
        ).mean()
        assert agreement > 0.8

    def test_trace_recorded(self, mechanism_cls, indicator_stream):
        mechanism = mechanism_cls(1.0, w=10)
        mechanism.perturb(indicator_stream, rng=0)
        trace = mechanism.last_trace
        assert trace is not None
        assert len(trace.published) == indicator_stream.n_windows

    def test_w_event_budget_invariant(self, mechanism_cls, indicator_stream):
        # In any sliding window of w timestamps, the total spend
        # (publications + dissimilarity shares) must not exceed ε.
        epsilon, w = 1.0, 10
        mechanism = mechanism_cls(epsilon, w=w)
        mechanism.perturb(indicator_stream, rng=3)
        assert mechanism.last_trace.max_window_spend(w) <= epsilon + 1e-9

    def test_budget_invariant_across_seeds(self, mechanism_cls, indicator_stream):
        epsilon, w = 2.0, 5
        mechanism = mechanism_cls(epsilon, w=w)
        for seed in range(5):
            mechanism.perturb(indicator_stream, rng=seed)
            assert mechanism.last_trace.max_window_spend(w) <= epsilon + 1e-9

    def test_reusable_across_streams(self, mechanism_cls, indicator_stream):
        mechanism = mechanism_cls(1.0, w=10)
        first = mechanism.perturb(indicator_stream, rng=0)
        second = mechanism.perturb(indicator_stream, rng=0)
        assert first == second  # internal state fully reset

    def test_invalid_parameters(self, mechanism_cls, indicator_stream):
        with pytest.raises(Exception):
            mechanism_cls(0.0, w=10)
        with pytest.raises(Exception):
            mechanism_cls(1.0, w=0)


class TestAccountingEdgeCases:
    """w-event accounting at its boundaries (skips, no-release, windows)."""

    def test_skipped_timestamps_still_charge_dissimilarity(self):
        # A timestamp with zero publication budget never publishes, but
        # the private dissimilarity estimate is still bought: every
        # timestamp owes ε₁/w, publications or not.
        epsilon, w, n = 2.0, 5, 12
        mechanism = _ZeroBudget(epsilon, w=w)
        releaser = mechanism.online_releaser(3, rng=0, horizon=n)
        releaser.step_block(np.ones((n, 3)))
        assert releaser.trace.published.tolist() == [False] * n
        assert releaser.trace.publication_budgets.tolist() == [0.0] * n
        assert releaser.trace.dissimilarity_budgets.tolist() == [
            epsilon / 2.0 / w
        ] * n
        assert releaser.trace.max_window_spend(w) == pytest.approx(
            epsilon / 2.0 / w * w
        )

    def test_no_budget_first_release_is_data_independent(self):
        # With nothing released yet and no budget, the output must be
        # the 0.5 vector whatever the data — releasing anything else
        # would leak without spending budget.
        mechanism = _ZeroBudget(1.0, w=4)
        for row in (np.zeros((1, 3)), np.ones((1, 3))):
            releaser = mechanism.online_releaser(3, rng=0, horizon=4)
            released = releaser.step_block(row)
            assert np.array_equal(released, np.full((1, 3), 0.5))

    @pytest.mark.parametrize(
        "mechanism_cls", [BudgetDistribution, BudgetAbsorption]
    )
    def test_window_spend_accessors_agree(
        self, mechanism_cls, indicator_stream
    ):
        # The O(n) prefix-sum accessors must agree with naive slicing.
        epsilon, w = 1.5, 7
        mechanism = mechanism_cls(epsilon, w=w)
        mechanism.perturb(indicator_stream, rng=6)
        trace = mechanism.last_trace
        n = len(trace.published)
        naive = [
            sum(trace.publication_budgets[start : min(start + w, n)])
            + sum(trace.dissimilarity_budgets[start : min(start + w, n)])
            for start in range(n)
        ]
        for start in (0, 1, n // 2, n - 1):
            assert trace.spent_in_window(start, w) == pytest.approx(
                naive[start], abs=1e-12
            )
        assert trace.max_window_spend(w) == pytest.approx(
            max(naive), abs=1e-12
        )
        # Out-of-range starts spend nothing.
        assert trace.spent_in_window(n + 3, w) == 0.0

    def test_empty_trace_spends_nothing(self):
        from repro.baselines.w_event import ReleaseTrace

        trace = ReleaseTrace(0.1)
        assert trace.max_window_spend(5) == 0.0
        assert trace.spent_in_window(0, 5) == 0.0


class TestBudgetDistributionSpecifics:
    def test_publication_budget_halves_remaining(self, indicator_stream):
        mechanism = BudgetDistribution(2.0, w=10)
        mechanism.perturb(indicator_stream, rng=0)
        budgets = [
            b for b in mechanism.last_trace.publication_budgets if b > 0
        ]
        # First publication gets ε_2/2 = ε/4.
        assert budgets[0] == pytest.approx(0.5)

    def test_max_single_publication_budget(self):
        assert BudgetDistribution(4.0, w=10).max_single_publication_budget == 1.0


class TestBudgetAbsorptionSpecifics:
    def test_nominal_budget_is_eps2_over_w(self, indicator_stream):
        mechanism = BudgetAbsorption(2.0, w=10)
        mechanism.perturb(indicator_stream, rng=0)
        budgets = [
            b for b in mechanism.last_trace.publication_budgets if b > 0
        ]
        nominal = 1.0 / 10.0  # ε_2/w
        # Every publication budget is an integer multiple of the nominal.
        for budget in budgets:
            assert budget / nominal == pytest.approx(round(budget / nominal))

    def test_absorption_capped_at_eps2(self, indicator_stream):
        mechanism = BudgetAbsorption(2.0, w=10)
        mechanism.perturb(indicator_stream, rng=0)
        assert max(mechanism.last_trace.publication_budgets) <= 1.0 + 1e-9

    def test_max_single_publication_budget(self):
        assert BudgetAbsorption(4.0, w=10).max_single_publication_budget == 2.0

    def test_nullification_blocks_following_publications(self):
        # A constant-then-jump stream forces an absorbing publication;
        # the following nullified timestamps must not publish.
        alphabet = EventAlphabet(["a"])
        matrix = np.zeros((30, 1), dtype=bool)
        matrix[15:] = True
        stream = IndicatorStream(alphabet, matrix)
        mechanism = BudgetAbsorption(1.0, w=10)
        mechanism.perturb(stream, rng=4)
        trace = mechanism.last_trace
        nominal = 0.5 / 10.0
        for t, budget in enumerate(trace.publication_budgets):
            if budget > nominal:
                absorbed_units = int(round(budget / nominal))
                following = trace.publication_budgets[
                    t + 1 : t + absorbed_units
                ]
                assert all(b == 0.0 for b in following)
