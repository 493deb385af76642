"""Unit tests for the decision kernel (repro.runtime.decisions).

Covers the scan-mode check, the generator-word elision guarantee
for certified skip runs (and landmark's prepass hop), the U==0
exact-fallback path, audit mode's disagreement detection, the
releasers' block-shape check, the scan-mode check at spec construction,
and the columns ReleaseTrace derives from its publication log.
"""

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.baselines.w_event import ReleaseTrace
from repro.runtime import decisions as decisions_module
from repro.runtime.decisions import ScanMarginError, check_scan
from repro.runtime.rng_pool import IndexedRngPool
from repro.service import (
    MechanismContext,
    ServiceSpec,
    build_mechanism_from_spec,
)
from repro.streams.indicator import EventAlphabet

N_TYPES = 4


def constant_matrix(n, value=0.0):
    return np.full((n, N_TYPES), value, dtype=float)


# ---------------------------------------------------------------------------
# Scan mode
# ---------------------------------------------------------------------------


class TestScanConfig:
    """The scan mode is a plain string, checked by ``check_scan``."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda **kw: BudgetDistribution(1.0, w=4, **kw),
            lambda **kw: BudgetAbsorption(1.0, w=4, **kw),
            lambda **kw: LandmarkPrivacy(1.0, **kw),
        ],
    )
    def test_default_is_margin(self, make):
        assert make().scan == "margin"
        assert make(scan="exact").scan == "exact"

    def test_unknown_mode_lists_valid_modes(self):
        with pytest.raises(ValueError, match="margin, exact, off"):
            check_scan("speedy")
        with pytest.raises(ValueError, match="margin, exact, off"):
            BudgetDistribution(1.0, w=4, scan="speedy")

    @pytest.mark.parametrize("scan", [None, 1.5, ("off",)])
    def test_non_string_scan_is_rejected(self, scan):
        with pytest.raises(TypeError, match="mode string"):
            check_scan(scan)
        with pytest.raises(TypeError, match="mode string"):
            LandmarkPrivacy(1.0, scan=scan)


# ---------------------------------------------------------------------------
# Generator-word elision
# ---------------------------------------------------------------------------


def install_generator_counter(releaser):
    """Record every child-generator index the releaser installs."""
    requested = []
    pool = releaser._children
    original = pool.generator

    def counting(index):
        requested.append(index)
        return original(index)

    pool.generator = counting
    return requested


class TestGeneratorElision:
    @pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
    def test_certified_skip_runs_touch_no_generator(self, cls):
        n = 300
        matrix = constant_matrix(n)
        mechanism = cls(1.0, w=20, scan="margin")
        releaser = mechanism.online_releaser(N_TYPES, rng=11, horizon=n)
        requested = install_generator_counter(releaser)
        releaser.step_block(matrix)
        published_rows = [t for t in range(n) if releaser.trace.published[t]]
        # Only publishing timestamps install a child generator; every
        # certified-skip timestamp is resolved from the prefetched
        # uniforms alone.
        assert requested == published_rows
        assert len(requested) <= n // 2  # plenty of certified skips

    def test_below_prefetch_blocks_install_generator_per_drawing_row(self):
        # Blocks under prefetch_min get no uniform prefetch: every
        # budget-positive row must install its child generator, so
        # installs strictly exceed the scan path's publication-only set.
        n = 304
        matrix = constant_matrix(n)
        mechanism = BudgetDistribution(1.0, w=20, scan="margin")
        releaser = mechanism.online_releaser(N_TYPES, rng=11, horizon=n)
        requested = install_generator_counter(releaser)
        small = [
            releaser.step_block(matrix[row : row + 8])
            for row in range(0, n, 8)
        ]
        scanned = BudgetDistribution(
            1.0, w=20, scan="margin"
        ).online_releaser(N_TYPES, rng=11, horizon=n)
        assert np.array_equal(np.vstack(small), scanned.step_block(matrix))
        assert len(requested) > len(
            [t for t in range(n) if releaser.trace.published[t]]
        )

    def test_landmark_prepass_hops_regular_rows(self):
        n = 128
        mask = np.zeros(n, dtype=bool)
        mask[[5, 40, 90]] = True
        matrix = constant_matrix(n)
        mechanism = LandmarkPrivacy(
            2.0, landmarks=mask, rho=0.5, scan="margin"
        )
        releaser = mechanism.online_releaser(N_TYPES, rng=3, horizon=n)
        requested = install_generator_counter(releaser)
        releaser.advance_block(matrix)
        # The prepass needs randomness only for landmark timestamps
        # that actually publish; regular rows are hopped entirely.
        assert set(requested) <= {5, 40, 90}
        assert releaser.t == n


# ---------------------------------------------------------------------------
# The U == 0 retry path
# ---------------------------------------------------------------------------


class TestUniformZeroFallback:
    @pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
    def test_zero_uniforms_fall_back_to_generator(self, cls, monkeypatch):
        """u <= 0 rows are BOUNDARY: numpy's laplace retries internally,
        so only the real generator path reproduces the draw — all scan
        modes must agree while consuming the same patched uniforms."""
        monkeypatch.setattr(
            IndexedRngPool,
            "first_uniforms",
            lambda self, start, stop: np.zeros(stop - start),
        )
        n = 64
        rng = np.random.default_rng(5)
        matrix = (rng.random((n, N_TYPES)) < 0.5).astype(float)
        outputs = {}
        for scan in ("off", "margin", "exact"):
            mechanism = cls(2.0, w=8, scan=scan)
            releaser = mechanism.online_releaser(
                N_TYPES, rng=17, horizon=n
            )
            outputs[scan] = releaser.step_block(matrix)
        np.testing.assert_array_equal(outputs["margin"], outputs["off"])
        np.testing.assert_array_equal(outputs["exact"], outputs["off"])


# ---------------------------------------------------------------------------
# Audit mode
# ---------------------------------------------------------------------------


class TestAuditMode:
    def test_bogus_certification_raises_scan_margin_error(self, monkeypatch):
        """scan=exact re-verifies every margin-decided row with the
        scalar arithmetic; a distance pass that certifies publishing
        rows as skips must be caught, not silently applied."""

        def certify_everything(rows, release):
            # Every score falls below every threshold by more than any
            # band: the margin decides each row as a certain skip.
            return np.full(rows.shape[0], -np.inf)

        monkeypatch.setattr(
            decisions_module, "release_distances", certify_everything
        )
        n = 64
        matrix = constant_matrix(n)
        matrix[40:] = 1.0  # a drift the schedule must publish
        mechanism = BudgetDistribution(8.0, w=4, scan="exact")
        releaser = mechanism.online_releaser(N_TYPES, rng=0, horizon=n)
        with pytest.raises(ScanMarginError, match="certified as a skip"):
            releaser.step_block(matrix)

    def test_bogus_certification_is_applied_without_audit(self, monkeypatch):
        """The planted verdict really is the decision point: under
        scan=margin the same bogus pass silently skips publications."""
        monkeypatch.setattr(
            decisions_module,
            "release_distances",
            lambda rows, release: np.full(rows.shape[0], -np.inf),
        )
        n = 64
        matrix = constant_matrix(n)
        matrix[40:] = 1.0
        mechanism = BudgetDistribution(8.0, w=4, scan="margin")
        releaser = mechanism.online_releaser(N_TYPES, rng=0, horizon=n)
        releaser.step_block(matrix)
        honest = BudgetDistribution(8.0, w=4, scan="off").online_releaser(
            N_TYPES, rng=0, horizon=n
        )
        honest.step_block(matrix)
        assert sum(releaser.trace.published) < sum(honest.trace.published)

    def test_bogus_bound_raises_scan_margin_error(self, monkeypatch):
        """scan=exact re-verifies every bound-certified row as well:
        row norms that certify publishing rows as skips must be caught."""
        monkeypatch.setattr(
            decisions_module,
            "row_norms",
            lambda rows: np.full(rows.shape[0], -np.inf),
        )
        n = 64
        matrix = constant_matrix(n)
        matrix[40:] = 1.0
        mechanism = BudgetDistribution(8.0, w=4, scan="exact")
        releaser = mechanism.online_releaser(N_TYPES, rng=0, horizon=n)
        with pytest.raises(ScanMarginError, match="certified as a skip"):
            releaser.step_block(matrix)

    def test_bogus_bound_is_applied_without_audit(self, monkeypatch):
        """The bound is the decision point: under scan=margin the same
        planted norms silently skip publications."""
        monkeypatch.setattr(
            decisions_module,
            "row_norms",
            lambda rows: np.full(rows.shape[0], -np.inf),
        )
        n = 64
        matrix = constant_matrix(n)
        matrix[40:] = 1.0
        mechanism = BudgetDistribution(8.0, w=4, scan="margin")
        releaser = mechanism.online_releaser(N_TYPES, rng=0, horizon=n)
        releaser.step_block(matrix)
        honest = BudgetDistribution(8.0, w=4, scan="off").online_releaser(
            N_TYPES, rng=0, horizon=n
        )
        honest.step_block(matrix)
        assert sum(releaser.trace.published) < sum(honest.trace.published)

    def test_honest_scan_passes_audit(self):
        n = 96
        rng = np.random.default_rng(8)
        matrix = (rng.random((n, N_TYPES)) < 0.4).astype(float)
        mechanism = BudgetDistribution(4.0, w=6, scan="exact")
        releaser = mechanism.online_releaser(N_TYPES, rng=2, horizon=n)
        baseline = BudgetDistribution(4.0, w=6, scan="off")
        expected = baseline.online_releaser(
            N_TYPES, rng=2, horizon=n
        ).step_block(matrix)
        np.testing.assert_array_equal(releaser.step_block(matrix), expected)


# ---------------------------------------------------------------------------
# The bound certificate and constant-budget stretches
# ---------------------------------------------------------------------------


def dense_matrix(n, n_types=8, seed=11):
    """A publish-dense 0/1 stream (BD/BA publish on ~15-25% of rows)."""
    rng = np.random.default_rng(seed)
    return (rng.random((n, n_types)) < 0.3).astype(float)


class TestBoundCertificate:
    @pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
    def test_bounds_leave_few_rows_to_the_distance_pass(
        self, cls, monkeypatch
    ):
        """Most rows are decided from the triangle-inequality bounds:
        far fewer distance passes run than there are publications."""
        passes = []
        release_distances = decisions_module.release_distances

        def counting(rows, release):
            passes.append(rows.shape[0])
            return release_distances(rows, release)

        monkeypatch.setattr(decisions_module, "release_distances", counting)
        n = 4000
        matrix = dense_matrix(n)
        releaser = cls(1.0, w=40).online_releaser(8, rng=1, horizon=n)
        released = releaser.step_block(matrix)
        publications = sum(releaser.trace.published)
        assert publications > n // 10
        assert len(passes) * 4 < publications
        expected = cls(1.0, w=40, scan="off").online_releaser(
            8, rng=1, horizon=n
        )
        np.testing.assert_array_equal(released, expected.step_block(matrix))

    @pytest.mark.parametrize(
        "cls, share",
        [(BudgetDistribution, 0.6), (BudgetAbsorption, 0.8)],
    )
    def test_budget_hook_runs_once_per_stretch(self, cls, share, monkeypatch):
        """BD's budget only changes when a spend enters or leaves the
        window, BA's within a nullified stretch or once absorption is
        capped, so the release loop asks for it on far fewer rows than
        the scalar loop, which asks on every row."""
        calls = {"margin": 0, "off": 0}
        n = 4000
        matrix = dense_matrix(n)
        for scan in calls:
            mechanism = cls(1.0, w=40, scan=scan)
            budget = mechanism._publication_budget

            def counting(t, state, scan=scan, budget=budget):
                calls[scan] += 1
                return budget(t, state)

            monkeypatch.setattr(mechanism, "_publication_budget", counting)
            mechanism.online_releaser(8, rng=1, horizon=n).step_block(matrix)
        assert calls["off"] == n
        assert calls["margin"] < share * n


# ---------------------------------------------------------------------------
# Block shape
# ---------------------------------------------------------------------------


def landmark_releaser(n, scan="margin"):
    mask = np.zeros(n, dtype=bool)
    mask[::3] = True
    mechanism = LandmarkPrivacy(1.0, landmarks=mask, rho=0.5, scan=scan)
    return mechanism.online_releaser(N_TYPES, rng=4, horizon=n)


def w_event_releaser(n, scan="margin"):
    mechanism = BudgetDistribution(1.0, w=8, scan=scan)
    return mechanism.online_releaser(N_TYPES, rng=4, horizon=n)


class TestBlockShape:
    """A block that is not ``(n, n_types)`` is rejected before any row
    steps — a wrong width would otherwise broadcast against the last
    release and advance ``t`` silently."""

    @pytest.mark.parametrize(
        "shape", [(64, 1), (64, N_TYPES + 1), (64,), (2, 32, N_TYPES)]
    )
    @pytest.mark.parametrize("scan", ["margin", "off"])
    @pytest.mark.parametrize(
        "make, method",
        [
            (landmark_releaser, "step_block"),
            (landmark_releaser, "advance_block"),
            (w_event_releaser, "step_block"),
        ],
    )
    def test_wrong_shape_raises_and_leaves_state(
        self, make, method, scan, shape
    ):
        releaser = make(64, scan)
        with pytest.raises(
            ValueError, match=f"expected a vector of {N_TYPES} statistics"
        ):
            getattr(releaser, method)(np.ones(shape))
        assert releaser.t == 0
        assert releaser.last_release is None


# ---------------------------------------------------------------------------
# Spec grammar integration
# ---------------------------------------------------------------------------


ALPHABET = ("e1", "e2", "e3", "e4")


def build_context():
    spec = ServiceSpec(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="bd",
        seed=7,
    )
    return MechanismContext(
        alphabet=EventAlphabet(ALPHABET),
        private_patterns=spec.pattern_objects(),
    )


class TestSpecGrammar:
    def test_scan_keys_reach_the_mechanism(self):
        context = build_context()
        mechanism = build_mechanism_from_spec(
            "bd:epsilon=1.0,w=10,scan=off", context
        )
        assert mechanism.scan == "off"
        mechanism = build_mechanism_from_spec(
            "ba:epsilon=0.5,w=8,scan=exact", context
        )
        assert mechanism.scan == "exact"

    def test_default_scan_config(self):
        mechanism = build_mechanism_from_spec(
            "bd:epsilon=1.0,w=10", build_context()
        )
        assert mechanism.scan == "margin"

    def test_unknown_key_fails_at_parse_time_listing_keys(self):
        with pytest.raises(ValueError, match="valid keys.*scan"):
            build_mechanism_from_spec(
                "bd:epsilon=1.0,w=10,scam=off", build_context()
            )

    @pytest.mark.parametrize(
        "head",
        ["bd:epsilon=1.0,w=10", "ba:epsilon=1.0,w=10", "landmark:epsilon=1.0"],
    )
    def test_landmark_keeps_only_the_scan_key(self, head):
        context = build_context()
        mechanism = build_mechanism_from_spec(f"{head},scan=off", context)
        assert mechanism.scan == "off"
        for key in ("margin=1e-9", "prefetch=16"):
            with pytest.raises(ValueError, match="valid keys.*scan"):
                build_mechanism_from_spec(f"{head},{key}", context)
            with pytest.raises(ValueError, match="valid keys.*scan"):
                ServiceSpec(
                    alphabet=ALPHABET,
                    patterns=[("private", ("e1", "e2"))],
                    queries=[("q", ("e2", "e3"))],
                    mechanism=f"{head},{key}",
                )

    def test_unknown_scan_mode_lists_valid_modes(self):
        with pytest.raises(ValueError, match="margin, exact, off"):
            build_mechanism_from_spec(
                "bd:epsilon=1.0,w=10,scan=speedy", build_context()
            )

    @pytest.mark.parametrize(
        "head",
        ["bd:epsilon=1.0,w=10", "ba:epsilon=1.0,w=10", "landmark:epsilon=1.0"],
    )
    def test_unknown_scan_mode_fails_at_spec_construction(self, head):
        with pytest.raises(ValueError, match="margin, exact, off"):
            ServiceSpec(
                alphabet=ALPHABET,
                patterns=[("private", ("e1", "e2"))],
                queries=[("q", ("e2", "e3"))],
                mechanism=f"{head},scan=speedy",
            )


# ---------------------------------------------------------------------------
# The trace's publication log and its derived columns
# ---------------------------------------------------------------------------


def logged_trace(budgets, charge=0.1):
    """A trace stepped over ``budgets`` (0 = the timestamp skipped)."""
    trace = ReleaseTrace(charge)
    for t, budget in enumerate(budgets):
        if budget > 0:
            trace.times.append(t)
            trace.budgets.append(budget)
    trace.steps = len(budgets)
    return trace


class TestDerivedColumns:
    def test_columns_derive_from_the_log(self):
        trace = logged_trace([0.5, 0.0, 0.25, 0.0])
        assert trace.published.tolist() == [True, False, True, False]
        assert trace.publication_budgets.tolist() == [0.5, 0.0, 0.25, 0.0]
        assert trace.dissimilarity_budgets.tolist() == [0.1] * 4

    def test_columns_are_read_only(self):
        trace = logged_trace([0.5, 0.0])
        for column in (
            trace.published,
            trace.publication_budgets,
            trace.dissimilarity_budgets,
        ):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_empty_trace_has_empty_columns(self):
        trace = ReleaseTrace(0.1)
        assert trace.published.shape == (0,)
        assert trace.publication_budgets.shape == (0,)
        assert trace.dissimilarity_budgets.shape == (0,)

    def test_spend_follows_the_log(self):
        trace = logged_trace([0.5, 0.0, 0.25])
        assert trace.spent_in_window(0, 3) == pytest.approx(
            0.5 + 0.25 + 3 * 0.1
        )
        trace.times.append(3)
        trace.budgets.append(1.0)
        trace.steps = 4
        assert trace.spent_in_window(2, 2) == pytest.approx(
            0.25 + 1.0 + 2 * 0.1
        )
        assert trace.max_window_spend(2) == pytest.approx(1.25 + 2 * 0.1)

    @pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
    @pytest.mark.parametrize("scan", ["margin", "off"])
    def test_released_runs_log_only_publications(self, cls, scan):
        rng = np.random.default_rng(2)
        matrix = (rng.random((300, N_TYPES)) < 0.3).astype(float)
        mechanism = cls(1.0, w=8, scan=scan)
        releaser = mechanism.online_releaser(N_TYPES, rng=5, horizon=300)
        for start in range(0, 300, 70):
            releaser.step_block(matrix[start : start + 70])
        trace = releaser.trace
        assert trace.steps == releaser.t == 300
        assert list(trace.times) == np.flatnonzero(trace.published).tolist()
        assert np.array_equal(trace.published, trace.publication_budgets > 0)
        assert np.all(trace.dissimilarity_budgets == 1.0 / 2.0 / 8)
