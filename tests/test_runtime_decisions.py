"""Unit tests for the w-event decision loop (repro.baselines.w_event).

Covers the generator-word elision guarantee for certified skip runs
(and landmark's prepass hop), the U==0 exact-fallback path, the seed
loop's detection of planted decision mutants, the bound certificate and
constant-budget stretches, the releasers' block-shape check, the
unknown-key errors of the removed ``scan=``/``sensitivity=`` keys, and
the columns ReleaseTrace derives from its publication log.
"""

import math

import numpy as np
import pytest

from repro.baselines import w_event
from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.baselines.w_event import ReleaseTrace
from repro.runtime.reference import reference_w_event_perturb
from repro.runtime.rng_pool import IndexedRngPool
from repro.service import (
    MechanismContext,
    ServiceSpec,
    build_mechanism_from_spec,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream

N_TYPES = 4


def constant_matrix(n, value=0.0):
    return np.full((n, N_TYPES), value, dtype=float)


def seed_loop(mechanism, matrix, rng):
    """The seed loop's ``final_state`` over a 0/1 ``matrix``."""
    stream = IndicatorStream(
        EventAlphabet.numbered(matrix.shape[1]), matrix.astype(bool)
    )
    final_state = {}
    reference_w_event_perturb(
        mechanism, stream, rng=rng, final_state=final_state
    )
    return final_state


def matches_seed_loop(releaser, released, expected):
    """Whether a release ends exactly where the seed loop ends."""
    return (
        np.array_equal(released, expected["released"])
        and np.array_equal(releaser.trace.published, expected["published"])
        and np.array_equal(
            releaser.trace.publication_budgets,
            expected["publication_budgets"],
        )
        and releaser.scheduler_state == expected["scheduler_state"]
        and np.array_equal(releaser.last_release, expected["last_release"])
        and releaser.t == expected["t"]
    )


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
        mechanism = cls(1.0, w=20)
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
        # installs strictly exceed the long-block publication-only set.
        n = 304
        matrix = constant_matrix(n)
        mechanism = BudgetDistribution(1.0, w=20)
        releaser = mechanism.online_releaser(N_TYPES, rng=11, horizon=n)
        requested = install_generator_counter(releaser)
        small = [
            releaser.step_block(matrix[row : row + 8])
            for row in range(0, n, 8)
        ]
        whole = BudgetDistribution(1.0, w=20).online_releaser(
            N_TYPES, rng=11, horizon=n
        )
        assert np.array_equal(np.vstack(small), whole.step_block(matrix))
        assert len(requested) > len(
            [t for t in range(n) if releaser.trace.published[t]]
        )

    def test_landmark_prepass_hops_regular_rows(self):
        n = 128
        mask = np.zeros(n, dtype=bool)
        mask[[5, 40, 90]] = True
        matrix = constant_matrix(n)
        mechanism = LandmarkPrivacy(2.0, landmarks=mask, rho=0.5)
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
        so only the real generator path reproduces the draw — a release
        whose prefetched uniforms all read 0 must still end where the
        seed loop (which never prefetches) ends."""
        monkeypatch.setattr(
            IndexedRngPool,
            "first_uniforms",
            lambda self, start, stop: np.zeros(stop - start),
        )
        n = 64
        rng = np.random.default_rng(5)
        matrix = (rng.random((n, N_TYPES)) < 0.5).astype(float)
        releaser = cls(2.0, w=8).online_releaser(N_TYPES, rng=17, horizon=n)
        released = releaser.step_block(matrix)
        expected = seed_loop(cls(2.0, w=8), matrix, 17)
        assert matches_seed_loop(releaser, released, expected)


# ---------------------------------------------------------------------------
# Planted decision mutants
# ---------------------------------------------------------------------------


_LAPLACE_NOISE = w_event._laplace_noise

#: Decision helpers planted with wrong values.  Distances of -inf
#: (+inf) decide every row reaching the distance pass as a skip (a
#: publication); row norms of -inf or approximate noises of -1e6
#: certify every row as a skip, and norms of 0 bound every distance to
#: exactly ``b``, as if each row were all zeros; a sign-flipped exact
#: noise decides the pass rows on the wrong side of their draw.
MUTANTS = {
    "distances-skip": (
        "_release_distances",
        lambda rows, release: np.full(rows.shape[0], -np.inf),
    ),
    "distances-publish": (
        "_release_distances",
        lambda rows, release: np.full(rows.shape[0], np.inf),
    ),
    "norms-skip": (
        "_row_norms",
        lambda rows: np.full(rows.shape[0], -np.inf),
    ),
    "norms-zero": ("_row_norms", lambda rows: np.zeros(rows.shape[0])),
    "noises-skip": (
        "_approximate_noises",
        lambda uniforms, scale: np.full(uniforms.shape, -1e6),
    ),
    "noise-sign": (
        "_laplace_noise",
        lambda uniform, scale: -_LAPLACE_NOISE(uniform, scale),
    ),
}


def drifting_matrix(n=512):
    """Publish-dense 0/1 rows with a late drift the schedule must
    publish."""
    rng = np.random.default_rng(8)
    matrix = (rng.random((n, N_TYPES)) < 0.3).astype(float)
    matrix[n // 2 :] = 1.0
    return matrix


def release_against_seed_loop(cls, mechanism=None):
    """Release :func:`drifting_matrix` in one block; whether it ends
    where the seed loop ends."""
    matrix = drifting_matrix()
    n = matrix.shape[0]
    mechanism = mechanism or cls(8.0, w=4)
    releaser = mechanism.online_releaser(N_TYPES, rng=0, horizon=n)
    released = releaser.step_block(matrix)
    expected = seed_loop(cls(8.0, w=4), matrix, 0)
    return matches_seed_loop(releaser, released, expected)


@pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
class TestSeedLoopCatchesMutants:
    """The seed loop is the release path's oracle: a helper that decides
    rows wrongly must make the comparison fail, not slip through."""

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_fails_the_seed_loop_comparison(
        self, cls, mutant, monkeypatch
    ):
        helper, replacement = MUTANTS[mutant]
        monkeypatch.setattr(w_event, helper, replacement)
        assert not release_against_seed_loop(cls)

    def test_lying_budget_stretch_fails_the_seed_loop_comparison(self, cls):
        """A scheduler whose ``_budget_until`` claims its budget never
        changes skips the budget hook the seed loop calls every row."""
        mechanism = cls(8.0, w=4)
        mechanism._budget_until = lambda t, state: math.inf
        assert not release_against_seed_loop(cls, mechanism)

    def test_honest_helpers_pass_the_seed_loop_comparison(self, cls):
        assert release_against_seed_loop(cls)


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
        release_distances = w_event._release_distances

        def counting(rows, release):
            passes.append(rows.shape[0])
            return release_distances(rows, release)

        monkeypatch.setattr(w_event, "_release_distances", counting)
        n = 4000
        matrix = dense_matrix(n)
        releaser = cls(1.0, w=40).online_releaser(8, rng=1, horizon=n)
        released = releaser.step_block(matrix)
        publications = sum(releaser.trace.published)
        assert publications > n // 10
        assert len(passes) * 4 < publications
        expected = seed_loop(cls(1.0, w=40), matrix, 1)
        assert matches_seed_loop(releaser, released, expected)

    @pytest.mark.parametrize(
        "cls, share",
        [(BudgetDistribution, 0.6), (BudgetAbsorption, 0.8)],
    )
    def test_budget_hook_runs_once_per_stretch(self, cls, share, monkeypatch):
        """BD's budget only changes when a spend enters or leaves the
        window, BA's within a nullified stretch or once absorption is
        capped, so the release loop asks for it on far fewer rows than
        the seed loop, which asks on every row."""
        calls = {"release": 0, "seed": 0}
        n = 4000
        matrix = dense_matrix(n)
        for run in calls:
            mechanism = cls(1.0, w=40)
            budget = mechanism._publication_budget

            def counting(t, state, run=run, budget=budget):
                calls[run] += 1
                return budget(t, state)

            monkeypatch.setattr(mechanism, "_publication_budget", counting)
            if run == "seed":
                seed_loop(mechanism, matrix, 1)
            else:
                releaser = mechanism.online_releaser(8, rng=1, horizon=n)
                releaser.step_block(matrix)
        assert calls["seed"] == n
        assert calls["release"] < share * n


# ---------------------------------------------------------------------------
# Block shape
# ---------------------------------------------------------------------------


def landmark_releaser(n):
    mask = np.zeros(n, dtype=bool)
    mask[::3] = True
    mechanism = LandmarkPrivacy(1.0, landmarks=mask, rho=0.5)
    return mechanism.online_releaser(N_TYPES, rng=4, horizon=n)


def w_event_releaser(n):
    mechanism = BudgetDistribution(1.0, w=8)
    return mechanism.online_releaser(N_TYPES, rng=4, horizon=n)


class TestBlockShape:
    """A block that is not ``(n, n_types)`` is rejected before any row
    steps — a wrong width would otherwise broadcast against the last
    release and advance ``t`` silently."""

    @pytest.mark.parametrize(
        "shape", [(64, 1), (64, N_TYPES + 1), (64,), (2, 32, N_TYPES)]
    )
    @pytest.mark.parametrize(
        "make, method",
        [
            (landmark_releaser, "step_block"),
            (landmark_releaser, "advance_block"),
            (w_event_releaser, "step_block"),
        ],
    )
    def test_wrong_shape_raises_and_leaves_state(self, make, method, shape):
        releaser = make(64)
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


#: The key=value keys of each sequential baseline's spec, as the
#: unknown-key error lists them.
VALID_KEYS = {
    "bd": "conversion_mode, epsilon, pattern_epsilon, w",
    "ba": "conversion_mode, epsilon, pattern_epsilon, w",
    "landmark": "conversion_mode, epsilon, landmarks, pattern_epsilon, rho",
}

#: Keys no baseline takes: the removed release-mode and sensitivity
#: settings, and two tunables that never were keys.
UNKNOWN_KEYS = ("scan", "sensitivity", "margin", "prefetch")


def unknown_key_message(key, head):
    return (
        f"unknown key '{key}' for mechanism spec '{head}'; valid keys: "
        f"{VALID_KEYS[head]}"
    )


class TestSpecGrammar:
    def test_spec_keys_reach_the_mechanism(self):
        context = build_context()
        mechanism = build_mechanism_from_spec("bd:epsilon=1.0,w=10", context)
        assert (mechanism.epsilon, mechanism.w) == (1.0, 10)
        mechanism = build_mechanism_from_spec(
            "landmark:epsilon=0.5,rho=0.25", context
        )
        assert (mechanism.epsilon, mechanism.rho) == (0.5, 0.25)
        assert mechanism.sensitivity == 1.0

    @pytest.mark.parametrize("key", UNKNOWN_KEYS)
    @pytest.mark.parametrize("head", sorted(VALID_KEYS))
    def test_unknown_key_fails_listing_valid_keys(self, head, key):
        """In a spec string, at build and at ``ServiceSpec``
        construction, and as a ``mechanism_options`` key."""
        message = unknown_key_message(key, head)
        with pytest.raises(ValueError) as excinfo:
            build_mechanism_from_spec(
                f"{head}:epsilon=1.0,{key}=off", build_context()
            )
        assert message in str(excinfo.value)
        for spec_string, options in (
            (f"{head}:epsilon=1.0,{key}=off", {}),
            (head, {"epsilon": 1.0, key: "off"}),
        ):
            with pytest.raises(ValueError) as excinfo:
                ServiceSpec(
                    alphabet=ALPHABET,
                    patterns=[("private", ("e1", "e2"))],
                    queries=[("q", ("e2", "e3"))],
                    mechanism=spec_string,
                    mechanism_options=options,
                )
            assert message in str(excinfo.value)

    @pytest.mark.parametrize("key", ["scan", "sensitivity"])
    def test_removed_keys_are_no_constructor_parameters(self, key):
        for make in (
            lambda **kw: BudgetDistribution(1.0, w=4, **kw),
            lambda **kw: BudgetAbsorption(1.0, w=4, **kw),
            lambda **kw: LandmarkPrivacy(1.0, **kw),
        ):
            with pytest.raises(TypeError, match=key):
                make(**{key: "off"})


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
    @pytest.mark.parametrize("size", [7, 70])
    def test_released_runs_log_only_publications(self, cls, size):
        rng = np.random.default_rng(2)
        matrix = (rng.random((300, N_TYPES)) < 0.3).astype(float)
        mechanism = cls(1.0, w=8)
        releaser = mechanism.online_releaser(N_TYPES, rng=5, horizon=300)
        for start in range(0, 300, size):
            releaser.step_block(matrix[start : start + size])
        trace = releaser.trace
        assert trace.steps == releaser.t == 300
        assert list(trace.times) == np.flatnonzero(trace.published).tolist()
        assert np.array_equal(trace.published, trace.publication_budgets > 0)
        assert np.all(trace.dissimilarity_budgets == 1.0 / 2.0 / 8)
