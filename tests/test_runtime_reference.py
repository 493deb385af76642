"""Bit-identity of the pooled fast paths against the seed release loops.

The runtime replaced the per-window ``derive_rng`` loops of BD/BA and
landmark privacy with vectorized child derivation.  The refactor is
only valid because it is *exactly* output-preserving; these tests pin
that against the reference implementations for every parent-rng kind
(shared generator, int seed, default None).
"""

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.runtime.reference import (
    laplace_noise,
    reference_landmark_perturb,
    reference_perturb,
    reference_w_event_perturb,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)


@pytest.fixture
def stream():
    rng = np.random.default_rng(31)
    return IndicatorStream(ALPHABET, rng.random((90, 5)) < 0.35)


def rngs(seed):
    yield seed
    yield np.random.default_rng(seed)
    if seed == 0:
        yield None


def fresh(rng):
    """``rng`` itself, or a fresh copy of a Generator parent (whose
    state one run consumes)."""
    if isinstance(rng, np.random.Generator):
        return np.random.default_rng(rng.bit_generator.seed_seq)
    return rng


class TestWEventParity:
    @pytest.mark.parametrize("mechanism_cls", [BudgetDistribution, BudgetAbsorption])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_fast_equals_reference(self, mechanism_cls, seed, stream):
        mechanism = mechanism_cls(1.2, w=8)
        for rng in rngs(seed):
            reference = reference_w_event_perturb(
                mechanism, stream, rng=np.random.default_rng(seed)
                if isinstance(rng, np.random.Generator)
                else rng
            )
            fast = mechanism.perturb(
                stream,
                rng=np.random.default_rng(seed)
                if isinstance(rng, np.random.Generator)
                else rng,
            )
            assert fast == reference

    @pytest.mark.parametrize("mechanism_cls", [BudgetDistribution, BudgetAbsorption])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_release_ends_in_the_seed_loop_state(
        self, mechanism_cls, seed, stream
    ):
        """The raw released rows, the trace columns and the scheduler
        state — not only the thresholded bits — match the seed loop."""
        mechanism = mechanism_cls(1.2, w=8)
        matrix = stream.matrix_view().astype(float)
        for rng in rngs(seed):
            expected = {}
            reference_w_event_perturb(
                mechanism, stream, rng=fresh(rng), final_state=expected
            )
            releaser = mechanism.online_releaser(
                matrix.shape[1], rng=fresh(rng), horizon=matrix.shape[0]
            )
            released = releaser.step_block(matrix)
            assert np.array_equal(released, expected["released"])
            for column in (
                "published",
                "publication_budgets",
                "dissimilarity_budgets",
            ):
                assert np.array_equal(
                    getattr(releaser.trace, column), expected[column]
                )
            assert releaser.scheduler_state == expected["scheduler_state"]
            assert np.array_equal(
                releaser.last_release, expected["last_release"]
            )
            assert releaser.t == expected["t"]


class TestLandmarkParity:
    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_fast_equals_reference(self, seed, stream):
        mask = stream.column("e1")
        mechanism = LandmarkPrivacy(1.5, landmarks=mask)
        reference = reference_landmark_perturb(
            mechanism, stream, mask, rng=np.random.default_rng(seed)
        )
        fast = mechanism.perturb(stream, rng=np.random.default_rng(seed))
        assert fast == reference

    def test_int_seed_parent(self, stream):
        mask = stream.column("e2")
        mechanism = LandmarkPrivacy(0.8, landmarks=mask)
        assert mechanism.perturb(stream, rng=4) == reference_landmark_perturb(
            mechanism, stream, mask, rng=4
        )

    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_release_ends_in_the_seed_loop_state(self, seed, stream):
        """The raw released rows and the adaptive budget threading —
        not only the thresholded bits — match the seed loop."""
        mask = stream.column("e1")
        mechanism = LandmarkPrivacy(1.5, landmarks=mask)
        matrix = stream.matrix_view()
        for rng in rngs(seed):
            expected = {}
            reference_landmark_perturb(
                mechanism, stream, mask, rng=fresh(rng), final_state=expected
            )
            releaser = mechanism.online_releaser(
                matrix.shape[1], rng=fresh(rng), horizon=matrix.shape[0]
            )
            released = releaser.step_block(matrix)
            assert np.array_equal(released, expected["released"])
            assert (
                releaser._remaining_publication
                == expected["remaining_publication"]
            )
            assert releaser._landmarks_left == expected["landmarks_left"]
            assert np.array_equal(
                releaser.last_release, expected["last_release"]
            )
            assert releaser.t == expected["t"]


class TestDispatch:
    def test_reference_perturb_dispatches(self, stream):
        bd = BudgetDistribution(1.0, w=5)
        assert reference_perturb(bd, stream, rng=3) == bd.perturb(
            stream, rng=3
        )
        landmark = LandmarkPrivacy(1.0, landmarks=stream.column("e1"))
        assert reference_perturb(
            landmark, stream, rng=3
        ) == landmark.perturb(stream, rng=3)


class TestLaplaceNoise:
    """The reference loops' noise draw."""

    def test_deterministic_under_seed(self):
        assert laplace_noise(1, 2.0) == laplace_noise(1, 2.0)

    def test_scale_rejected_non_positive(self):
        with pytest.raises(ValueError, match="scale must be > 0"):
            laplace_noise(0, 0.0)

    def test_vector_shape(self):
        noise = laplace_noise(0, 1.0, size=(3, 4))
        assert noise.shape == (3, 4)

    def test_empirical_mean_near_zero(self):
        noise = laplace_noise(3, 1.0, size=20000)
        assert abs(noise.mean()) < 0.05

    def test_empirical_scale(self):
        # Var of Laplace(b) is 2b^2.
        noise = laplace_noise(4, 2.0, size=50000)
        assert 7.0 < noise.var() < 9.0

    def test_is_the_generators_own_draw(self):
        # The oracle's bits are numpy's Laplace stream, drawn from the
        # generator it is handed (not a copy), so consecutive draws
        # continue one stream.
        generator = np.random.default_rng(8)
        expected = np.random.default_rng(8).laplace(0.0, 0.5, size=6)
        first = laplace_noise(generator, 0.5, size=3)
        second = laplace_noise(generator, 0.5, size=3)
        assert np.array_equal(np.concatenate([first, second]), expected)
