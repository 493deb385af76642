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
