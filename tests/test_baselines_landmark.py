"""Tests for repro.baselines.landmark — landmark privacy."""

import numpy as np
import pytest

from repro.baselines.landmark import LandmarkPrivacy, landmarks_from_pattern
from repro.streams.indicator import EventAlphabet, IndicatorStream


@pytest.fixture
def indicator_stream():
    rng = np.random.default_rng(21)
    alphabet = EventAlphabet.numbered(4)
    return IndicatorStream(alphabet, rng.random((60, 4)) < 0.35)


@pytest.fixture
def landmarks(indicator_stream):
    return landmarks_from_pattern(indicator_stream, ["e1", "e2"])


class TestLandmarksFromPattern:
    def test_mask_matches_element_union(self, indicator_stream):
        mask = landmarks_from_pattern(indicator_stream, ["e1", "e2"])
        expected = indicator_stream.column("e1") | indicator_stream.column("e2")
        assert np.array_equal(mask, expected)

    def test_requires_elements(self, indicator_stream):
        with pytest.raises(ValueError):
            landmarks_from_pattern(indicator_stream, [])

    def test_duplicate_elements_deduplicated(self, indicator_stream):
        a = landmarks_from_pattern(indicator_stream, ["e1", "e1"])
        b = landmarks_from_pattern(indicator_stream, ["e1"])
        assert np.array_equal(a, b)


class TestLandmarkPrivacy:
    def test_output_shape(self, indicator_stream, landmarks):
        mechanism = LandmarkPrivacy(1.0, landmarks=landmarks)
        released = mechanism.perturb(indicator_stream, rng=0)
        assert released.n_windows == indicator_stream.n_windows

    def test_deterministic_under_seed(self, indicator_stream, landmarks):
        mechanism = LandmarkPrivacy(1.0, landmarks=landmarks)
        assert mechanism.perturb(indicator_stream, rng=3) == mechanism.perturb(
            indicator_stream, rng=3
        )

    def test_requires_landmarks_somewhere(self, indicator_stream):
        mechanism = LandmarkPrivacy(1.0)
        with pytest.raises(ValueError, match="landmark"):
            mechanism.perturb(indicator_stream)

    def test_mask_length_checked(self, indicator_stream):
        mechanism = LandmarkPrivacy(1.0)
        with pytest.raises(ValueError):
            mechanism.perturb_with_landmarks(
                indicator_stream, np.zeros(5, dtype=bool)
            )

    def test_budget_split(self):
        mechanism = LandmarkPrivacy(2.0, rho=0.25)
        assert mechanism.landmark_epsilon == pytest.approx(0.5)
        assert mechanism.regular_epsilon == pytest.approx(1.5)

    def test_rho_bounds(self):
        with pytest.raises(Exception):
            LandmarkPrivacy(1.0, rho=0.0)
        with pytest.raises(Exception):
            LandmarkPrivacy(1.0, rho=1.0)

    def test_high_budget_tracks_data(self, indicator_stream, landmarks):
        mechanism = LandmarkPrivacy(500.0, landmarks=landmarks)
        released = mechanism.perturb(indicator_stream, rng=1)
        agreement = (
            released.matrix_view() == indicator_stream.matrix_view()
        ).mean()
        assert agreement > 0.8

    def test_regulars_noisier_than_with_higher_budget(
        self, indicator_stream, landmarks
    ):
        tight = LandmarkPrivacy(0.5, landmarks=landmarks)
        loose = LandmarkPrivacy(50.0, landmarks=landmarks)
        tight_agreement = (
            tight.perturb(indicator_stream, rng=2).matrix_view()
            == indicator_stream.matrix_view()
        ).mean()
        loose_agreement = (
            loose.perturb(indicator_stream, rng=2).matrix_view()
            == indicator_stream.matrix_view()
        ).mean()
        assert loose_agreement > tight_agreement

    def test_all_landmark_stream_supported(self, indicator_stream):
        mask = np.ones(indicator_stream.n_windows, dtype=bool)
        mechanism = LandmarkPrivacy(1.0, landmarks=mask)
        released = mechanism.perturb(indicator_stream, rng=4)
        assert released.n_windows == indicator_stream.n_windows

    def test_no_landmark_stream_supported(self, indicator_stream):
        mask = np.zeros(indicator_stream.n_windows, dtype=bool)
        mechanism = LandmarkPrivacy(1.0, landmarks=mask)
        released = mechanism.perturb(indicator_stream, rng=4)
        assert released.n_windows == indicator_stream.n_windows


class TestMaskOverrun:
    """A block crossing the mask's end raises ``_advance``'s error and
    leaves the release state where stepping row by row leaves it."""

    N_MASK = 40

    def releaser(self):
        rng = np.random.default_rng(9)
        mask = rng.random(self.N_MASK) < 0.4
        mechanism = LandmarkPrivacy(4.0, landmarks=mask, rho=0.5)
        return mechanism.online_releaser(4, rng=12, horizon=self.N_MASK)

    @staticmethod
    def state(releaser):
        return (
            releaser.t,
            releaser._landmarks_left,
            releaser._remaining_publication,
            None
            if releaser.last_release is None
            else releaser.last_release.tolist(),
        )

    @pytest.mark.parametrize("method", ["step_block", "advance_block"])
    @pytest.mark.parametrize("start", [0, 25])
    def test_block_past_mask_end_matches_row_stepping(self, start, method):
        matrix = (
            np.random.default_rng(3).random((self.N_MASK + 10, 4)) < 0.5
        ).astype(float)
        stepped = self.releaser()
        with pytest.raises(ValueError, match="cannot step past it"):
            for row in matrix:
                stepped.step_block(row[None])
        blocked = self.releaser()
        blocked.step_block(matrix[:start])
        with pytest.raises(ValueError, match="cannot step past it"):
            getattr(blocked, method)(matrix[start:])
        assert stepped.t == self.N_MASK
        assert self.state(blocked) == self.state(stepped)
