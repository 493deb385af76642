"""Landmark privacy, adaptive allocation (Katsomallos et al., CODASPY 2022).

Landmark privacy observes that not all timestamps are equally sensitive:
the *landmark* timestamps (here: the windows the data subject declares
sensitive, i.e. where private pattern activity lives) must be protected
jointly, while each *regular* timestamp only needs individual
(event-level style) protection.  The guarantee covers all landmarks plus
any one regular timestamp.

Budget layout (the paper's adaptive scheme, transplanted to windowed
indicator vectors):

- a fraction ``rho`` of ε is reserved for the landmarks; the remainder
  is given to every regular timestamp individually (parallel
  composition: each neighbouring relation involves only one regular
  timestamp, so regular spends do not accumulate);
- the landmark share is spent adaptively: half drives noisy
  dissimilarity estimates, half funds publications; a landmark
  publishes only when its data drifted more than the publication error,
  otherwise it re-releases the previous output and leaves its nominal
  budget to later landmarks (the *adaptive* sampling of the original
  paper).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import StreamMechanism, as_statistics
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike
from repro.utils.validation import check_in_range


class LandmarkReleaser:
    """Incremental landmark release, one block of timestamps at a time.

    The landmark mask must be fixed up front (the data subject declares
    the sensitive timestamps); the releaser walks it while threading the
    adaptive publication budget.  Per-timestamp randomness is
    ``derive_rng(rng, "landmark", t)`` drawn through an
    :class:`~repro.runtime.rng_pool.IndexedRngPool`, so block-by-block
    release and the batch :meth:`LandmarkPrivacy.perturb` agree bit for
    bit.
    """

    def __init__(
        self,
        mechanism: "LandmarkPrivacy",
        landmarks: np.ndarray,
        n_types: int,
        rng: RngLike,
        *,
        horizon: Optional[int] = None,
    ):
        if n_types <= 0:
            raise ValueError(f"n_types must be positive, got {n_types}")
        from repro.runtime.rng_pool import IndexedRngPool

        self.mechanism = mechanism
        self.n_types = n_types
        self._landmarks = np.asarray(landmarks, dtype=bool)
        self._children = IndexedRngPool(rng, "landmark", count=horizon)
        self._n_landmarks = int(self._landmarks.sum())
        self._remaining_publication = mechanism.landmark_epsilon / 2.0
        self._landmark_dissimilarity = mechanism.landmark_epsilon / 2.0
        self._landmarks_left = self._n_landmarks
        self.last_release: Optional[np.ndarray] = None
        self.t = 0

    def _advance(self, true_vector: np.ndarray) -> np.ndarray:
        """One release step; returns the released row without copying."""
        if self.t >= self._landmarks.shape[0]:
            raise ValueError(
                f"landmark mask covers {self._landmarks.shape[0]} windows; "
                f"cannot step past it (t={self.t})"
            )
        mechanism = self.mechanism
        rng_t = self._children.generator(self.t)
        if self._landmarks[self.t]:
            nominal = (
                self._remaining_publication / self._landmarks_left
                if self._landmarks_left > 0
                else 0.0
            )
            publish = self.last_release is None
            if not publish and nominal > 0 and self._n_landmarks > 0:
                dissimilarity_scale = (
                    self._n_landmarks
                    * mechanism.sensitivity
                    / self._landmark_dissimilarity
                )
                true_distance = float(
                    np.add.reduce(np.abs(true_vector - self.last_release))
                    / self.n_types
                )
                noisy_distance = true_distance + float(
                    rng_t.laplace(0.0, dissimilarity_scale / self.n_types)
                )
                publish = noisy_distance > mechanism.sensitivity / nominal
            if publish and nominal > 0:
                noise = rng_t.laplace(
                    0.0, mechanism.sensitivity / nominal, size=self.n_types
                )
                self.last_release = true_vector + noise
                self._remaining_publication -= nominal
            elif self.last_release is None:
                self.last_release = np.full(self.n_types, 0.5)
            self._landmarks_left = max(0, self._landmarks_left - 1)
            released = self.last_release
        else:
            # Regular timestamp: individual budget, parallel across
            # timestamps (each neighbourhood contains one regular).
            noise = rng_t.laplace(
                0.0,
                mechanism.sensitivity / mechanism.regular_epsilon,
                size=self.n_types,
            )
            released = true_vector + noise
        self.t += 1
        return released

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        """Release a block of timestamps; rows are indicator vectors.

        The scalar :meth:`_advance` loop, row by row, so any split of a
        stream into blocks releases the same rows.  Landmark has no
        decision loop, so its rows feed no
        ``repro_decisions_*_rows_total`` counter.
        """
        matrix = as_statistics(matrix, self.n_types)
        released = np.empty_like(matrix)
        for row in range(matrix.shape[0]):
            released[row] = self._advance(matrix[row])
        return released

    def advance_block(self, matrix: np.ndarray) -> None:
        """Step through a block without materializing the released rows.

        Used by the checkpoint prepass: state and randomness end exactly
        as under :meth:`step_block`.  Regular (non-landmark) rows never
        touch the release state and their draws are index-derived, so
        the walk hops them and runs :meth:`_advance` on the block's
        landmark rows only.  A block that runs past the mask raises
        :meth:`_advance`'s error, leaving the state where stepping row
        by row leaves it.
        """
        matrix = as_statistics(matrix, self.n_types)
        start = self.t
        in_mask = self._landmarks[start : start + matrix.shape[0]]
        for row in np.flatnonzero(in_mask):
            self.t = start + int(row)
            self._advance(matrix[row])
        self.t = start + in_mask.shape[0]
        if in_mask.shape[0] < matrix.shape[0]:
            self._advance(matrix[in_mask.shape[0]])  # raises: past the mask

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable checkpoint of the release state at time ``t``.

        Captures the adaptive budget threading (remaining publication
        budget, landmarks left), the last release, the step counter and
        the rng-pool derivation source; the landmark mask itself is
        configuration, fixed at construction, and only its length is
        recorded for validation.
        """
        return {
            "format": 1,
            "t": self.t,
            "n_types": self.n_types,
            "n_windows": int(self._landmarks.shape[0]),
            "remaining_publication": self._remaining_publication,
            "landmarks_left": self._landmarks_left,
            "last_release": (
                None
                if self.last_release is None
                else np.array(self.last_release, copy=True)
            ),
            "rng": self._children.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Adopt a checkpoint produced by :meth:`snapshot`."""
        if snapshot["n_types"] != self.n_types:
            raise ValueError(
                f"checkpoint covers {snapshot['n_types']} event types, "
                f"this releaser has {self.n_types}"
            )
        if snapshot["n_windows"] != self._landmarks.shape[0]:
            raise ValueError(
                f"checkpoint was taken under a landmark mask of "
                f"{snapshot['n_windows']} windows, this releaser has "
                f"{self._landmarks.shape[0]}"
            )
        self.t = int(snapshot["t"])
        self._remaining_publication = float(
            snapshot["remaining_publication"]
        )
        self._landmarks_left = int(snapshot["landmarks_left"])
        last_release = snapshot["last_release"]
        self.last_release = (
            None if last_release is None else np.array(last_release, copy=True)
        )
        self._children.restore(snapshot["rng"], position=self.t)


class LandmarkPrivacy(StreamMechanism):
    """Adaptive landmark-privacy release of an indicator stream.

    Parameters
    ----------
    epsilon:
        The landmark-privacy budget (protects all landmarks jointly and
        any single regular timestamp).
    landmarks:
        Boolean mask over windows: True marks a landmark (sensitive)
        window.  When ``None``, landmarks must be passed to
        :meth:`perturb_with_landmarks`.
    rho:
        Fraction of ε reserved for the landmark timestamps.
    """

    mechanism_name = "landmark"

    #: L1 sensitivity of the per-timestamp statistics: an indicator
    #: vector changes in one entry under a single-event change.
    sensitivity = 1.0

    def __init__(
        self,
        epsilon: float,
        *,
        landmarks: Optional[Sequence[bool]] = None,
        rho: float = 0.5,
    ):
        super().__init__(epsilon)
        self.rho = check_in_range("rho", rho, 0.0, 1.0, inclusive=False)
        self._landmarks = (
            None if landmarks is None else np.asarray(landmarks, dtype=bool)
        )

    @property
    def landmark_epsilon(self) -> float:
        """Budget protecting the landmark set jointly (``rho * ε``)."""
        return self.rho * self.epsilon

    @property
    def regular_epsilon(self) -> float:
        """Budget each regular timestamp enjoys individually."""
        return (1.0 - self.rho) * self.epsilon

    def perturb(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> IndicatorStream:
        if self._landmarks is None:
            raise ValueError(
                "no landmark mask configured; construct with landmarks= or "
                "call perturb_with_landmarks()"
            )
        return self.perturb_with_landmarks(stream, self._landmarks, rng=rng)

    def perturb_with_landmarks(
        self,
        stream: IndicatorStream,
        landmarks: Sequence[bool],
        *,
        rng: RngLike = None,
    ) -> IndicatorStream:
        landmarks = np.asarray(landmarks, dtype=bool)
        if landmarks.shape[0] != stream.n_windows:
            raise ValueError(
                f"landmark mask covers {landmarks.shape[0]} windows but the "
                f"stream has {stream.n_windows}"
            )
        matrix = stream.matrix_view().astype(float)
        n_windows, n_types = matrix.shape
        releaser = LandmarkReleaser(
            self, landmarks, n_types, rng, horizon=n_windows
        )
        released = releaser.step_block(matrix)
        return stream.with_matrix(released >= 0.5)

    def online_releaser(
        self,
        n_types: int,
        *,
        rng: RngLike = None,
        horizon: Optional[int] = None,
    ) -> LandmarkReleaser:
        """An incremental releaser for push-based processing.

        Requires the landmark mask configured at construction; the mask
        bounds how many windows the releaser can step through.
        """
        if self._landmarks is None:
            raise ValueError(
                "no landmark mask configured; construct with landmarks= to "
                "release online"
            )
        return LandmarkReleaser(
            self, self._landmarks, n_types, rng, horizon=horizon
        )


def landmarks_from_pattern(
    stream: IndicatorStream, elements: Sequence[str]
) -> np.ndarray:
    """Derive the landmark mask from private-pattern activity.

    A window is a landmark when *any* private pattern element occurs in
    it — the data subject's sensitive timestamps.  (Landmark privacy
    treats the mask itself as given by the subject, exactly as the
    paper's system model treats private pattern specifications.)
    """
    if not elements:
        raise ValueError("at least one private element is required")
    mask = np.zeros(stream.n_windows, dtype=bool)
    for element in set(elements):
        mask |= stream.column(element)
    return mask
