"""Reference (pre-runtime) implementations of the sequential mechanisms.

These are the seed implementations of the BD/BA and landmark release
loops: one ``derive_rng`` call per window, straight-line Python.  They
are kept for two jobs:

- **bit-identity guardrail** — they are the oracle of the releasers'
  one release path: ``tests/test_runtime_reference.py`` and the
  decision property tests assert the pooled fast paths reproduce these
  loops exactly (their ``final_state`` included), for every parent-rng
  kind and any split into blocks; any drift in the vectorized
  derivation or the decision loop would fail there first;
- **speedup measurement** — ``benchmarks/test_bench_runtime.py`` runs
  the fig4 workload through these loops as the "legacy engine path"
  arm the runtime is compared against.

Do not use them in production paths; they are deliberately slow.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mechanisms.laplace import laplace_noise
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike, derive_rng


def reference_w_event_perturb(
    mechanism,
    stream: IndicatorStream,
    *,
    rng: RngLike = None,
    final_state: Optional[dict] = None,
) -> IndicatorStream:
    """The seed per-window w-event release loop (BD/BA schedulers).

    ``final_state``, when given, is filled with the loop's raw
    ``released`` rows, its trace columns (``published``,
    ``publication_budgets``, ``dissimilarity_budgets``: plain lists
    appended per window, not derived from a publication log),
    ``scheduler_state``, ``last_release`` and ``t`` — what the
    releaser's own run must end in.
    """
    matrix = stream.matrix_view().astype(float)
    n_windows, n_types = matrix.shape
    published, publication_budgets, dissimilarity_budgets = [], [], []
    scheduler_state = mechanism._initial_scheduler_state()
    last_release: Optional[np.ndarray] = None
    released = np.zeros_like(matrix)
    dissimilarity_scale = (
        mechanism.w * mechanism.sensitivity / mechanism.epsilon_dissimilarity
    )
    for t in range(n_windows):
        true_vector = matrix[t]
        rng_t = derive_rng(rng, "w-event", t)
        budget = mechanism._publication_budget(t, scheduler_state)
        publish = False
        if last_release is None:
            publish = budget > 0
        elif budget > 0:
            true_distance = float(np.abs(true_vector - last_release).mean())
            noisy_distance = true_distance + float(
                laplace_noise(rng_t, dissimilarity_scale / n_types)
            )
            publish = noisy_distance > mechanism.sensitivity / budget
        dissimilarity_budgets.append(
            mechanism.epsilon_dissimilarity / mechanism.w
        )
        if publish:
            noise = laplace_noise(
                rng_t, mechanism.sensitivity / budget, size=n_types
            )
            last_release = true_vector + noise
            published.append(True)
            publication_budgets.append(budget)
            mechanism._after_publication(t, budget, scheduler_state)
        else:
            if last_release is None:
                last_release = np.full(n_types, 0.5)
            published.append(False)
            publication_budgets.append(0.0)
        released[t] = last_release
    if final_state is not None:
        final_state.update(
            released=released,
            published=published,
            publication_budgets=publication_budgets,
            dissimilarity_budgets=dissimilarity_budgets,
            scheduler_state=scheduler_state,
            last_release=last_release,
            t=n_windows,
        )
    return stream.with_matrix(released >= 0.5)


def reference_landmark_perturb(
    mechanism,
    stream: IndicatorStream,
    landmarks: Sequence[bool],
    *,
    rng: RngLike = None,
    final_state: Optional[dict] = None,
) -> IndicatorStream:
    """The seed per-window landmark-privacy release loop.

    ``final_state``, when given, is filled with the loop's raw
    ``released`` rows, ``remaining_publication`` (the landmark
    publication budget left), ``landmarks_left``, ``last_release`` and
    ``t`` — what the releaser's own run must end in.
    """
    landmarks = np.asarray(landmarks, dtype=bool)
    matrix = stream.matrix_view().astype(float)
    n_windows, n_types = matrix.shape
    released = np.zeros_like(matrix)
    n_landmarks = int(landmarks.sum())
    landmark_dissimilarity = mechanism.landmark_epsilon / 2.0
    remaining_publication = mechanism.landmark_epsilon / 2.0
    landmarks_left = n_landmarks
    last_release: Optional[np.ndarray] = None
    for t in range(n_windows):
        rng_t = derive_rng(rng, "landmark", t)
        true_vector = matrix[t]
        if landmarks[t]:
            nominal = (
                remaining_publication / landmarks_left
                if landmarks_left > 0
                else 0.0
            )
            publish = last_release is None
            if not publish and nominal > 0 and n_landmarks > 0:
                dissimilarity_scale = (
                    n_landmarks
                    * mechanism.sensitivity
                    / landmark_dissimilarity
                )
                true_distance = float(
                    np.abs(true_vector - last_release).mean()
                )
                noisy_distance = true_distance + float(
                    laplace_noise(rng_t, dissimilarity_scale / n_types)
                )
                publish = noisy_distance > mechanism.sensitivity / nominal
            if publish and nominal > 0:
                noise = laplace_noise(
                    rng_t, mechanism.sensitivity / nominal, size=n_types
                )
                last_release = true_vector + noise
                remaining_publication -= nominal
            elif last_release is None:
                last_release = np.full(n_types, 0.5)
            landmarks_left = max(0, landmarks_left - 1)
            released[t] = last_release
        else:
            noise = laplace_noise(
                rng_t,
                mechanism.sensitivity / mechanism.regular_epsilon,
                size=n_types,
            )
            released[t] = true_vector + noise
    if final_state is not None:
        final_state.update(
            released=released,
            remaining_publication=remaining_publication,
            landmarks_left=landmarks_left,
            last_release=last_release,
            t=n_windows,
        )
    return stream.with_matrix(released >= 0.5)


class ReferenceAnalyticEstimator:
    """The seed implementation of the analytic quality estimator.

    Re-extracts the per-element indicator columns on every candidate
    evaluation, as the seed did; float-identical to the vectorized
    :class:`~repro.core.quality_model.AnalyticQualityEstimator`.
    """

    def __init__(self, history, private_pattern, target_patterns, *, alpha=0.5):
        from repro.core.quality_model import _check_setup

        _check_setup(history, private_pattern, list(target_patterns))
        self.history = history
        self.private_pattern = private_pattern
        self.target_patterns = list(target_patterns)
        self.alpha = alpha
        self._targets = []
        matrix = history.matrix_view()
        for pattern in self.target_patterns:
            distinct = list(dict.fromkeys(pattern.elements))
            columns = history.alphabet.indices(distinct)
            truth = matrix[:, columns].all(axis=1)
            self._targets.append((distinct, columns, truth))
        self._matrix = matrix

    def evaluate(self, allocation):
        from repro.core.quality_model import (
            _flip_probabilities_by_type,
        )
        from repro.metrics.confusion import ConfusionCounts
        from repro.metrics.quality import DataQuality

        flip_by_type = _flip_probabilities_by_type(
            self.private_pattern, allocation
        )
        total = ConfusionCounts()
        n_windows = self.history.n_windows
        for (distinct, columns, truth) in self._targets:
            presence = np.empty((n_windows, len(distinct)), dtype=float)
            for position, element in enumerate(distinct):
                indicator = self._matrix[:, columns[position]].astype(float)
                p = flip_by_type.get(element)
                if p is None:
                    presence[:, position] = indicator
                else:
                    presence[:, position] = indicator * (1.0 - p) + (
                        1.0 - indicator
                    ) * p
            detection = presence.prod(axis=1)
            tp = float(detection[truth].sum())
            fp = float(detection[~truth].sum())
            positives = float(truth.sum())
            negatives = float((~truth).sum())
            total = total + ConfusionCounts(
                tp=tp,
                fp=fp,
                fn=positives - tp,
                tn=negatives - fp,
            )
        return DataQuality.from_confusion(total, alpha=self.alpha)


def reference_perturb(
    mechanism, stream: IndicatorStream, *, rng: RngLike = None
) -> IndicatorStream:
    """Dispatch to the seed release loop matching ``mechanism``.

    Mechanisms whose seed implementation was already vectorized
    (randomized-response families) go through their own ``perturb``.
    """
    from repro.baselines.landmark import LandmarkPrivacy
    from repro.baselines.w_event import WEventMechanism

    if isinstance(mechanism, WEventMechanism):
        return reference_w_event_perturb(mechanism, stream, rng=rng)
    if isinstance(mechanism, LandmarkPrivacy):
        return reference_landmark_perturb(
            mechanism, stream, mechanism._landmarks, rng=rng
        )
    return mechanism.perturb(stream, rng=rng)
