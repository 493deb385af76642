"""Pipeline stages of the streaming runtime.

The service phase (Section III-A, Fig. 2) is one conceptual pipeline —
events → windows → existence indicators → PPM perturbation → query
matching → quality metrics.  Each stage is a small reusable object:

- :class:`WindowStage` wraps any window assigner from
  :mod:`repro.streams.windows` and exposes the per-window event-type
  sets (with a vectorized fast path for tumbling windows);
- :class:`IndicatorExtractor` reduces window type-sets to the boolean
  indicator matrix over the pipeline's alphabet
  (:func:`repro.streams.indicator.indicator_matrix`, one scatter);
- :class:`QueryMatcher` answers all registered containment queries with
  precomputed column indices.

Quality is counted from the executors' answers by
:meth:`repro.metrics.ConfusionCounts.micro`.

The stages are deliberately free of privacy logic — the mechanism stage
lives in :mod:`repro.runtime.adapters` because it has to bridge several
historical ``perturb`` protocols.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.streams.indicator import (
    EventAlphabet,
    IndicatorStream,
    indicator_matrix,
)
from repro.streams.stream import EventStream
from repro.streams.windows import TumblingWindows, Window


class WindowStage:
    """Windowing stage: an assigner lifted into the pipeline.

    ``type_sets`` is what downstream extraction needs — the set of event
    types per window.  For tumbling windows it is computed from the
    event arrays directly (one pass, no per-window ``Window`` object
    construction); any other assigner goes through its ``assign``.
    """

    def __init__(self, assigner):
        if not hasattr(assigner, "assign"):
            raise TypeError(
                f"window assigner must expose assign(EventStream), got "
                f"{type(assigner).__name__}"
            )
        self.assigner = assigner

    def windows(self, stream: EventStream) -> List[Window]:
        """The materialized windows (general path)."""
        return self.assigner.assign(stream)

    def type_sets(self, stream: EventStream) -> List[frozenset]:
        """Per-window event-type sets, in window order."""
        assigner = self.assigner
        if isinstance(assigner, TumblingWindows):
            return self._tumbling_type_sets(stream, assigner)
        return [window.event_types() for window in self.windows(stream)]

    @staticmethod
    def _tumbling_type_sets(
        stream: EventStream, assigner: TumblingWindows
    ) -> List[frozenset]:
        events = stream.events
        if not events:
            return []
        origin = (
            assigner.origin
            if assigner.origin is not None
            else events[0].timestamp
        )
        timestamps = np.fromiter(
            (event.timestamp for event in events), dtype=float, count=len(events)
        )
        if timestamps.min() < origin:
            offender = float(timestamps.min())
            raise ValueError(
                f"event at t={offender} precedes window origin {origin}"
            )
        buckets = ((timestamps - origin) // assigner.width).astype(np.int64)
        if assigner.emit_empty:
            bucket_ids = np.arange(0, int(buckets.max()) + 1)
        else:
            bucket_ids = np.unique(buckets)
        row_of_bucket = {int(bucket): row for row, bucket in enumerate(bucket_ids)}
        sets: List[set] = [set() for _ in bucket_ids]
        for event, bucket in zip(events, buckets):
            sets[row_of_bucket[int(bucket)]].add(event.event_type)
        return [frozenset(types) for types in sets]


class IndicatorExtractor:
    """Existence-indicator reduction over a fixed alphabet.

    Builds the ``(n_windows, len(alphabet))`` boolean matrix with
    :func:`~repro.streams.indicator.indicator_matrix`, ignoring event
    types outside the alphabet as the engine's service phase does.
    """

    def __init__(self, alphabet: EventAlphabet):
        if not isinstance(alphabet, EventAlphabet):
            raise TypeError(
                f"alphabet must be EventAlphabet, got {type(alphabet).__name__}"
            )
        self.alphabet = alphabet

    def extract_matrix(
        self, type_sets: Sequence[Iterable[str]]
    ) -> np.ndarray:
        """The boolean indicator matrix of the given window type-sets."""
        return indicator_matrix(self.alphabet, type_sets)

    def extract(self, type_sets: Sequence[Iterable[str]]) -> IndicatorStream:
        """The indicator stream of the given window type-sets."""
        return IndicatorStream(self.alphabet, self.extract_matrix(type_sets))


class QueryMatcher:
    """Answers registered containment queries over indicator matrices.

    Column indices per query are resolved once at construction; each
    ``answer`` call is one ``all``-reduction per query.
    """

    def __init__(self, alphabet: EventAlphabet, queries: Sequence):
        self.alphabet = alphabet
        self._columns: Dict[str, List[int]] = {}
        for query in queries:
            elements = getattr(query.pattern, "elements", None)
            if elements is None:
                raise ValueError(
                    f"query {query.name!r} uses a non-sequential pattern; the "
                    "windowed-indicator mode needs seq-of-types patterns "
                    "(use match() for full CEP semantics)"
                )
            self._columns[query.name] = alphabet.indices(list(elements))

    @property
    def query_names(self) -> List[str]:
        return list(self._columns)

    def answer(self, matrix: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-query boolean detection vectors over ``matrix`` rows."""
        return {
            name: matrix[:, columns].all(axis=1)
            for name, columns in self._columns.items()
        }
