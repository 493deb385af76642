"""Pipeline stages of the streaming runtime.

The service phase (Section III-A, Fig. 2) is one conceptual pipeline —
events → windows → existence indicators → PPM perturbation → query
matching → quality metrics.  Each stage is a small reusable object:

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
