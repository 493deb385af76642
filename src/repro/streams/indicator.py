"""The windowed existence-indicator reduction.

The pattern-level PPMs of Section V operate on "the existence of events
``I(e_i) ∈ {0, 1}``" (Definition 5).  :class:`IndicatorStream` is that
representation: a boolean matrix with one row per window and one column
per event type of an :class:`EventAlphabet`.  Both evaluation workloads
reduce to it — Algorithm 2's synthetic windows literally are indicator
vectors, and the taxi workload reduces per-trip windows to region-entry
indicators.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.streams.windows import Window


class EventAlphabet:
    """An ordered universe of event-type symbols.

    The ordering fixes the column layout of indicator matrices; lookups
    are O(1).
    """

    def __init__(self, types: Iterable[str]):
        self._types: Tuple[str, ...] = tuple(types)
        if not self._types:
            raise ValueError("an alphabet needs at least one event type")
        self._index: Dict[str, int] = {}
        for position, name in enumerate(self._types):
            if not isinstance(name, str) or not name:
                raise ValueError(f"event type {name!r} must be a non-empty string")
            if name in self._index:
                raise ValueError(f"duplicate event type {name!r} in alphabet")
            self._index[name] = position

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[str]:
        return iter(self._types)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventAlphabet):
            return NotImplemented
        return self._types == other._types

    def __hash__(self) -> int:
        return hash(self._types)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventAlphabet({list(self._types)!r})"

    @property
    def types(self) -> Tuple[str, ...]:
        """The symbols in column order."""
        return self._types

    def index(self, name: str) -> int:
        """Column index of ``name``; raises ``KeyError`` when unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"event type {name!r} is not in the alphabet {list(self._types)}"
            ) from None

    def indices(self, names: Sequence[str]) -> List[int]:
        """Column indices for several symbols, in the given order."""
        return [self.index(name) for name in names]

    @classmethod
    def numbered(cls, count: int, *, prefix: str = "e") -> "EventAlphabet":
        """Build the alphabet ``e1..eN`` used by Algorithm 2."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        return cls(f"{prefix}{i}" for i in range(1, count + 1))


def indicator_matrix(
    alphabet: EventAlphabet,
    type_sets: Iterable[Iterable[str]],
    *,
    strict: bool = False,
) -> np.ndarray:
    """The boolean indicator matrix of per-window type collections.

    One row per window, one column per alphabet type, built with a
    single coordinate scatter; repeated types set their bit once.
    Types outside the alphabet are ignored, or raise ``KeyError`` with
    ``strict=True``.  Every row builder of the package goes through
    here.
    """
    index = alphabet._index
    rows: List[int] = []
    cols: List[int] = []
    count = 0
    for row, window in enumerate(type_sets):
        count = row + 1
        for name in window:
            col = index.get(name)
            if col is None:
                if strict:
                    raise KeyError(
                        f"event type {name!r} is not in the alphabet"
                    )
                continue
            rows.append(row)
            cols.append(col)
    matrix = np.zeros((count, len(alphabet)), dtype=bool)
    if rows:
        matrix[rows, cols] = True
    return matrix


class IndicatorStream:
    """A finite stream of windows as binary existence-indicator vectors.

    Internally an ``(n_windows, len(alphabet))`` boolean matrix.  The
    object is immutable from the outside: accessors return copies, and
    perturbation produces new streams via :meth:`with_matrix`.
    """

    def __init__(self, alphabet: EventAlphabet, matrix: np.ndarray):
        if not isinstance(alphabet, EventAlphabet):
            raise TypeError(
                f"alphabet must be EventAlphabet, got {type(alphabet).__name__}"
            )
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(
                f"matrix must be 2-dimensional, got shape {matrix.shape}"
            )
        if matrix.shape[1] != len(alphabet):
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns but the alphabet has "
                f"{len(alphabet)} types"
            )
        if matrix.dtype != bool:
            unique = np.unique(matrix)
            if not np.all(np.isin(unique, (0, 1))):
                raise ValueError("matrix entries must be 0/1 or boolean")
            matrix = matrix.astype(bool)
        self._alphabet = alphabet
        self._matrix = matrix.copy()
        self._matrix.setflags(write=False)

    # -- construction --------------------------------------------------

    @classmethod
    def from_window_sets(
        cls,
        alphabet: EventAlphabet,
        windows: Iterable[Iterable[str]],
        *,
        strict: bool = True,
    ) -> "IndicatorStream":
        """Build from per-window collections of event-type symbols.

        ``strict=False`` silently ignores symbols outside the alphabet
        (useful when a recorded stream carries event types the analysis
        does not model).
        """
        matrix = indicator_matrix(alphabet, windows, strict=strict)
        return cls(alphabet, matrix)

    @classmethod
    def from_event_windows(
        cls,
        alphabet: EventAlphabet,
        windows: Sequence[Window],
        *,
        strict: bool = False,
    ) -> "IndicatorStream":
        """Build from :class:`~repro.streams.windows.Window` objects."""
        return cls.from_window_sets(
            alphabet,
            (window.event_types() for window in windows),
            strict=strict,
        )

    # -- basic accessors -----------------------------------------------

    @property
    def alphabet(self) -> EventAlphabet:
        return self._alphabet

    @property
    def n_windows(self) -> int:
        return int(self._matrix.shape[0])

    def __len__(self) -> int:
        return self.n_windows

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndicatorStream):
            return NotImplemented
        return self._alphabet == other._alphabet and np.array_equal(
            self._matrix, other._matrix
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndicatorStream({self.n_windows} windows x "
            f"{len(self._alphabet)} types)"
        )

    def matrix(self) -> np.ndarray:
        """The indicator matrix (a writable copy)."""
        return self._matrix.copy()

    def matrix_view(self) -> np.ndarray:
        """A read-only view of the indicator matrix (no copy)."""
        return self._matrix

    def window_types(self, index: int) -> FrozenSet[str]:
        """Event types present in window ``index``."""
        row = self._matrix[index]
        return frozenset(
            name for name, present in zip(self._alphabet.types, row) if present
        )

    def contains(self, index: int, event_type: str) -> bool:
        """Whether ``event_type`` occurs in window ``index``."""
        return bool(self._matrix[index, self._alphabet.index(event_type)])

    def column(self, event_type: str) -> np.ndarray:
        """The per-window indicator vector of one event type (copy)."""
        return self._matrix[:, self._alphabet.index(event_type)].copy()

    # -- detection and perturbation ------------------------------------

    def detect_all(self, event_types: Sequence[str]) -> np.ndarray:
        """Per-window detection of a containment pattern.

        A pattern ``P = seq(e_1..e_m)`` is detected in a window when all
        of its elements occur there — exactly Algorithm 2's rule ("if all
        three events are contained in one L_m, the pattern is detected").
        Returns a boolean vector of length ``n_windows``.
        """
        if not event_types:
            raise ValueError("a pattern needs at least one element")
        cols = self._alphabet.indices(list(event_types))
        return self._matrix[:, cols].all(axis=1)

    def detection_count(self, event_types: Sequence[str]) -> int:
        """Number of windows in which the pattern is detected."""
        return int(self.detect_all(event_types).sum())

    def with_matrix(self, matrix: np.ndarray) -> "IndicatorStream":
        """A new stream with the same alphabet and a different matrix."""
        return IndicatorStream(self._alphabet, matrix)

    def flip(self, window_index: int, event_type: str) -> "IndicatorStream":
        """A new stream with one indicator bit flipped.

        This is the elementary edit generating pattern-level neighbours in
        the windowed model: the two streams differ in the existence of a
        single event.
        """
        matrix = self.matrix()
        col = self._alphabet.index(event_type)
        matrix[window_index, col] = ~matrix[window_index, col]
        return self.with_matrix(matrix)

    def slice_windows(self, start: int, stop: int) -> "IndicatorStream":
        """Keep only windows ``start:stop`` (python slice semantics)."""
        return IndicatorStream(self._alphabet, self._matrix[start:stop])

    def split(self, fraction: float) -> Tuple["IndicatorStream", "IndicatorStream"]:
        """Split into a leading ``fraction`` and the remainder.

        Used to carve historical (training) windows for the adaptive PPM
        from evaluation windows.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        cut = int(round(fraction * self.n_windows))
        return self.slice_windows(0, cut), self.slice_windows(cut, self.n_windows)
