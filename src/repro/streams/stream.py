"""Data streams and event streams.

Streams are conceptually infinite; concretely they wrap any iterable and
support lazy iteration and replay (when built from a sequence).
:class:`EventStream` enforces the temporal-order invariant of Section
III-A: ``e_{i+1}`` is extracted after ``e_i`` (non-decreasing
timestamps).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

from repro.streams.events import DataTuple, Event


class DataStream:
    """A (possibly infinite) stream of :class:`DataTuple`.

    Built from a sequence (replayable: each iteration restarts) or from a
    factory returning fresh iterators (for synthetic/infinite sources).
    """

    def __init__(
        self,
        tuples: Optional[Iterable[DataTuple]] = None,
        *,
        factory: Optional[Callable[[], Iterator[DataTuple]]] = None,
        name: Optional[str] = None,
    ):
        if (tuples is None) == (factory is None):
            raise ValueError("provide exactly one of tuples= or factory=")
        self.name = name
        if factory is not None:
            self._factory = factory
            self._materialized: Optional[List[DataTuple]] = None
        else:
            self._materialized = list(tuples)  # type: ignore[arg-type]
            self._factory = None

    def __iter__(self) -> Iterator[DataTuple]:
        if self._materialized is not None:
            return iter(self._materialized)
        assert self._factory is not None
        return self._factory()

    def __len__(self) -> int:
        if self._materialized is None:
            raise TypeError(
                "length of a factory-backed (potentially infinite) stream "
                "is undefined"
            )
        return len(self._materialized)


class EventStream:
    """A finite, materialized event stream ``S^E`` in temporal order.

    The constructor verifies non-decreasing timestamps (events from
    different sources with equal timestamps may appear in any order —
    the paper notes their relative order is immaterial).
    """

    def __init__(self, events: Iterable[Event], *, name: Optional[str] = None):
        self._events: List[Event] = list(events)
        self.name = name
        previous: Optional[float] = None
        for position, event in enumerate(self._events):
            if not isinstance(event, Event):
                raise TypeError(
                    f"item {position} is {type(event).__name__}, expected Event"
                )
            if previous is not None and event.timestamp < previous:
                raise ValueError(
                    f"events out of temporal order at position {position}: "
                    f"{event.timestamp} < {previous}"
                )
            previous = event.timestamp

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventStream(self._events[index], name=self.name)
        return self._events[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"EventStream{label}({len(self._events)} events)"

    @property
    def events(self) -> List[Event]:
        """The events as a list (copy)."""
        return list(self._events)
