"""Window assigners over event streams.

Continuous queries over infinite streams are answered per window.  Three
assigners are provided, each putting every event into exactly one
window (so one window's release spends ε once per event):

- :class:`TumblingWindows` — fixed-width, non-overlapping time windows;
- :class:`CountWindows` — windows of a fixed number of events;
- :class:`SessionWindows` — windows split at inactivity gaps (used for
  per-trip windows in the taxi workload).

Each assigner maps an :class:`~repro.streams.stream.EventStream` to a
list of :class:`Window` objects in temporal order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.streams.events import Event
from repro.streams.stream import EventStream
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class Window:
    """One window of events.

    Attributes
    ----------
    index:
        Position of the window in the window stream (0-based).
    start, end:
        Time bounds; events satisfy ``start <= t < end`` for time windows
        (count/session windows report the observed bounds).
    events:
        The member events, in temporal order.
    """

    index: int
    start: float
    end: float
    events: tuple

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def event_types(self) -> frozenset:
        """The set of event types present in the window."""
        return frozenset(event.event_type for event in self.events)


class TumblingWindows:
    """Fixed-width, gap-free, non-overlapping time windows.

    Windows are aligned to ``origin`` (default: the first event's
    timestamp) and cover ``[origin + k*width, origin + (k+1)*width)``.
    Empty windows between occupied ones are emitted when
    ``emit_empty=True`` so downstream per-window answers stay aligned with
    wall-clock time.
    """

    def __init__(
        self,
        width: float,
        *,
        origin: Optional[float] = None,
        emit_empty: bool = False,
    ):
        self.width = check_positive("width", width)
        self.origin = origin
        self.emit_empty = emit_empty

    def assign(self, stream: EventStream) -> List[Window]:
        events = stream.events
        if not events:
            return []
        origin = self.origin if self.origin is not None else events[0].timestamp
        buckets = {}
        for event in events:
            if event.timestamp < origin:
                raise ValueError(
                    f"event at t={event.timestamp} precedes window origin {origin}"
                )
            bucket = int((event.timestamp - origin) // self.width)
            buckets.setdefault(bucket, []).append(event)
        windows: List[Window] = []
        last_bucket = max(buckets)
        bucket_ids: Sequence[int]
        if self.emit_empty:
            bucket_ids = range(0, last_bucket + 1)
        else:
            bucket_ids = sorted(buckets)
        for index, bucket in enumerate(bucket_ids):
            members = tuple(buckets.get(bucket, ()))
            windows.append(
                Window(
                    index=index,
                    start=origin + bucket * self.width,
                    end=origin + (bucket + 1) * self.width,
                    events=members,
                )
            )
        return windows


class CountWindows:
    """Windows of exactly ``size`` consecutive events (last may be short).

    ``drop_partial=True`` discards a trailing window with fewer than
    ``size`` events.
    """

    def __init__(self, size: int, *, drop_partial: bool = False):
        self.size = check_positive_int("size", size)
        self.drop_partial = drop_partial

    def assign(self, stream: EventStream) -> List[Window]:
        events = stream.events
        windows: List[Window] = []
        for index, offset in enumerate(range(0, len(events), self.size)):
            members = tuple(events[offset : offset + self.size])
            if self.drop_partial and len(members) < self.size:
                break
            windows.append(
                Window(
                    index=index,
                    start=members[0].timestamp,
                    end=members[-1].timestamp,
                    events=members,
                )
            )
        return windows


class SessionWindows:
    """Windows split wherever consecutive events are more than ``gap`` apart.

    Used to segment per-taxi GPS event streams into trips: a pause longer
    than the gap ends the session.
    """

    def __init__(self, gap: float):
        self.gap = check_positive("gap", gap)

    def assign(self, stream: EventStream) -> List[Window]:
        events = stream.events
        if not events:
            return []
        windows: List[Window] = []
        current: List[Event] = [events[0]]
        for event in events[1:]:
            if event.timestamp - current[-1].timestamp > self.gap:
                windows.append(self._finish(len(windows), current))
                current = [event]
            else:
                current.append(event)
        windows.append(self._finish(len(windows), current))
        return windows

    @staticmethod
    def _finish(index: int, members: List[Event]) -> Window:
        return Window(
            index=index,
            start=members[0].timestamp,
            end=members[-1].timestamp,
            events=tuple(members),
        )
