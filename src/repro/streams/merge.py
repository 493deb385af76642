"""Splitting a merged event stream by source.

Section III-A: "When multiple data streams are given, we merge their
corresponding event streams into one single event stream."  Each
event keeps the source it came from, so the merged stream can be split
back into its per-source streams.
"""

from __future__ import annotations

from repro.streams.stream import EventStream


def partition_by_source(stream: EventStream) -> dict:
    """Split a merged stream back into per-source streams.

    Events without a source are grouped under ``None``; within a
    source, events keep their order in ``stream``.
    """
    groups: dict = {}
    for event in stream:
        groups.setdefault(event.source, []).append(event)
    return {
        source: EventStream(events, name=str(source))
        for source, events in groups.items()
    }
