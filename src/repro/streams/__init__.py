"""Stream substrate: data streams, events, windows, indicator reduction.

Implements the paper's Section III data model (Fig. 1): raw *data streams*
``S^D`` carry data tuples; an extractor lifts tuples of interest into an
*event stream* ``S^E``; windows group events; and the
:class:`~repro.streams.indicator.IndicatorStream` reduction exposes each
window as a binary existence-indicator vector over the event alphabet —
the representation the pattern-level PPMs perturb.
"""

from repro.streams.events import DataTuple, Event
from repro.streams.extraction import EventExtractor, extract_events
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import DataStream, EventStream
from repro.streams.windows import (
    CountWindows,
    SessionWindows,
    TumblingWindows,
    Window,
)

__all__ = [
    "CountWindows",
    "DataStream",
    "DataTuple",
    "Event",
    "EventAlphabet",
    "EventExtractor",
    "EventStream",
    "IndicatorStream",
    "SessionWindows",
    "TumblingWindows",
    "Window",
    "extract_events",
]
