"""Declarative I/O connectors: sources in, sinks out.

PR 4 made the compute phase declarative (``ServiceSpec`` →
``StreamService``); this layer does the same for ingestion and egress.
A *source* produces per-window indicator rows (from memory, streamed
files, synthetic generators, timestamped replays, live
``asyncio.Queue`` feeds, or a Redis-Streams broker) and a *sink*
egresses the released stream and query answers (to memory, files, a
quality-metrics aggregate, a broker stream, or a callback) — both
named by registered spec strings that ride inside a
:class:`~repro.service.ServiceSpec` (``source="csv:stream.csv"``,
``sink="metrics"``) and JSON-round-trip with it.

Third-party connectors register with :func:`register_source` /
:func:`register_sink` exactly like mechanisms and executors do; live
payloads that cannot live in JSON (in-memory data, queues, callbacks)
are passed as connector *objects* at run time.  The multi-tenant
:class:`~repro.service.StreamGateway` drives many (spec, source, sink)
pipelines over one asyncio loop with per-tenant checkpoint/resume of
in-flight source offsets.
"""

from repro.io.registry import (
    register_sink,
    register_source,
    registered_sinks,
    registered_sources,
    resolve_sink,
    resolve_source,
)
from repro.io.sinks import (
    CallbackSink,
    CsvSink,
    JsonlSink,
    MemorySink,
    MetricsSink,
    StreamSink,
    write_indicator_csv,
)
from repro.io.sources import (
    CsvSource,
    JsonlSource,
    MemorySource,
    QueueSource,
    ReplaySource,
    StreamSource,
    SyntheticSource,
    read_indicator_csv,
)

#: Broker connectors re-exported from their own subsystem
#: (:mod:`repro.broker`) — resolved lazily because this package
#: initializes *during* that subsystem's import (sources.py triggers
#: the connector registration), so an eager import here would see a
#: partially initialized module.
_LAZY = ("BrokerSink", "BrokerSource")


def __getattr__(name):
    if name in _LAZY:
        from repro.broker import connectors

        value = getattr(connectors, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BrokerSink",
    "BrokerSource",
    "CallbackSink",
    "CsvSink",
    "CsvSource",
    "JsonlSink",
    "JsonlSource",
    "MemorySink",
    "MemorySource",
    "MetricsSink",
    "QueueSource",
    "ReplaySource",
    "StreamSink",
    "StreamSource",
    "SyntheticSource",
    "read_indicator_csv",
    "register_sink",
    "register_source",
    "registered_sinks",
    "registered_sources",
    "resolve_sink",
    "resolve_source",
    "write_indicator_csv",
]
