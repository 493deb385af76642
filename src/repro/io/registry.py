"""Plugin registries resolving string specs to sources and sinks.

The I/O layer mirrors the service layer's registry design
(:mod:`repro.service.registry`): a connector is named by a *spec
string* — a registered name optionally followed by ``key=value``
arguments (the shared grammar in :mod:`repro.service.specgrammar`) or
a raw address tail — and third-party connectors hook in without
touching core:

>>> from repro.io import register_source
>>> @register_source("kafka", raw_tail=True)
... def _build(topic, *, group="repro"):
...     '''Source draining a Kafka topic into the service.'''
...     return KafkaSource(topic, group=group)

and ``ServiceSpec(source="kafka:trips", ...)`` just works.

Built-in sources: ``memory``, ``csv:<path>``, ``jsonl:<path>``,
``synthetic:generator=bernoulli,windows=500,seed=3``,
``replay:<path>:<rate>``, ``queue``,
``broker:url=redis://host:port,stream=...,group=...,consumer=...``.
Built-in sinks: ``memory``, ``csv:<path>``, ``jsonl:<path>``,
``metrics``, ``callback``,
``broker:url=redis://host:port,stream=...``.  Raw address tails
(``csv:<path>``, ``replay:<path>:<rate>``) are first-class; any other
positional tail (``synthetic:bernoulli:500:3``) is an error listing
the name's valid keys.

Connectors whose payload cannot live in a JSON spec (an in-memory
stream, a live ``asyncio.Queue``, a Python callback) are *bound at run
time*: the spec string validates and declares intent, and the object
rides in through ``StreamService.run(source=...)`` /
``pump(source=...)`` / ``StreamGateway.add_tenant(..., source=...)``.
"""

from __future__ import annotations

from typing import Tuple

from repro.service.registry import _Registry, parse_spec

__all__ = [
    "parse_spec",
    "register_sink",
    "register_source",
    "registered_sinks",
    "registered_sources",
    "resolve_sink",
    "resolve_source",
]

_SOURCES = _Registry("source")
_SINKS = _Registry("sink")


def _ensure_builtins() -> None:
    """Register the built-in connectors (import side effect, idempotent).

    Lets callers that import only this module (e.g. the spec validator)
    see the built-ins without importing the whole package eagerly.
    """
    from repro.io import sinks, sources  # noqa: F401


def register_source(
    name: str, *, aliases=(), raw_tail: bool = False, keys=None
):
    """Register a source factory under a spec name (plus aliases).

    The factory is called as ``factory(**spec_kwargs, **options)``
    (``factory(address, **options)`` for a raw tail) and must return a
    :class:`~repro.io.sources.StreamSource`.  ``raw_tail=True`` hands
    the factory everything after the first colon as one uncoerced
    string (for path arguments, which may themselves contain colons).
    ``keys`` declares the name's key=value keys (default: the
    factory's keyword parameters).
    """
    return _SOURCES.register(
        name, aliases=aliases, raw_tail=raw_tail, keys=keys
    )


def register_sink(
    name: str, *, aliases=(), raw_tail: bool = False, keys=None
):
    """Register a sink factory under a spec name (plus aliases).

    The factory is called like a source factory and must return a
    :class:`~repro.io.sinks.StreamSink`; ``raw_tail`` / ``keys`` as
    for :func:`register_source`.
    """
    return _SINKS.register(
        name, aliases=aliases, raw_tail=raw_tail, keys=keys
    )


def registered_sources() -> Tuple[str, ...]:
    """The source spec names the I/O layer currently accepts."""
    _ensure_builtins()
    return _SOURCES.names()


def registered_sinks() -> Tuple[str, ...]:
    """The sink spec names the I/O layer currently accepts."""
    _ensure_builtins()
    return _SINKS.names()


def validate_source_spec(spec: str) -> str:
    """Check the spec's head names a registered source; return it."""
    _ensure_builtins()
    return _SOURCES.canonical(spec)


def validate_sink_spec(spec: str) -> str:
    """Check the spec's head names a registered sink; return it."""
    _ensure_builtins()
    return _SINKS.canonical(spec)


def resolve_source(spec, **options):
    """Instantiate the source a spec names (pass-through for objects).

    ``spec`` may be a spec string (``"csv:stream.csv"``) or an already
    constructed :class:`~repro.io.sources.StreamSource`, which is
    returned unchanged — that is how runtime-only sources (in-memory
    data, live queues) ride along a declarative spec.
    """
    from repro.io.sources import StreamSource

    _ensure_builtins()
    if isinstance(spec, StreamSource):
        if options:
            raise ValueError(
                "options only apply to source spec strings; configure "
                "the source object directly"
            )
        return spec
    factory, args, kwargs = _SOURCES.resolve(spec)
    return factory(*args, **{**kwargs, **options})


def resolve_sink(spec, **options):
    """Instantiate the sink a spec names (pass-through for objects)."""
    from repro.io.sinks import StreamSink

    _ensure_builtins()
    if isinstance(spec, StreamSink):
        if options:
            raise ValueError(
                "options only apply to sink spec strings; configure "
                "the sink object directly"
            )
        return spec
    factory, args, kwargs = _SINKS.resolve(spec)
    return factory(*args, **{**kwargs, **options})
