"""Trace helper: spans around the program's public layer calls.

A :class:`LayerTracer` installs the program's own
:class:`~repro.obs.tracing.SpanRecorder` (which yields the built-in
``service.pump``, ``session.drain``, ``gateway.serve``,
``pipeline.run`` and ``executor.*`` spans) and, for the duration of a
``with`` block, replaces chosen functions and methods of the program
with timing wrappers that record one span per call next to the
recorder's.  Everything is restored on exit, so the untraced runs of
the benchmark execute the program exactly as shipped.

Self time is computed offline from the recorded intervals: on one
thread, spans nest by time (an ``await`` inside a wrapped call lets
other tasks' spans run *inside* its interval), so a span's self time
is its duration minus the durations of the spans directly nested in
it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.obs.tracing import Span, SpanRecorder, use_recorder

__all__ = ["LayerTracer", "covered_seconds", "self_seconds"]

_MISSING = object()


class LayerTracer:
    """Record spans around wrapped calls while the ``with`` block runs.

    The wrappers append plain ``(name, start, end, value)`` tuples —
    several per window on the served path, where building a recorder
    :class:`~repro.obs.tracing.Span` under its lock per call would
    distort the layers being timed; tuples of plain values also leave
    the garbage collector's tracked set, so a long traced round does
    not make every collection slower.  :meth:`spans` merges them with
    the recorder's spans.  ``capacity`` bounds the recorder's ring
    buffer, which must hold every program span of one traced round
    (checked by :meth:`spans`).
    """

    def __init__(self, capacity: int):
        self.recorder = SpanRecorder(capacity)
        self._records: List[Tuple[str, float, float, object]] = []
        #: Span attribute each wrapped name records its value under.
        self._attr: Dict[str, str] = {}
        self._wrappers: List[Tuple[object, str, object]] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._scope = None
        self._merged = None

    # -- choosing what to wrap ------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, rows_arg: int = -1):
        """Time every call of ``owner.attr`` as span ``name``.

        ``rows_arg`` is the position of a matrix argument (counting
        ``self``) whose row count is recorded as the span's ``windows``.
        """
        original = getattr(owner, attr)
        record = self._records.append
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                rows = len(args[rows_arg]) if rows_arg >= 0 else None
                record((name, start, end, rows))

        if rows_arg >= 0:
            self._attr[name] = "windows"
        self._wrappers.append((owner, attr, timed))
        return self

    def wrap_coroutine(self, owner, attr: str, name: str):
        """Time every awaited call of the coroutine method ``owner.attr``."""
        original = getattr(owner, attr)
        record = self._records.append
        clock = time.perf_counter

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                record((name, start, clock(), None))

        self._wrappers.append((owner, attr, timed))
        return self

    def wrap_async_iterator(self, owner, attr: str, name: str):
        """Time each step of the async generator method ``owner.attr``.

        One span per ``__anext__`` of the wrapped generator, with
        ``first=True`` on the first step of each generator — the step
        that pays any fast-forward to a checkpointed offset.
        """
        original = getattr(owner, attr)
        record = self._records.append
        clock = time.perf_counter

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            inner = original(*args, **kwargs)
            first = True
            try:
                while True:
                    start = clock()
                    try:
                        item = await inner.__anext__()
                    except StopAsyncIteration:
                        record((name, start, clock(), first))
                        return
                    record((name, start, clock(), first))
                    first = False
                    yield item
            finally:
                await inner.aclose()

        self._attr[name] = "first"
        self._wrappers.append((owner, attr, timed))
        return self

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._merged = None
        self._scope = use_recorder(self.recorder)
        self._scope.__enter__()
        for owner, attr, timed in self._wrappers:
            # Remember whether the attribute was the owner's own or
            # inherited, so exit restores exactly the shipped lookup.
            self._undo.append(
                (owner, attr, vars(owner).get(attr, _MISSING))
            )
            setattr(owner, attr, timed)
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._scope.__exit__(exc_type, exc, tb)
        return False

    def spans(self, name: str = None) -> List[Span]:
        """The recorded spans (optionally one name); fails if the
        recorder evicted any, because every figure would then be short."""
        if self._merged is None:
            self._merged = self._merge()
        if name is None:
            return self._merged
        return [span for span in self._merged if span.name == name]

    def _merge(self) -> List[Span]:
        spans = self.recorder.spans()
        if len(spans) >= self.recorder.capacity:
            raise RuntimeError(
                f"span recorder filled its {self.recorder.capacity} "
                "slots; raise the tracer capacity"
            )
        return spans + [
            Span(
                record_name,
                -index,
                None,
                start,
                end,
                {self._attr[record_name]: value}
                if record_name in self._attr
                else {},
            )
            for index, (record_name, start, end, value) in enumerate(
                self._records, start=1
            )
        ]


def self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: total duration minus directly nested spans.

    Valid for spans recorded on one thread, where intervals nest.
    """
    ordered = sorted(spans, key=lambda span: (span.start, -span.end))
    nested = defaultdict(float)
    stack: List[Span] = []
    totals: Dict[str, float] = defaultdict(float)
    for span in ordered:
        while stack and stack[-1].end < span.end:
            stack.pop()
        if stack:
            nested[stack[-1].span_id] += span.duration
        stack.append(span)
    for span in ordered:
        totals[span.name] += span.duration - nested[span.span_id]
    return dict(totals)


def covered_seconds(spans: Iterable[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one span."""
    covered = 0.0
    cursor = start
    for span in sorted(spans, key=lambda span: span.start):
        lo = max(span.start, cursor)
        hi = min(span.end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
