"""Declarative stream sources: where the service's windows come from.

A :class:`StreamSource` produces the per-window indicator rows a
:class:`~repro.service.StreamService` consumes — from memory, from
files (streamed, never materialized as Python lists), from a synthetic
generator, from a timestamped replay, or from a live
``asyncio.Queue``-fed producer.  Sources are resolved from registered
spec strings (:mod:`repro.io.registry`) or passed as objects when
their payload cannot live in JSON.

The common contract:

- :meth:`StreamSource.bind` fixes the service alphabet (column
  layout) and validates the source against it;
- one primitive, ``_block(limit)``, hands over up to ``limit`` rows
  that are ready without waiting, as one ``(k, width)`` block; every
  view derives from it, so a source is a single pass over its data,
  like the stream it models.  :meth:`StreamSource.rows` /
  :meth:`StreamSource.arows` yield one boolean row per window,
  :meth:`StreamSource.indicator_stream` materializes the rest, and
  :meth:`StreamSource.ablocks` yields row blocks, each one awaited
  row plus what is ready without waiting (the served path's view:
  one session future per block);
- :attr:`StreamSource.offset` counts rows emitted so far,
  :meth:`StreamSource.unemit_block` hands back a block's unconsumed
  tail, and :meth:`StreamSource.skip` fast-forwards a fresh source to
  a checkpointed offset without emitting, which is how the
  :class:`~repro.service.gateway.StreamGateway` resumes in-flight
  sources (file sources discard rows; synthetic sources regenerate
  deterministically; live queues cannot seek and refuse);
- :meth:`StreamSource.close` releases a held connection.
"""

from __future__ import annotations

import asyncio
import csv
import json
import os
import time
import weakref

from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.io.registry import register_source
from repro.service.specgrammar import SpecKey
from repro.streams.indicator import (
    EventAlphabet,
    IndicatorStream,
    indicator_matrix,
)

__all__ = [
    "CsvSource",
    "JsonlSource",
    "MemorySource",
    "QueueSource",
    "ReplaySource",
    "StreamSource",
    "SyntheticSource",
    "read_indicator_csv",
]

#: Rows per block when a source materializes into one indicator
#: stream, and per read when a ``csv:`` source skips.
_CHUNK_ROWS = 4096

#: The values an indicator cell may hold.
_BITS = frozenset((0, 1))


# ---------------------------------------------------------------------------
# Streamed CSV plumbing (shared by the csv: source and read_indicator_csv)
# ---------------------------------------------------------------------------


def _read_lines(handle, data: bytes, limit: int, size: int):
    """Up to ``limit`` next raw lines of a binary file, endings kept.

    ``data`` holds bytes already read and not yet consumed; more are
    read ``size`` (or as many as are held) at a time.  Lines split
    where text-mode iteration with ``newline=""`` splits them
    (``\r\n``, ``\r``, ``\n``); a ``\r`` at the end of a read is not
    a line end until the next byte shows it is no ``\r\n``.  Returns
    the lines and the bytes after them.
    """
    while True:
        lines = data.splitlines(keepends=True)
        if len(lines) > limit or (
            len(lines) == limit and lines[-1].endswith(b"\n")
        ):
            break
        more = handle.read(max(size, len(data)))
        if not more:
            break
        data += more
    lines = lines[:limit]
    return lines, data[sum(map(len, lines)) :]


def _csv_header(path: str) -> EventAlphabet:
    """The alphabet an indicator CSV declares in its header row.

    The header is the file's first line, split as the row cursor splits
    lines; only that line is decoded, so a bad byte in a data line
    fails when its row is read, naming its line.
    """
    with open(path, "rb") as handle:
        lines, _rest = _read_lines(handle, b"", 1, 256)
    if not lines:
        raise ValueError(f"{path} is empty; expected an alphabet header")
    try:
        text = lines[0].decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}:1: not UTF-8 text") from None
    return EventAlphabet(next(csv.reader((text,))))


def _checked_row(path: str, line_number: int, row, width: int) -> np.ndarray:
    """One parsed CSV row validated as a ``(1, width)`` 0/1 block.

    Malformed rows raise ``ValueError`` naming the file and line.
    """
    if len(row) != width:
        raise ValueError(
            f"{path}:{line_number}: expected {width} columns, got {len(row)}"
        )
    try:
        values = list(map(int, row))
    except ValueError:
        raise ValueError(
            f"{path}:{line_number}: non-integer indicator value"
        ) from None
    if not _BITS.issuperset(values):
        raise ValueError(
            f"{path}:{line_number}: indicator values must be 0/1"
        )
    return np.array(values, dtype=bool, ndmin=2)


def read_indicator_csv(path: str) -> IndicatorStream:
    """Read an indicator CSV into a stream (header = alphabet), parsed
    in row blocks rather than built from Python lists."""
    return CsvSource(path).bind(_csv_header(path)).indicator_stream()


# ---------------------------------------------------------------------------
# The source contract
# ---------------------------------------------------------------------------


class StreamSource:
    """Base class of all stream sources (one pass of indicator rows).

    Every view derives from one primitive, :meth:`_block`: up to
    ``limit`` next rows that are ready without waiting.  Its default
    gathers them from :meth:`_rows`, a generator of boolean rows over
    the bound alphabet starting from the first window, which simple
    sources implement instead.  The base class provides offset
    tracking, checkpoint fast-forward (:meth:`skip`), hand-back
    (:meth:`unemit_block`), paced emission (:attr:`delay` seconds
    between rows, used by the replay source) and the views:
    :meth:`rows` and :meth:`indicator_stream` (synchronous),
    :meth:`arows` and :meth:`ablocks` (asynchronous).  Live feeds
    override :meth:`arows`, the one step that may wait.
    """

    #: Seconds to wait before each emitted row (0 = emit immediately).
    delay: float = 0.0

    #: Whether a fresh instance can :meth:`skip` to a checkpointed
    #: offset (replayable data: files, memory, generators).  Live
    #: feeds (``queue:``, ``broker:``) cannot — resume binds a fresh
    #: feed carrying the remainder instead.
    seekable: bool = True

    #: Whether this source can actually deliver rows right now.  Only
    #: live-feed sources ever report False — a ``queue:`` spec with no
    #: queue object bound yet, a ``broker:`` spec with no url.  The
    #: gateway checks this *before* serving, so a fleet resumed
    #: without re-binding its live feeds fails pointedly instead of
    #: deep inside the pump's first emit.
    live_feed_bound: bool = True

    def __init__(self):
        self._alphabet: Optional[EventAlphabet] = None
        self._offset = 0
        self._pending_skip = 0
        self._started = False
        #: The default :meth:`_block`'s row generator, once opened.
        self._iterator: Optional[Iterator[np.ndarray]] = None
        #: Rows drawn but handed back unconsumed (see
        #: :meth:`unemit_block`), served again before :meth:`_block`.
        self._tail: Optional[np.ndarray] = None
        #: Absolute monotonic deadline of the next paced emission
        #: (``None`` until pacing starts).  Deadlines advance by
        #: ``delay`` per row independent of how long the sleep or the
        #: consumer actually took, so per-row jitter cannot accumulate
        #: into rate drift over a long replay.
        self._next_emit: Optional[float] = None

    # -- lifecycle -----------------------------------------------------

    def bind(self, alphabet: EventAlphabet) -> "StreamSource":
        """Fix the service alphabet; validate the source against it.

        Validation runs once: binding a bound source to the alphabet
        it holds returns at once (every slice of a served stream binds
        the same source again), and to another alphabet raises.
        """
        if not isinstance(alphabet, EventAlphabet):
            raise TypeError(
                f"alphabet must be EventAlphabet, got "
                f"{type(alphabet).__name__}"
            )
        if self._alphabet is not None:
            if self._alphabet != alphabet:
                raise ValueError(
                    "source is already bound to a different alphabet"
                )
            return self
        # A source that fails validation stays unbound.
        self._bind(alphabet)
        self._alphabet = alphabet
        return self

    def _bind(self, alphabet: EventAlphabet) -> None:
        """Subclass hook: validate against the alphabet, on first bind."""

    @property
    def alphabet(self) -> EventAlphabet:
        if self._alphabet is None:
            raise RuntimeError(
                "source is not bound; call bind(alphabet) first (the "
                "service does this when compiling its spec)"
            )
        return self._alphabet

    def close(self) -> None:
        """Release any connection the source holds (idempotent).

        The default is a no-op: file sources close their file at the
        end of the pass (or when collected); live feeds that hold a
        connection (``broker:``) close it here.
        """

    # -- offsets and checkpointing -------------------------------------

    @property
    def offset(self) -> int:
        """Windows emitted so far (including any skipped prefix)."""
        return self._offset

    def skip(self, count: int) -> "StreamSource":
        """Fast-forward over the first ``count`` windows without emitting.

        Used to resume a checkpointed pipeline: a fresh source over the
        same data, skipped to the checkpoint's offset, continues with
        exactly the windows an uninterrupted run would have seen next.
        Must be called before iteration starts.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self._started:
            raise RuntimeError(
                "cannot skip after iteration has started; skip a fresh "
                "source"
            )
        self._pending_skip += count
        self._offset += count
        return self

    def unemit_block(self, block: np.ndarray) -> None:
        """Return the rows of a drawn block (or its tail) to the front
        of the stream, in order.

        Used by the pump: a slice hands back the part of a block past
        its end, and a cancelled submit the block it never had
        accepted.  Both continuation styles see the rows again — a
        later pump on the *same* source re-emits them, and a
        checkpoint's offset (rolled back with them) makes a *fresh*
        source re-read them.
        """
        if not len(block):
            return
        self._offset -= len(block)
        if self._tail is not None:
            block = np.concatenate([block, self._tail])
        self._tail = block

    def checkpoint_mark(self) -> None:
        """Hook: a checkpoint is being taken at the current offset.

        Called by :meth:`~repro.service.StreamService.checkpoint`
        right before it records this source's offset.  Sources with
        at-least-once delivery semantics commit here — the ``broker:``
        source acks every entry emitted so far, so acks land exactly
        at checkpoint boundaries.  A raise aborts the checkpoint.
        The default is a no-op (replayable sources need no commit).
        """

    # -- the primitive -------------------------------------------------

    def _block(self, limit: int) -> Optional[np.ndarray]:
        """Up to ``limit`` next rows that are ready without waiting, as
        one ``(k, width)`` boolean block, or ``None`` (for replayable
        data: the end of the stream).

        The default gathers them from :meth:`_rows`, past the skipped
        prefix; sources with faster access (files, matrices, live
        feeds) override it.
        """
        if self._iterator is None:
            self._iterator = self._rows()
            deque(islice(self._iterator, self._pending_skip), maxlen=0)
        rows = list(islice(self._iterator, limit))
        return np.stack(rows) if rows else None

    def _take(self, limit: int) -> Optional[np.ndarray]:
        """:meth:`_block`, after any handed-back tail; counts the rows
        into :attr:`offset`."""
        tail = self._tail
        if tail is None:
            block = self._block(limit)
            if block is None:
                return None
        else:
            block = tail[:limit]
            self._tail = tail[limit:] if limit < len(tail) else None
        self._offset += len(block)
        return block

    def _rows(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def _pace_wait(self) -> float:
        """Seconds until the next emission deadline (<= 0: emit now).

        Deadlines are absolute on the monotonic clock: the first paced
        row is due ``delay`` from now, every later row exactly ``delay``
        after the previous *deadline* — not after the previous sleep
        returned.  Relative per-row sleeps under-shoot by the scheduler
        jitter and the consumer's processing time every single row,
        which at high replay rates accumulates into unbounded drift;
        sleeping toward a fixed deadline grid instead absorbs jitter up
        to a full period and holds the configured rate.  A consumer
        slower than the rate drives the wait negative — the source then
        emits immediately (no sleep) until it catches back up.
        """
        delay = self.delay
        if not delay:
            return 0.0
        now = time.monotonic()
        deadline = self._next_emit
        if deadline is None:
            deadline = now + delay
        self._next_emit = deadline + delay
        return deadline - now

    # -- views ---------------------------------------------------------

    def _blocks(self, limit: int) -> Iterator[np.ndarray]:
        """The synchronous view: blocks of up to ``limit`` rows, one
        row per block when paced."""
        self.alphabet  # bound check
        self._started = True
        while True:
            if self.delay:
                # Pace *before* drawing: an interruption while waiting
                # then loses nothing (a row drawn but never delivered
                # would be silently dropped from the single pass).
                wait = self._pace_wait()
                if wait > 0:
                    time.sleep(wait)
                block = self._take(1)
            else:
                block = self._take(limit)
            if block is None:
                return
            yield block

    def rows(self) -> Iterator[np.ndarray]:
        """One boolean indicator row per window (single pass)."""
        return map(itemgetter(0), self._blocks(1))

    def indicator_stream(self) -> IndicatorStream:
        """Materialize the remaining windows as one indicator stream
        (the batch service phase needs the whole matrix at once),
        gathered in row blocks, never in Python lists."""
        width = len(self.alphabet)
        blocks = [np.zeros((0, width), dtype=bool)]
        blocks.extend(self._blocks(_CHUNK_ROWS))
        return IndicatorStream(self.alphabet, np.concatenate(blocks))

    async def arows(self):
        """Async view of :meth:`rows` (``delay`` awaits the loop)."""
        self.alphabet  # bound check
        self._started = True
        while True:
            if self.delay:
                wait = self._pace_wait()
                if wait > 0:
                    await asyncio.sleep(wait)
            block = self._take(1)
            if block is None:
                return
            yield block[0]

    async def ablocks(self, max_rows: int):
        """Async view in row blocks: ``(k, width)`` boolean matrices
        with ``1 <= k <= max_rows``, in stream order.

        A block is one :meth:`arows` step — which paces and waits like
        every row does — plus whatever further rows are ready without
        waiting (none when paced), so blocks never hold a row back.
        :attr:`offset` counts every row of a block, and
        :meth:`unemit_block` returns a tail the consumer did not
        accept, so offsets and checkpoints stay row-exact.
        """
        if max_rows < 1:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        extra = 0 if self.delay else max_rows - 1
        rows = self.arows()
        try:
            async for row in rows:
                more = self._take(extra) if extra else None
                if more is None:
                    yield row[None]
                else:
                    yield np.concatenate([row[None], more])
        finally:
            # A live feed may hold a fetch in flight: settle it now.
            await rows.aclose()

    # -- helpers -------------------------------------------------------

    def _row_from_types(self, types: Iterable[str]) -> np.ndarray:
        """An indicator row from a window's event-type collection.

        Types outside the alphabet are ignored, matching the engine's
        service-phase extraction.
        """
        return indicator_matrix(self.alphabet, (types,))[0]

    def _coerce_row(self, item) -> np.ndarray:
        """One submitted item (type collection or 0/1 vector) as a row."""
        if isinstance(item, np.ndarray):
            row = np.asarray(item).reshape(-1).astype(bool)
            if row.shape[0] != len(self.alphabet):
                raise ValueError(
                    f"row has {row.shape[0]} entries but the alphabet "
                    f"has {len(self.alphabet)} types"
                )
            return row
        if isinstance(item, str):
            return self._row_from_types((item,))
        return self._row_from_types(item)


class _ThrottledSource(StreamSource):
    """A rate-limiting proxy over a bound source (gateway-internal).

    The :class:`~repro.service.gateway.StreamGateway` wraps a
    rate-limited tenant's compiled source in one of these.  Rows are
    drawn from the wrapped source and forwarded only when the token
    bucket admits them; the rest are *shed* — still consumed (they
    advance the wrapped source's offset, so a checkpoint/resume never
    replays a shed window: its verdict is lost by design, not
    deferred) and reported through ``on_shed(index, row)`` so the loss
    surfaces in the tenant's metrics instead of vanishing.  Never
    resolved from a spec string; constructed by the gateway.
    """

    def __init__(self, inner: StreamSource, bucket, *, on_shed=None):
        super().__init__()
        self._inner = inner
        self._bucket = bucket
        self._on_shed = on_shed
        self._alphabet = inner._alphabet

    @property
    def inner(self) -> StreamSource:
        """The wrapped (unthrottled) source."""
        return self._inner

    @property
    def seekable(self) -> bool:
        return self._inner.seekable

    @property
    def delay(self) -> float:
        return self._inner.delay

    @property
    def live_feed_bound(self) -> bool:
        return self._inner.live_feed_bound

    @property
    def offset(self) -> int:
        # The wrapped source's offset counts *every* consumed window,
        # shed ones included — exactly what a checkpoint must record.
        return self._inner.offset

    def checkpoint_mark(self) -> None:
        self._inner.checkpoint_mark()

    def close(self) -> None:
        self._inner.close()

    def bind(self, alphabet: EventAlphabet) -> "StreamSource":
        self._inner.bind(alphabet)
        self._alphabet = self._inner._alphabet
        return self

    def skip(self, count: int) -> "StreamSource":
        self._inner.skip(count)
        return self

    def unemit_block(self, block: np.ndarray) -> None:
        self._inner.unemit_block(block)

    def _admit(self, row: np.ndarray) -> bool:
        if self._bucket.try_acquire():
            return True
        if self._on_shed is not None:
            self._on_shed(self._inner.offset - 1, row)
        return False

    def _take(self, limit: int) -> None:
        # One row per block: the bucket admits or sheds row by row, and
        # rows drawn ahead from the inner source would advance its
        # offset past rows this proxy has not forwarded yet.
        return None

    def _blocks(self, limit: int) -> Iterator[np.ndarray]:
        for block in self._inner._blocks(1):
            if self._admit(block[0]):
                yield block

    async def arows(self):
        async for row in self._inner.arows():
            if self._admit(row):
                yield row


# ---------------------------------------------------------------------------
# Built-in sources
# ---------------------------------------------------------------------------


@register_source("memory", keys=())
class MemorySource(StreamSource):
    """In-memory windows: an indicator stream, a 0/1 matrix, or
    per-window event-type collections.

    ``source="memory"`` in a spec declares that data arrives at run
    time (``service.run(data)``); resolving the bare spec without data
    fails pointedly on use.
    """

    def __init__(self, data=None):
        super().__init__()
        self._data = data
        #: The backing matrix (``None`` for type-collection data, or
        #: until the first block) and the index of its next row.
        self._matrix: Optional[np.ndarray] = None
        self._position = 0

    def _bind(self, alphabet: EventAlphabet) -> None:
        if isinstance(self._data, IndicatorStream):
            if self._data.alphabet != alphabet:
                raise ValueError(
                    "in-memory stream alphabet differs from the "
                    "service alphabet"
                )

    def _block(self, limit: int) -> Optional[np.ndarray]:
        """A matrix hands over its next rows as one sliced copy, so a
        block never aliases (or is changed through) the caller's
        data; type collections go through :meth:`_rows`."""
        if self._matrix is None:
            data = self._data
            if isinstance(data, IndicatorStream):
                self._matrix = data.matrix_view()
            elif isinstance(data, np.ndarray):
                if data.ndim != 2 or data.shape[1] != len(self.alphabet):
                    raise ValueError(
                        f"matrix shape {data.shape} does not match the "
                        f"{len(self.alphabet)}-type alphabet"
                    )
                self._matrix = data
            else:
                return super()._block(limit)
            self._position = self._pending_skip
        start = self._position
        self._position = min(start + limit, self._matrix.shape[0])
        if self._position <= start:
            return None
        return self._matrix[start : self._position].astype(bool)

    def _rows(self) -> Iterator[np.ndarray]:
        data = self._data
        if data is None:
            raise ValueError(
                "the 'memory' source has no data bound; pass the "
                "stream to run()/pump() or construct "
                "MemorySource(data)"
            )
        for window in data:
            yield self._row_from_types(window)


@register_source("csv", raw_tail=True, keys=(SpecKey("path", raw=True),))
class CsvSource(StreamSource):
    """Windows streamed from an indicator CSV (``csv:<path>``).

    The file's header must equal the service alphabet; rows are read
    lazily, so the file is never materialized whole.  The whole spec
    tail is the path — colons inside it are preserved.
    """

    def __init__(self, path: str):
        super().__init__()
        if not isinstance(path, str) or not path:
            raise ValueError("csv source needs a path: 'csv:<path>'")
        self.path = path
        #: The open pass behind every view.
        self._cursor: Optional[_CsvCursor] = None

    def _bind(self, alphabet: EventAlphabet) -> None:
        header = _csv_header(self.path)
        if header != alphabet:
            raise ValueError(
                f"{self.path} has alphabet {list(header.types)} but the "
                f"service alphabet is {list(alphabet.types)}"
            )

    def _block(self, limit: int) -> Optional[np.ndarray]:
        if self._cursor is None:
            self._cursor = _CsvCursor(
                self.path, len(self.alphabet), self._pending_skip
            )
        return self._cursor.block(limit)


class _CsvCursor:
    """One open pass over an indicator CSV, past its header, read as
    bytes.

    A file of strict records (``0,1,...,0`` plus one ``\\n`` or
    ``\\r\\n`` ending, all of one length: what
    :class:`~repro.io.sinks.CsvSink` writes) is read ``k`` rows at a
    time as one ``k``-record slab, checked and decoded in one
    vectorized pass (a single record in plain Python).  The record
    length is learned from the first data line.  Bytes that fail the
    check are split into the lines text-mode iteration with
    ``newline=""`` yields (``\\r\\n``, ``\\r``, ``\\n``) and parsed one
    by one, so a malformed line raises naming its exact line.  The
    file closes at the end of the pass, on a malformed line, or when
    the cursor is collected mid-file.
    """

    def __init__(self, path: str, width: int, skip: int = 0):
        self.path = path
        self.width = width
        self.handle = open(path, "rb")
        weakref.finalize(self, self.handle.close)
        #: Bytes read from the file but not yet consumed.
        self.pending = b""
        self._lines(1)  # the header, checked by bind()
        self.content = content = 2 * width - 1
        self.pending += self.handle.read(content + 2)
        ending = self.pending[content : content + 2]
        if ending[:1] == b"\n":
            ending = b"\n"
        elif ending != b"\r\n":
            ending = b""
        #: Length of a strict record (0: the first data line is not
        #: one, so every read takes the line path).
        self.record = content + len(ending) if ending else 0
        #: A record of zeros, and how far each byte may exceed it (1
        #: at a digit); as arrays, repeated to the longest slab read.
        self.zero_record = b"0," * (width - 1) + b"0" + ending
        self.slack_record = b"\1\0" * (width - 1) + b"\1" + bytes(len(ending))
        self.zeros = self.slack = np.zeros(0, dtype=np.uint8)
        # A checkpointed prefix is skipped by raw lines (one row per
        # line, as block() counts them), counted a slab of strict
        # records at a time where the check passes and never parsed:
        # resuming deep into a file costs no more than reading it.
        left = skip
        while left:
            skipped = self._skip(min(left, _CHUNK_ROWS))
            if not skipped:
                break
            left -= skipped
        #: Line number of the last line read (the header is line 1).
        self.line = 1 + skip

    def block(self, limit: int) -> Optional[np.ndarray]:
        if self.handle.closed:
            return None
        try:
            block = self._read(limit)
        except ValueError:
            self.close()  # a malformed line ends the pass
            raise
        if block is None:
            self.close()  # the end of the file
        return block

    def close(self) -> None:
        self.handle.close()
        self.pending = b""

    def _read(self, limit: int) -> Optional[np.ndarray]:
        if self.record:
            data = self._bytes(limit * self.record)
            block = self._records(data)
            if block is not None:
                self.line += len(block)
                return block
            self.pending = data + self.pending
        lines = self._lines(limit)
        if not lines:
            return None
        first = self.line + 1
        self.line += len(lines)
        return np.concatenate(
            [self._parse(first + k, line) for k, line in enumerate(lines)]
        )

    def _skip(self, count: int) -> int:
        """Discard up to ``count`` raw lines unparsed; how many there
        were."""
        if self.record:
            data = self._bytes(count * self.record)
            if self._records(data) is not None:
                return len(data) // self.record
            self.pending = data + self.pending
        return len(self._lines(count))

    def _bytes(self, size: int) -> bytes:
        """The next ``size`` bytes (fewer at the end of the file)."""
        pending = self.pending
        if len(pending) >= size:
            self.pending = pending[size:]
            return pending[:size]
        self.pending = b""
        return pending + self.handle.read(size - len(pending))

    def _records(self, data: bytes) -> Optional[np.ndarray]:
        """``data`` decoded as whole strict records into a ``(k, width)``
        block; ``None`` when it is empty or any record deviates."""
        length, content = self.record, self.content
        if not data or len(data) % length:
            return None
        if len(data) == length:
            # Strict iff every byte but a digit's 1 is the zero record's.
            if data.replace(b"1", b"0") != self.zero_record:
                return None
            digits = np.frombuffer(data[:content:2], dtype=np.uint8)
            return (digits == ord("1"))[None]
        size = len(data)
        if size > len(self.zeros):
            count = size // length
            self.zeros = np.frombuffer(self.zero_record * count, np.uint8)
            self.slack = np.frombuffer(self.slack_record * count, np.uint8)
        excess = np.frombuffer(data, dtype=np.uint8) - self.zeros[:size]
        if (excess > self.slack[:size]).any():
            return None
        digits = excess.reshape(-1, length)[:, :content:2]
        return digits.copy().view(bool)

    def _lines(self, limit: int) -> list:
        """Up to ``limit`` next raw lines (:func:`_read_lines`); the
        bytes after them stay pending."""
        lines, self.pending = _read_lines(
            self.handle, self.pending, limit, limit * (2 * self.width + 1)
        )
        return lines

    def _parse(self, number: int, line: bytes) -> np.ndarray:
        """One raw line validated as a ``(1, width)`` block."""
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(
                f"{self.path}:{number}: not UTF-8 text"
            ) from None
        row = next(csv.reader((text,)))
        block = _checked_row(self.path, number, row, self.width)
        if row[-1].endswith(("\r", "\n")):
            # A quote left open runs past the line end: a row is one
            # line, and a value holding a line end is no integer.
            raise ValueError(
                f"{self.path}:{number}: non-integer indicator value"
            )
        return block


@register_source(
    "jsonl", raw_tail=True, keys=(SpecKey("path", raw=True),)
)
class JsonlSource(StreamSource):
    """Windows streamed from a JSON-lines file (``jsonl:<path>``).

    Each line is one window: either a JSON array of event-type names
    or an object with a ``"types"`` array (the form
    :class:`~repro.io.sinks.JsonlSink` writes, so a sink's output can
    be replayed as a source).  Types outside the service alphabet are
    ignored, matching the engine's extraction.
    """

    def __init__(self, path: str):
        super().__init__()
        if not isinstance(path, str) or not path:
            raise ValueError("jsonl source needs a path: 'jsonl:<path>'")
        self.path = path

    def _bind(self, alphabet: EventAlphabet) -> None:
        if not os.path.exists(self.path):
            raise FileNotFoundError(f"no such jsonl source: {self.path}")

    def _rows(self) -> Iterator[np.ndarray]:
        with open(self.path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    raise ValueError(
                        f"{self.path}:{line_number}: invalid JSON"
                    ) from None
                if isinstance(record, dict):
                    try:
                        types = record["types"]
                    except KeyError:
                        raise ValueError(
                            f"{self.path}:{line_number}: window object "
                            "lacks a 'types' array"
                        ) from None
                elif isinstance(record, list):
                    types = record
                else:
                    raise ValueError(
                        f"{self.path}:{line_number}: expected a JSON "
                        "array of event types or a window object"
                    )
                yield self._row_from_types(types)


#: Synthetic generator kinds accepted by ``synthetic:<generator>:...``.
_SYNTHETIC_GENERATORS = ("bernoulli", "uniform")


@register_source(
    "synthetic",
    keys=(
        SpecKey("generator"),
        SpecKey("windows", dest="n_windows"),
        SpecKey("seed"),
        SpecKey("p"),
    ),
)
class SyntheticSource(StreamSource):
    """Deterministic generated windows
    (``synthetic:<generator>:<n>:<seed>``).

    Generators:

    - ``bernoulli`` — Algorithm 2's window sampler: per-type occurrence
      probabilities drawn uniformly from the seed, then each window
      includes a type with its occurrence probability;
    - ``uniform`` — every type occurs with the same probability
      (``p=`` option, default 0.5).

    The same spec string regenerates the same windows, so a resumed
    pipeline can skip to its checkpointed offset and continue exactly.
    """

    def __init__(
        self,
        generator: str = "bernoulli",
        n_windows: int = 1000,
        seed: int = 0,
        *,
        p: float = 0.5,
    ):
        super().__init__()
        if generator not in _SYNTHETIC_GENERATORS:
            raise ValueError(
                f"unknown synthetic generator {generator!r}; known: "
                f"{', '.join(_SYNTHETIC_GENERATORS)}"
            )
        if not isinstance(n_windows, int) or n_windows < 0:
            raise ValueError(
                f"n_windows must be a non-negative int, got {n_windows!r}"
            )
        if not isinstance(seed, int):
            raise ValueError(f"seed must be an int, got {seed!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.generator = generator
        self.n_windows = n_windows
        self.seed = seed
        self.p = p

    def _rows(self) -> Iterator[np.ndarray]:
        width = len(self.alphabet)
        rng = np.random.default_rng(self.seed)
        if self.generator == "bernoulli":
            occurrence = rng.random(width)
        else:
            occurrence = np.full(width, self.p)
        for _ in range(self.n_windows):
            yield rng.random(width) < occurrence


class ReplaySource(StreamSource):
    """Timestamped re-emission of a recorded file
    (``replay:<path>:<rate>``).

    Replays a ``csv``/``jsonl`` file (chosen by extension) at ``rate``
    windows per second — a soak-test source that exercises the
    backpressure path with realistic pacing.  ``rate`` 0 replays as
    fast as the consumer drains.  Skipping to a checkpointed offset
    discards rows without waiting.
    """

    def __init__(self, path: str, rate: float = 0.0):
        super().__init__()
        if not isinstance(path, str) or not path:
            raise ValueError(
                "replay source needs a path: 'replay:<path>:<rate>'"
            )
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if path.endswith(".jsonl"):
            self._inner: StreamSource = JsonlSource(path)
        else:
            self._inner = CsvSource(path)
        self.path = path
        self.rate = float(rate)
        self.delay = 1.0 / rate if rate > 0 else 0.0

    def _bind(self, alphabet: EventAlphabet) -> None:
        self._inner.bind(alphabet)

    def skip(self, count: int) -> "StreamSource":
        super().skip(count)
        self._inner.skip(count)
        return self

    def _block(self, limit: int) -> Optional[np.ndarray]:
        return self._inner._block(limit)


@register_source(
    "replay",
    raw_tail=True,
    keys=(
        SpecKey("path", dest="tail", raw=True),
        SpecKey("rate", convert=float),
    ),
)
def _build_replay(tail: str = "", **options) -> ReplaySource:
    """Split ``<path>[:<rate>]`` from the tail's end, keeping any
    colons inside the path itself."""
    path, sep, rate_text = tail.rpartition(":")
    if sep:
        try:
            rate = float(rate_text)
        except ValueError:
            pass  # not a rate — the colon belongs to the path
        else:
            return ReplaySource(path, rate, **options)
    return ReplaySource(tail, **options)


@register_source("queue", keys=())
class QueueSource(StreamSource):
    """A live broker-shaped feed: any ``asyncio.Queue``-like producer.

    Producers put windows (event-type collections or 0/1 rows) on the
    queue; ``None`` signals end-of-stream.  The source is asynchronous
    only — it is consumed through
    :meth:`~repro.service.StreamService.pump`, where the bounded
    :class:`~repro.cep.async_session.AsyncSession` queue is the
    flow-control boundary: when the mechanism falls behind, ``submit``
    suspends the pump, the pump stops taking from this queue, and the
    producer blocks on its own bounded ``put`` — backpressure
    propagates end to end.

    ``source="queue"`` in a spec declares the intent; the live queue
    object rides in at run time (``QueueSource(queue)``).
    """

    seekable = False

    def __init__(self, queue=None):
        super().__init__()
        if queue is not None and not hasattr(queue, "get"):
            raise TypeError(
                "queue must expose asyncio.Queue-like get(), got "
                f"{type(queue).__name__}"
            )
        self._queue = queue
        #: An item taken off the queue while filling a block but not
        #: emitted with it (the end-of-stream ``None``, or an item that
        #: failed to convert): the next draw takes it first.
        self._held: list = []

    @property
    def live_feed_bound(self) -> bool:
        return self._queue is not None

    def skip(self, count: int) -> "StreamSource":
        """A live feed cannot seek; resume binds a fresh queue instead."""
        if count:
            raise RuntimeError(
                "a live 'queue' source cannot skip past data it has "
                "not received; resume it by binding a fresh queue"
            )
        return self

    def _blocks(self, limit: int) -> Iterator[np.ndarray]:
        raise TypeError(
            "the 'queue' source is asynchronous; drive it with "
            "StreamService.pump() / StreamGateway.serve() instead of a "
            "synchronous run"
        )

    async def arows(self):
        self.alphabet  # bound check
        queue = self._queue
        if queue is None:
            raise ValueError(
                "the 'queue' source has no live queue bound; construct "
                "QueueSource(queue) and pass it at run time"
            )
        while True:
            block = self._take(1)
            if block is not None:
                yield block[0]
                continue
            item = self._held.pop() if self._held else await queue.get()
            if item is None:
                return
            row = self._coerce_row(item)
            self._offset += 1
            yield row

    def _try_coerce(self, item) -> Optional[np.ndarray]:
        try:
            return self._coerce_row(item)
        except Exception:
            return None

    def _block(self, limit: int) -> Optional[np.ndarray]:
        """Only what ``get_nowait`` returns right now: a block never
        waits to fill, so a trickling feed is served window by window
        with no added latency."""
        get_nowait = getattr(self._queue, "get_nowait", None)
        if self._held or get_nowait is None:
            return None
        rows = []
        while len(rows) < limit:
            try:
                item = get_nowait()
            except asyncio.QueueEmpty:
                break
            row = None if item is None else self._try_coerce(item)
            if row is None:
                # Emit the rows before it first; the next draw takes
                # this item again and ends or raises there.
                self._held.append(item)
                break
            rows.append(row)
        return np.stack(rows) if rows else None


# The broker connectors register themselves on import, exactly like
# the built-ins above; importing here keeps `_ensure_builtins()` the
# single trigger.  Bottom of module: the connectors subclass
# StreamSource, so the class must already exist.
from repro.broker import connectors as _broker_connectors  # noqa: E402,F401
