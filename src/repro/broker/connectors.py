"""Broker-backed source/sink connectors: at-least-once ingestion.

:class:`BrokerSource` feeds a :class:`~repro.service.StreamService`
from a Redis-Streams consumer group
(``broker:url=redis://host:port,stream=...,group=...,consumer=...``);
:class:`BrokerSink` publishes released windows back to a stream.  The
source rides the live-feed half of the source contract (like
``queue:`` it cannot seek), but unlike a queue its feed is *named* —
the spec string carries the broker address, so a resumed fleet
rebuilds the connection from the checkpoint alone.

The delivery contract is **at-least-once with acks at checkpoint
boundaries**:

- every delivered entry id is held un-acked while its window flows
  through the pipeline;
- :meth:`BrokerSource.checkpoint_mark` — called by
  :meth:`StreamService.checkpoint` — acks everything emitted so far
  in one ``XACK``, so an entry is acked exactly when a checkpoint
  capturing its window exists.  An ack failure aborts the checkpoint;
- on resume (or after a crash), a fresh source with the same consumer
  name first *drains* its pending-entry list (``XREADGROUP`` with an
  explicit id) — exactly the entries delivered after the last
  successful checkpoint — before reading new entries with ``>``.
  Re-processing those windows reproduces the uninterrupted run bit
  for bit, because the session state in the checkpoint is from the
  same boundary the acks are.

The same drain path closes the reconnect hazard: if the connection
dies during a ``>`` read, the server may have delivered entries into
the PEL that never reached us (and the retried read would silently
skip past them).  The source watches the client's ``reconnects``
counter around every fetch; when it moves, the fetched batch is
discarded and the source re-enters drain mode from the last entry it
actually emitted — order preserved, nothing lost, duplicates
impossible (drained ids are already tracked).

High-rate feeds batch windows at the transport level: a *chunked*
entry carries ``rows_per_entry`` consecutive windows plus the absolute
index of its first one (``base``), amortizing per-entry wire framing.
The ack ledger tracks per-row progress — a chunk is acked only once
its *last* row is covered by a checkpoint, and a redelivered chunk
skips the rows a committed checkpoint already captured (``base`` vs
the resumed offset), so kill/resume stays row-exact even mid-chunk.
A served row block runs on across every chunked entry already
fetched, and the drain cursor passes an entry only once all its rows
are out, so a block that ends (or is cut) mid-chunk re-delivers that
chunk from the cursor.

Entries that cannot be decoded into a window are *poison*: they are
copied to ``<stream>:dead`` with a reason and acked immediately
(:meth:`BrokerClient.dead_letter`), so one malformed producer cannot
wedge the group.  Chunked entries are the exception: dropping one
would silently shift every later window's index against its ``base``,
so an undecodable chunk raises instead of dead-lettering — exactness
beats liveness there.

Everything is instrumented through :mod:`repro.obs`
(``repro_broker_*`` counters, a fetch-latency histogram, consumer-lag
and unacked gauges); instrumentation never touches any RNG, so the
released stream stays bit-identical to a memory-fed run.
"""

from __future__ import annotations

import asyncio
import json
import time

from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.broker.client import BrokerClient, RetryPolicy
from repro.broker.resp import BrokerError
from repro.io.registry import register_sink, register_source
from repro.io.sinks import StreamSink
from repro.io.sources import StreamSource
from repro.obs.metrics import default_registry
from repro.service.specgrammar import SpecKey
from repro.streams.indicator import (
    EventAlphabet,
    IndicatorStream,
    indicator_matrix,
)

__all__ = [
    "BrokerSink",
    "BrokerSource",
    "publish_indicator_stream",
]

#: Field marking the end-of-stream control entry a finite publisher
#: appends.  The source consumes it and ends — but deliberately
#: *never* acks it, so it stays in the pending list forever and every
#: resumed consumer (whose group cursor is already past it) re-drains
#: it and re-observes end-of-stream instead of blocking for entries
#: that will never come.
EOS_FIELD = "eos"


def _encode_row(row: np.ndarray) -> str:
    return "".join("1" if value else "0" for value in row)


def _decode_fields(
    fields: Dict[str, str], alphabet: EventAlphabet
) -> np.ndarray:
    """One entry's fields → a boolean indicator row (raises = poison)."""
    if "row" in fields:
        bits = fields["row"]
        if len(bits) != len(alphabet) or set(bits) - {"0", "1"}:
            raise ValueError(
                f"'row' must be {len(alphabet)} characters of 0/1"
            )
        return np.frombuffer(
            bits.encode("ascii"), dtype=np.uint8
        ) == ord("1")
    if "types" in fields:
        types = json.loads(fields["types"])
        if not isinstance(types, list):
            raise ValueError("'types' must be a JSON array")
        return indicator_matrix(alphabet, (types,))[0]
    raise ValueError("entry has neither 'row' nor 'types'")


class _RowCache:
    """Memoized row decoding for the source's hot loop.

    Indicator rows over a small alphabet repeat constantly, so decoded
    arrays are cached by their ``row`` bit string and shared between
    entries — marked read-only, which also guards the pipeline's
    no-mutation contract.  Entries without a plain ``row`` field (or
    past the size cap) fall through to a fresh decode.
    """

    _CAP = 4096

    def __init__(self) -> None:
        self._rows: Dict[str, np.ndarray] = {}

    def decode(
        self, fields: Dict[str, str], alphabet: EventAlphabet
    ) -> np.ndarray:
        bits = fields.get("row")
        if bits is None:
            return _decode_fields(fields, alphabet)
        row = self._rows.get(bits)
        if row is None:
            row = _decode_fields(fields, alphabet)
            row.setflags(write=False)
            if len(self._rows) < self._CAP:
                self._rows[bits] = row
        return row


def _decode_chunk(
    fields: Dict[str, str], alphabet: EventAlphabet
) -> Tuple[int, np.ndarray]:
    """A chunked entry's fields → (base window index, read-only rows).

    One vectorized decode for the whole chunk — per-window transport
    cost is what record batching exists to amortize.
    """
    bits = fields["rows"]
    width = len(alphabet)
    if not bits or len(bits) % width or set(bits) - {"0", "1"}:
        raise ValueError(
            f"'rows' must be a multiple of {width} characters of 0/1"
        )
    base_text = fields.get("base")
    if base_text is None:
        raise ValueError("chunked entry is missing its 'base' index")
    base = int(base_text)
    if base < 0:
        raise ValueError(f"chunked entry base must be >= 0, got {base}")
    block = (
        np.frombuffer(bits.encode("ascii"), dtype=np.uint8).reshape(
            -1, width
        )
        == ord("1")
    )
    block.setflags(write=False)
    return base, block


def publish_indicator_stream(
    url: str,
    stream: str,
    data: IndicatorStream,
    *,
    eos: bool = True,
    chunk: int = 256,
    rows_per_entry: int = 1,
) -> int:
    """Publish every window of ``data`` to a broker stream, pipelined.

    Appends an end-of-stream control entry when ``eos`` (finite
    feeds: benchmarks, examples, tests).  Returns the number of
    windows published.

    ``rows_per_entry > 1`` batches that many consecutive windows into
    one *chunked* entry (``rows`` = concatenated bit strings, ``base``
    = absolute index of the first window) — the record-batching that
    amortizes per-entry wire framing for high-rate feeds.  The source
    replays a partially-consumed chunk row-exactly (see
    :class:`BrokerSource`).
    """
    from repro.broker.resp import RespConnection, RespError, parse_url

    if rows_per_entry < 1:
        raise ValueError(
            f"rows_per_entry must be >= 1, got {rows_per_entry}"
        )
    host, port = parse_url(url)
    matrix = data.matrix_view()
    with RespConnection(host, port) as connection:
        for start in range(0, matrix.shape[0], chunk):
            stop = min(start + chunk, matrix.shape[0])
            if rows_per_entry == 1:
                commands = [
                    ("XADD", stream, "*", "row", _encode_row(matrix[index]))
                    for index in range(start, stop)
                ]
            else:
                commands = [
                    (
                        "XADD", stream, "*",
                        "rows",
                        "".join(
                            _encode_row(matrix[index])
                            for index in range(
                                base, min(base + rows_per_entry, stop)
                            )
                        ),
                        "base", base,
                    )
                    for base in range(start, stop, rows_per_entry)
                ]
            for reply in connection.execute_pipeline(commands):
                if isinstance(reply, RespError):
                    raise reply
        if eos:
            connection.execute("XADD", stream, "*", EOS_FIELD, "1")
    return int(matrix.shape[0])


@register_source(
    "broker",
    keys=(
        SpecKey("url"),
        SpecKey("stream"),
        SpecKey("group"),
        SpecKey("consumer"),
        SpecKey("block_ms", convert=int),
        SpecKey("batch", convert=int),
    ),
)
class BrokerSource(StreamSource):
    """Windows consumed from a Redis-Streams consumer group.

    Spec form::

        broker:url=redis://host:port,stream=windows,group=repro,
               consumer=c0,block_ms=100,batch=64

    A live feed: not seekable — resume sets the offset directly and
    the pending-entry drain re-delivers the un-acked suffix (see the
    module docstring for the at-least-once contract).  ``broker``
    without ``url=`` declares intent only; the gateway's live-feed
    check rejects serving it until a feed is bound.
    """

    seekable = False

    def __init__(
        self,
        url: Optional[str] = None,
        *,
        stream: str = "windows",
        group: str = "repro",
        consumer: str = "c0",
        block_ms: int = 100,
        batch: int = 64,
        connect_timeout: float = 2.0,
        read_timeout: float = 5.0,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__()
        if block_ms < 1:
            raise ValueError(f"block_ms must be >= 1, got {block_ms}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.url = url
        self.stream = stream
        self.group = group
        self.consumer = consumer
        self.block_ms = int(block_ms)
        self.batch = int(batch)
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self._retry = retry
        self._client: Optional[BrokerClient] = None
        #: Per emitted-but-unacked row, in emission order:
        #: ``(entry_id, completes)`` where ``completes`` marks the
        #: entry's last row — only completed entries are acked at a
        #: checkpoint (a chunk is all-or-nothing on the broker side).
        self._unacked: List[Tuple[str, bool]] = []
        #: Ledger rows of the handed-back tail, one per tail row.
        self._tail_ids: List[Tuple[str, bool]] = []
        #: Last entry id actually emitted — the drain cursor after a
        #: reconnect.
        self._last_entry_id = "0-0"
        self._draining = True
        self._finished = False
        self._row_cache = _RowCache()
        #: The chunked entry being emitted, as ``[entry_id, rows,
        #: next_index]``, and the fetched entries after it not yet
        #: taken: a block may take the rest of the chunk and every
        #: chunked entry queued behind it at once.
        self._chunk: Optional[list] = None
        self._fetched: deque = deque()

    # -- live-feed contract -------------------------------------------

    @property
    def live_feed_bound(self) -> bool:
        return self.url is not None

    def skip(self, count: int) -> "StreamSource":
        """A live feed cannot seek; resume drains the PEL instead."""
        if count:
            raise RuntimeError(
                "a live 'broker' source cannot skip past data it has "
                "not received; resume re-reads un-acked entries from "
                "the consumer group's pending list"
            )
        return self

    def unemit_block(self, block: np.ndarray) -> None:
        # Keep the un-acked ledger aligned with the emitted offset: a
        # handed-back row's entry must not be acked at the next
        # checkpoint (its window is not captured), so its ledger row
        # moves out alongside it (and back in when it is taken again).
        cut = max(len(self._unacked) - len(block), 0)
        self._tail_ids[:0] = self._unacked[cut:]
        del self._unacked[cut:]
        super().unemit_block(block)

    def _take(self, limit: int) -> Optional[np.ndarray]:
        if self._tail_ids:
            count = min(limit, len(self._tail_ids))
            self._unacked.extend(self._tail_ids[:count])
            del self._tail_ids[:count]
        return super()._take(limit)

    def checkpoint_mark(self) -> None:
        """Ack every emitted entry — the at-least-once commit point.

        One ``XACK`` covers the whole batch; a transport failure here
        raises, aborting the checkpoint, and the entries stay pending
        for the post-resume drain.
        """
        if not self._unacked or self._client is None:
            return
        completed = [
            entry_id for entry_id, completes in self._unacked if completes
        ]
        if completed:
            self._client.xack(self.stream, self.group, completed)
        # Rows of a still-partial chunk clear too: the ack decision
        # only ever needs the completing row, and it lands in the
        # ledger after this boundary.
        self._unacked.clear()
        self._gauge_unacked()

    # -- plumbing ------------------------------------------------------

    def _require_client(self) -> BrokerClient:
        if self._client is None:
            if self.url is None:
                raise ValueError(
                    "the 'broker' source has no feed bound; give the "
                    "spec a url= (broker:url=redis://host:port,...) or "
                    "construct BrokerSource(url)"
                )
            registry = default_registry()
            backoff = registry.counter(
                "repro_broker_backoff_total",
                "Backoff sleeps taken by broker clients.",
            )
            self._client = BrokerClient(
                self.url,
                connect_timeout=self._connect_timeout,
                read_timeout=self._read_timeout,
                retry=self._retry,
                on_retry=lambda *_: backoff.inc(),
            )
            self._client.xgroup_create(
                self.stream, self.group, start="0", mkstream=True
            )
        return self._client

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _gauge_unacked(self) -> None:
        default_registry().gauge(
            "repro_broker_unacked",
            "Delivered broker windows awaiting the next checkpoint ack.",
        ).set(float(len(self._unacked)))

    def _gauge_lag(self, client: BrokerClient) -> None:
        # Approximate: entries in the stream minus windows emitted.
        # Counts the not-yet-consumed eos marker as lag 1 until the
        # stream actually ends.  Called from the fetch thread — the
        # extra XLEN round trip must not block the event loop.
        lag = max(0.0, float(client.xlen(self.stream)) - self._offset)
        if self._finished:
            lag = 0.0
        default_registry().gauge(
            "repro_broker_consumer_lag",
            "Stream entries not yet emitted as windows (approximate).",
        ).set(lag)

    # -- fetch loop (runs in a worker thread) -------------------------

    def _fetch(self) -> Optional[List[Tuple[str, Dict[str, str]]]]:
        """One batch of entries, honouring drain mode; ``None`` = no
        data this block interval (caller loops)."""
        client = self._require_client()
        registry = default_registry()
        timer = registry.histogram(
            "repro_broker_fetch_seconds",
            "Wall time of one broker fetch round trip.",
        )
        if self._draining:
            start = time.perf_counter()
            entries = client.xreadgroup(
                self.stream,
                self.group,
                self.consumer,
                last_id=self._last_entry_id,
                count=self.batch,
            )
            timer.observe(time.perf_counter() - start)
            if entries:
                registry.counter(
                    "repro_broker_redelivered_total",
                    "Broker entries re-delivered from the pending list.",
                ).inc(len(entries))
                return entries
            # Empty PEL past the cursor: drain complete (the empty
            # list is the signal — distinct from None/no-data).
            self._draining = False
            return None

        reconnects_before = client.reconnects
        start = time.perf_counter()
        entries = client.xreadgroup(
            self.stream,
            self.group,
            self.consumer,
            last_id=">",
            count=self.batch,
            block_ms=self.block_ms,
        )
        timer.observe(time.perf_counter() - start)
        if client.reconnects != reconnects_before:
            # The connection died mid-read: the server may have
            # delivered entries we never saw (they sit in our PEL),
            # and the retried read started *past* them.  Discard this
            # batch — the drain re-delivers it and the stranded gap in
            # id order — and resume from the last emitted entry.
            registry.counter(
                "repro_broker_reconnects_total",
                "Broker connection drops observed by sources.",
            ).inc(float(client.reconnects - reconnects_before))
            self._draining = True
            return None
        if entries:
            registry.counter(
                "repro_broker_delivered_total",
                "Broker entries delivered as new reads.",
            ).inc(len(entries))
            self._gauge_lag(client)
        return entries or None

    # -- source contract ----------------------------------------------

    def _blocks(self, limit: int) -> Iterator[np.ndarray]:
        raise TypeError(
            "the 'broker' source is asynchronous; drive it with "
            "StreamService.pump() / StreamGateway.serve() instead of a "
            "synchronous run"
        )

    async def arows(self):
        self.alphabet  # bound check
        self._require_client()  # fail fast when no feed is bound
        # Every fresh generator starts in drain mode: a previous pump
        # slice may have fetched a batch and been torn down before
        # emitting all of it, stranding the tail in the PEL past the
        # group cursor.  Draining from the last *emitted* id re-delivers
        # exactly that tail (and, on a resumed source, everything since
        # the last checkpoint) before new '>' reads continue.
        self._draining = True
        #: The one overlapped fetch in flight, or None.  Issued after a
        #: steady-state batch lands so the next read's round trip runs
        #: while the pipeline chews the current rows; settled in the
        #: ``finally`` because the client connection is not thread-safe
        #: — nothing else (a drain read, a checkpoint ack, a fresh
        #: generator) may touch it while the fetch thread holds it.
        prefetched = None
        try:
            while True:
                block = self._take(1)
                if block is not None:
                    yield block[0]
                    continue
                if self._fetched:
                    entry_id, fields = self._fetched.popleft()
                    row = self._entry_row(entry_id, fields)
                    if row is not None:
                        self._offset += 1
                        yield row
                    continue
                self._gauge_unacked()
                if self._finished:
                    return
                if prefetched is not None:
                    task, prefetched = prefetched, None
                    batch = await task
                else:
                    batch = await asyncio.to_thread(self._fetch)
                if (
                    batch
                    and not self._draining
                    and EOS_FIELD not in batch[-1][1]
                ):
                    prefetched = asyncio.ensure_future(
                        asyncio.to_thread(self._fetch)
                    )
                if batch:
                    self._fetched.extend(batch)
        finally:
            # Entries fetched but not fully emitted — a chunk left
            # mid-way included — are re-delivered by the next drain.
            self._chunk = None
            self._fetched.clear()
            if prefetched is not None:
                # Entries the settled read delivered but nobody emitted
                # are un-acked pending entries — the next generator's
                # drain replays them (the at-least-once contract).
                try:
                    await prefetched
                except BaseException:
                    pass

    def _entry_row(
        self, entry_id: str, fields: Dict[str, str]
    ) -> Optional[np.ndarray]:
        """Take one fetched entry: its window row, or ``None`` when it
        emits no row by itself (end of stream, poison, a chunk — whose
        rows :meth:`_take_chunk` emits)."""
        if EOS_FIELD in fields:
            # Deliberately left un-acked (and out of the un-acked
            # ledger — it has no window, so it must not pair with a
            # handed-back row): the pending eos is how a resumed consumer
            # learns the stream already ended (see EOS_FIELD).
            self._last_entry_id = entry_id
            self._finished = True
            self._fetched.clear()
            return None
        if "rows" in fields:
            self._open_chunk(entry_id, fields, self._offset)
            return None
        try:
            row = self._row_cache.decode(fields, self.alphabet)
        except (ValueError, TypeError) as error:
            self._client.dead_letter(
                self.stream,
                self.group,
                entry_id,
                fields,
                reason=str(error),
            )
            default_registry().counter(
                "repro_broker_dead_letter_total",
                "Poison broker entries moved to the dead stream.",
            ).inc()
            self._last_entry_id = entry_id
            return None
        self._unacked.append((entry_id, True))
        self._last_entry_id = entry_id
        return row

    def _open_chunk(
        self, entry_id: str, fields: Dict[str, str], offset: int
    ) -> None:
        """Make a chunked entry the current chunk; ``offset`` is the
        stream position its next emitted row would take."""
        try:
            base, block = _decode_chunk(fields, self.alphabet)
        except (ValueError, TypeError) as error:
            raise BrokerError(
                f"undecodable chunked entry {entry_id} on stream "
                f"{self.stream!r}: {error}; dropping a chunk would "
                "shift every later window against its base index, so "
                "it cannot be dead-lettered"
            ) from error
        # Rows a committed checkpoint already captured (this is a
        # redelivery) are skipped, not re-emitted — the resumed offset
        # is the authority on what was released.
        already = min(max(offset - base, 0), len(block))
        if already == len(block):
            # Ack was lost after a full emit; nothing left to extract.
            # It stays pending (only a checkpoint may ack) and every
            # future drain re-skips it, like the eos marker.
            self._last_entry_id = entry_id
        else:
            self._chunk = [entry_id, block, already]

    def _take_chunk(self, limit: int) -> np.ndarray:
        """The next ``limit`` (at most) rows of the current chunk, each
        entered in the un-acked ledger like a row emitted alone."""
        entry_id, block, start = self._chunk
        stop = min(start + limit, len(block))
        last = len(block) - 1
        self._unacked.extend(
            (entry_id, index == last) for index in range(start, stop)
        )
        if stop == len(block):
            # The drain cursor advances only once the whole chunk is
            # out: a teardown mid-chunk must re-deliver it (the base
            # skip keeps that row-exact).
            self._chunk = None
            self._last_entry_id = entry_id
        else:
            self._chunk[2] = stop
        return block[start:stop]

    def _block(self, limit: int) -> Optional[np.ndarray]:
        """The rest of the current chunk and of every already-fetched
        chunked entry after it; a single-row entry (which
        :meth:`arows` takes), the end of stream or a fetch ends the
        block."""
        parts = []
        taken = 0
        while taken < limit:
            if self._chunk is None:
                if not self._fetched:
                    break
                entry_id, fields = self._fetched[0]
                if "rows" not in fields or EOS_FIELD in fields:
                    break
                try:
                    self._open_chunk(entry_id, fields, self._offset + taken)
                except BrokerError:
                    break  # the row path raises it in stream order
                self._fetched.popleft()
                continue
            parts.append(self._take_chunk(limit - taken))
            taken += len(parts[-1])
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


@register_sink(
    "broker",
    keys=(SpecKey("url"), SpecKey("stream"), SpecKey("eos", convert=int)),
)
class BrokerSink(StreamSink):
    """Publish released windows to a broker stream
    (``broker:url=redis://host:port,stream=released``).

    Each window becomes one entry with ``window`` (index), ``row``
    (0/1 characters — the form :class:`BrokerSource` reads back, so a
    sanitized stream can be served again) and ``answers`` (JSON).
    ``eos=1`` appends the end-of-stream control entry on close, so a
    downstream consumer group knows the finite run ended.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        *,
        stream: str = "released",
        eos: int = 0,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__()
        self.url = url
        self.stream = stream
        self.eos = bool(eos)
        self._retry = retry
        self._client: Optional[BrokerClient] = None

    def _require_client(self) -> BrokerClient:
        if self._client is None:
            if self.url is None:
                raise ValueError(
                    "the 'broker' sink has no feed bound; give the "
                    "spec a url= (broker:url=redis://host:port,...)"
                )
            self._client = BrokerClient(self.url, retry=self._retry)
        return self._client

    def _write(self, index, row, answers, truth) -> None:
        self._require_client().xadd(
            self.stream,
            {
                "window": str(int(index)),
                "row": _encode_row(row),
                "answers": json.dumps(
                    {name: bool(value) for name, value in answers.items()},
                    sort_keys=True,
                ),
            },
        )

    def close(self) -> None:
        if self._client is not None:
            if self.eos:
                self._client.xadd(self.stream, {EOS_FIELD: "1"})
                self.eos = False  # close() is idempotent
            self._client.close()
            self._client = None
