"""In-process Redis-Streams broker for CI: real sockets, fake state.

:class:`FakeRedisServer` binds a localhost TCP port, accepts
connections on a background thread, and speaks enough RESP2 +
Redis-Streams to drive the real client code path end to end — the
same bytes cross a real socket, so serialization bugs, partial reads
and connection teardown behave exactly as against a live broker,
with zero external services.

Supported commands: ``PING``, ``XADD``, ``XLEN``, ``XRANGE``,
``XREAD``, ``XGROUP CREATE``, ``XREADGROUP``, ``XACK``, ``XPENDING``,
``XAUTOCLAIM``.  Semantics follow Redis where the connectors depend
on them:

- entry ids are ``<n>-0`` with ``n`` counting up from 1 per stream —
  deterministic, so tests can assert exact ids;
- consumer groups track a last-delivered cursor plus a pending-entry
  list (PEL); ``XREADGROUP`` with ``>`` delivers new entries and
  records them pending, with an explicit id it *re*-delivers that
  consumer's own pending entries after the id (the crash-recovery
  read);
- ``XACK`` drops ids from the PEL; ``XPENDING`` summarizes it;
  ``XAUTOCLAIM`` reassigns another consumer's pending entries.

Fault injection — the point of the fake — is armed per command with
:meth:`FakeRedisServer.inject_fault`:

- ``"reset"``: close the connection *before* processing (the server
  never saw the command);
- ``"drop"``: process the command, then close *before* replying (for
  ``XREADGROUP >`` this strands entries in the PEL that the client
  never received — the at-least-once hazard the connector's drain
  path exists for);
- ``"hang"``: go silent for ``delay`` seconds, then close (exercises
  client read timeouts).
"""

from __future__ import annotations

import bisect
import socket
import threading
import time

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["FakeRedisServer"]


class _Simple(str):
    """Marker: encode as a RESP simple string (``+...``)."""


class _ErrorReply(str):
    """Marker: encode as a RESP error reply (``-...``)."""


class _CloseConnection(Exception):
    """Raised by fault hooks to tear the connection down."""

    def __init__(self, *, after_reply: bool = False):
        super().__init__("fault-injected close")
        self.after_reply = after_reply


def _encode(value) -> bytes:
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value) -> None:
    # Appends into one shared buffer: a big XREADGROUP reply is
    # thousands of nested nodes, and building intermediate bytes per
    # node (then joining) would allocate quadratically on the reply's
    # hot path.
    if isinstance(value, _Simple):
        out += b"+%s\r\n" % value.encode("utf-8")
    elif isinstance(value, _ErrorReply):
        out += b"-%s\r\n" % value.encode("utf-8")
    elif value is None:
        out += b"*-1\r\n"
    elif isinstance(value, bool):
        raise TypeError("no boolean replies in RESP2")
    elif isinstance(value, int):
        out += b":%d\r\n" % value
    elif isinstance(value, (str, bytes)):
        if isinstance(value, str):
            value = value.encode("utf-8")
        out += b"$%d\r\n" % len(value)
        out += value
        out += b"\r\n"
    elif isinstance(value, (list, tuple)):
        out += b"*%d\r\n" % len(value)
        for item in value:
            _encode_into(out, item)
    else:
        raise TypeError(f"cannot encode {type(value).__name__}")


def _parse_id(text: str, *, default_seq: int = 0) -> Tuple[int, int]:
    ms, sep, seq = text.partition("-")
    return int(ms), int(seq) if sep else default_seq


def _format_id(entry_id: Tuple[int, int]) -> str:
    return f"{entry_id[0]}-{entry_id[1]}"


@dataclass
class _Pending:
    consumer: str
    delivery_count: int = 1


@dataclass
class _Group:
    last_delivered: Tuple[int, int]
    #: entry id → pending record; dict order is id order because
    #: entries enter the PEL in delivery order and re-delivery never
    #: re-inserts.
    pending: Dict[Tuple[int, int], _Pending] = field(default_factory=dict)


@dataclass
class _Stream:
    entries: List[Tuple[Tuple[int, int], List[bytes]]] = field(
        default_factory=list
    )
    next_ms: int = 1
    groups: Dict[str, _Group] = field(default_factory=dict)

    @property
    def last_id(self) -> Tuple[int, int]:
        return self.entries[-1][0] if self.entries else (0, 0)

    def entries_after(
        self, cursor: Tuple[int, int], count: Optional[int]
    ) -> List[Tuple[Tuple[int, int], List[bytes]]]:
        # Entries are append-ordered by id, so the cursor position is a
        # bisection, not a scan — consumers near the stream's tail pay
        # for what they fetch, not for the whole history.
        start = bisect.bisect_right(
            self.entries, cursor, key=lambda item: item[0]
        )
        end = len(self.entries)
        if count is not None:
            end = min(end, start + count)
        return self.entries[start:end]


@dataclass
class _Fault:
    mode: str  # "reset" | "drop" | "hang"
    command: Optional[str]  # uppercase command name, or None = any
    count: int
    delay: float


class FakeRedisServer:
    """A localhost RESP2 streams broker with fault injection.

    Use as a context manager or call :meth:`start` / :meth:`stop`;
    ``port`` is chosen by the OS (pass ``port=0``), ``url`` is the
    ``redis://`` address clients connect to.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host = host
        self._requested_port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        self._lock = threading.Lock()
        self._data_ready = threading.Condition(self._lock)
        self._streams: Dict[str, _Stream] = {}
        self._faults: List[_Fault] = []
        self._connections: List[socket.socket] = []
        #: (mode, command) tuples, appended as each armed fault fires.
        self.faults_fired: List[Tuple[str, str]] = []
        self.commands_served = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("server is not running")
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        return f"redis://{self._host}:{self.port}"

    def start(self) -> "FakeRedisServer":
        if self._running:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(32)
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fake-redis-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            # shutdown() before close(): close() alone does not wake a
            # thread already blocked in accept() on Linux, and the
            # accept loop would sit out the whole join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections, self._connections = self._connections, []
            self._data_ready.notify_all()
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        self._listener = None

    def __enter__(self) -> "FakeRedisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- fault injection ----------------------------------------------

    def inject_fault(
        self,
        mode: str,
        *,
        command: Optional[str] = None,
        count: int = 1,
        delay: float = 0.2,
    ) -> None:
        """Arm ``count`` connection faults, fired on matching commands.

        ``mode`` is ``"reset"`` (close before processing), ``"drop"``
        (process, close before replying) or ``"hang"`` (silence for
        ``delay`` seconds, then close).  ``command`` limits the fault
        to one command name (case-insensitive); ``None`` fires on the
        next command of any kind.
        """
        if mode not in ("reset", "drop", "hang"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if count < 1:
            raise ValueError("fault count must be >= 1")
        with self._lock:
            self._faults.append(
                _Fault(mode, command.upper() if command else None,
                       count, float(delay))
            )

    def _match_fault(self, command: str) -> Optional[_Fault]:
        with self._lock:
            for fault in self._faults:
                if fault.command is None or fault.command == command:
                    fault.count -= 1
                    if fault.count == 0:
                        self._faults.remove(fault)
                    self.faults_fired.append((fault.mode, command))
                    return fault
        return None

    # -- introspection (tests) ----------------------------------------

    def pending_count(self, stream: str, group: str) -> int:
        with self._lock:
            record = self._streams.get(stream)
            if record is None or group not in record.groups:
                return 0
            return len(record.groups[group].pending)

    # -- socket plumbing ----------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if not self._running:
                    conn.close()
                    return
                self._connections.append(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="fake-redis-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        buffer = bytearray()
        try:
            while self._running:
                command = self._read_command(conn, buffer)
                if command is None:
                    return
                try:
                    reply = self._dispatch(command)
                except _CloseConnection as fault:
                    if fault.after_reply:
                        pass  # reply suppressed: processed, not sent
                    return
                conn.sendall(_encode(reply))
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    def _read_command(
        self, conn: socket.socket, buffer: bytearray
    ) -> Optional[List[bytes]]:
        def fill() -> bool:
            try:
                data = conn.recv(65536)
            except OSError:
                return False
            if not data:
                return False
            buffer.extend(data)
            return True

        def read_line() -> Optional[bytes]:
            while True:
                index = buffer.find(b"\r\n")
                if index >= 0:
                    line = bytes(buffer[:index])
                    del buffer[: index + 2]
                    return line
                if not fill():
                    return None

        header = read_line()
        if header is None or not header.startswith(b"*"):
            return None
        parts: List[bytes] = []
        for _ in range(int(header[1:])):
            length_line = read_line()
            if length_line is None or not length_line.startswith(b"$"):
                return None
            length = int(length_line[1:])
            while len(buffer) < length + 2:
                if not fill():
                    return None
            parts.append(bytes(buffer[:length]))
            del buffer[: length + 2]
        return parts

    # -- command dispatch ---------------------------------------------

    def _dispatch(self, parts: List[bytes]):
        name = parts[0].decode("utf-8", "replace").upper()
        args = [p.decode("utf-8") for p in parts[1:]]
        fault = self._match_fault(name)
        if fault is not None:
            if fault.mode == "reset":
                raise _CloseConnection()
            if fault.mode == "hang":
                time.sleep(fault.delay)
                raise _CloseConnection()
            # "drop": process below, then close without replying.
        self.commands_served += 1
        handler = getattr(self, f"_cmd_{name.lower()}", None)
        if handler is None:
            reply = _ErrorReply(f"ERR unknown command '{name}'")
        else:
            try:
                reply = handler(args)
            except (ValueError, IndexError):
                reply = _ErrorReply(f"ERR malformed {name} arguments")
        if fault is not None and fault.mode == "drop":
            raise _CloseConnection(after_reply=True)
        return reply

    def _stream_record(self, stream: str, *, create: bool) -> _Stream:
        record = self._streams.get(stream)
        if record is None:
            if not create:
                raise KeyError(stream)
            record = self._streams[stream] = _Stream()
        return record

    # -- commands ------------------------------------------------------

    def _cmd_ping(self, args):
        return _Simple(args[0]) if args else _Simple("PONG")

    def _cmd_xadd(self, args):
        stream, id_text = args[0], args[1]
        fields = args[2:]
        if not fields or len(fields) % 2:
            return _ErrorReply(
                "ERR wrong number of arguments for 'xadd' command"
            )
        with self._lock:
            record = self._stream_record(stream, create=True)
            if id_text == "*":
                entry_id = (record.next_ms, 0)
            else:
                entry_id = _parse_id(id_text)
                if entry_id <= record.last_id:
                    return _ErrorReply(
                        "ERR The ID specified in XADD is equal or smaller "
                        "than the target stream top item"
                    )
            record.next_ms = entry_id[0] + 1
            record.entries.append(
                (entry_id, [part.encode("utf-8") for part in fields])
            )
            self._data_ready.notify_all()
        return _format_id(entry_id).encode("ascii")

    def _cmd_xlen(self, args):
        with self._lock:
            record = self._streams.get(args[0])
            return len(record.entries) if record else 0

    def _cmd_xrange(self, args):
        stream, start, end = args[0], args[1], args[2]
        count = None
        if len(args) >= 5 and args[3].upper() == "COUNT":
            count = int(args[4])
        low = (0, 0) if start == "-" else _parse_id(start)
        high = (
            (2**63 - 1, 2**63 - 1) if end == "+"
            else _parse_id(end, default_seq=2**63 - 1)
        )
        with self._lock:
            record = self._streams.get(stream)
            if record is None:
                return []
            found = [
                item for item in record.entries if low <= item[0] <= high
            ]
        if count is not None:
            found = found[:count]
        return [[_format_id(i), list(fields)] for i, fields in found]

    def _cmd_xgroup(self, args):
        if args[0].upper() != "CREATE":
            return _ErrorReply("ERR unsupported XGROUP subcommand")
        stream, group, start = args[1], args[2], args[3]
        mkstream = any(a.upper() == "MKSTREAM" for a in args[4:])
        with self._lock:
            record = self._streams.get(stream)
            if record is None:
                if not mkstream:
                    return _ErrorReply(
                        "ERR The XGROUP subcommand requires the key to "
                        "exist. Note that for CREATE you may want to use "
                        "the MKSTREAM option to create an empty stream "
                        "automatically."
                    )
                record = self._streams[stream] = _Stream()
            if group in record.groups:
                return _ErrorReply(
                    "BUSYGROUP Consumer Group name already exists"
                )
            cursor = record.last_id if start == "$" else _parse_id(start)
            record.groups[group] = _Group(last_delivered=cursor)
        return _Simple("OK")

    @staticmethod
    def _read_options(args):
        """Parse ``[COUNT n] [BLOCK ms] ... STREAMS s1 .. id1 ..``."""
        count = block_ms = None
        index = 0
        while index < len(args):
            word = args[index].upper()
            if word == "COUNT":
                count = int(args[index + 1])
                index += 2
            elif word == "BLOCK":
                block_ms = int(args[index + 1])
                index += 2
            elif word == "NOACK":
                index += 1
            elif word == "STREAMS":
                tail = args[index + 1 :]
                if len(tail) % 2:
                    raise ValueError("unbalanced STREAMS arguments")
                half = len(tail) // 2
                return count, block_ms, tail[:half], tail[half:]
            else:
                raise ValueError(f"unexpected token {word}")
        raise ValueError("missing STREAMS clause")

    def _cmd_xread(self, args):
        count, block_ms, streams, ids = self._read_options(args)

        def collect():
            results = []
            for stream, id_text in zip(streams, ids):
                record = self._streams.get(stream)
                if record is None:
                    continue
                cursor = (
                    record.last_id if id_text == "$"
                    else _parse_id(id_text)
                )
                found = record.entries_after(cursor, count)
                if found:
                    results.append([
                        stream,
                        [[_format_id(i), f] for i, f in found],
                    ])
            return results or None

        with self._lock:
            results = collect()
            if results is None and block_ms is not None:
                deadline = time.monotonic() + block_ms / 1000.0
                while results is None and self._running:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._data_ready.wait(remaining)
                    results = collect()
            return results

    def _cmd_xreadgroup(self, args):
        if args[0].upper() != "GROUP":
            return _ErrorReply("ERR syntax error")
        group_name, consumer = args[1], args[2]
        count, block_ms, streams, ids = self._read_options(args[3:])

        def deliver():
            results = []
            for stream, id_text in zip(streams, ids):
                record = self._streams.get(stream)
                if record is None or group_name not in record.groups:
                    raise _NoGroup(stream, group_name)
                group = record.groups[group_name]
                if id_text == ">":
                    found = record.entries_after(
                        group.last_delivered, count
                    )
                    for entry_id, _ in found:
                        group.last_delivered = entry_id
                        group.pending[entry_id] = _Pending(consumer)
                    if found:
                        results.append([
                            stream,
                            [[_format_id(i), f] for i, f in found],
                        ])
                else:
                    # Re-delivery read: this consumer's own pending
                    # entries strictly after the requested id.  Always
                    # reported, even when empty — an empty PEL is the
                    # "drain complete" signal, not "no data yet".
                    cursor = _parse_id(id_text)
                    by_id = dict(record.entries)
                    own = [
                        entry_id
                        for entry_id, pend in group.pending.items()
                        if pend.consumer == consumer and entry_id > cursor
                    ]
                    own.sort()
                    if count is not None:
                        own = own[:count]
                    for entry_id in own:
                        group.pending[entry_id].delivery_count += 1
                    results.append([
                        stream,
                        [
                            [_format_id(i), list(by_id.get(i, []))]
                            for i in own
                        ],
                    ])
            return results or None

        with self._lock:
            try:
                results = deliver()
                blocking_allowed = all(i == ">" for i in ids)
                if (
                    results is None
                    and block_ms is not None
                    and blocking_allowed
                ):
                    deadline = time.monotonic() + block_ms / 1000.0
                    while results is None and self._running:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._data_ready.wait(remaining)
                        results = deliver()
            except _NoGroup as error:
                return _ErrorReply(
                    f"NOGROUP No such consumer group '{error.group}' for "
                    f"key name '{error.stream}'"
                )
            return results

    def _cmd_xack(self, args):
        stream, group_name = args[0], args[1]
        acked = 0
        with self._lock:
            record = self._streams.get(stream)
            if record is None or group_name not in record.groups:
                return 0
            pending = record.groups[group_name].pending
            for id_text in args[2:]:
                if pending.pop(_parse_id(id_text), None) is not None:
                    acked += 1
        return acked

    def _cmd_xpending(self, args):
        stream, group_name = args[0], args[1]
        with self._lock:
            record = self._streams.get(stream)
            if record is None or group_name not in record.groups:
                return _ErrorReply(
                    f"NOGROUP No such consumer group '{group_name}' for "
                    f"key name '{stream}'"
                )
            pending = record.groups[group_name].pending
            if not pending:
                return [0, None, None, None]
            ids = sorted(pending)
            per_consumer: Dict[str, int] = {}
            for pend in pending.values():
                per_consumer[pend.consumer] = (
                    per_consumer.get(pend.consumer, 0) + 1
                )
            return [
                len(ids),
                _format_id(ids[0]),
                _format_id(ids[-1]),
                [
                    [name, str(total)]
                    for name, total in sorted(per_consumer.items())
                ],
            ]

    def _cmd_xautoclaim(self, args):
        stream, group_name, consumer = args[0], args[1], args[2]
        # min-idle-time (args[3]) is accepted but not modelled: the
        # fake has no per-entry clocks, so every pending entry is
        # claimable.  start id at args[4].
        start = (
            (0, 0) if args[4] in ("-", "0", "0-0")
            else _parse_id(args[4])
        )
        count = None
        if len(args) >= 7 and args[5].upper() == "COUNT":
            count = int(args[6])
        with self._lock:
            record = self._streams.get(stream)
            if record is None or group_name not in record.groups:
                return _ErrorReply(
                    f"NOGROUP No such consumer group '{group_name}' for "
                    f"key name '{stream}'"
                )
            group = record.groups[group_name]
            claimable = sorted(
                entry_id
                for entry_id in group.pending
                if entry_id >= start
            )
            if count is not None:
                claimable = claimable[:count]
            by_id = dict(record.entries)
            for entry_id in claimable:
                pend = group.pending[entry_id]
                pend.consumer = consumer
                pend.delivery_count += 1
            return [
                "0-0",
                [
                    [_format_id(i), list(by_id.get(i, []))]
                    for i in claimable
                ],
            ]


class _NoGroup(Exception):
    def __init__(self, stream: str, group: str):
        super().__init__(f"no group {group} on {stream}")
        self.stream = stream
        self.group = group
