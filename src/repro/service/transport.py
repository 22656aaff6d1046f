"""The one connection path of the wire: parse per read, write per turn.

:class:`WireConnection` is the ``asyncio.Protocol`` every endpoint of
the PDP wire is built on: :class:`~repro.service.server.PDPServer`'s
per-connection state, :class:`~repro.service.client.RemotePDPClient`,
and both sides of :class:`~repro.cluster.router.ShardRouter`'s relay.
It owns the three things every endpoint used to pay a coroutine, a lock
and a ``drain()`` for:

* **framing** — ``data_received`` appends to a buffer and hands *every*
  complete message in it to :meth:`frame_received` (a ``0xB1`` binary
  frame) or :meth:`line_received` (an NDJSON line) in one pass, in
  stream order; a partial message waits for the next read.  Format
  detection is per message, so both lanes share a socket.
* **write coalescing** — :meth:`write` only queues; everything queued
  during one parse pass leaves in a single ``transport.write`` when the
  pass ends, and anything queued between passes (batcher completions,
  caller sends) leaves in one write on the next loop iteration.
  :meth:`flush` forces the write now — revocation pushes use it so they
  never wait behind the reply that caused them.
* **backpressure** — when the transport's write buffer passes its
  high-water mark the connection stops *reading* (the peer's pipeline
  backs up into its own socket) and :meth:`writable` gives senders
  something to await; both resume at the low-water mark.  Buffered
  output is therefore bounded by the high-water mark plus the answers
  to one read.  :meth:`pause_reading` / :meth:`resume_reading` nest and
  stop *delivery*, not just the socket, so a relay (the shard router)
  can stop one side for exactly as long as the other cannot write, or
  while it awaits something the stream must not overtake.

A connection may be written before it exists: until ``connection_made``
:meth:`write` only queues, and the queue leaves in the first write.

Size limits are enforced from the header/prefix alone — an oversized
frame or line is reported through :meth:`protocol_error` before its
body is ever buffered.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional

from repro.service.protocol import (
    BINARY_MAGIC,
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
)

_HEADER_BYTES = FRAME_HEADER.size


class WireConnection(asyncio.Protocol):
    """Framing, coalesced writes and flow control for one socket."""

    #: Longest NDJSON line accepted (clients raise it: op responses).
    max_line_bytes = MAX_LINE_BYTES

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inbox = bytearray()
        self._outbox: List[bytes] = []
        self._in_pass = False
        #: A flush is already due — true until ``connection_made``,
        #: which sends what was queued for a socket not yet there.
        self._flush_scheduled = True
        #: Outstanding :meth:`pause_reading` calls, plus one for good
        #: once closed: while non-zero no message is delivered.
        self._read_holds = 0
        self._eof = False
        self._closed = False
        #: Pending while the transport has paused writing.
        self._resumed: Optional["asyncio.Future[None]"] = None

    # ------------------------------------------------------------------
    # What an endpoint implements
    # ------------------------------------------------------------------
    def frame_received(self, kind: int, body: bytes) -> None:
        """One complete binary frame (magic and header stripped)."""

    def line_received(self, line: bytes) -> None:
        """One complete, stripped, non-empty NDJSON line."""

    def protocol_error(self, message: str, binary: bool) -> None:
        """The stream position is lost (oversized frame or line); the
        connection closes once this returns."""

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._loop = asyncio.get_running_loop()
        if self._closed:  # closed while it was still connecting
            transport.close()  # type: ignore[attr-defined]
            return
        if self._read_holds:
            transport.pause_reading()  # type: ignore[attr-defined]
        self._flush_scheduled = False
        self.flush()

    def data_received(self, data: bytes) -> None:
        inbox = self._inbox
        if inbox:
            inbox += data
            del inbox[: self._parse(inbox)]
        else:
            # Nothing left over: parse the read in place and keep only
            # its unfinished tail.
            consumed = self._parse(data)
            if consumed < len(data):
                inbox += memoryview(data)[consumed:]

    def _parse(self, buffer) -> int:
        """Dispatch every complete message in ``buffer``; returns how
        many bytes were consumed."""
        position, size = 0, len(buffer)
        self._in_pass = True
        try:
            while position < size and not self._read_holds:
                if buffer[position] == BINARY_MAGIC:
                    if size - position < _HEADER_BYTES:
                        break
                    _, kind, length = FRAME_HEADER.unpack_from(
                        buffer, position
                    )
                    if length > MAX_FRAME_BYTES:
                        return self._desynced(
                            f"binary frame of {length} bytes exceeds "
                            f"{MAX_FRAME_BYTES}",
                            True,
                            size,
                        )
                    end = position + _HEADER_BYTES + length
                    if end > size:
                        break
                    body = bytes(buffer[position + _HEADER_BYTES : end])
                    position = end
                    self.frame_received(kind, body)
                    continue
                end = buffer.find(b"\n", position)
                if (size if end < 0 else end) - position > self.max_line_bytes:
                    return self._desynced("wire line too long", False, size)
                if end < 0:
                    break
                line = bytes(buffer[position:end]).strip()
                position = end + 1
                if line:
                    self.line_received(line)
        finally:
            self._in_pass = False
            self.flush()
        return position

    def _desynced(self, message: str, binary: bool, size: int) -> int:
        self.protocol_error(message, binary)
        self.close()
        return size

    def eof_received(self) -> Optional[bool]:
        """The peer finished sending: a final unterminated line still
        counts, a truncated frame is dropped.  The transport closes
        unless an override returns true to keep writing."""
        self._eof = True
        inbox = self._inbox
        if inbox and inbox[0] != BINARY_MAGIC:
            self._parse(bytes(inbox) + b"\n")
        inbox.clear()
        return None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, data: bytes) -> None:
        """Queue one whole message; it leaves with the current parse
        pass, on the next loop iteration outside one, or — queued
        before the connection was made — the moment it is.  After the
        connection has closed there is nobody to tell: a no-op."""
        if self._closed:
            return
        self._outbox.append(data)
        if not self._in_pass and not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_soon)  # type: ignore[union-attr]

    def _flush_soon(self) -> None:
        self._flush_scheduled = False
        self.flush()

    def flush(self) -> int:
        """Hand everything queued to the transport in one write;
        returns how many messages that was."""
        outbox = self._outbox
        count = len(outbox)
        if count:
            self.transport.write(  # type: ignore[union-attr]
                outbox[0] if count == 1 else b"".join(outbox)
            )
            outbox.clear()
        return count

    def pause_writing(self) -> None:
        if self._resumed is None:
            self._resumed = self._loop.create_future()  # type: ignore[union-attr]
            self.pause_reading()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            if not resumed.done():
                resumed.set_result(None)
            self.resume_reading()

    def pause_reading(self) -> None:
        """Deliver no further message — not even one the current read
        already brought — and stop reading the socket until the
        matching :meth:`resume_reading`.  Calls nest, and may precede
        ``connection_made``."""
        self._read_holds += 1
        if self._read_holds == 1:
            self._set_reading(False)

    def resume_reading(self) -> None:
        self._read_holds -= 1
        if not self._read_holds:
            self._set_reading(True)
            inbox = self._inbox
            if inbox and not self._in_pass:  # what waited while held
                del inbox[: self._parse(inbox)]

    def _set_reading(self, reading: bool) -> None:
        transport = self.transport
        if transport is not None and not self._eof and not self._closed:
            (transport.resume_reading if reading else transport.pause_reading)()

    @property
    def writable(self) -> Optional["asyncio.Future[None]"]:
        """``None`` while writes flow; otherwise a future that resolves
        when the transport resumes writing (or the connection ends)."""
        return self._resumed

    def close(self) -> None:
        """Flush what is queued, then close the transport; idempotent."""
        if not self._closed:
            self._closed = True
            self._read_holds += 1
            if self.transport is None:
                self._outbox.clear()  # never connected: nobody to tell
            else:
                self.flush()
                self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = True
        self._inbox.clear()
        self._outbox.clear()
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)
