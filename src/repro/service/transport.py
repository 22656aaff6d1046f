"""The one connection path of the wire: parse per read, write per turn.

:class:`WireConnection` is the ``asyncio.BufferedProtocol`` every
endpoint of the PDP wire is built on:
:class:`~repro.service.server.PDPServer`'s per-connection state,
:class:`~repro.service.client.RemotePDPClient`'s links, and
:class:`~repro.cluster.router.ShardRouter`'s control sessions.  It owns what every
endpoint would otherwise pay an allocation per read, or a coroutine, a
lock and a ``drain()`` per message for:

* **one read buffer** — each connection reads into its own
  ``bytearray`` of :data:`READ_BUFFER_BYTES`, reused for every read
  (``get_buffer`` hands the transport a view of its free tail), so no
  read allocates.  The unfinished tail of a read moves to the front
  only when the free space runs out.  Only a single message longer
  than the buffer gets a larger one — sized from the frame header, or
  doubled up to the line cap, both checked first — and once that
  message is delivered the connection is back on its own buffer.
* **framing** — ``buffer_updated`` hands *every* complete message in
  the unread span to :meth:`frame_received` (a ``0xB1`` binary frame)
  or :meth:`line_received` (an NDJSON line) in one pass, in stream
  order, parsing in place; a partial message waits for the next read,
  and a partial line's newline scan resumes where the last read
  stopped.  Hooks get ``bytes`` (one copy each), never a view of the
  buffer, so they may keep what they are given.  Format detection is
  per message, so both lanes share a socket.
* **write coalescing** — :meth:`write` only queues; everything queued
  during one parse pass, its :meth:`pass_ended` hook included, leaves
  in a single ``transport.write`` when the pass ends, and anything
  queued between passes (a client's sends, a server's answers to no
  read) leaves in one write on the next loop iteration.
  :meth:`flush` forces the write now — revocation pushes use it so they
  never wait behind the reply that caused them.
* **backpressure** — when the transport's write buffer passes its
  high-water mark the connection stops *reading* (the peer's pipeline
  backs up into its own socket) and :meth:`writable` gives senders
  something to await; both resume at the low-water mark.  Buffered
  output is therefore bounded by the high-water mark plus the answers
  to one read.  :meth:`pause_reading` / :meth:`resume_reading` nest and
  stop *delivery*, not just the socket — what was read meanwhile waits
  in the buffer — so an endpoint (the cluster router) can hold a
  stream while it awaits something the stream must not overtake.

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

#: Size of every connection's read buffer, and so the most one read
#: takes off the socket.  Every open connection holds one (a cluster
#: client one per worker link); a closed-loop read is ≈ 1 KiB.
READ_BUFFER_BYTES = 16 * 1024


class WireConnection(asyncio.BufferedProtocol):
    """Framing, coalesced writes and flow control for one socket."""

    #: Longest NDJSON line accepted (clients raise it: op responses).
    max_line_bytes = MAX_LINE_BYTES

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The connection's own read buffer; ``_buffer`` is it, or a
        #: larger one while a single message outgrows it.  Neither is
        #: ever resized: the transport's view of it is live while the
        #: messages of a read are delivered.
        self._base = self._buffer = bytearray(READ_BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        #: ``_buffer[_start:_end]`` has been read and not yet delivered.
        self._start = self._end = 0
        #: Bytes the frame at ``_start`` takes, once its header is read
        #: and it is not complete (else 0).
        self._need = 0
        #: ``_buffer`` index before which the unfinished line at
        #: ``_start`` holds no newline.
        self._scanned = 0
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

    def pass_ended(self) -> None:
        """The read pass has delivered what it could; what this queues
        still leaves in the pass's one write."""

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

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end == len(self._buffer):
            self._make_room()
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        self._parse()

    def _parse(self) -> None:
        """Deliver every complete message of the unread span, in stream
        order, until the span runs out or a hold stops delivery."""
        buffer, view = self._buffer, self._view
        position, size = self._start, self._end
        self._need = 0
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
                        position = self._desynced(
                            f"binary frame of {length} bytes exceeds "
                            f"{MAX_FRAME_BYTES}",
                            True,
                            size,
                        )
                        break
                    end = position + _HEADER_BYTES + length
                    if end > size:
                        self._need = end - position
                        break
                    body = bytes(view[position + _HEADER_BYTES : end])
                    position = end
                    self.frame_received(kind, body)
                    continue
                end = buffer.find(b"\n", max(position, self._scanned), size)
                if (size if end < 0 else end) - position > self.max_line_bytes:
                    position = self._desynced("wire line too long", False, size)
                    break
                if end < 0:
                    if not self._eof:
                        self._scanned = size
                        break
                    end = size  # the peer is done: a final line still counts
                line = bytes(view[position:end]).strip()
                position = end + 1
                if line:
                    self.line_received(line)
        finally:
            self._consumed(min(position, size))
            try:
                self.pass_ended()
            finally:
                self._in_pass = False
                self.flush()

    def _desynced(self, message: str, binary: bool, size: int) -> int:
        self.protocol_error(message, binary)
        self.close()
        return size

    def _consumed(self, position: int) -> None:
        """Everything before ``position`` has been delivered."""
        self._start = position
        if self._buffer is not self._base:
            if max(self._need, self._end - position) < len(self._base):
                self._move_span(self._base)  # the long message is gone
        elif position == self._end:
            self._start = self._end = self._scanned = 0

    def _make_room(self) -> None:
        """The buffer is full: move the unread span to the front of the
        connection's own buffer, or — when one message needs more than
        that — of one that holds it: the frame header's size, or double
        for a line (whose prefix the line cap has already passed) up to
        the cap plus one read, so that the read which finds a line too
        long takes what the peer sent behind it too, and the close that
        follows is a clean one, not a reset."""
        need = max(self._need, self._end - self._start + 1)
        if need <= len(self._base):
            target = self._base
        elif need <= len(self._buffer):
            target = self._buffer
        elif self._need:
            target = bytearray(need)
        else:
            ceiling = self.max_line_bytes + len(self._base)
            target = bytearray(max(need, min(2 * len(self._buffer), ceiling)))
        self._move_span(target)

    def _move_span(self, target: bytearray) -> None:
        start, end = self._start, self._end
        view = self._view if target is self._buffer else memoryview(target)
        view[: end - start] = self._view[start:end]  # a memmove: may overlap
        self._buffer, self._view = target, view
        self._start, self._end = 0, end - start
        self._scanned -= start

    def eof_received(self) -> Optional[bool]:
        """The peer finished sending: a final unterminated line still
        counts, a truncated frame is dropped.  The transport closes
        unless an override returns true to keep writing."""
        self._eof = True
        self._parse()
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
            if self._end > self._start and not self._in_pass:
                self._parse()  # what waited while held

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
        self._start = self._end = 0  # nothing read is delivered any more
        self._outbox.clear()
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)
