"""One read buffer per connection, bounded.

:class:`WireConnection` reads every byte into the ``bytearray`` it was
born with; only a single message longer than that buffer gets a larger
one, and the connection is back on its own once the message is gone.
A length from the wire is checked before anything grows, and hooks are
handed ``bytes`` they may keep while the buffer is reused and replaced.
"""

from __future__ import annotations

import asyncio
import random

from repro.service.client import _Link
from repro.service.protocol import (
    BINARY_MAGIC,
    FRAME_HEADER,
    KIND_REQUEST,
    MAX_FRAME_BYTES,
    MAX_OP_LINE_BYTES,
    dumps_line,
    frame,
)
from repro.service.transport import READ_BUFFER_BYTES, WireConnection

from tests.service.test_property_chunking import FakeTransport, feed


class Recorder(WireConnection):
    """Keeps everything it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.messages: list = []
        self.errors: list = []

    def frame_received(self, kind: int, body: bytes) -> None:
        self.messages.append((kind, body))

    def line_received(self, line: bytes) -> None:
        self.messages.append(line)

    def protocol_error(self, message: str, binary: bool) -> None:
        self.errors.append(message)


def connected(connection: WireConnection) -> WireConnection:
    connection.connection_made(FakeTransport())
    return connection


def test_a_thousand_reads_land_in_the_same_bytearray() -> None:
    lines = [
        dumps_line({"op": "ping", "id": index, "pad": "x" * (index % 300)})
        for index in range(4000)
    ]
    stream = b"".join(lines)
    draw = random.Random(27)

    async def scenario():
        connection = connected(Recorder())
        seen, position = [], 0
        for _ in range(1000):  # reads of any size: tails cross the end
            buffer = connection.get_buffer(-1)
            seen.append(buffer.obj)
            taken = min(len(buffer), draw.randint(1, 900))
            buffer[:taken] = stream[position : position + taken]
            position += taken
            connection.buffer_updated(taken)
        return connection, seen, position

    connection, seen, position = asyncio.run(scenario())
    assert position > 20 * READ_BUFFER_BYTES  # it wrapped, many times
    assert all(buffer is seen[0] for buffer in seen)
    assert len(seen[0]) == READ_BUFFER_BYTES
    delivered = connection.messages
    assert delivered == [line.strip() for line in lines[: len(delivered)]]
    assert b"".join(lines[: len(delivered)]) == stream[: position - (
        connection._end - connection._start
    )]


def test_a_4_mib_op_line_on_a_link_then_back_to_the_base_buffer() -> None:
    class Client:
        """What a :class:`_Link` needs of its client."""

        def __init__(self) -> None:
            self._loop = asyncio.get_running_loop()

    head = b'{"id":1,"op":"metrics","text":"'
    line = head + b"x" * (MAX_OP_LINE_BYTES - len(head) - 2) + b'"}'
    assert len(line) == MAX_OP_LINE_BYTES

    async def scenario():
        link = connected(_Link(Client()))  # type: ignore[arg-type]
        answers = {
            wire_id: link.pending.setdefault(
                wire_id, asyncio.get_running_loop().create_future()
            )
            for wire_id in (1, 2)
        }
        base = link._buffer
        feed(link, line + b"\n" + dumps_line({"id": 2}), fills=[64 * 1024])
        return {k: v.result() for k, v in answers.items()}, link, base

    answers, link, base = asyncio.run(scenario())
    assert len(answers[1]["text"]) == len(line) - len(head) - 2
    assert answers[2] == {"id": 2}
    assert link._buffer is base and len(base) == READ_BUFFER_BYTES


def test_a_kept_body_survives_the_buffer_growing_behind_it() -> None:
    long_frame = frame(KIND_REQUEST, b"w" * (2 * READ_BUFFER_BYTES))
    long_line = dumps_line({"op": "ping", "pad": "y" * (3 * READ_BUFFER_BYTES)})

    async def scenario():
        connection = connected(Recorder())
        feed(connection, frame(KIND_REQUEST, b"kept body") + long_frame[:100])
        kept = connection.messages[0][1]
        # Both ways to grow — sized from a frame header, doubled for a
        # line — while the transport's view of the buffer is live.
        feed(connection, long_frame[100:] + long_line, fills=[1000])
        feed(connection, frame(KIND_REQUEST, b"z" * 64))  # reuses the base
        return connection, kept

    connection, kept = asyncio.run(scenario())
    assert type(kept) is bytes and kept == b"kept body"
    assert connection.messages == [
        (KIND_REQUEST, b"kept body"),
        (KIND_REQUEST, long_frame[FRAME_HEADER.size :]),
        long_line.strip(),
        (KIND_REQUEST, b"z" * 64),
    ]
    assert connection._buffer is connection._base


def test_a_hostile_frame_length_is_refused_before_anything_grows() -> None:
    async def scenario():
        connection = connected(Recorder())
        feed(
            connection,
            FRAME_HEADER.pack(BINARY_MAGIC, KIND_REQUEST, MAX_FRAME_BYTES + 1)
            + b"\x00" * READ_BUFFER_BYTES,
        )
        return connection

    connection = asyncio.run(scenario())
    assert connection.errors and "exceeds" in connection.errors[0]
    assert connection.messages == []
    assert connection._buffer is connection._base
    assert len(connection._base) == READ_BUFFER_BYTES
