"""Property: how the bytes were cut never changes the answers.

The server parses every complete message a read delivered and keeps an
unfinished tail in its read buffer for the next one.  Hypothesis builds
valid mixed streams — NDJSON decisions, binary frames, control ops —
and *any* partition of them into arrivals (one byte at a time, a cut
inside the 6-byte frame header, a cut between ``\\r`` and ``\\n``),
each taken off the socket in reads of any size, as :func:`feed` does,
must yield exactly the responses whole delivery does, with control ops
answered in stream order.

The negative half talks to a live :class:`PDPServer` over a socket:
oversized frame, truncated frame, stale intern id, garbage line — never
a crash, never a hang, never a grant.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Dict, List, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AccessRequest, MediationEngine
from repro.service import PDPConfig, PDPServer, PolicyDecisionPoint
from repro.service.protocol import (
    BINARY_MAGIC,
    FRAME_HEADER,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    InternTables,
    decode_binary_error,
    decode_binary_response,
    dumps_line,
    encode_binary_request,
    encode_request,
    frame,
)
from repro.service.server import _Connection
from repro.service.transport import READ_BUFFER_BYTES

from tests.service.test_property_pdp import (
    ENV_ROLES,
    OBJECTS,
    SUBJECTS,
    build_policy,
)

TABLES = InternTables.from_policy(build_policy())


class FakeTransport:
    """Collects what the connection writes; no socket."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.written += data

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None: ...

    def resume_reading(self) -> None: ...


def split_messages(data: bytes) -> List[Tuple[str, object]]:
    """An independent splitter for what the server wrote."""
    out: List[Tuple[str, object]] = []
    position = 0
    while position < len(data):
        if data[position] == BINARY_MAGIC:
            _, kind, length = FRAME_HEADER.unpack_from(data, position)
            body = data[position + 6 : position + 6 + length]
            assert len(body) == length, "server wrote a truncated frame"
            out.append(("frame", (kind, bytes(body))))
            position += 6 + length
        else:
            end = data.index(b"\n", position)
            out.append(("line", json.loads(data[position:end])))
            position = end + 1
    return out


def summarize(messages: Sequence[Tuple[str, object]]):
    """Per-id decision verdicts (decisions may overtake one another)
    and the control-op replies in the order they were written."""
    decisions: Dict[object, Tuple] = {}
    ops: List[object] = []
    for lane, message in messages:
        if lane == "frame":
            kind, body = message
            if kind == KIND_RESPONSE:
                response = decode_binary_response(body)
                key, verdict = ("b", response.id), (
                    response.outcome.value, response.granted
                )
            else:
                assert kind == KIND_ERROR
                key, verdict = ("b", "error"), decode_binary_error(body)
        elif "outcome" in message:
            key, verdict = ("j", message["id"]), (
                message["outcome"], message["granted"]
            )
        else:
            # Volatile bodies (ready's queue depth) reduce to their shape.
            ops.append((message.get("op"), message.get("id"),
                        "error" in message, message.get("tables")))
            continue
        assert key not in decisions, f"answered twice: {key}"
        decisions[key] = verdict
    return decisions, ops


def feed(connection, chunk: bytes, fills: Sequence[int] = ()) -> None:
    """Hand ``chunk`` to ``connection`` the way a transport does: ask
    for a buffer, ``recv_into`` at most what it offers — and at most
    the next of ``fills`` (cycled) — then report the bytes, with the
    view still alive, until all of ``chunk`` is in."""
    sizes = itertools.cycle(fills or [len(chunk)])
    position = 0
    while position < len(chunk):
        buffer = connection.get_buffer(-1)
        assert len(buffer)
        taken = min(len(buffer), len(chunk) - position, next(sizes))
        buffer[:taken] = chunk[position : position + taken]
        position += taken
        connection.buffer_updated(taken)


async def deliver(
    chunks: Sequence[bytes], expected: int, fills: Sequence[int] = ()
):
    """Feed ``chunks`` to a fresh connection on a fresh PDP, yielding to
    the loop between chunks; returns the summary of what it wrote."""
    pdp = PolicyDecisionPoint(MediationEngine(build_policy()), PDPConfig())
    server = PDPServer(pdp)
    async with pdp:
        connection = _Connection(server)
        transport = FakeTransport()
        connection.connection_made(transport)
        for chunk in chunks:
            feed(connection, chunk, fills)
            if len(chunks) > 1:
                await asyncio.sleep(0)
        for _ in range(10_000):
            messages = split_messages(bytes(transport.written))
            if len(messages) >= expected:
                break
            await asyncio.sleep(0)
        connection.connection_lost(None)
    assert len(messages) == expected, "a message went unanswered"
    assert server.pdp.grants.sessions == 0
    return summarize(messages)


requests = st.builds(
    lambda subject, transaction, obj: AccessRequest(
        transaction, obj, subject=subject
    ),
    st.sampled_from(sorted(SUBJECTS)),
    st.sampled_from(["watch", "power_on"]),
    st.sampled_from(sorted(OBJECTS)),
)
envs = st.frozensets(st.sampled_from(ENV_ROLES), max_size=2)

messages = st.one_of(
    st.tuples(st.just("json"), requests, envs),
    st.tuples(st.just("binary"), requests, envs),
    st.tuples(st.just("op"), st.sampled_from(
        ["ping", "ready", "intern", "tenants", "no-such-op"]
    ), st.sampled_from([b"\n", b"\r\n", b"\n\n"])),
)


def op_line(item, index: int, **fields) -> bytes:
    """An op item's bytes, ended by its terminator; a fourth element
    pads the line past that many bytes (longer than the read buffer)."""
    if len(item) > 3:
        fields["pad"] = "x" * item[3]
    return dumps_line({"op": item[1], "id": index, **fields})[:-1] + item[2]


def encode_stream(items) -> bytes:
    """The wire bytes of ``items``, led by the intern handshake."""
    stream = bytearray(dumps_line({"op": "intern", "id": 0}))
    for index, item in enumerate(items, start=1):
        if item[0] == "json":
            stream += dumps_line(encode_request(item[1], index, env=item[2]))
        elif item[0] == "binary":
            stream += encode_binary_request(TABLES, item[1], index, env=item[2])
        else:
            stream += op_line(item, index)
    return bytes(stream)


def cut(stream: bytes, cuts: Sequence[int]) -> List[bytes]:
    edges = [0, *sorted({c % len(stream) for c in cuts} - {0}), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


#: How many bytes each simulated ``recv_into`` takes (cycled; empty:
#: all it is offered), so reads end anywhere against the buffer's end.
fills = st.lists(
    st.integers(min_value=1, max_value=2 * READ_BUFFER_BYTES), max_size=6
)
LONGER_THAN_A_READ = READ_BUFFER_BYTES + 3_000


@settings(max_examples=60, deadline=None)
@given(
    items=st.lists(messages, min_size=1, max_size=12),
    cuts=st.one_of(
        st.lists(st.integers(min_value=1, max_value=4096), max_size=12),
        st.just(range(1, 4096)),  # every byte its own chunk
    ),
    fills=fills,
)
@example(  # a cut after each byte of a frame header
    items=[("binary", AccessRequest("watch", "tv", subject="alice"),
            frozenset({"free-time"}))],
    cuts=range(1, 4096),
    fills=[],
)
@example(  # a line longer than the buffer, between reads that compact
    items=[
        ("json", AccessRequest("watch", "tv", subject="alice"), frozenset()),
        ("op", "ping", b"\r\n", LONGER_THAN_A_READ),
        ("binary", AccessRequest("watch", "tv", subject="alice"),
         frozenset({"free-time"})),
        ("op", "ping", b"\n"),
    ],
    cuts=[100, 5_000],
    fills=[7_001, 3],
)
def test_any_partition_yields_the_same_responses(items, cuts, fills) -> None:
    stream = encode_stream(items)
    expected = len(items) + 1

    async def scenario():
        whole = await deliver([stream], expected)
        parts = await deliver(cut(stream, cuts), expected, fills)
        return whole, parts

    whole, parts = asyncio.run(scenario())
    assert parts == whole
    decisions, ops = whole
    assert ops[0][0] == "intern" and ops[0][1] == 0
    assert [op[1] for op in ops] == sorted(op[1] for op in ops)  # stream order
    assert ("b", "error") not in decisions


# ----------------------------------------------------------------------
# Negative cases against a live server
# ----------------------------------------------------------------------
async def read_frame(reader) -> Tuple[int, bytes]:
    _, kind, length = FRAME_HEADER.unpack(await reader.readexactly(6))
    return kind, await reader.readexactly(length)


def live(scenario) -> object:
    """Run ``scenario(reader, writer, server)`` against a live server
    under a hang guard, then prove the server still answers."""

    async def run():
        pdp = PolicyDecisionPoint(MediationEngine(build_policy()), PDPConfig())
        async with PDPServer(pdp) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                result = await asyncio.wait_for(
                    scenario(reader, writer, server), timeout=10.0
                )
            finally:
                writer.close()
            probe_reader, probe_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            probe_writer.write(dumps_line({"op": "ping", "id": 1}))
            pong = await asyncio.wait_for(probe_reader.readline(), 10.0)
            probe_writer.close()
            assert json.loads(pong) == {"op": "pong", "id": 1}
            return result

    return asyncio.run(run())


def test_oversized_frame_gets_an_error_frame_then_close() -> None:
    async def scenario(reader, writer, server):
        writer.write(
            FRAME_HEADER.pack(BINARY_MAGIC, KIND_REQUEST, MAX_FRAME_BYTES + 1)
            + dumps_line({"op": "ping", "id": 2})  # never parsed
        )
        kind, body = await read_frame(reader)
        rest = await reader.read()
        return kind, decode_binary_error(body), rest

    kind, (request_id, message), rest = live(scenario)
    assert kind == KIND_ERROR and request_id is None
    assert "exceeds" in message
    assert rest == b""  # closed; the bytes behind the bad header dropped


def test_oversized_line_gets_an_error_line_then_close() -> None:
    async def scenario(reader, writer, server):
        writer.write(b"x" * (MAX_LINE_BYTES + 2))  # no newline in sight
        reply = json.loads(await reader.readline())
        return reply, await reader.read()

    reply, rest = live(scenario)
    assert reply == {"error": "wire line too long"}
    assert rest == b""


def test_truncated_frame_is_dropped_silently() -> None:
    async def scenario(reader, writer, server):
        whole = encode_binary_request(
            TABLES, AccessRequest("watch", "tv", subject="alice"), 1
        )
        writer.write(dumps_line({"op": "intern", "id": 0}) + whole[:-3])
        await reader.readline()  # the intern reply
        writer.write_eof()
        return await reader.read()

    assert live(scenario) == b""  # no answer, no error, a clean close


def test_stale_intern_id_is_an_error_never_a_grant() -> None:
    async def scenario(reader, writer, server):
        stale = InternTables(  # one subject id past the server's table
            TABLES.subjects + ["ghost"], TABLES.objects,
            TABLES.transactions, TABLES.environment_roles,
        )
        writer.write(
            dumps_line({"op": "intern", "id": 0})
            + encode_binary_request(
                stale, AccessRequest("watch", "tv", subject="ghost"), 1,
                env=frozenset({"free-time"}),
            )
        )
        await reader.readline()
        return await read_frame(reader)

    kind, body = live(scenario)
    assert kind == KIND_ERROR
    assert decode_binary_error(body)[0] is None


def test_garbage_between_valid_messages_costs_one_error_line() -> None:
    async def scenario(reader, writer, server):
        writer.write(
            b"\x00\xff not json \x7f\n"
            + frame(9, b"unknown kind")
            + dumps_line(encode_request(
                AccessRequest("power_on", "oven", subject="alice"), 5,
                env=frozenset(),
            ))
        )
        error = json.loads(await reader.readline())
        kind, body = await read_frame(reader)
        verdict = json.loads(await reader.readline())
        return error, kind, decode_binary_error(body), verdict

    error, kind, (_, message), verdict = live(scenario)
    assert "error" in error and "id" not in error
    assert kind == KIND_ERROR and "unexpected frame kind 9" in message
    assert verdict["id"] == 5 and verdict["granted"] is False
