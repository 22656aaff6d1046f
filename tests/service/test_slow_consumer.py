"""Slow consumers and abrupt lifecycles on the protocol-level server.

Backpressure is ``pause_writing -> pause_reading``: a peer that
pipelines without reading stops being *read* once its answers pile up
past the transport's high-water mark, so what the server buffers for it
is bounded by that mark plus the answers to one read — and nobody else
notices.  A connection lost while its read is being decided must cost
nothing: the rest of the batch writes nothing, raises nothing and
leaves no session behind in the grant table.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.core import AccessRequest, MediationEngine
from repro.service import (
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.service.protocol import dumps_line, encode_request
from repro.service.transport import READ_BUFFER_BYTES

from tests.service.test_revocation import REQUEST as LIVE_REQUEST
from tests.service.test_revocation import make_server as make_live_server

REQUEST = AccessRequest("watch", "livingroom/tv", subject="alice")
ENV = frozenset({"free-time"})
#: The most one read takes off a socket: a connection's read buffer.
ONE_READ = READ_BUFFER_BYTES
FLOOD = 40_000


async def eventually(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.005)


def test_unread_pipeline_pauses_its_own_reading_only(tv_policy) -> None:
    line = dumps_line(encode_request(REQUEST, 1, env=ENV))

    async def scenario():
        pdp = PolicyDecisionPoint(
            MediationEngine(tv_policy), PDPConfig(max_queue=FLOOD)
        )
        async with PDPServer(pdp) as server:
            # Small kernel buffers, so the test needs megabytes, not
            # tens of them, to back the server's transport up.
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect(("127.0.0.1", server.port))
            reader, writer = await asyncio.open_connection(sock=raw)
            await eventually(lambda: len(server._open) == 1)
            (flooded,) = server._open
            transport = flooded.transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )

            writer.write(line * FLOOD)  # never drained, never read
            await eventually(lambda: not transport.is_reading())
            await asyncio.sleep(0.1)  # nothing more may be consumed
            high_water = transport.get_write_buffer_limits()[1]
            buffered = transport.get_write_buffer_size()
            consumed = pdp.stats()["requests"]

            # A well-behaved neighbour is served as if nothing happened.
            neighbour = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            )
            slowest = 0.0
            for _ in range(50):
                started = time.perf_counter()
                response = await asyncio.wait_for(
                    neighbour.decide(REQUEST, environment_roles=set(ENV)), 5.0
                )
                slowest = max(slowest, time.perf_counter() - started)
                assert response.outcome is PDPOutcome.GRANT
            await neighbour.close()
            still_paused = not transport.is_reading()

            # The flooder finally reads: everything resumes and every
            # single request is answered.
            answers = answered_bytes = 0
            while answers < FLOOD:
                chunk = await asyncio.wait_for(reader.read(1 << 20), 30.0)
                assert chunk, "server closed on a slow reader"
                answers += chunk.count(b"\n")
                answered_bytes += len(chunk)
            writer.close()
            return (buffered, high_water, answered_bytes / FLOOD, consumed,
                    slowest, still_paused, pdp.stats())

    buffered, high_water, answer_bytes, consumed, slowest, paused, stats = (
        asyncio.run(scenario())
    )
    assert consumed < FLOOD  # reading stopped with requests still unread
    # Bounded by the high-water mark plus the answers to one read.
    assert buffered <= high_water + (ONE_READ // len(line) + 1) * answer_bytes
    assert buffered < FLOOD * answer_bytes / 4  # ...a fraction of everything
    assert paused and slowest < 0.25
    assert stats["requests"] == FLOOD + 50 and stats["shed"] == 0


def lose_connection_mid_batch(server: PDPServer, how: str) -> list:
    """Make the next batch lose the connection it serves before it
    decides — ``reset``: the transport is aborted; ``fin``: the
    connection is closed.  Returns the connections lost."""
    pdp = server.pdp
    original = type(pdp)._decide
    lost: list = []

    def losing(self, requests, env_overrides, engine=None):
        if not lost:
            (connection,) = server._open
            lost.append(connection)
            if how == "reset":
                connection.transport.abort()
            else:
                connection.close()
        return original(self, requests, env_overrides, engine)

    pdp._decide = losing.__get__(pdp)
    return lost


@pytest.mark.parametrize("how", ["reset", "fin"])
def test_disconnect_with_decisions_queued_drops_them_quietly(how: str) -> None:
    async def scenario():
        _, server = make_live_server(
            config=PDPConfig(cache_size=0, max_batch=8)
        )
        pdp = server.pdp
        lost = lose_connection_mid_batch(server, how)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # One write, so one read: five batches, the connection lost
            # inside the first, 40 subscribed decisions still owed.
            writer.write(b"".join(
                dumps_line(encode_request(
                    LIVE_REQUEST, request_id, subscribe=True
                ))
                for request_id in range(1, 41)
            ))
            try:
                written = await asyncio.wait_for(reader.read(), 10.0)
            except ConnectionResetError:
                written = b""
            writer.close()
            await eventually(lambda: not server._open)
            # The batcher survived its orphaned callbacks.
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                after = await client.decide(LIVE_REQUEST)
            return written, len(lost), pdp.stats(), pdp.grants, after

    written, lost, stats, grants, after = asyncio.run(scenario())
    assert lost == 1 and written == b""  # nothing reached the peer
    assert stats["requests"] == 41 and stats["decided"] == 41
    assert after.outcome is PDPOutcome.GRANT
    assert stats["errors"] == 0
    assert grants.sessions == 0 and grants.grants == 0
    assert grants.push_errors == 0


def test_half_closed_peer_still_gets_every_answer(tv_policy) -> None:
    """``send; shutdown(SHUT_WR); read`` — the one-shot client shape."""

    async def scenario():
        pdp = PolicyDecisionPoint(
            MediationEngine(tv_policy), PDPConfig(cache_size=0)
        )
        async with PDPServer(pdp) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for request_id in range(1, 21):
                writer.write(
                    dumps_line(encode_request(REQUEST, request_id, env=ENV))
                )
            # ...and a final line with no newline before the EOF.
            writer.write(dumps_line({"op": "ping", "id": 99}).rstrip())
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 10.0)  # until close
            writer.close()
            await eventually(lambda: not server._open)
            return data

    lines = asyncio.run(scenario()).splitlines()
    assert len(lines) == 21
    assert sum(b'"granted":true' in line for line in lines) == 20
    assert sum(b'"op":"pong"' in line for line in lines) == 1
