"""The binary wire lane: framing, intern handshake, error paths.

Satellite coverage for PR 6's protocol work: truncated frames,
oversized frames (the ``MAX_LINE_BYTES``-equivalent cap), mixed
NDJSON/binary clients on one server, the pre-handshake error, and the
client's transparent NDJSON fallback for traffic the binary lane
cannot carry.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core import AccessRequest, MediationEngine
from repro.exceptions import ServiceError
from repro.service import (
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.service.protocol import (
    BINARY_MAGIC,
    FRAME_HEADER,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    InternTables,
    decode_binary_error,
    decode_binary_request,
    decode_binary_response,
    dumps_line,
    encode_binary_request,
    encode_binary_response,
)


def make_server(policy, **config) -> PDPServer:
    engine = MediationEngine(policy)
    return PDPServer(PolicyDecisionPoint(engine, PDPConfig(**config)))


async def read_frame(reader):
    header = await reader.readexactly(FRAME_HEADER.size)
    magic, kind, length = FRAME_HEADER.unpack(header)
    assert magic == BINARY_MAGIC
    return kind, await reader.readexactly(length)


# ----------------------------------------------------------------------
# Codec round trips (no sockets)
# ----------------------------------------------------------------------
class TestCodec:
    def tables(self, policy) -> InternTables:
        return InternTables.from_policy(policy)

    def test_request_round_trip(self, tv_policy):
        tables = self.tables(tv_policy)
        request = AccessRequest(
            "watch", "livingroom/tv", subject="alice",
            identity_confidence=0.75,
        )
        data = encode_binary_request(
            tables, request, 42, env=frozenset({"free-time"})
        )
        assert data[0] == BINARY_MAGIC
        kind, length = struct.unpack_from("!BI", data, 1)
        assert kind == KIND_REQUEST and length == len(data) - FRAME_HEADER.size
        request_id, decoded, env, timeout_s = decode_binary_request(
            tables, data[FRAME_HEADER.size:]
        )
        assert request_id == 42
        assert decoded.subject == "alice"
        assert decoded.transaction == "watch"
        assert decoded.obj == "livingroom/tv"
        assert decoded.identity_confidence == 0.75
        assert env == frozenset({"free-time"})
        assert timeout_s is None

    def test_no_env_and_no_subject(self, tv_policy):
        tables = self.tables(tv_policy)
        request = AccessRequest("watch", "livingroom/tv", subject="alice")
        body = encode_binary_request(tables, request, 7)[FRAME_HEADER.size:]
        _, decoded, env, _ = decode_binary_request(tables, body)
        assert env is None and decoded.subject == "alice"

    def test_uninterned_name_refuses_binary_lane(self, tv_policy):
        tables = self.tables(tv_policy)
        ghost = AccessRequest("watch", "livingroom/tv", subject="mallory")
        with pytest.raises(ServiceError, match="not interned"):
            encode_binary_request(tables, ghost, 1)

    def test_role_claims_refuse_binary_lane(self, tv_policy):
        tables = self.tables(tv_policy)
        claimed = AccessRequest(
            "watch", "livingroom/tv", role_claims={"child": 0.9}
        )
        with pytest.raises(ServiceError, match="claims"):
            encode_binary_request(tables, claimed, 1)

    def test_truncated_request_body_is_a_service_error(self, tv_policy):
        tables = self.tables(tv_policy)
        request = AccessRequest("watch", "livingroom/tv", subject="alice")
        body = encode_binary_request(tables, request, 9)[FRAME_HEADER.size:]
        with pytest.raises(ServiceError, match="truncated"):
            decode_binary_request(tables, body[:5])

    def test_trailing_garbage_rejected(self, tv_policy):
        tables = self.tables(tv_policy)
        request = AccessRequest("watch", "livingroom/tv", subject="alice")
        body = encode_binary_request(tables, request, 9)[FRAME_HEADER.size:]
        with pytest.raises(ServiceError, match="trailing"):
            decode_binary_request(tables, body + b"\x00")

    def test_unknown_id_rejected(self, tv_policy):
        tables = self.tables(tv_policy)
        request = AccessRequest("watch", "livingroom/tv", subject="alice")
        body = bytearray(
            encode_binary_request(tables, request, 9)[FRAME_HEADER.size:]
        )
        struct.pack_into("!i", body, 8, 40_000)  # transaction id slot
        with pytest.raises(ServiceError, match="unknown id"):
            decode_binary_request(tables, bytes(body))

    def test_intern_tables_payload_round_trip(self, tv_policy):
        tables = self.tables(tv_policy)
        rebuilt = InternTables.from_payload(tables.to_payload())
        assert rebuilt.subjects == tables.subjects
        assert rebuilt.objects == tables.objects
        assert rebuilt.transactions == tables.transactions
        assert rebuilt.environment_roles == tables.environment_roles
        assert rebuilt.revision == tables.revision


# ----------------------------------------------------------------------
# End-to-end over TCP
# ----------------------------------------------------------------------
def test_binary_client_round_trip(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            ) as client:
                assert client._links["self"].tables is not None
                granted = await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles={"free-time"},
                )
                denied = await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles=set(),
                )
                # Control ops ride NDJSON on the same connection.
                assert await client.ping()
                return granted, denied

    granted, denied = asyncio.run(scenario())
    assert granted is True and denied is False


def test_binary_and_json_clients_agree(tv_policy) -> None:
    """Mixed NDJSON/binary clients on one server, answers identical."""
    cases = [
        ("alice", {"free-time"}),
        ("alice", set()),
        ("mom", {"free-time"}),
        ("bobby", {"free-time", "weekday"}),
    ]

    async def scenario():
        async with make_server(tv_policy, cache_size=0) as server:
            jc = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="json"
            )
            bc = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            )
            try:
                pairs = []
                for subject, env in cases:
                    request = AccessRequest(
                        "watch", "livingroom/tv", subject=subject
                    )
                    a = await jc.decide(request, environment_roles=env)
                    b = await bc.decide(request, environment_roles=env)
                    pairs.append((a, b))
                return pairs
            finally:
                await jc.close()
                await bc.close()

    for a, b in asyncio.run(scenario()):
        assert a.outcome is b.outcome
        assert a.granted is b.granted


def test_binary_client_falls_back_for_claims_and_new_names(tv_policy) -> None:
    """Traffic the binary lane cannot carry rides NDJSON transparently."""

    async def scenario():
        async with make_server(tv_policy) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            ) as client:
                claimed = await client.decide(
                    AccessRequest(
                        "watch", "livingroom/tv",
                        role_claims={"child": 0.99},
                    ),
                    environment_roles={"free-time"},
                )
                timed = await client.decide(
                    AccessRequest(
                        "watch", "livingroom/tv", subject="alice"
                    ),
                    environment_roles={"free-time"},
                    timeout_ms=5_000,
                )
                return claimed, timed

    claimed, timed = asyncio.run(scenario())
    assert claimed.outcome is PDPOutcome.GRANT
    assert timed.outcome is PDPOutcome.GRANT


def test_binary_request_before_intern_gets_error_frame(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                tables = InternTables.from_policy(tv_policy)
                writer.write(
                    encode_binary_request(
                        tables,
                        AccessRequest(
                            "watch", "livingroom/tv", subject="alice"
                        ),
                        1,
                    )
                )
                await writer.drain()
                kind, body = await read_frame(reader)
                return kind, decode_binary_error(body)
            finally:
                writer.close()
                await writer.wait_closed()

    kind, (request_id, message) = asyncio.run(scenario())
    assert kind == KIND_ERROR
    assert request_id is None
    assert "intern" in message


def test_truncated_frame_drops_connection_but_not_server(tv_policy) -> None:
    """A peer dying mid-frame must not wedge the listener."""

    async def scenario():
        async with make_server(tv_policy) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Half a header, then half a body, then hang up.
            writer.write(bytes([BINARY_MAGIC, KIND_REQUEST, 0x00]))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # The server is still healthy for the next client.
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            ) as client:
                return await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles={"free-time"},
                )

    assert asyncio.run(scenario()) is True


def test_oversized_frame_rejected_with_error_and_close(tv_policy) -> None:
    """Frames above MAX_FRAME_BYTES are refused, mirroring the NDJSON
    line cap — length is rejected from the header, the body is never
    buffered."""

    async def scenario():
        async with make_server(tv_policy) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(
                    FRAME_HEADER.pack(
                        BINARY_MAGIC, KIND_REQUEST, MAX_FRAME_BYTES + 1
                    )
                )
                await writer.drain()
                kind, body = await read_frame(reader)
                assert kind == KIND_ERROR
                _, message = decode_binary_error(body)
                # ...and the server closes the (unrecoverable) stream.
                assert await reader.read() == b""
                return message
            finally:
                writer.close()
                await writer.wait_closed()

    assert "exceeds" in asyncio.run(scenario())


def test_mixed_messages_on_one_raw_connection(tv_policy) -> None:
    """One socket interleaving NDJSON ops and binary requests."""

    async def scenario():
        async with make_server(tv_policy) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # NDJSON intern handshake...
                writer.write(dumps_line({"op": "intern", "id": 1}))
                await writer.drain()
                line = await reader.readline()
                import json

                tables = InternTables.from_payload(json.loads(line))
                # ...a binary request...
                writer.write(
                    encode_binary_request(
                        tables,
                        AccessRequest(
                            "watch", "livingroom/tv", subject="alice"
                        ),
                        2,
                        env=frozenset({"free-time"}),
                    )
                )
                await writer.drain()
                kind, body = await read_frame(reader)
                assert kind == KIND_RESPONSE
                binary_response = decode_binary_response(body)
                # ...then an NDJSON ping on the same socket.
                writer.write(dumps_line({"op": "ping", "id": 3}))
                await writer.drain()
                pong = json.loads(await reader.readline())
                return binary_response, pong
            finally:
                writer.close()
                await writer.wait_closed()

    response, pong = asyncio.run(scenario())
    assert response.id == 2
    assert response.outcome is PDPOutcome.GRANT and response.granted
    assert pong == {"op": "pong", "id": 3}


def test_intern_refresh_after_policy_growth(tv_policy) -> None:
    """Names minted after the handshake fall back to NDJSON until the
    client re-interns — never an error, never a wrong answer."""

    async def scenario():
        async with make_server(tv_policy) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            ) as client:
                before = len(client._links["self"].tables.subjects)
                tv_policy.add_subject("grandpa")
                tv_policy.assign_subject("grandpa", "child")
                # Uninterned name: JSON fallback still answers.
                granted = await client.check(
                    "grandpa", "watch", "livingroom/tv",
                    environment_roles={"free-time"},
                )
                refreshed = await client.intern()
                return before, granted, len(refreshed.subjects)

    before, granted, after = asyncio.run(scenario())
    assert granted is True
    assert after == before + 1
