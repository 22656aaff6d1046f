"""End-to-end tests for the NDJSON TCP transport."""

from __future__ import annotations

import asyncio
import json

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
from repro.service.pdp import PDPResponse
from repro.service.protocol import (
    MAX_LINE_BYTES,
    WireRevocation,
    decode_request,
    decode_response,
    dumps_line,
    encode_request,
    encode_response,
    encode_revocation,
    parse_line,
)


def make_server(policy, **config) -> PDPServer:
    engine = MediationEngine(policy)
    return PDPServer(PolicyDecisionPoint(engine, PDPConfig(**config)))


def test_round_trip_grant_and_deny(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                granted = await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles={"free-time"},
                )
                denied = await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles=set(),
                )
                return granted, denied

    granted, denied = asyncio.run(scenario())
    assert granted is True
    assert denied is False


def test_wire_response_carries_service_metadata(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                request = AccessRequest("watch", "livingroom/tv", subject="alice")
                first = await client.decide(
                    request, environment_roles={"free-time"}
                )
                second = await client.decide(
                    request, environment_roles={"free-time"}
                )
                return first, second

    first, second = asyncio.run(scenario())
    assert first.outcome is PDPOutcome.GRANT
    assert not first.cached and first.batch_size >= 1
    assert second.cached and second.batch_size == 0
    assert second.latency_us >= 0.0
    assert "grant" in first.rationale or first.rationale


def test_pipelined_requests_on_one_connection(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy, cache_size=0) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                request = AccessRequest("watch", "livingroom/tv", subject="alice")
                responses = await asyncio.gather(
                    *(
                        client.decide(request, environment_roles={"free-time"})
                        for _ in range(40)
                    )
                )
                return responses

    responses = asyncio.run(scenario())
    assert all(r.outcome is PDPOutcome.GRANT for r in responses)
    # Concurrent wire requests really coalesce into micro-batches.
    assert max(r.batch_size for r in responses) > 1


def test_ping_and_stats_ops(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                alive = await client.ping()
                await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles={"free-time"},
                )
                stats = await client.stats()
                return alive, stats

    alive, stats = asyncio.run(scenario())
    assert alive is True
    assert stats["requests"] == 1
    assert stats["running"] is True
    assert "cache" in stats


def test_malformed_lines_keep_the_connection_alive(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                error_line = json.loads(await reader.readline())
                # Bad request body: error echoes the id.
                writer.write(dumps_line({"id": 9, "transaction": 42}))
                await writer.drain()
                bad_request = json.loads(await reader.readline())
                # The stream still works afterwards.
                writer.write(
                    dumps_line(
                        encode_request(
                            AccessRequest(
                                "watch", "livingroom/tv", subject="alice"
                            ),
                            request_id=10,
                            env=frozenset({"free-time"}),
                        )
                    )
                )
                await writer.drain()
                good = json.loads(await reader.readline())
                return error_line, bad_request, good
            finally:
                writer.close()
                await writer.wait_closed()

    error_line, bad_request, good = asyncio.run(scenario())
    assert "error" in error_line
    assert bad_request["id"] == 9 and "error" in bad_request
    assert good["id"] == 10 and good["granted"] is True


def test_unknown_op_reports_error(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(dumps_line({"op": "reboot", "id": 1}))
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()

    payload = asyncio.run(scenario())
    assert payload["id"] == 1
    assert "unknown op" in payload["error"]


def test_server_stop_fails_pending_client_calls(tv_policy) -> None:
    async def scenario():
        server = make_server(tv_policy)
        await server.start()
        client = await RemotePDPClient.connect("127.0.0.1", server.port)
        try:
            assert await client.ping()
            await server.stop()
            with pytest.raises(ServiceError):
                await client.check(
                    "alice", "watch", "livingroom/tv",
                    environment_roles={"free-time"},
                )
        finally:
            await client.close()

    asyncio.run(scenario())


def test_protocol_codec_round_trip() -> None:
    request = AccessRequest(
        "watch",
        "livingroom/tv",
        subject="alice",
        role_claims={"child": 0.98},
        identity_confidence=0.75,
    )
    payload = parse_line(
        dumps_line(
            encode_request(
                request, request_id=3,
                env=frozenset({"free-time"}), timeout_ms=250,
            )
        ).strip()
    )
    request_id, decoded, env, timeout_s = decode_request(payload)
    assert request_id == 3
    assert decoded == request
    assert env == frozenset({"free-time"})
    assert timeout_s == pytest.approx(0.25)


def test_dumps_line_is_compact_json_dumps(tv_policy) -> None:
    """The shared encoder writes exactly what ``json.dumps`` with
    compact separators writes, newline-terminated."""
    request = AccessRequest("watch", "livingroom/tv", subject="alice")
    decision = MediationEngine(tv_policy).decide(
        request, environment_roles={"free-time"}
    )
    response = PDPResponse(
        request=request,
        outcome=PDPOutcome.GRANT,
        granted=True,
        decision=decision,
        batch_size=3,
        latency_s=0.000123,
        request_id=7,
    )
    revocation = WireRevocation(
        id=7,
        subject="zoë",
        transaction="watch",
        obj="客厅/tv",
        roles=("free-time", "in-kitchen-h3"),
        reason="environment role 'free-time' deactivated",
        ts=1_700_000_000.123456,
    )
    messages = [
        encode_response(7, response),
        encode_revocation(revocation),
        {"op": "stats", "id": 2, "pdp": {"latency": [0.1 + 0.2, 1e-7, 1e300],
                                          "ratio": float("inf"), "none": None}},
        {"id": None, "error": "malformed line: Expecting value «»"},
        encode_request(
            AccessRequest("watch", "客厅/tv", subject="zoë"), 9,
            env=frozenset({"fête"}), timeout_ms=2.5,
        ),
    ]
    for message in messages:
        expected = json.dumps(message, separators=(",", ":"))
        assert dumps_line(message) == expected.encode("utf-8") + b"\n"


def test_protocol_rejects_oversized_and_invalid_lines() -> None:
    with pytest.raises(ServiceError):
        parse_line(b"x" * (MAX_LINE_BYTES + 1))
    with pytest.raises(ServiceError):
        parse_line(b"[1, 2, 3]")  # not an object
    with pytest.raises(ServiceError):
        decode_request({"id": 1, "transaction": "watch"})  # no object
    with pytest.raises(ServiceError):
        decode_response({"id": 1, "error": "nope"})
    with pytest.raises(ServiceError):
        decode_response({"id": 1, "outcome": "maybe"})
