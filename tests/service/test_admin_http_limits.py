"""Admin HTTP hardening: read deadlines and request-size caps.

The sidecar used to read requests with no deadline and no bound on the
request head — one stalled scraper connection could hold a handler
forever.  These tests pin the fixes: 408 when the deadline expires,
413 when the head or declared body outgrows its cap, 400 on malformed
or short bodies.

Both admin endpoints share the one listener
(:class:`repro.service.admin.AdminHTTPServer`), so every case runs
against both: under its historic name against the PDP sidecar, and
again in :class:`TestClusterEndpoint` against
:class:`~repro.cluster.ClusterAdminServer` over a stub supervisor —
every refusal happens before routing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ClusterAdminServer
from repro.core import MediationEngine
from repro.exceptions import ServiceError
from repro.service import AdminServer, PDPConfig, PolicyDecisionPoint


def run(coroutine):
    return asyncio.run(coroutine)


class StubSupervisor:
    """All the cluster endpoint needs to serve ``GET /health``."""

    async def cluster_health(self):
        return {"healthy": True}


@pytest.fixture
def make_admin(request, tv_policy):
    """``make_admin(**kwargs)`` builds the endpoint under test: the PDP
    sidecar, or — parametrized indirectly with ``"cluster"`` — the
    cluster's aggregating endpoint."""
    if getattr(request, "param", "service") == "cluster":
        return lambda **kwargs: ClusterAdminServer(StubSupervisor(), **kwargs)
    pdp = PolicyDecisionPoint(MediationEngine(tv_policy), PDPConfig())
    return lambda **kwargs: AdminServer(pdp, **kwargs)


async def _exchange(port: int, payload: bytes, eof: bool = False):
    """Send ``payload``, optionally half-close, read the full response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    if eof:
        writer.write_eof()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    if not raw:
        return None, b""
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b"\r\n", 1)[0].split()[1]), body


def test_read_timeout_must_be_positive(make_admin) -> None:
    with pytest.raises(ServiceError):
        make_admin(read_timeout_s=0)


def test_stalled_request_is_answered_408(make_admin) -> None:
    async def scenario():
        async with make_admin(read_timeout_s=0.2) as admin:
            # An unterminated request line: the reader waits for more
            # bytes that never come, and the deadline fires.
            return await _exchange(admin.port, b"GET /health"), admin

    (status, body), admin = run(scenario())
    assert status == 408
    assert b"deadline" in body
    assert admin.read_timeouts == 1


def test_slow_header_trickle_cannot_outlive_the_deadline(make_admin) -> None:
    """The deadline covers the whole read, not each line: trickling
    one header per 100ms still gets cut off."""

    async def scenario():
        async with make_admin(read_timeout_s=0.3) as admin:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", admin.port
            )
            writer.write(b"GET /health HTTP/1.1\r\n")
            await writer.drain()
            dripped = 0
            try:
                for index in range(20):
                    writer.write(f"X-Drip-{index}: 1\r\n".encode("ascii"))
                    await writer.drain()
                    await asyncio.sleep(0.1)
                    dripped += 1
            except (ConnectionResetError, BrokenPipeError):
                pass
            try:
                raw = await reader.read()
            except OSError:
                raw = b""  # the write-side failure poisoned the stream
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return raw, dripped, admin.read_timeouts

    raw, dripped, timeouts = run(scenario())
    assert timeouts == 1  # the deadline fired despite steady progress
    assert dripped < 20  # ... and the connection was cut early
    if raw:
        assert raw.startswith(b"HTTP/1.1 408")


def test_oversized_header_block_is_answered_413(make_admin) -> None:
    filler = b"".join(
        b"X-Pad-%d: %s\r\n" % (index, b"v" * 120) for index in range(80)
    )
    request = b"GET /health HTTP/1.1\r\n" + filler + b"\r\n"
    assert len(request) > 8 * 1024  # bigger than the head cap

    async def scenario():
        async with make_admin() as admin:
            return await _exchange(admin.port, request)

    status, body = run(scenario())
    assert status == 413
    assert b"head exceeds" in body


def test_declared_oversized_body_is_answered_413(make_admin) -> None:
    request = (
        b"POST /reload HTTP/1.1\r\n"
        b"Content-Length: 10485760\r\n\r\n"  # 10 MiB, never sent
    )

    async def scenario():
        async with make_admin() as admin:
            return await _exchange(admin.port, request)

    status, body = run(scenario())
    assert status == 413
    assert b"body exceeds" in body


@pytest.mark.parametrize("value", [b"ten", b"-5"])
def test_malformed_content_length_is_answered_400(make_admin, value) -> None:
    request = (
        b"POST /reload HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
    )

    async def scenario():
        async with make_admin() as admin:
            return await _exchange(admin.port, request)

    status, body = run(scenario())
    assert status == 400
    assert b"Content-Length" in body


def test_body_shorter_than_declared_is_answered_400(make_admin) -> None:
    request = b"POST /reload HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"

    async def scenario():
        async with make_admin() as admin:
            return await _exchange(admin.port, request, eof=True)

    status, body = run(scenario())
    assert status == 400
    assert b"shorter than Content-Length" in body


def test_well_formed_requests_still_served_after_refusals(make_admin) -> None:
    """Refused connections must not wedge the listener."""

    async def scenario():
        async with make_admin(read_timeout_s=0.2) as admin:
            await _exchange(admin.port, b"GET /stall")  # 408s
            status, _ = await _exchange(
                admin.port, b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            return status, admin.requests_served

    status, served = run(scenario())
    assert status in (200, 503)
    assert served == 1  # only the good request counts


@pytest.mark.parametrize("make_admin", ["cluster"], indirect=True)
class TestClusterEndpoint:
    """The same eight cases against the cluster admin endpoint."""

    test_read_timeout_must_be_positive = staticmethod(
        test_read_timeout_must_be_positive
    )
    test_stalled_request_is_answered_408 = staticmethod(
        test_stalled_request_is_answered_408
    )
    test_slow_header_trickle_cannot_outlive_the_deadline = staticmethod(
        test_slow_header_trickle_cannot_outlive_the_deadline
    )
    test_oversized_header_block_is_answered_413 = staticmethod(
        test_oversized_header_block_is_answered_413
    )
    test_declared_oversized_body_is_answered_413 = staticmethod(
        test_declared_oversized_body_is_answered_413
    )
    test_malformed_content_length_is_answered_400 = staticmethod(
        test_malformed_content_length_is_answered_400
    )
    test_body_shorter_than_declared_is_answered_400 = staticmethod(
        test_body_shorter_than_declared_is_answered_400
    )
    test_well_formed_requests_still_served_after_refusals = staticmethod(
        test_well_formed_requests_still_served_after_refusals
    )
