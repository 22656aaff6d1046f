"""Graceful shutdown: ``request_shutdown``, signals, drain deadline.

The cluster supervisor stops workers with SIGTERM and expects every
admitted request to be answered before the process exits; these tests
pin that contract on a single in-process server, plus the wire-level
two-phase reload ops the cluster reload is built on.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.core import AccessRequest, MediationEngine
from repro.exceptions import ServiceError
from repro.policy.admin import PolicyAdministrator
from repro.service import (
    PDPConfig,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)

REQUEST = AccessRequest("watch", "livingroom/tv", subject="alice")


def make_server(policy, administrator=False, **config) -> PDPServer:
    pdp = PolicyDecisionPoint(MediationEngine(policy), PDPConfig(**config))
    admin = PolicyAdministrator(pdp) if administrator else None
    return PDPServer(pdp, administrator=admin)


def test_drain_timeout_must_be_positive(tv_policy) -> None:
    pdp = PolicyDecisionPoint(MediationEngine(tv_policy), PDPConfig())
    with pytest.raises(ServiceError):
        PDPServer(pdp, drain_timeout_s=0)
    with pytest.raises(ServiceError):
        PDPServer(pdp, drain_timeout_s=-1.0)
    PDPServer(pdp, drain_timeout_s=None)  # unbounded drain is fine


def test_request_shutdown_before_serve_is_a_noop(tv_policy) -> None:
    server = make_server(tv_policy)
    server.request_shutdown()  # must not raise


def test_request_shutdown_exits_serve_forever(tv_policy) -> None:
    async def scenario():
        server = make_server(tv_policy)
        await server.start()
        serving = asyncio.get_running_loop().create_task(
            server.serve_forever()
        )
        client = await RemotePDPClient.connect("127.0.0.1", server.port)
        response = await client.decide(
            REQUEST, environment_roles={"free-time"}
        )
        await client.close()
        server.request_shutdown()
        await asyncio.wait_for(serving, timeout=10.0)
        return response

    response = asyncio.run(scenario())
    assert response.granted is True


def test_inflight_request_answered_during_drain(tv_policy) -> None:
    """A request admitted before shutdown gets its answer, not a cut."""

    async def scenario():
        server = make_server(tv_policy)
        pdp = server.pdp
        # The shutdown lands inside _decide, so the request is provably
        # in flight then — admitted, out of the pending list, unanswered.
        original = type(pdp)._decide
        in_flight = []

        def shutting_down(self, requests, env_overrides, engine=None):
            server.request_shutdown()
            in_flight.append(not pending.done() and not serving.done())
            return original(self, requests, env_overrides, engine)

        pdp._decide = shutting_down.__get__(pdp)
        await server.start()
        serving = asyncio.get_running_loop().create_task(
            server.serve_forever()
        )
        client = await RemotePDPClient.connect("127.0.0.1", server.port)
        pending = asyncio.get_running_loop().create_task(
            client.decide(REQUEST, environment_roles={"free-time"})
        )
        response = await asyncio.wait_for(pending, timeout=10.0)
        await client.close()
        await asyncio.wait_for(serving, timeout=10.0)
        return in_flight, response

    in_flight, response = asyncio.run(scenario())
    assert in_flight == [True]  # decided after the shutdown landed
    assert response.granted is True


def test_sigterm_routes_into_graceful_drain(tv_policy) -> None:
    async def scenario():
        server = make_server(tv_policy)
        await server.start()
        server.install_signal_handlers()
        serving = asyncio.get_running_loop().create_task(
            server.serve_forever()
        )
        await asyncio.sleep(0.01)
        os.kill(os.getpid(), signal.SIGTERM)
        await asyncio.wait_for(serving, timeout=10.0)
        # Restore default handling for the rest of the test session.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        return True

    assert asyncio.run(scenario()) is True


# ----------------------------------------------------------------------
# Two-phase reload over the wire
# ----------------------------------------------------------------------
NEW_POLICY = """
subject role child
subject bobby is child
object role entertainment
object tv is entertainment
environment role free-time
allow child to watch on entertainment when free-time
"""


def test_wire_two_phase_prepare_activate(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy, administrator=True) as server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port
            )
            prepared = await client.reload_prepare(
                NEW_POLICY, actor="wire-test"
            )
            # Prepared, not yet serving: bobby is unknown.
            before = await client.decide(
                AccessRequest("watch", "tv", subject="bobby"),
                environment_roles={"free-time"},
            )
            activated = await client.reload_activate(
                prepared["token"], actor="wire-test"
            )
            after = await client.decide(
                AccessRequest("watch", "tv", subject="bobby"),
                environment_roles={"free-time"},
            )
            await client.close()
            return prepared, before, activated, after

    prepared, before, activated, after = asyncio.run(scenario())
    assert prepared["accepted"] is True
    assert prepared["token"]
    assert before.granted is False
    assert activated["accepted"] is True
    assert activated["generation"] == 1
    assert after.granted is True


def test_wire_two_phase_abort_and_bad_candidate(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy, administrator=True) as server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port
            )
            rejected = await client.reload_prepare(
                "gibberish {{{", actor="wire-test"
            )
            prepared = await client.reload_prepare(
                NEW_POLICY, actor="wire-test"
            )
            aborted = await client.reload_abort(
                prepared["token"], actor="wire-test"
            )
            # The aborted token is dead.
            stale = await client.reload_activate(
                prepared["token"], actor="wire-test"
            )
            await client.close()
            return rejected, aborted, stale, server.pdp.generation

    rejected, aborted, stale, generation = asyncio.run(scenario())
    assert rejected["accepted"] is False
    assert rejected["token"] in (None, "")
    assert aborted is True
    assert stale["accepted"] is False
    assert generation == 0


def test_wire_two_phase_without_administrator(tv_policy) -> None:
    async def scenario():
        async with make_server(tv_policy) as server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port
            )
            with pytest.raises(ServiceError):
                await client.reload_prepare(NEW_POLICY, actor="x")
            await client.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Intern with provided tables (the router's handshake replay)
# ----------------------------------------------------------------------
def test_intern_accepts_provided_tables(tv_policy) -> None:
    """A client may pin its own tables — ids survive reconnects."""

    async def scenario():
        async with make_server(tv_policy) as server:
            first = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire="binary"
            )
            tables = first._links["self"].tables
            response_a = await first.decide(
                REQUEST, environment_roles={"free-time"}
            )
            await first.close()

            # A second connection provides the first's tables verbatim
            # (what the ShardRouter replays to a restarted worker).
            from repro.service.protocol import dumps_line, parse_line

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                dumps_line(
                    {
                        "op": "intern",
                        "id": "replay",
                        **tables.to_payload(),
                    }
                )
            )
            await writer.drain()
            echoed = parse_line(await reader.readline())
            writer.close()
            return tables, response_a, echoed

    tables, response_a, echoed = asyncio.run(scenario())
    assert response_a.granted is True
    assert echoed["id"] == "replay"
    assert echoed["tables"] == tables.to_payload()["tables"]
    assert echoed.get("error") is None
