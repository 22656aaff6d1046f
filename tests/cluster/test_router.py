"""The cluster's decision path and the router's control plane.

No subprocesses here: workers are in-process :class:`PDPServer`
instances (plus a hand-rolled misbehaving listener), so these tests
pin the protocol behavior — the client routing each decision straight
to its worker on the router's ring, both wire formats,
unavailable-shedding and breaker state on the client, control ops on
the router — fast and deterministically.  Real fork/exec lifecycles
live in ``test_supervisor.py``.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.cluster import ShardRouter
from repro.core import AccessRequest, MediationEngine
from repro.exceptions import ServiceError
from repro.service import (
    CircuitBreaker,
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)

SUBJECTS = ("mom", "dad", "alice", "bobby")


def make_server(policy, **config) -> PDPServer:
    return PDPServer(
        PolicyDecisionPoint(MediationEngine(policy), PDPConfig(**config))
    )


async def start_cluster(tv_policy, n=2, **router_kwargs):
    servers = []
    for _ in range(n):
        server = make_server(tv_policy)
        await server.start()
        servers.append(server)
    router = ShardRouter(
        {f"w{i}": ("127.0.0.1", s.port) for i, s in enumerate(servers)},
        **router_kwargs,
    )
    await router.start()
    return router, servers


async def stop_cluster(router, servers):
    await router.stop()
    for server in servers:
        await server.stop()


def requests_by_worker(servers):
    """Decisions each worker was asked for, by slot name."""
    return {
        f"w{i}": server.pdp.stats()["requests"]
        for i, server in enumerate(servers)
    }


def dead_port() -> int:
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()  # nothing listens here any more
    return port


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_ndjson_decisions_route_and_answer(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            results = {}
            for subject in SUBJECTS:
                response = await client.decide(
                    AccessRequest("watch", "livingroom/tv", subject=subject),
                    environment_roles={"free-time"},
                )
                results[subject] = response.outcome
            await client.close()
            return results, requests_by_worker(servers), router.stats()
        finally:
            await stop_cluster(router, servers)

    results, routed, stats = asyncio.run(scenario())
    assert results["alice"] is PDPOutcome.GRANT
    assert results["bobby"] is PDPOutcome.GRANT
    assert results["mom"] is PDPOutcome.DENY
    # Four decisions, each on exactly one worker; none on the router.
    assert sum(routed.values()) == len(SUBJECTS)
    assert stats["unavailable_synthesized"] == 0


def test_subject_affinity_is_stable(tv_policy) -> None:
    """The same subject always lands on the worker the router's ring
    names (cache locality)."""

    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            owner = router.ring.route("alice")
            before = requests_by_worker(servers)[owner]
            for _ in range(10):
                await client.decide(
                    AccessRequest("watch", "livingroom/tv", subject="alice"),
                    environment_roles={"free-time"},
                )
            routed = client.route("alice")
            await client.close()
            return owner, routed, requests_by_worker(servers)[owner] - before
        finally:
            await stop_cluster(router, servers)

    owner, routed, landed = asyncio.run(scenario())
    assert routed == owner
    assert landed == 10


def test_binary_wire_through_router(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            client = await RemotePDPClient.connect(
                "127.0.0.1", router.port, wire="binary"
            )
            responses = await asyncio.gather(
                *(
                    client.decide(
                        AccessRequest(
                            "watch", "livingroom/tv", subject=subject
                        ),
                        environment_roles={"free-time"},
                    )
                    for subject in SUBJECTS * 5
                )
            )
            await client.close()
            return responses, requests_by_worker(servers)
        finally:
            await stop_cluster(router, servers)

    responses, routed = asyncio.run(scenario())
    assert len(responses) == 20
    assert all(
        r.outcome in (PDPOutcome.GRANT, PDPOutcome.DENY) for r in responses
    )
    assert sum(routed.values()) == 20


def test_tenant_key_takes_precedence_over_subject(tv_policy) -> None:
    """Requests carrying a tenant shard by tenant, not subject."""

    async def scenario():
        router, servers = await start_cluster(tv_policy, n=4)
        try:
            owner = router.ring.route("sharedtenant")
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            responses = [
                await client.decide(
                    AccessRequest("watch", "livingroom/tv", subject=subject),
                    tenant="sharedtenant",
                )
                for subject in SUBJECTS
            ]
            await client.close()
            return owner, requests_by_worker(servers), responses
        finally:
            await stop_cluster(router, servers)

    owner, routed, responses = asyncio.run(scenario())
    # All four landed on the tenant's owner, no matter the subject.
    assert routed[owner] == len(SUBJECTS)
    assert all(routed[w] == 0 for w in routed if w != owner)
    # The workers don't serve that tenant; the *answer* is a clean
    # refusal either way — routing never invents grants.
    assert all(
        r.outcome is PDPOutcome.DENY_UNKNOWN_TENANT and not r.granted
        for r in responses
    )


def test_a_decision_sent_to_the_router_is_refused_not_relayed(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            from repro.service.protocol import dumps_line, parse_line

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.port
            )
            writer.write(
                dumps_line(
                    {
                        "id": 77,
                        "subject": "alice",
                        "transaction": "watch",
                        "object": "livingroom/tv",
                    }
                )
            )
            refused = parse_line(await reader.readline())
            writer.close()
            return refused, requests_by_worker(servers)
        finally:
            await stop_cluster(router, servers)

    refused, routed = asyncio.run(scenario())
    assert refused["id"] == 77 and "members" in refused["error"]
    assert "granted" not in refused
    assert sum(routed.values()) == 0


# ----------------------------------------------------------------------
# Failure: shed, never hang
# ----------------------------------------------------------------------
def test_dead_worker_sheds_deny_unavailable(tv_policy) -> None:
    """A connect-refused worker answers DENY_UNAVAILABLE, not a hang."""

    async def scenario():
        server = make_server(tv_policy)
        await server.start()
        router = ShardRouter(
            {
                "w0": ("127.0.0.1", server.port),
                "w1": ("127.0.0.1", dead_port()),
            }
        )
        await router.start()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            outcomes = {}
            for subject in SUBJECTS:
                response = await asyncio.wait_for(
                    client.decide(
                        AccessRequest(
                            "watch", "livingroom/tv", subject=subject
                        ),
                        environment_roles={"free-time"},
                    ),
                    timeout=5.0,
                )
                outcomes.setdefault(client.route(subject), []).append(
                    response.outcome
                )
            await client.close()
            return outcomes, client.breakers
        finally:
            await router.stop()
            await server.stop()

    outcomes, breakers = asyncio.run(scenario())
    assert outcomes.get("w1"), "some subject hashes to the dead worker"
    for outcome in outcomes["w1"]:
        assert outcome is PDPOutcome.DENY_UNAVAILABLE
    for outcome in outcomes.get("w0", []):
        assert outcome is not PDPOutcome.DENY_UNAVAILABLE
    # One refused dial at connect, one per decision that tried again.
    assert breakers["w1"].failures == 1 + len(outcomes["w1"])
    assert breakers["w0"].state() == "closed"


def test_midflight_death_synthesizes_for_outstanding(tv_policy) -> None:
    """A worker dying with requests in flight answers them all."""

    async def scenario():
        async def black_hole(reader, writer):
            # Read one line, then drop the connection with the request
            # still unanswered — a crash mid-request.
            await reader.readline()
            writer.close()

        trap = await asyncio.start_server(black_hole, "127.0.0.1", 0)
        trap_port = trap.sockets[0].getsockname()[1]
        router = ShardRouter({"w0": ("127.0.0.1", trap_port)})
        await router.start()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            response = await asyncio.wait_for(
                client.decide(
                    AccessRequest("watch", "livingroom/tv", subject="alice")
                ),
                timeout=5.0,
            )
            await client.close()
            return response
        finally:
            trap.close()
            await router.stop()

    response = asyncio.run(scenario())
    assert response.id == 1
    assert response.outcome is PDPOutcome.DENY_UNAVAILABLE
    assert response.granted is False


def test_restarted_worker_resumes_traffic(tv_policy) -> None:
    """set_worker with a fresh address: the client's next reconnect
    fetches members first and finds the new port."""

    async def scenario():
        router = ShardRouter({"w0": ("127.0.0.1", dead_port())})
        await router.start()
        replacement = make_server(tv_policy)
        await replacement.start()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            request = AccessRequest(
                "watch", "livingroom/tv", subject="alice"
            )
            first = await client.decide(
                request, environment_roles={"free-time"}
            )
            # "Restart": same slot name, new address.
            router.set_worker("w0", "127.0.0.1", replacement.port)
            second = await client.decide(
                request, environment_roles={"free-time"}
            )
            await client.close()
            return first.outcome, second.outcome
        finally:
            await router.stop()
            await replacement.stop()

    first, second = asyncio.run(scenario())
    assert first is PDPOutcome.DENY_UNAVAILABLE
    assert second is PDPOutcome.GRANT


# ----------------------------------------------------------------------
# Control ops
# ----------------------------------------------------------------------
def test_ping_answered_locally_and_ops_forwarded(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            pong = await client.ping()
            stats = await client.stats()
            health = await client.health()
            await client.close()
            return pong, stats, health
        finally:
            await stop_cluster(router, servers)

    pong, stats, health = asyncio.run(scenario())
    assert pong is True
    assert "queued" in stats or stats  # a real worker stats body
    assert health["healthy"] is True


def test_reload_refused_without_supervisor(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            with pytest.raises(ServiceError, match="supervisor"):
                await client.reload("subject role anything", actor="test")
            await client.close()
        finally:
            await stop_cluster(router, servers)

    asyncio.run(scenario())


def test_reload_delegated_to_handler(tv_policy) -> None:
    seen = {}

    async def handler(payload):
        seen["policy"] = payload.get("policy")
        return {"accepted": True, "error": "", "record": {}}

    async def scenario():
        router, servers = await start_cluster(
            tv_policy, reload_handler=handler
        )
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            result = await client.reload("subject role x", actor="test")
            await client.close()
            return result
        finally:
            await stop_cluster(router, servers)

    result = asyncio.run(scenario())
    assert result["accepted"] is True
    assert seen["policy"] == "subject role x"


# ----------------------------------------------------------------------
# CircuitBreaker unit behavior (an injected clock, no sleeping)
# ----------------------------------------------------------------------
class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_breaker_opens_after_threshold() -> None:
    breaker = CircuitBreaker(failure_threshold=3, cooldown_s=60.0)
    breaker.record_failure()
    breaker.record_failure()
    assert not breaker.open
    breaker.record_failure()
    assert breaker.open
    assert breaker.state() == "open"
    assert breaker.opens == 1


def test_breaker_half_opens_after_cooldown_and_recloses() -> None:
    clock = Clock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.01, clock=clock)
    breaker.record_failure()
    assert breaker.open
    clock.now += 0.02
    assert not breaker.open  # half-open: probes may pass
    assert breaker.state() == "half-open"
    breaker.record_success()
    assert breaker.state() == "closed"
    assert not breaker.open


def test_breaker_reopen_from_half_open() -> None:
    clock = Clock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.01, clock=clock)
    breaker.record_failure()
    clock.now += 0.02
    assert breaker.state() == "half-open"
    breaker.record_failure()
    assert breaker.open  # the failed probe re-stamps opened_at


def test_breaker_force_open_and_validation() -> None:
    breaker = CircuitBreaker(failure_threshold=5, cooldown_s=60.0)
    breaker.force_open()
    assert breaker.open and breaker.opens == 1
    with pytest.raises(ServiceError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ServiceError):
        CircuitBreaker(cooldown_s=0)
