"""Push revocation across a cluster (§4.2.2 at cluster scale).

The client holds the ring and a link to every worker, so a worker's
unsolicited ``revoke`` arrives on the very link that carried the
grant.  The client's ``env`` goes to every worker link — each worker
holds its own environment replica — and answers only once every
worker has answered, behind the revokes it pushed.

The restart test pins the failure semantics: a worker's
:class:`SessionGrantTable` dies with the worker, so a grant watched
by a dead worker is simply gone — the client re-subscribes after the
restart and the new worker's table takes over.
"""

from __future__ import annotations

import asyncio
from datetime import datetime

import pytest

from repro.cluster import ShardRouter
from repro.core import AccessRequest, GrbacPolicy, MediationEngine
from repro.env.runtime import EnvironmentRuntime
from repro.env.temporal import time_window
from repro.service import (
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)

EVENING = datetime(2000, 1, 17, 20, 0)  # inside free-time 19:00-22:00
REQUEST = AccessRequest("watch", "den/tv", subject="bobby")


def make_worker(port: int = 0) -> PDPServer:
    runtime = EnvironmentRuntime(start=EVENING)
    policy = GrbacPolicy()
    policy.add_subject("bobby")
    policy.add_subject_role("child")
    policy.assign_subject("bobby", "child")
    policy.add_object("den/tv")
    policy.add_object_role("entertainment")
    policy.assign_object("den/tv", "entertainment")
    runtime.define_time_role(policy, "free-time", time_window("19:00", "22:00"))
    policy.grant("child", "watch", "entertainment", "free-time")
    engine = MediationEngine(policy, runtime.activator)
    pdp = PolicyDecisionPoint(engine, env_revision=runtime)
    return PDPServer(pdp, port=port, environment=runtime)


@pytest.mark.parametrize("wire", ["json", "binary"])
def test_revocation_relays_through_router(wire: str) -> None:
    async def scenario():
        worker = make_worker()
        await worker.start()
        router = ShardRouter({"w0": ("127.0.0.1", worker.port)})
        await router.start()
        try:
            client = await RemotePDPClient.connect(
                "127.0.0.1", router.port, wire=wire
            )
            received = asyncio.Event()
            client.subscribe(lambda r: received.set())
            response = await client.decide(REQUEST, subscribe=True)
            assert response.outcome is PDPOutcome.GRANT
            assert worker.pdp.grants.grants == 1
            # The worker pushes the flip's revocations on the grant's
            # link ahead of its env answer on that same link.
            out = await client.env("advance", seconds=3 * 3600)
            assert out["active"] == []
            assert received.is_set()
            revocations = list(client.revocations)
            await client.close()
            return revocations
        finally:
            await router.stop()
            await worker.stop()

    revocations = asyncio.run(scenario())
    assert len(revocations) == 1
    assert revocations[0].subject == "bobby"
    assert revocations[0].roles == ("free-time",)
    assert "free-time" in revocations[0].reason


def test_env_broadcast_reaches_every_worker() -> None:
    async def scenario():
        workers = [make_worker(), make_worker()]
        for worker in workers:
            await worker.start()
        router = ShardRouter(
            {
                f"w{i}": ("127.0.0.1", w.port)
                for i, w in enumerate(workers)
            }
        )
        await router.start()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            revisions_before = [
                w.environment.revision for w in workers
            ]
            # The answer waits for every worker's reply.
            await client.env("advance", seconds=3 * 3600)
            assert all(
                w.environment.revision > before
                for w, before in zip(workers, revisions_before)
            )
            actives = [sorted(w.environment.active_roles()) for w in workers]
            await client.close()
            return actives
        finally:
            await router.stop()
            for worker in workers:
                await worker.stop()

    actives = asyncio.run(scenario())
    # 23:00 everywhere: every replica crossed the 22:00 boundary.
    assert actives == [[], []]


def test_worker_restart_drops_watches_and_resubscribe_recovers() -> None:
    async def scenario():
        worker = make_worker()
        await worker.start()
        port = worker.port
        router = ShardRouter({"w0": ("127.0.0.1", port)})
        await router.start()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            received = asyncio.Event()
            client.subscribe(lambda r: received.set())
            first = await client.decide(REQUEST, subscribe=True)
            assert first.outcome is PDPOutcome.GRANT
            assert worker.pdp.grants.grants == 1

            # Mid-stream restart: the grant table dies with the worker.
            # stop() only closes the listener (in-process handlers keep
            # their sockets); a crashed process drops them — simulate
            # that by severing the worker's connections too.
            links = list(worker._open)
            await worker.stop()
            for connection in links:
                connection.transport.abort()
            while client._links:
                await asyncio.sleep(0)  # the client sees its link go
            replacement = make_worker(port=port)
            await replacement.start()
            assert replacement.pdp.grants.grants == 0

            # Re-subscribing is the client's recovery move: the lost
            # link is re-dialled (members fetched first) on the next
            # decision for its key range.
            second = await client.decide(REQUEST, subscribe=True)
            assert second.outcome is PDPOutcome.GRANT
            assert replacement.pdp.grants.grants == 1

            out = await client.env("advance", seconds=3 * 3600)
            assert out["active"] == []
            assert received.is_set()
            revocations = list(client.revocations)
            await client.close()
            await replacement.stop()
            # Only the re-subscribed grant was ever revoked: the
            # pre-restart watch died with the old worker's table.
            return first.request_id, second.request_id, revocations
        finally:
            await router.stop()
            await worker.stop()

    first_id, second_id, revocations = asyncio.run(scenario())
    assert len(revocations) == 1
    assert revocations[0].id == second_id
    assert revocations[0].roles == ("free-time",)
