"""Cross-process trace propagation and the span-join waterfall.

End-to-end half: in-process PDP workers behind a :class:`ShardRouter`,
with the client holding the ring — each decision goes straight to its
worker, so the worker originates a sampled trace (its own head
sampling) or continues the client's context (the worker span's
``parent_span_id`` IS the caller's span id), and the join of the
workers' retained spans serves it.  No router span exists: the router
is off the decision path.  Unit half: :func:`join_trace` ordering,
depth, orphan roots, and unreachable-source tolerance.
"""

from __future__ import annotations

import asyncio

from repro.cluster import ShardRouter
from repro.cluster.liveops import join_trace
from repro.core import AccessRequest, MediationEngine
from repro.obs.trace import TraceContext
from repro.service import (
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)


def make_server(policy, **config) -> PDPServer:
    return PDPServer(
        PolicyDecisionPoint(MediationEngine(policy), PDPConfig(**config))
    )


async def start_cluster(tv_policy, n=2, **config):
    servers = []
    for _ in range(n):
        server = make_server(tv_policy, **config)
        await server.start()
        servers.append(server)
    router = ShardRouter(
        {f"w{i}": ("127.0.0.1", s.port) for i, s in enumerate(servers)}
    )
    await router.start()
    return router, servers


async def stop_cluster(router, servers):
    await router.stop()
    for server in servers:
        await server.stop()


def joined_for(servers, trace_id):
    return join_trace(
        {
            f"w{i}": server.pdp.find_trace(trace_id)
            for i, server in enumerate(servers)
        }
    )


def recent_traces(servers):
    return [
        trace_id for server in servers for trace_id in server.pdp.recent_traces()
    ]


async def decide_alice(client, **kwargs):
    return await client.decide(
        AccessRequest("watch", "livingroom/tv", subject="alice"),
        environment_roles={"free-time"},
        **kwargs,
    )


# ----------------------------------------------------------------------
# End-to-end propagation
# ----------------------------------------------------------------------
def test_worker_originates_and_the_join_serves_it(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy, trace_sample_rate=1.0)
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            response = await decide_alice(client)
            await client.close()
            trace_ids = recent_traces(servers)
            return response.outcome, trace_ids, joined_for(servers, trace_ids[0])
        finally:
            await stop_cluster(router, servers)

    outcome, trace_ids, spans = asyncio.run(scenario())
    assert outcome is PDPOutcome.GRANT
    assert len(trace_ids) == 1
    (span,) = spans
    assert span["service"] == "pdp" and span["name"] == "pdp.decide"
    assert span["depth"] == 0  # the worker originated it: a root
    assert span["trace_id"] == trace_ids[0]


def test_client_originated_context_propagates(tv_policy) -> None:
    """A caller-minted context reaches the worker unchanged: the
    worker's span is the caller span's child."""

    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            ctx = TraceContext.origin()
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            await decide_alice(client, trace=ctx)
            await client.close()
            return ctx, joined_for(servers, ctx.trace_id)
        finally:
            await stop_cluster(router, servers)

    ctx, spans = asyncio.run(scenario())
    assert spans, "client-originated trace must be recorded"
    assert all(s["trace_id"] == ctx.trace_id for s in spans)
    (span,) = spans
    assert span["service"] == "pdp"
    assert span["parent_span_id"] == ctx.span_id


def test_unsampled_context_records_nothing(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy, trace_sample_rate=1.0)
        try:
            ctx = TraceContext.origin(sampled=False)
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            await decide_alice(client, trace=ctx)
            await client.close()
            return joined_for(servers, ctx.trace_id), recent_traces(servers)
        finally:
            await stop_cluster(router, servers)

    # The head's "drop" is obeyed even by a worker sampling everything.
    assert asyncio.run(scenario()) == ([], [])


def test_default_rate_traces_nothing(tv_policy) -> None:
    async def scenario():
        router, servers = await start_cluster(tv_policy)
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            for subject in ("mom", "alice"):
                await client.decide(
                    AccessRequest("watch", "livingroom/tv", subject=subject),
                    environment_roles={"free-time"},
                )
            await client.close()
            return recent_traces(servers)
        finally:
            await stop_cluster(router, servers)

    assert asyncio.run(scenario()) == []


# ----------------------------------------------------------------------
# join_trace unit behavior
# ----------------------------------------------------------------------
def span(span_id, parent="", start=0.0, name="n", service="x"):
    return {
        "trace_id": "t",
        "span_id": span_id,
        "parent_span_id": parent,
        "name": name,
        "service": service,
        "start_s": start,
    }


class TestJoinTrace:
    def test_waterfall_depth_and_order(self) -> None:
        joined = join_trace(
            {
                "router": [span("r1", start=1.0, service="router")],
                "w0": [
                    span("c2", parent="r1", start=3.0),
                    span("c1", parent="r1", start=2.0),
                    span("g1", parent="c1", start=2.5),
                ],
            }
        )
        assert [s["span_id"] for s in joined] == ["r1", "c1", "g1", "c2"]
        assert [s["depth"] for s in joined] == [0, 1, 2, 1]
        assert joined[0]["shard"] == "router"
        assert joined[1]["shard"] == "w0"

    def test_orphan_parent_becomes_root(self) -> None:
        joined = join_trace({"w0": [span("a", parent="missing")]})
        assert [s["depth"] for s in joined] == [0]

    def test_unreachable_source_tolerated(self) -> None:
        joined = join_trace({"router": [span("r1")], "w1": None})
        assert [s["span_id"] for s in joined] == ["r1"]

    def test_sibling_roots_order_by_start_then_id(self) -> None:
        joined = join_trace(
            {"a": [span("z", start=1.0)], "b": [span("a", start=1.0)]}
        )
        assert [s["span_id"] for s in joined] == ["a", "z"]

    def test_empty_reports(self) -> None:
        assert join_trace({}) == []
        assert join_trace({"w0": []}) == []
