"""One read's answers leave in one write — and the server counts both.

``server.responses / server.socket_writes`` is the write-coalescing
factor; both counters must be visible through the ``stats`` op and the
Prometheus exposition (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio

from repro.core import AccessRequest, MediationEngine
from repro.service import (
    PDPConfig,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.service.protocol import dumps_line, encode_request

REQUEST = AccessRequest("watch", "livingroom/tv", subject="alice")
ENV = frozenset({"free-time"})
PIPELINED = 200


def test_pipelined_answers_are_coalesced_and_counted(tv_policy) -> None:
    async def scenario():
        pdp = PolicyDecisionPoint(MediationEngine(tv_policy), PDPConfig())
        async with PDPServer(pdp) as server:
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                # Warm the cache: the connect's members reply and one
                # answer, one write each.
                await client.decide(REQUEST, environment_roles=set(ENV))
                warm = (await client.stats())["server"]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"".join(
                    dumps_line(encode_request(REQUEST, i, env=ENV))
                    for i in range(PIPELINED)
                ))
                for _ in range(PIPELINED):
                    assert b'"cached":true' in await reader.readline()
                writer.close()
                stats = (await client.stats())["server"]
                metrics = await client.metrics()
                return warm, stats, metrics, server.stats()

    warm, stats, metrics, direct = asyncio.run(scenario())
    assert warm["responses"] == warm["socket_writes"] == 2
    responses = stats["responses"] - warm["responses"]
    writes = stats["socket_writes"] - warm["socket_writes"]
    # The 200 cache hits plus the first stats reply; every read that
    # carried several requests answered them in one write.
    assert responses == PIPELINED + 1
    assert writes <= 1 + PIPELINED // 10
    assert stats["connections"] == 2 and stats["open_connections"] >= 1
    assert direct["responses"] >= stats["responses"]
    assert "grbac_server_responses_total" in metrics["prometheus"]
    assert "grbac_server_socket_writes_total" in metrics["prometheus"]
    assert metrics["json"]["counters"]["server.responses"] >= responses
