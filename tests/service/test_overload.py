"""Backpressure: overload is explicit, bounded, and never a grant.

The pending list fills deterministically because everything here is
submitted in one loop turn: admission is synchronous, and the
``call_soon`` step that decides the list runs only once the turn
yields.  Deadlines that must expire are sub-microsecond, and a
``stop`` that must land mid-batch is run from inside a synchronous
``_decide`` — no timing races, no real load needed.

Over the wire the pending list never holds more than one read: a read
carrying more than ``max_queue`` requests sheds its excess explicitly,
and many connections at once are throttled by TCP, not shed.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import AccessRequest, MediationEngine
from repro.service import (
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.service.protocol import (
    InternTables,
    dumps_line,
    encode_binary_request,
    encode_request,
)
from repro.service.server import _Connection
from repro.service.transport import READ_BUFFER_BYTES

from tests.service.test_admission import run_now
from tests.service.test_property_chunking import (
    FakeTransport,
    feed,
    split_messages,
    summarize,
)

REQUEST = AccessRequest("watch", "livingroom/tv", subject="alice")
ENV = {"free-time"}


def make_pdp(policy, **config) -> PolicyDecisionPoint:
    return PolicyDecisionPoint(
        MediationEngine(policy), PDPConfig(cache_size=0, **config)
    )


def submit_now(pdp, count: int, **kwargs) -> list:
    """``count`` submits in this turn (request ids ``0..count-1``);
    their answers, in the order they arrive."""
    answers: list = []
    for index in range(count):
        pdp.submit_nowait(
            REQUEST, answers.append, ENV, request_id=index, **kwargs
        )
    return answers


def stop_mid_batch(pdp, drain: bool) -> None:
    """Make the next batch run ``pdp.stop(drain)`` before it decides."""
    original = type(pdp)._decide

    def stopping(self, requests, env_overrides, engine=None):
        self._decide = original.__get__(self)
        run_now(self.stop(drain=drain))
        return original(self, requests, env_overrides, engine)

    pdp._decide = stopping.__get__(pdp)


def test_full_queue_sheds_immediately_with_explicit_outcome(tv_policy) -> None:
    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=4, max_batch=1)
        async with pdp:
            admitted = submit_now(pdp, 4)
            assert pdp.queue_depth == 4 and not admitted  # at capacity
            # The next submit is shed *now* — before this call returns.
            shed = submit_now(pdp, 1)
            assert len(shed) == 1
            await asyncio.sleep(0)  # the scheduled step
            return shed[0], admitted

    shed, admitted = asyncio.run(scenario())
    assert shed.outcome is PDPOutcome.DENY_OVERLOAD
    assert shed.granted is False
    assert shed.decision is None
    assert "queue full" in shed.detail
    # Everyone actually admitted still got a real mediated answer.
    assert [r.outcome for r in admitted] == [PDPOutcome.GRANT] * 4
    assert [r.batch_size for r in admitted] == [1] * 4
    assert shed.latency_s < 0.1


def test_shed_count_is_observable(tv_policy) -> None:
    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=2, max_batch=1)
        async with pdp:
            answers = submit_now(pdp, 6)
            stats = pdp.stats()
            await asyncio.sleep(0)
        return stats, answers

    stats, answers = asyncio.run(scenario())
    assert stats["shed"] == 4
    assert stats["requests"] == 6
    assert [r.outcome for r in answers].count(PDPOutcome.GRANT) == 2


def test_queued_deadline_resolves_to_timeout_not_grant(tv_policy) -> None:
    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=8, max_batch=1)
        async with pdp:
            # Queued in the same turn, one with a deadline that has
            # passed by the time the step reaches it.
            plain = submit_now(pdp, 1)
            timed = submit_now(pdp, 1, timeout=1e-9)
            await asyncio.sleep(0)
        return timed, plain

    (timed,), (plain,) = asyncio.run(scenario())
    assert timed.outcome is PDPOutcome.DENY_TIMEOUT
    assert timed.granted is False
    assert timed.decision is None
    assert plain.outcome is PDPOutcome.GRANT


def test_default_timeout_config_applies(tv_policy) -> None:
    async def scenario():
        pdp = make_pdp(
            tv_policy, max_queue=8, max_batch=1, default_timeout_s=1e-9
        )
        async with pdp:
            timed = submit_now(pdp, 1)
            await asyncio.sleep(0)
        return timed

    (timed,) = asyncio.run(scenario())
    assert timed.outcome is PDPOutcome.DENY_TIMEOUT


def test_non_drain_stop_sheds_queued_requests(tv_policy) -> None:
    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=8, max_batch=1)
        await pdp.start()
        answers = submit_now(pdp, 4)
        stop_mid_batch(pdp, drain=False)
        await asyncio.sleep(0)  # the step: stop lands inside batch one
        return answers, pdp.running

    answers, running = asyncio.run(scenario())
    blocker, *queued = sorted(answers, key=lambda r: r.request_id)
    assert not running
    # In flight when stop() landed: still decided.
    assert blocker.outcome is PDPOutcome.GRANT
    # Still queued: shed explicitly, never silently dropped.
    assert len(queued) == 3
    for response in queued:
        assert response.outcome is PDPOutcome.DENY_OVERLOAD
        assert response.granted is False
        assert "shutting down" in response.detail


def test_graceful_stop_decides_the_same_backlog(tv_policy) -> None:
    # Identical setup to the non-drain test, but drain=True: the same
    # backlog gets mediated answers instead of sheds.
    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=8, max_batch=1)
        await pdp.start()
        answers = submit_now(pdp, 4)
        stop_mid_batch(pdp, drain=True)
        await asyncio.sleep(0)
        return answers, pdp.running

    answers, running = asyncio.run(scenario())
    assert not running
    assert [r.outcome for r in answers] == [PDPOutcome.GRANT] * 4


def test_overload_never_leaks_a_spurious_grant(tv_policy) -> None:
    # Hammer an undersized PDP; every response must be either a real
    # mediated answer or an explicit service refusal, and every grant
    # must match the direct engine's verdict for that request.
    reference = MediationEngine(tv_policy)
    denied_request = AccessRequest("watch", "kitchen/oven", subject="alice")
    expected = {
        REQUEST.obj: reference.decide(REQUEST, environment_roles=ENV).granted,
        denied_request.obj: reference.decide(
            denied_request, environment_roles=ENV
        ).granted,
    }

    async def scenario():
        engine = MediationEngine(tv_policy)
        pdp = PolicyDecisionPoint(
            engine, PDPConfig(cache_size=0, max_queue=2, max_batch=2)
        )
        async with pdp:
            requests = [REQUEST, denied_request] * 100
            return requests, await asyncio.gather(
                *(pdp.submit(r, environment_roles=ENV) for r in requests)
            )

    requests, responses = asyncio.run(scenario())
    sheds = 0
    for request, response in zip(requests, responses):
        if response.outcome is PDPOutcome.DENY_OVERLOAD:
            sheds += 1
            assert response.granted is False
        else:
            assert response.outcome in (PDPOutcome.GRANT, PDPOutcome.DENY)
            assert response.granted == expected[request.obj]
    assert sheds > 0  # the undersized queue really was overloaded


# ----------------------------------------------------------------------
# Over the wire: the pending list holds one read
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lane", ["json", "binary"])
def test_one_read_past_max_queue_sheds_exactly_its_excess(
    tv_policy, lane: str
) -> None:
    max_queue, excess = 4, 3
    tables = InternTables.from_policy(tv_policy)

    def encode(request_id: int) -> bytes:
        if lane == "binary":
            return encode_binary_request(
                tables, REQUEST, request_id, env=frozenset(ENV)
            )
        return dumps_line(encode_request(REQUEST, request_id, env=ENV))

    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=max_queue, max_batch=2)
        server = PDPServer(pdp)
        async with pdp:
            connection = _Connection(server)
            transport = FakeTransport()
            connection.connection_made(transport)
            feed(connection, dumps_line({"op": "intern", "id": 0}))
            del transport.written[:]
            writes = server.stats()["socket_writes"]
            ids = range(1, max_queue + excess + 1)
            feed(connection, b"".join(encode(i) for i in ids))
            # Answered by the read itself: no loop iteration has run.
            written = bytes(transport.written)
            writes = server.stats()["socket_writes"] - writes
            connection.connection_lost(None)
        return summarize(split_messages(written)), writes, pdp.stats()

    (decisions, ops), writes, stats = asyncio.run(scenario())
    assert not ops and writes == 1  # every answer in the read's one write
    assert sorted(id_ for _, id_ in decisions) == list(
        range(1, max_queue + excess + 1)
    )  # summarize refuses a second answer to any id
    outcomes = [outcome for outcome, _ in decisions.values()]
    assert outcomes.count(PDPOutcome.DENY_OVERLOAD.value) == excess
    assert outcomes.count(PDPOutcome.GRANT.value) == max_queue
    assert stats["shed"] == excess and stats["decided"] == max_queue


def test_many_flooding_connections_are_throttled_not_shed(tv_policy) -> None:
    """More requests in flight across connections than ``max_queue``:
    each read is decided before its connection is read again, so every
    request is answered, none is shed, and nothing hangs."""
    connections, per_connection, max_queue = 8, 400, 256
    line_of = [
        dumps_line(encode_request(REQUEST, i, env=ENV))
        for i in range(per_connection)
    ]
    # One read can never carry max_queue requests; all of them can.
    assert min(len(line) for line in line_of) * max_queue > READ_BUFFER_BYTES
    assert connections * per_connection > max_queue

    async def flood(port: int) -> int:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"".join(line_of))
        received = bytearray()
        while received.count(b"\n") < per_connection:
            chunk = await reader.read(1 << 16)
            assert chunk, "server closed a flooding connection"
            received += chunk
        writer.close()
        return received.count(b'"granted":true')

    async def scenario():
        pdp = make_pdp(tv_policy, max_queue=max_queue)
        async with PDPServer(pdp) as server:
            answered = await asyncio.wait_for(
                asyncio.gather(*(flood(server.port) for _ in range(connections))),
                timeout=30.0,
            )
            async with await RemotePDPClient.connect(
                "127.0.0.1", server.port
            ) as client:
                after = await client.decide(REQUEST, environment_roles=ENV)
            return answered, pdp.stats(), after

    answered, stats, after = asyncio.run(scenario())
    assert answered == [per_connection] * connections
    assert stats["shed"] == 0
    assert stats["decided"] == connections * per_connection + 1
    assert after.outcome is PDPOutcome.GRANT
