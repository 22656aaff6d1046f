"""The cluster's two connection paths: control through the router,
decisions straight from the client to their worker.

The client holds the ring (:class:`RemotePDPClient`), so what the
relay used to guarantee must now hold on the client → worker links:
(a) a member that cannot be reached answers every decision for its
key range with ``DENY_UNAVAILABLE`` — in flight, refused at connect or
killed — and its breaker sheds until its clock passes the cooldown;
(b) backpressure is per link: a peer that stops reading, or a worker
that does, throttles only that link; (c) a half-closed stream is
answered in full.  The router keeps the control plane, so a reload
still holds its own session's stream, and only that; and whatever
happens to the membership, the client routes each key to the slot the
router's ring names.

Workers are in-process :class:`PDPServer` instances, or a hand-rolled
:class:`ScriptedWorker` where a test needs one that misbehaves.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardRouter
from repro.cluster.router import NOT_RELAYED, _Session
from repro.core import AccessRequest, GrbacPolicy, MediationEngine
from repro.service import (
    PDPConfig,
    PDPOutcome,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
)
from repro.service.protocol import (
    KIND_ERROR,
    KIND_RESPONSE,
    MAX_LINE_BYTES,
    InternTables,
    decode_binary_error,
    decode_binary_response,
    dumps_line,
    encode_binary_request,
    encode_request,
)
from repro.service.transport import READ_BUFFER_BYTES

from tests.cluster.test_revocation_relay import REQUEST as LIVE_REQUEST
from tests.cluster.test_revocation_relay import make_worker as make_live_worker
from tests.service.test_property_chunking import (
    LONGER_THAN_A_READ,
    TABLES,
    FakeTransport,
    cut,
    envs,
    feed,
    fills,
    op_line,
    requests,
    split_messages,
)
from tests.service.test_property_pdp import build_policy

ENV = frozenset({"free-time"})
#: On a two-worker ring mom and alice hash to w0, bobby to w1.
ON_W0, ON_W1 = "alice", "bobby"
HANDSHAKE = dumps_line({"op": "intern", "id": 0})
#: The most one read takes off a socket: a connection's read buffer.
ONE_READ = READ_BUFFER_BYTES
FLOOD = 40_000


def request_for(subject: str) -> AccessRequest:
    return AccessRequest("watch", "tv", subject=subject)


async def eventually(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.005)


class FakeClock:
    """An injectable monotonic clock for client breakers."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def make_server(policy=None) -> PDPServer:
    return PDPServer(
        PolicyDecisionPoint(
            MediationEngine(policy if policy is not None else build_policy()),
            PDPConfig(max_queue=FLOOD),
        )
    )


class Cluster:
    """``n`` in-process workers behind a started router."""

    def __init__(self, n: int = 2, policy=None, **router_kwargs) -> None:
        self.servers = [make_server(policy) for _ in range(n)]
        self.router_kwargs = router_kwargs
        self.router: ShardRouter

    async def __aenter__(self) -> "Cluster":
        for server in self.servers:
            await server.start()
        self.router = ShardRouter(
            {f"w{i}": ("127.0.0.1", s.port) for i, s in enumerate(self.servers)},
            **self.router_kwargs,
        )
        await self.router.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.router.stop()
        for server in self.servers:
            await server.stop()

    def requests(self) -> List[int]:
        """Decisions each worker was asked for, by slot."""
        return [server.pdp.stats()["requests"] for server in self.servers]


def complete_messages(data: bytes) -> List:
    """The whole messages at the head of ``data`` (a cut tail ignored)."""
    end = len(data)
    while end:
        try:
            return split_messages(data[:end])
        except (AssertionError, ValueError):  # cut mid-message
            end = data.rfind(b"\n", 0, end - 1) + 1
    return []


class ScriptedWorker:
    """A listener that records what it is sent and answers only intern
    handshakes — optionally not reading at all until told to, or
    ending the connection (hanging up, or with ``half_close`` shutting
    only its side) once ``die_after`` decision messages have arrived."""

    def __init__(
        self,
        die_after: Optional[int] = None,
        reading: bool = True,
        half_close: bool = False,
    ):
        self.received = bytearray()
        self.newlines = 0
        self.die_after = die_after
        self.half_close = half_close
        self.reading = asyncio.Event()
        if reading:
            self.reading.set()
        self._server: asyncio.AbstractServer
        self._handlers: "set[asyncio.Task]" = set()

    async def start(self) -> "ScriptedWorker":
        listener = socket.socket()
        # Inherited by accepted sockets: a worker that stops reading
        # backs its peer up after kilobytes, not megabytes.
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        self._server = await asyncio.start_server(self._serve, sock=listener)
        return self

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    def messages(self) -> List:
        return complete_messages(bytes(self.received))

    async def _serve(self, reader, writer) -> None:
        self._handlers.add(asyncio.current_task())
        try:
            while True:
                await self.reading.wait()
                chunk = await reader.read(65536)
                if not chunk:
                    break
                self.received += chunk
                self.newlines += chunk.count(b"\n")
                if self.die_after is None and b'"intern"' not in chunk:
                    continue
                decisions = 0
                for lane, message in complete_messages(chunk):
                    if lane == "line" and message.get("op") == "intern":
                        reply = {**TABLES.to_payload(), "id": message["id"]}
                        writer.write(dumps_line(reply))
                for lane, message in self.messages():
                    decisions += lane == "frame" or "op" not in message
                if self.die_after is not None and decisions >= self.die_after:
                    if self.half_close:
                        writer.write_eof()
                        await asyncio.Event().wait()  # until stopped
                    break
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for handler in self._handlers:
            handler.cancel()
        await asyncio.gather(*self._handlers)


def dead_port() -> int:
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()  # nothing listens here any more
    return port


async def open_client(port: int, handshake: bool = True):
    """A raw socket to ``port``; with ``handshake`` the intern op has
    been answered, so binary frames may follow."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if handshake:
        writer.write(HANDSHAKE)
        reply = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
        assert reply.get("op") == "intern", reply
    return reader, writer


async def read_messages(reader, expected: int, timeout_s: float = 10.0) -> List:
    """Read until ``expected`` whole messages have arrived."""
    data = bytearray()
    deadline = time.monotonic() + timeout_s
    while True:
        messages = complete_messages(bytes(data))
        if len(messages) >= expected:
            return messages
        chunk = await asyncio.wait_for(
            reader.read(1 << 16), max(0.01, deadline - time.monotonic())
        )
        assert chunk, f"closed after {len(messages)} of {expected} messages"
        data += chunk


def answers(messages: Sequence) -> Dict:
    """``(lane, id) -> outcome`` of the answers in ``messages``: a
    decision's outcome, or ``"error: ..."`` for a refusal and an op's
    name for an op reply.  Every id is answered once."""
    out: Dict = {}
    for lane, message in messages:
        if lane == "frame":
            kind, body = message
            if kind == KIND_RESPONSE:
                response = decode_binary_response(body)
                key, value = ("b", response.id), response.outcome
            else:
                assert kind == KIND_ERROR
                request_id, text = decode_binary_error(body)
                key, value = ("b", request_id), f"error: {text}"
        elif "outcome" in message:
            key, value = ("j", message["id"]), PDPOutcome(message["outcome"])
        elif "op" in message:
            key, value = ("j", message.get("id")), message["op"]
        else:
            key, value = ("j", message.get("id")), f"error: {message['error']}"
        assert key not in out, f"answered twice: {key}"
        out[key] = value
    return out


def mixed_pipeline(n: int) -> bytes:
    """``n`` NDJSON then ``n`` binary requests, alternating subjects."""
    stream = bytearray()
    for index in range(n):
        subject = (ON_W0, ON_W1)[index % 2]
        stream += dumps_line(
            encode_request(request_for(subject), index + 1, env=ENV)
        )
    for index in range(n):
        subject = (ON_W0, ON_W1)[index % 2]
        stream += encode_binary_request(
            TABLES, request_for(subject), 100 + index + 1, env=ENV
        )
    return bytes(stream)


# ----------------------------------------------------------------------
# Property: how the bytes were cut never changes the router's answers
# ----------------------------------------------------------------------
messages = st.one_of(
    st.tuples(st.just("json"), requests, envs),
    st.tuples(st.just("binary"), requests, envs),
    st.tuples(
        st.just("op"),
        st.sampled_from(
            ["ping", "members", "ready", "intern", "tenants", "no-such-op",
             "reload"]
        ),
        st.sampled_from([b"\n", b"\r\n", b"\n\n"]),
    ),
)
#: Ops the router answers itself, in the read that delivered them; the
#: rest are answered by a worker (or the supervisor), each before
#: anything behind it is read.
LOCAL_OPS = {"ping", "members", "intern", "no-such-op"}


def encode_stream(items) -> bytes:
    stream = bytearray()
    for index, item in enumerate(items, start=1):
        if item[0] == "json":
            stream += dumps_line(encode_request(item[1], index, env=item[2]))
        elif item[0] == "binary":
            stream += encode_binary_request(TABLES, item[1], index, env=item[2])
        else:
            stream += op_line(item, index, policy="x")
    return bytes(stream)


async def deliver(
    router: ShardRouter,
    chunks: Sequence[bytes],
    expected: int,
    fills: Sequence[int] = (),
):
    """Feed ``chunks`` to a fresh session of ``router``; returns what
    the session wrote, split into messages, in order."""
    session = _Session(router)
    transport = FakeTransport()
    session.connection_made(transport)
    for chunk in chunks:
        feed(session, chunk, fills)
        if len(chunks) > 1:
            await asyncio.sleep(0)
    written: List = []

    def complete() -> bool:
        written[:] = split_messages(bytes(transport.written))
        return len(written) >= expected

    await eventually(complete)
    await eventually(lambda: not session.holding)
    complete()
    session.connection_lost(None)
    assert len(written) == expected, "answered more than it was asked"
    return written


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(messages, min_size=1, max_size=12),
    cuts=st.one_of(
        st.lists(st.integers(min_value=1, max_value=4096), max_size=12),
        st.just(range(1, 4096)),  # every byte its own chunk
    ),
    fills=fills,
)
@example(  # a cut after each byte of a frame header
    items=[("binary", request_for(ON_W1), ENV)],
    cuts=range(1, 4096),
    fills=[],
)
@example(  # decisions and ops pipelined behind a reload
    items=[
        ("json", request_for(ON_W0), ENV),
        ("op", "reload", b"\n"),
        ("op", "ping", b"\n"),
        ("binary", request_for(ON_W1), ENV),
        ("op", "tenants", b"\n"),
    ],
    cuts=[],
    fills=[],
)
@example(  # a line longer than the buffer, read in while a reload holds it
    items=[
        ("json", request_for(ON_W0), ENV),
        ("op", "reload", b"\n"),
        ("op", "ping", b"\r\n", LONGER_THAN_A_READ),
        ("binary", request_for(ON_W1), ENV),
        ("op", "tenants", b"\n"),
    ],
    cuts=[200],
    fills=[5_001, 7],
)
def test_any_partition_yields_the_same_answers(items, cuts, fills) -> None:
    stream = encode_stream(items)
    expected = len(items)

    async def handler(payload):
        await asyncio.sleep(0)
        return {"accepted": True, "error": "", "record": {}}

    async def scenario():
        async with Cluster(reload_handler=handler) as cluster:
            whole = await deliver(cluster.router, [stream], expected)
            parts = await deliver(
                cluster.router, cut(stream, cuts), expected, fills
            )
            return whole, parts

    whole, parts = asyncio.run(scenario())
    assert answers(parts) == answers(whole)
    kinds = {index: item[0] if item[0] != "op" else item[1]
             for index, item in enumerate(items, 1)}
    for written in (whole, parts):
        by_id = answers(written)
        assert set(by_id) == {
            ("b" if kind == "binary" else "j", index)
            for index, kind in kinds.items()
        }
        for index, kind in kinds.items():
            if kind in ("json", "binary"):  # never relayed, never granted
                key = ("b" if kind == "binary" else "j", index)
                assert by_id[key] == f"error: {NOT_RELAYED}"
        # Every answer is written in stream order: ops run where they
        # stand, and nothing behind a held op is read before it answers.
        order = [
            decode_binary_error(message[1])[0] if lane == "frame"
            else message.get("id")
            for lane, message in written
        ]
        assert order == sorted(order)


# ----------------------------------------------------------------------
# (a) A member that cannot be reached answers, in kind, never hangs
# ----------------------------------------------------------------------
def test_refused_connect_feeds_the_breaker_and_answers_in_kind() -> None:
    async def scenario():
        async with make_server() as server:
            router = ShardRouter(
                {"w0": ("127.0.0.1", server.port), "w1": ("127.0.0.1", dead_port())}
            )
            async with router:
                clients = [
                    await RemotePDPClient.connect("127.0.0.1", router.port, wire=w)
                    for w in ("json", "binary")
                ]
                breaker = clients[0].breakers["w1"]
                failures_at_connect = breaker.failures
                breaker.failure_threshold = 2
                outcomes = await asyncio.gather(
                    *(
                        client.decide(request_for(ON_W1), environment_roles=ENV)
                        for client in clients
                        for _ in range(3)
                    ),
                    clients[0].decide(request_for(ON_W0), environment_roles=ENV),
                )
                for client in clients:
                    await client.close()
                return failures_at_connect, outcomes, breaker, server.pdp.stats()

    failures_at_connect, outcomes, breaker, stats = asyncio.run(scenario())
    *shed, granted = outcomes
    assert granted.outcome is PDPOutcome.GRANT  # w0 is unaffected
    assert len(shed) == 6
    assert {r.outcome for r in shed} == {PDPOutcome.DENY_UNAVAILABLE}
    assert all(not r.granted and "w1" in r.rationale for r in shed)
    assert failures_at_connect == 1
    assert breaker.failures >= 2 and breaker.state() == "open"
    assert stats["requests"] == 1


def test_killed_worker_answers_in_flight_and_its_breaker_sheds_until_cooldown(
) -> None:
    clock = FakeClock()

    async def scenario():
        doomed = await ScriptedWorker().start()
        router = ShardRouter({"w0": ("127.0.0.1", doomed.port)})
        await router.start()
        replacement = make_server()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            breaker = client.breakers["w0"]
            breaker.clock = clock
            in_flight = [
                asyncio.ensure_future(
                    client.decide(request_for(ON_W0), environment_roles=ENV)
                )
                for _ in range(5)
            ]
            await eventually(lambda: doomed.newlines == 5)
            # kill -9: the supervisor reports the slot down, the
            # worker's sockets go with it.
            router.mark_worker_down("w0")
            await doomed.stop()
            killed = await asyncio.gather(*in_flight)
            shed_while_down = await client.decide(request_for(ON_W0))
            state_after_kill = breaker.state()
            # Restarted on a new port — but the breaker has not cooled.
            await replacement.start()
            router.set_worker("w0", "127.0.0.1", replacement.port)
            shed_until_cooldown = await client.decide(
                request_for(ON_W0), environment_roles=ENV
            )
            clock.now += breaker.cooldown_s
            recovered = await client.decide(
                request_for(ON_W0), environment_roles=ENV
            )
            await client.close()
            return (killed, shed_while_down, state_after_kill,
                    shed_until_cooldown, recovered, breaker.state())
        finally:
            await router.stop()
            await replacement.stop()

    (killed, shed_while_down, state_after_kill, shed_until_cooldown,
     recovered, final_state) = asyncio.run(scenario())
    assert [r.outcome for r in killed] == [PDPOutcome.DENY_UNAVAILABLE] * 5
    assert not any(r.granted for r in killed)
    assert shed_while_down.outcome is PDPOutcome.DENY_UNAVAILABLE
    assert state_after_kill == "open"
    assert shed_until_cooldown.outcome is PDPOutcome.DENY_UNAVAILABLE
    assert recovered.outcome is PDPOutcome.GRANT
    assert final_state == "closed"


def test_worker_killed_mid_pipeline_answers_every_outstanding_id() -> None:
    assert_killed_worker_answered(half_close=False)


def test_worker_half_closing_mid_pipeline_answers_every_id() -> None:
    """A worker that shuts only its sending side owes the answers it
    will never write: each is answered for it, on the lane it took."""
    assert_killed_worker_answered(half_close=True)


def assert_killed_worker_answered(half_close: bool, n: int = 4) -> None:
    async def scenario():
        doomed = await ScriptedWorker(die_after=2 * n, half_close=half_close).start()
        router = ShardRouter({"w0": ("127.0.0.1", doomed.port)})
        await router.start()
        try:
            client = await RemotePDPClient.connect(
                "127.0.0.1", router.port, wire="binary"
            )
            # A per-request timeout rides the NDJSON lane: n of each.
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        client.decide(
                            request_for((ON_W0, ON_W1)[index % 2]),
                            environment_roles=ENV,
                            timeout_ms=None if index < n else 5000.0,
                        )
                        for index in range(2 * n)
                    )
                ),
                10.0,
            )
            lanes = [lane for lane, _ in doomed.messages()[1:]]  # after intern
            await client.close()
            return outcomes, lanes
        finally:
            await router.stop()
            await doomed.stop()

    outcomes, lanes = asyncio.run(scenario())
    assert sorted(lanes) == ["frame"] * n + ["line"] * n
    assert [r.outcome for r in outcomes] == [PDPOutcome.DENY_UNAVAILABLE] * (2 * n)
    assert len({r.id for r in outcomes}) == 2 * n


# ----------------------------------------------------------------------
# Property: the client's ring is the router's, whatever the membership did
# ----------------------------------------------------------------------
KEYS = [f"resident-{index}" for index in range(24)]

membership_steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.sampled_from(["kill", "restart"])),
    max_size=6,
)


@settings(max_examples=15, deadline=None)
@given(steps=membership_steps)
@example(steps=[(1, "kill"), (1, "restart"), (1, "restart"), (0, "kill")])
def test_client_routes_every_key_to_the_slot_the_router_names(steps) -> None:
    clock = FakeClock()

    async def scenario():
        servers = {f"w{i}": make_server() for i in range(3)}
        for server in servers.values():
            await server.start()
        router = ShardRouter(
            {name: ("127.0.0.1", s.port) for name, s in servers.items()}
        )
        await router.start()
        retired: List[PDPServer] = []
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            for breaker in client.breakers.values():
                breaker.clock = clock
            for index, action in steps:
                name = f"w{index}"
                old = servers[name]
                router.mark_worker_down(name)
                if old is not None:
                    for connection in list(old._open):
                        connection.transport.abort()
                    await old.stop()
                    retired.append(old)
                if action == "restart":  # a new process on a new port
                    servers[name] = make_server()
                    await servers[name].start()
                    router.set_worker(name, "127.0.0.1", servers[name].port)
                else:
                    servers[name] = None
                clock.now += 60.0  # every breaker cooled down
            checked = []
            for key in KEYS:
                owner = router.ring.route(key)
                live = servers[owner]
                before = live.pdp.stats()["requests"] if live else None
                response = await client.decide(
                    AccessRequest("watch", "tv", subject=key)
                )
                after = live.pdp.stats()["requests"] if live else None
                checked.append((key, owner, client.route(key), response.outcome,
                                before, after))
            await client.close()
            return checked
        finally:
            await router.stop()
            for server in [*servers.values(), *retired]:
                if server is not None:
                    await server.stop()

    for key, owner, routed, outcome, before, after in asyncio.run(scenario()):
        assert routed == owner, key
        if before is None:  # killed for good: its range sheds
            assert outcome is PDPOutcome.DENY_UNAVAILABLE, key
        else:  # answered by the process now registered under the slot
            assert outcome is not PDPOutcome.DENY_UNAVAILABLE, key
            assert after == before + 1, key


# ----------------------------------------------------------------------
# (b) Backpressure is per link
# ----------------------------------------------------------------------
def connection_buffered(connection) -> int:
    """Bytes one connection holds, whichever way they flow."""
    return (
        connection._end - connection._start  # read, not yet delivered
        + sum(map(len, connection._outbox))
        + (connection.transport.get_write_buffer_size()
           if connection.transport else 0)
    )


def test_unread_pipeline_is_bounded_and_throttles_only_itself() -> None:
    templates = [
        dumps_line(encode_request(request_for(subject), 0, env=ENV))
        for subject in (ON_W0, ON_W1)
    ]
    assert all(t.startswith(b'{"id":0,') for t in templates)
    flood = b"".join(
        b'{"id":%d,' % index + templates[0][len(b'{"id":0,'):]
        for index in range(1, FLOOD + 1)
    )

    async def scenario():
        async with Cluster() as cluster:
            worker = cluster.servers[0]
            host, port = cluster.router.members()["members"]["w0"]
            # Small kernel buffers, so megabytes — not tens of them —
            # back the worker's transport up.
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect((host, port))
            reader, writer = await asyncio.open_connection(sock=raw)
            await eventually(lambda: len(worker._open) == 1)
            (flooded,) = worker._open
            flooded.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )

            writer.write(flood)  # never drained, never read
            await eventually(lambda: not flooded.transport.is_reading())
            await asyncio.sleep(0.2)  # nothing more may be consumed
            high_water = flooded.transport.get_write_buffer_limits()[1]
            buffered = connection_buffered(flooded)
            admitted = worker.pdp.stats()["requests"]

            # A well-behaved neighbour — on the same worker, too — is
            # served as if nothing happened.
            neighbour = await RemotePDPClient.connect(
                "127.0.0.1", cluster.router.port, wire="binary"
            )
            slowest = 0.0
            for index in range(50):
                started = time.perf_counter()
                response = await asyncio.wait_for(
                    neighbour.decide(
                        request_for((ON_W0, ON_W1)[index % 2]),
                        environment_roles=set(ENV),
                    ),
                    5.0,
                )
                slowest = max(slowest, time.perf_counter() - started)
                assert response.outcome is PDPOutcome.GRANT
            await neighbour.close()
            still_paused = not flooded.transport.is_reading()

            # The flooder finally reads: everything resumes and every
            # single request is answered.
            answered = 0
            while answered < FLOOD:
                chunk = await asyncio.wait_for(reader.read(1 << 20), 30.0)
                assert chunk, "worker closed on a slow reader"
                answered += chunk.count(b"\n")
            writer.close()
            return (buffered, high_water, admitted, slowest, still_paused,
                    cluster.requests())

    (buffered, high_water, admitted, slowest, still_paused,
     requests_per_worker) = asyncio.run(scenario())
    assert admitted < FLOOD  # reading stopped with requests still unread
    # One socket's high-water mark plus one read and its answers — a
    # fraction of the ~10 MB the flood and its answers come to.
    assert buffered <= high_water + 3 * ONE_READ
    assert still_paused and slowest < 0.25
    assert requests_per_worker == [FLOOD + 25, 25]


def test_worker_that_stops_reading_pauses_its_session_until_it_resumes() -> None:
    """A worker that stops reading pauses the client's link to it: its
    callers wait instead of queueing, and the client's other link and
    the router's control plane carry on."""
    count, batch = 20_000, 500

    async def scenario():
        stalled = await ScriptedWorker(reading=False).start()
        healthy = make_server()
        await healthy.start()
        router = ShardRouter(
            {"w0": ("127.0.0.1", stalled.port), "w1": ("127.0.0.1", healthy.port)}
        )
        await router.start()
        try:
            client = await RemotePDPClient.connect("127.0.0.1", router.port)
            link = client._links["w0"]
            link.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            waiting = []
            while link.writable is None and len(waiting) < count:
                waiting += [
                    asyncio.ensure_future(
                        client.decide(request_for(ON_W0), environment_roles=ENV)
                    )
                    for _ in range(batch)
                ]
                await asyncio.sleep(0)
                await asyncio.sleep(0)
            sent_before_pause = len(waiting)
            waiting += [
                asyncio.ensure_future(
                    client.decide(request_for(ON_W0), environment_roles=ENV)
                )
                for _ in range(count - len(waiting))
            ]
            await asyncio.sleep(0.1)
            paused_with = connection_buffered(link)
            high_water = link.transport.get_write_buffer_limits()[1]
            neighbour = await asyncio.wait_for(
                client.decide(request_for(ON_W1), environment_roles=ENV), 5.0
            )
            pong = await asyncio.wait_for(client.ping(), 5.0)

            stalled.reading.set()
            await eventually(lambda: stalled.newlines == count, 30.0)
            await client.close()  # the stub never answers decisions
            await asyncio.gather(*waiting, return_exceptions=True)
            line = dumps_line(encode_request(request_for(ON_W0), count, env=ENV))
            return (paused_with, high_water, sent_before_pause, len(line),
                    neighbour, pong)
        finally:
            await router.stop()
            await stalled.stop()
            await healthy.stop()

    (paused_with, high_water, sent_before_pause, line_bytes, neighbour,
     pong) = asyncio.run(scenario())
    # What the paused link holds: the high-water mark plus the batch
    # that crossed it — not the 20,000 requests its callers asked for.
    assert sent_before_pause < 20_000
    assert paused_with <= high_water + 2 * batch * line_bytes
    assert neighbour.outcome is PDPOutcome.GRANT
    assert pong is True


# ----------------------------------------------------------------------
# (c) A reload holds its own session's stream — and only that
# ----------------------------------------------------------------------
def test_reload_reply_precedes_everything_pipelined_behind_it() -> None:
    async def scenario():
        gate = asyncio.Event()
        seen = []

        async def handler(payload):
            seen.append(payload["policy"])
            await gate.wait()
            return {"accepted": True, "error": "", "record": {}}

        async with Cluster(reload_handler=handler) as cluster:
            try:
                reader, writer = await open_client(
                    cluster.router.port, handshake=False
                )
                writer.write(  # one write: one read delivers it all
                    dumps_line({"op": "ping", "id": 1})
                    + dumps_line({"op": "reload", "id": 2, "policy": "first"})
                    + dumps_line({"op": "ping", "id": 3})
                    + encode_binary_request(TABLES, request_for(ON_W1), 4, env=ENV)
                    + dumps_line({"op": "reload", "id": 5, "policy": "second"})
                    + dumps_line({"op": "stats", "id": 6})
                )
                early = await read_messages(reader, 1)  # the ping ahead of it
                await eventually(lambda: seen == ["first"])
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.read(1), 0.2)  # held
                # Other sessions carry on while this one waits.
                async with await RemotePDPClient.connect(
                    "127.0.0.1", cluster.router.port
                ) as other:
                    assert await asyncio.wait_for(other.ping(), 5.0)
                    granted = await other.decide(
                        request_for(ON_W0), environment_roles=ENV
                    )
                gate.set()
                rest = await read_messages(reader, 5)
                writer.close()
                return early + rest, seen, granted
            finally:
                gate.set()

    written, seen, granted = asyncio.run(scenario())
    by_id = answers(written)
    order = [
        decode_binary_error(message[1])[0] if lane == "frame" else message["id"]
        for lane, message in written
    ]
    assert order == [1, 2, 3, 4, 5, 6]  # each op answered where it stood
    assert seen == ["first", "second"]
    assert by_id[("j", 2)] == by_id[("j", 5)] == "reload"
    assert by_id[("b", 4)] == f"error: {NOT_RELAYED}"
    assert by_id[("j", 6)] == "stats"
    assert granted.outcome is PDPOutcome.GRANT


def test_failing_reload_handler_is_an_answer_and_releases_the_stream() -> None:
    async def scenario():
        async def handler(payload):
            raise RuntimeError("supervisor fell over")

        async with Cluster(reload_handler=handler) as cluster:
            reader, writer = await open_client(cluster.router.port, handshake=False)
            writer.write(
                dumps_line({"op": "reload", "id": 1, "policy": "x"})
                + dumps_line({"op": "ping", "id": 2})
            )
            written = await read_messages(reader, 2)
            writer.close()
            return [message for _, message in written]

    failed, pong = asyncio.run(scenario())
    assert failed["id"] == 1 and "supervisor fell over" in failed["error"]
    assert pong == {"op": "pong", "id": 2}


# ----------------------------------------------------------------------
# (d) A half-closed stream is still owed its answers
# ----------------------------------------------------------------------
def test_half_closed_pipeline_gets_every_answer_like_a_single_server() -> None:
    n = 6
    pipeline = mixed_pipeline(n) + dumps_line({"op": "ping", "id": 99}).rstrip()

    async def ask(port: int, handshake: bool = True):
        reader, writer = await open_client(port, handshake)
        writer.write(pipeline)  # ...ending in a line with no newline
        writer.write_eof()
        data = await asyncio.wait_for(reader.read(), 10.0)  # until close
        writer.close()
        return split_messages(data)

    async def scenario():
        async with Cluster() as cluster:
            members = cluster.router.members()["members"]
            via_members = await ask(members["w1"][1])
            direct = await ask(cluster.servers[0].port)
            refused = await ask(cluster.router.port, handshake=False)
            await eventually(lambda: not cluster.router._sessions)
            await eventually(
                lambda: not any(server._open for server in cluster.servers)
            )
            return via_members, direct, refused, cluster.router.stats()

    via_members, direct, refused, stats = asyncio.run(scenario())
    assert len(via_members) == len(direct) == len(refused) == 2 * n + 1
    assert answers(via_members) == answers(direct)
    decisions = {k: v for k, v in answers(direct).items() if k != ("j", 99)}
    assert set(decisions.values()) == {PDPOutcome.GRANT}
    refusals = answers(refused)
    assert refusals.pop(("j", 99)) == "pong"
    assert set(refusals.values()) == {f"error: {NOT_RELAYED}"}
    assert stats["in_flight"] == 0 and stats["sessions"] == 0


def test_half_closed_subscriber_is_detached_upstream_once_drained() -> None:
    async def scenario():
        worker = make_live_worker()
        await worker.start()
        router = ShardRouter({"w0": ("127.0.0.1", worker.port)})
        await router.start()
        try:
            host, port = router.members()["members"]["w0"]
            reader, writer = await open_client(port, handshake=False)
            writer.write(dumps_line(encode_request(LIVE_REQUEST, 1, subscribe=True)))
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            # The half-close detached the session: the worker has
            # nobody left to push a revoke to.
            await eventually(lambda: worker.pdp.grants.sessions == 0)
            return data, worker.pdp.grants.grants
        finally:
            await router.stop()
            await worker.stop()

    data, grants = asyncio.run(scenario())
    (answer,) = answers(split_messages(data)).values()
    assert answer is PDPOutcome.GRANT
    assert grants == 0


# ----------------------------------------------------------------------
# Intern tables are per link
# ----------------------------------------------------------------------
def big_policy() -> GrbacPolicy:
    """``build_policy`` plus enough subjects that the intern tables no
    longer fit one request line."""
    policy = build_policy()
    for index in range(2500):
        policy.add_subject(f"resident-{index:04d}-of-a-very-large-household")
    return policy


def test_tables_too_big_for_one_line_still_ride_the_binary_lane() -> None:
    policy = big_policy()
    tables = InternTables.from_policy(policy)
    assert len(dumps_line(tables.to_payload())) > MAX_LINE_BYTES

    async def scenario():
        async with Cluster(policy=policy) as cluster:
            client = await asyncio.wait_for(
                RemotePDPClient.connect(
                    "127.0.0.1", cluster.router.port, wire="binary"
                ),
                5.0,
            )
            outcomes = [
                (await client.decide(request_for(s), environment_roles=ENV)).outcome
                for s in (ON_W0, ON_W1)
            ]
            links = {name: link.tables for name, link in client._links.items()}
            await client.close()
            return outcomes, links

    outcomes, links = asyncio.run(scenario())
    assert outcomes == [PDPOutcome.GRANT, PDPOutcome.GRANT]
    assert set(links) == {"w0", "w1"}
    assert all(t is not None and len(t.subjects) > 2500 for t in links.values())


def test_every_member_link_interns_before_its_first_frame() -> None:
    async def scenario():
        async with Cluster() as cluster:
            client = await RemotePDPClient.connect(
                "127.0.0.1", cluster.router.port, wire="binary"
            )
            interned = {name: link.tables is not None
                        for name, link in client._links.items()}
            responses = await asyncio.gather(
                *(
                    client.decide(request_for(s), environment_roles=ENV)
                    for s in (ON_W0, ON_W1) * 3
                )
            )
            await client.close()
            return interned, responses, cluster.requests()

    interned, responses, requests_per_worker = asyncio.run(scenario())
    assert interned == {"w0": True, "w1": True}
    assert {r.outcome for r in responses} == {PDPOutcome.GRANT}
    assert requests_per_worker == [3, 3]
