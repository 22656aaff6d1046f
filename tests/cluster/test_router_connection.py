"""The shard router on the one connection stack.

Both sides of the relay are :class:`WireConnection` protocols, so what
the old per-connection coroutines got from blocking has to hold by
construction.  These tests pin it: (a) a fresh upstream is written
before it connects — table pin first — and a refused connect answers
what was queued; (b) backpressure is paired across session and
upstreams; (c) a reload holds its own session's stream, and only that;
(d) a half-closed client is still answered, and closed behind its last
answer — even when that is the router's own table pin, or the last of
a dead worker's synthesized answers.  Two defects the stream-based
relay had are pinned too: answers silently dropped on half-close, and
requests that never returned once the intern tables outgrew one wire
line.

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
from repro.cluster.router import ROUTER_INTERN_ID, _Session
from repro.core import AccessRequest, GrbacPolicy, MediationEngine
from repro.exceptions import ServiceError
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
    summarize,
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


class Cluster:
    """``n`` in-process workers behind a started router."""

    def __init__(self, n: int = 2, policy=None, **router_kwargs) -> None:
        self.policy = policy if policy is not None else build_policy()
        self.servers = [
            PDPServer(
                PolicyDecisionPoint(
                    MediationEngine(self.policy), PDPConfig(max_queue=FLOOD)
                )
            )
            for _ in range(n)
        ]
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
    hanging up once ``die_after`` decision messages have arrived."""

    def __init__(self, die_after: Optional[int] = None, reading: bool = True):
        self.received = bytearray()
        self.newlines = 0
        self.die_after = die_after
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


def verdicts(messages: Sequence) -> Dict:
    """``(lane, id) -> outcome`` of the decision answers in ``messages``;
    an id-less error frame is keyed ``("b", None)``."""
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
        else:
            continue
        assert key not in out, f"answered twice: {key}"
        out[key] = value
    return out


def mixed_pipeline(n: int) -> bytes:
    """``n`` NDJSON then ``n`` binary requests, alternating workers."""
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
# Property: how the bytes were cut never changes the answers
# ----------------------------------------------------------------------
messages = st.one_of(
    st.tuples(st.just("json"), requests, envs),
    st.tuples(st.just("binary"), requests, envs),
    st.tuples(
        st.just("op"),
        st.sampled_from(
            ["ping", "ready", "intern", "tenants", "no-such-op", "reload"]
        ),
        st.sampled_from([b"\n", b"\r\n", b"\n\n"]),
    ),
)
#: Ops the router answers itself, in the read that delivered them; the
#: rest are answered by the first worker, in the order it got them.
LOCAL_OPS = {"ping", "no-such-op"}


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
    """Feed ``chunks`` to a fresh session of ``router`` (the handshake
    answered first, as a client would wait for it); returns what the
    session wrote, split into messages, in order."""
    session = _Session(router)
    transport = FakeTransport()
    session.connection_made(transport)
    feed(session, HANDSHAKE)
    await eventually(lambda: b"\n" in transport.written)
    for chunk in chunks:
        feed(session, chunk, fills)
        if len(chunks) > 1:
            await asyncio.sleep(0)
    written: List = []

    def complete() -> bool:
        written[:] = split_messages(bytes(transport.written))
        return len(written) >= expected

    await eventually(complete)
    await eventually(lambda: not session.in_flight)  # its own pins included
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
@example(  # decisions for both workers pipelined behind a reload
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
    expected = len(items) + 1

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
    assert summarize(parts)[0] == summarize(whole)[0]  # per-id answers
    for written in (whole, parts):
        decisions, ops = summarize(written)
        assert ("b", "error") not in decisions
        assert len(decisions) + len(ops) == expected
        assert ops[0][:2] == ("intern", 0)
        kinds = {index: item[1] for index, item in enumerate(items, 1)
                 if item[0] == "op"}
        local = [op[1] for op in ops if kinds.get(op[1]) in LOCAL_OPS]
        forwarded = [
            op[1] for op in ops[1:]
            if kinds.get(op[1]) not in LOCAL_OPS | {"reload"}
        ]
        assert local == sorted(local) and forwarded == sorted(forwarded)
        # Nothing sent after a reload is answered before the reload is.
        position = {
            (message.get("id") if lane == "line"
             else decode_binary_response(message[1]).id): where
            for where, (lane, message) in enumerate(written)
        }
        for index, kind in kinds.items():
            if kind == "reload":
                assert all(
                    position[later] > position[index]
                    for later in range(index + 1, len(items) + 1)
                )


# ----------------------------------------------------------------------
# (a) An upstream is written before it connects
# ----------------------------------------------------------------------
def test_queue_leaves_on_connect_pin_first_then_frames_in_order() -> None:
    async def scenario():
        workers = [await ScriptedWorker().start() for _ in range(2)]
        router = ShardRouter(
            {f"w{i}": ("127.0.0.1", w.port) for i, w in enumerate(workers)}
        )
        await router.start()
        try:
            reader, writer = await open_client(router.port)  # via w0
            (session,) = router._sessions
            assert "w1" not in session.upstreams
            frames = [
                encode_binary_request(TABLES, request_for(ON_W1), n, env=ENV)
                for n in (1, 2, 3)
            ]
            # Handed straight to the session, as its transport would:
            # by the time the call returns the first frame is routed —
            # synchronously, before there is a socket to write it to.
            feed(session, b"".join(frames))
            fresh = session.upstreams["w1"]
            queued = (fresh.transport is None, list(fresh._outbox))
            await eventually(lambda: len(workers[1].messages()) == 4)
            writer.close()
            return queued, frames, workers[1].messages(), bytes(workers[1].received)
        finally:
            await router.stop()
            for worker in workers:
                await worker.stop()

    (unconnected, outbox), frames, seen, raw = asyncio.run(scenario())
    assert unconnected and len(outbox) == 2
    assert json.loads(outbox[0])["id"] == ROUTER_INTERN_ID and outbox[1] == frames[0]
    lane, pin = seen[0]
    assert lane == "line" and pin["op"] == "intern"
    assert pin["id"] == ROUTER_INTERN_ID and pin["tables"] == TABLES.to_payload()["tables"]
    assert raw.endswith(b"".join(frames))  # ...then the frames, verbatim


def test_refused_connect_feeds_the_breaker_and_answers_in_kind() -> None:
    async def scenario():
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens here any more
        server = PDPServer(
            PolicyDecisionPoint(MediationEngine(build_policy()), PDPConfig())
        )
        async with server:
            router = ShardRouter(
                {"w0": ("127.0.0.1", server.port), "w1": ("127.0.0.1", dead_port)},
                failure_threshold=2,
                cooldown_s=60.0,
            )
            async with router:
                reader, writer = await open_client(router.port)
                pipeline = bytearray()
                for n in (1, 2, 3):
                    pipeline += dumps_line(
                        encode_request(request_for(ON_W1), n, env=ENV)
                    )
                    pipeline += encode_binary_request(
                        TABLES, request_for(ON_W1), 100 + n, env=ENV
                    )
                pipeline += dumps_line(
                    encode_request(request_for(ON_W0), 9, env=ENV)
                )
                writer.write(bytes(pipeline))
                answers = verdicts(await read_messages(reader, 7))
                writer.close()
                return answers, router.stats(), router.breaker("w1").failures

    answers, stats, failures = asyncio.run(scenario())
    assert answers.pop(("j", 9)) is PDPOutcome.GRANT  # w0 is unaffected
    assert set(answers) == {("j", 1), ("j", 2), ("j", 3),
                            ("b", 101), ("b", 102), ("b", 103)}
    assert set(answers.values()) == {PDPOutcome.DENY_UNAVAILABLE}
    assert failures >= 2 and stats["workers"]["w1"]["breaker"] == "open"
    assert stats["unavailable_synthesized"] == 6
    assert stats["in_flight"] == 0


# ----------------------------------------------------------------------
# (b) Backpressure is paired across session and upstreams
# ----------------------------------------------------------------------
def router_buffered(session) -> int:
    """Bytes the router holds for one session, whichever way they flow."""
    connections = [session, *session.upstreams.values()]
    return sum(
        c._end - c._start  # read, not yet delivered
        + sum(map(len, c._outbox))
        + (c.transport.get_write_buffer_size() if c.transport else 0)
        for c in connections
    )


def test_unread_pipeline_is_bounded_and_throttles_only_itself() -> None:
    templates = [
        dumps_line(encode_request(request_for(subject), 0, env=ENV))
        for subject in (ON_W0, ON_W1)
    ]
    assert all(t.startswith(b'{"id":0,') for t in templates)
    flood = b"".join(
        b'{"id":%d,' % index + templates[index % 2][len(b'{"id":0,'):]
        for index in range(1, FLOOD + 1)
    )

    async def scenario():
        async with Cluster() as cluster:
            router = cluster.router
            # Small kernel buffers, so megabytes — not tens of them —
            # back the router's transports up.
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect(("127.0.0.1", router.port))
            reader, writer = await asyncio.open_connection(sock=raw)
            await eventually(lambda: len(router._sessions) == 1)
            (flooded,) = router._sessions
            flooded.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )

            writer.write(flood)  # never drained, never read
            await eventually(lambda: not flooded.transport.is_reading())
            await asyncio.sleep(0.2)  # nothing more may be consumed
            high_water = flooded.transport.get_write_buffer_limits()[1]
            buffered = router_buffered(flooded)
            upstreams_paused = [
                not u.transport.is_reading()
                for u in flooded.upstreams.values()
            ]
            routed = sum(router.routed.values())

            # A well-behaved neighbour is served as if nothing happened.
            neighbour = await RemotePDPClient.connect(
                "127.0.0.1", router.port, wire="binary"
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
            answers = 0
            while answers < FLOOD:
                chunk = await asyncio.wait_for(reader.read(1 << 20), 30.0)
                assert chunk, "router closed on a slow reader"
                answers += chunk.count(b"\n")
            in_flight = router.stats()["in_flight"]
            writer.close()
            return (buffered, high_water, upstreams_paused, routed, slowest,
                    still_paused, in_flight, router.stats())

    (buffered, high_water, upstreams_paused, routed, slowest, still_paused,
     in_flight, stats) = asyncio.run(scenario())
    assert routed < FLOOD  # reading stopped with requests still unread
    # Three sockets' high-water marks plus one read — a fraction of the
    # ~10 MB the flood and its answers come to.
    assert buffered <= 3 * high_water + ONE_READ
    assert upstreams_paused == [True, True]
    assert still_paused and slowest < 0.25
    assert in_flight == 0 and stats["unavailable_synthesized"] == 0
    assert sum(row["routed"] for row in stats["workers"].values()) == FLOOD + 50


def test_worker_that_stops_reading_pauses_its_session_until_it_resumes() -> None:
    line = dumps_line(encode_request(request_for(ON_W0), 1, env=ENV))
    count = 20_000

    async def scenario():
        worker = await ScriptedWorker(reading=False).start()
        router = ShardRouter({"w0": ("127.0.0.1", worker.port)})
        await router.start()
        try:
            stalled_reader, stalled = await open_client(router.port, handshake=False)
            stalled.write(line)
            await eventually(lambda: len(router._sessions) == 1)
            (session,) = router._sessions
            await eventually(lambda: "w0" in session.upstreams
                             and session.upstreams["w0"].transport is not None)
            upstream = session.upstreams["w0"]
            upstream.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            stalled.write(line * (count - 1))
            await eventually(lambda: not session.transport.is_reading())
            await asyncio.sleep(0.1)
            paused_with = router_buffered(session)
            high_water = upstream.transport.get_write_buffer_limits()[1]
            # Another client of the same router is not held up: its own
            # upstream to the stalled worker queues, but the router
            # answers what it can answer itself at once.
            other_reader, other = await open_client(router.port, handshake=False)
            other.write(dumps_line({"op": "ping", "id": 5}))
            pong = json.loads(await asyncio.wait_for(other_reader.readline(), 5.0))
            other.close()

            worker.reading.set()
            await eventually(lambda: worker.newlines == count, 30.0)
            await eventually(lambda: session.transport.is_reading())
            stalled.close()
            return paused_with, high_water, pong
        finally:
            await router.stop()
            await worker.stop()

    paused_with, high_water, pong = asyncio.run(scenario())
    assert paused_with <= high_water + ONE_READ
    assert paused_with < count * len(line) / 2
    assert pong == {"op": "pong", "id": 5}


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
                reader, writer = await open_client(cluster.router.port)
                writer.write(  # one write: one read delivers it all
                    dumps_line(encode_request(request_for(ON_W0), 1, env=ENV))
                    + dumps_line({"op": "reload", "id": 2, "policy": "first"})
                    + dumps_line({"op": "ping", "id": 3})
                    + encode_binary_request(TABLES, request_for(ON_W1), 4, env=ENV)
                    + dumps_line({"op": "reload", "id": 5, "policy": "second"})
                    + dumps_line({"op": "ping", "id": 6})
                )
                early = await read_messages(reader, 1)  # the decision ahead of it
                await eventually(lambda: seen == ["first"])
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.read(1), 0.2)  # held
                routed_while_held = sum(cluster.router.routed.values())
                # Other sessions carry on while this one waits.
                async with await RemotePDPClient.connect(
                    "127.0.0.1", cluster.router.port
                ) as other:
                    assert await asyncio.wait_for(other.ping(), 5.0)
                gate.set()
                rest = await read_messages(reader, 5)
                writer.close()
                return early + rest, seen, routed_while_held
            finally:
                gate.set()

    written, seen, routed_while_held = asyncio.run(scenario())
    order = [
        decode_binary_response(message[1]).id if lane == "frame" else message["id"]
        for lane, message in written
    ]
    assert sorted(order) == [1, 2, 3, 4, 5, 6]
    # Each reload is answered before anything sent after it is (the
    # decision behind the first may still overtake the second).
    assert order.index(2) < min(order.index(later) for later in (3, 4, 5, 6))
    assert order.index(5) < order.index(6)
    assert seen == ["first", "second"]
    assert routed_while_held == 1  # nothing behind the reload had been routed
    assert verdicts(written) == {("j", 1): PDPOutcome.GRANT,
                                 ("b", 4): PDPOutcome.GRANT}


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
# (d) A half-closed client is still owed its answers
# ----------------------------------------------------------------------
def test_half_closed_pipeline_gets_every_answer_like_a_single_server() -> None:
    n = 6
    pipeline = mixed_pipeline(n) + dumps_line({"op": "ping", "id": 99}).rstrip()

    async def ask(port: int):
        reader, writer = await open_client(port)
        writer.write(pipeline)  # ...ending in a line with no newline
        writer.write_eof()
        data = await asyncio.wait_for(reader.read(), 10.0)  # until close
        writer.close()
        return split_messages(data)

    async def scenario():
        async with Cluster() as cluster:
            through = await ask(cluster.router.port)
            direct = await ask(cluster.servers[0].port)
            await eventually(lambda: not cluster.router._sessions)
            await eventually(
                lambda: not any(server._open for server in cluster.servers)
            )
            return through, direct, cluster.router.stats()

    through, direct, stats = asyncio.run(scenario())
    assert len(through) == len(direct) == 2 * n + 1
    assert verdicts(through) == verdicts(direct)
    assert set(verdicts(through).values()) == {PDPOutcome.GRANT}
    assert {"op": "pong", "id": 99} in [m for lane, m in through if lane == "line"]
    assert stats["in_flight"] == 0 and stats["sessions"] == 0
    assert all(row["routed"] == n for row in stats["workers"].values())


def test_half_closed_subscriber_is_detached_upstream_once_drained() -> None:
    async def scenario():
        worker = make_live_worker()
        await worker.start()
        router = ShardRouter({"w0": ("127.0.0.1", worker.port)})
        await router.start()
        try:
            reader, writer = await open_client(router.port, handshake=False)
            writer.write(dumps_line(encode_request(LIVE_REQUEST, 1, subscribe=True)))
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            # The answer drained the session: its upstream is closed,
            # so the worker has nobody left to push a revoke to.
            await eventually(lambda: worker.pdp.grants.sessions == 0)
            return data, worker.pdp.grants.grants, router.stats()
        finally:
            await router.stop()
            await worker.stop()

    data, grants, stats = asyncio.run(scenario())
    (answer,) = verdicts(split_messages(data)).values()
    assert answer is PDPOutcome.GRANT
    assert grants == 0 and stats["sessions"] == 0


def test_half_closed_after_intern_closes_once_the_pins_are_answered() -> None:
    """The intern reply pins the session's other upstream before it is
    relayed, so the last thing settled is the router's own pin — which
    forwards nothing, and must still close the half-closed session."""

    async def scenario():
        async with Cluster() as cluster:
            router = cluster.router
            reader, writer = await open_client(router.port, handshake=False)
            writer.write(
                dumps_line(encode_request(request_for(ON_W0), 1, env=ENV))
                + dumps_line(encode_request(request_for(ON_W1), 2, env=ENV))
            )
            await read_messages(reader, 2)  # both upstreams are open
            writer.write(dumps_line({"op": "intern", "id": 7}))
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 10.0)  # until close
            writer.close()
            await eventually(lambda: not router._sessions)
            return split_messages(data), router.stats()

    messages, stats = asyncio.run(scenario())
    ((lane, reply),) = messages
    assert lane == "line" and reply["id"] == 7 and "tables" in reply
    assert stats["in_flight"] == 0 and stats["sessions"] == 0


# ----------------------------------------------------------------------
# Failure is an answer, never a hang
# ----------------------------------------------------------------------
def test_worker_killed_mid_pipeline_answers_every_outstanding_id() -> None:
    assert_killed_worker_answered(half_close=False)


def test_half_closed_client_gets_every_answer_a_killed_worker_owed() -> None:
    """Each synthesized answer settles one id; the session must close
    behind the last of them, not the first."""
    assert_killed_worker_answered(half_close=True)


def assert_killed_worker_answered(half_close: bool, n: int = 4) -> None:
    async def scenario():
        doomed = await ScriptedWorker(die_after=2 * n).start()
        router = ShardRouter({"w0": ("127.0.0.1", doomed.port)})
        await router.start()
        try:
            reader, writer = await open_client(router.port)
            writer.write(mixed_pipeline(n))
            if half_close:
                writer.write_eof()
            answers = verdicts(await read_messages(reader, 2 * n))
            if half_close:
                assert await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()
            return answers, router.stats()
        finally:
            await router.stop()
            await doomed.stop()

    answers, stats = asyncio.run(scenario())
    assert set(answers) == (
        {("j", index) for index in range(1, n + 1)}
        | {("b", 100 + index) for index in range(1, n + 1)}
    )
    assert set(answers.values()) == {PDPOutcome.DENY_UNAVAILABLE}
    assert stats["unavailable_synthesized"] == 2 * n
    assert stats["in_flight"] == 0


def big_policy() -> GrbacPolicy:
    """``build_policy`` plus enough subjects that the intern tables no
    longer fit one wire line."""
    policy = build_policy()
    for index in range(2500):
        policy.add_subject(f"resident-{index:04d}-of-a-very-large-household")
    return policy


def test_tables_too_big_to_replay_refuse_the_handshake_not_the_requests() -> None:
    policy = big_policy()
    tables = InternTables.from_policy(policy)
    assert len(dumps_line(tables.to_payload())) > MAX_LINE_BYTES

    async def scenario():
        async with Cluster(policy=policy) as cluster:
            port = cluster.router.port
            with pytest.raises(ServiceError) as refused:
                await asyncio.wait_for(
                    RemotePDPClient.connect("127.0.0.1", port, wire="binary"), 5.0
                )
            reader, writer = await open_client(port, handshake=False)
            writer.write(HANDSHAKE)
            handshake = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
            # NDJSON is unaffected, on either worker; a frame sent anyway
            # is refused by id, not forwarded to a worker that cannot
            # decode it.
            writer.write(
                dumps_line(encode_request(request_for(ON_W0), 1, env=ENV))
                + dumps_line(encode_request(request_for(ON_W1), 2, env=ENV))
                + encode_binary_request(tables, request_for(ON_W1), 3, env=ENV)
                + encode_binary_request(tables, request_for(ON_W0), 4, env=ENV)
            )
            answers = verdicts(await read_messages(reader, 4, timeout_s=5.0))
            writer.close()
            return str(refused.value), handshake, answers, cluster.router.stats()

    refused, handshake, answers, stats = asyncio.run(scenario())
    for text in (refused, handshake["error"]):
        assert str(MAX_LINE_BYTES) in text and "byte" in text
    assert handshake["id"] == 0 and "tables" not in handshake
    assert answers[("j", 1)] is answers[("j", 2)] is PDPOutcome.GRANT
    assert answers[("b", 3)].startswith("error: binary request before intern")
    assert answers[("b", 4)].startswith("error: binary request before intern")
    assert stats["in_flight"] == 0


def test_handshake_pins_upstreams_that_were_opened_before_it() -> None:
    """NDJSON first (both upstreams open, un-pinned), then the intern
    handshake, then frames: the worker that did not answer the
    handshake must have been pinned to the same tables."""

    async def scenario():
        async with Cluster() as cluster:
            reader, writer = await open_client(cluster.router.port, handshake=False)
            writer.write(
                dumps_line(encode_request(request_for(ON_W0), 1, env=ENV))
                + dumps_line(encode_request(request_for(ON_W1), 2, env=ENV))
            )
            first = verdicts(await read_messages(reader, 2))
            writer.write(HANDSHAKE)
            await read_messages(reader, 1)
            writer.write(
                encode_binary_request(TABLES, request_for(ON_W0), 11, env=ENV)
                + encode_binary_request(TABLES, request_for(ON_W1), 12, env=ENV)
            )
            second = verdicts(await read_messages(reader, 2, timeout_s=5.0))
            writer.close()
            return first, second

    first, second = asyncio.run(scenario())
    assert set(first.values()) == {PDPOutcome.GRANT} and len(first) == 2
    assert second == {("b", 11): PDPOutcome.GRANT, ("b", 12): PDPOutcome.GRANT}
