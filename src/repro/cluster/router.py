"""The shard router: one front door for a cluster of PDP workers.

A TCP relay that terminates both wire formats the PDP speaks (NDJSON
lines and binary frames, detected per message), lifts each decision
request's *shard key* — tenant when present, else subject — and
forwards the message byte-for-byte to the worker the consistent-hash
ring owns that key on.  Answers return the same way, so the client
sees exactly the pipelined out-of-order protocol of a single server.

**Connection model.**  Both sides of the relay are the
:class:`~repro.service.transport.WireConnection` protocol under
``PDPServer`` and ``RemotePDPClient``: a :class:`_Session` per client
and, **per client session, per worker**, one lazily-created pipelined
:class:`_Upstream` — which therefore carries one client's traffic
only, so request ids stay unique on it and no message is rewritten.
Routing is one synchronous call chain inside the read that delivered
the message — ``frame_received / line_received -> peek id + shard key
-> ring.route -> upstream.write(bytes)`` — and an answer is
``upstream.frame_received / line_received -> session.write(bytes)``.
No task lives as long as a connection, nothing locks or ``drain()``s,
and what is queued for a socket leaves in one ``transport.write`` per
loop turn.  The router awaits in two places, each a short task:
connecting a fresh upstream and the supervisor's cluster-wide reload.
What blocking used to give, the connections hold by construction:

* a fresh upstream is writable at once — its queue (the replayed
  table pin, then what was routed to it, in order) leaves when the
  socket connects; a refused connect feeds the breaker and answers
  everything queued with ``DENY_UNAVAILABLE``;
* backpressure is paired — a session whose client stops reading stops
  its upstreams, and an upstream whose worker stops reading (or has
  not connected yet) stops its session, so what the router buffers per
  session is bounded by the transports' high-water marks plus one read
  buffer;
* a reload holds its own stream — nothing later in that session, not
  even what the same read delivered, is routed before the reload's
  reply is queued; other sessions carry on;
* a half-closed client keeps its socket until nothing is in flight.

Failure policy — shed, never hang.  Every worker has a
:class:`CircuitBreaker`: connect/IO failures open it, and requests
routed there are answered at once with ``DENY_UNAVAILABLE`` until the
cooldown's half-open probe succeeds.  When an upstream dies mid-flight
every request outstanding on it is answered the same way, on the lane
it arrived on.  ``drain()`` stops accepting, lets in-flight work
finish (bounded), then closes.

Control ops: ``ping`` is answered locally; ``intern`` is forwarded and
its tables captured, so every other upstream of the session is pinned
to the *same* tables (tables too large to replay in one wire line are
refused at the handshake, and no binary frame is forwarded for a
session without a pin); reload ops go to the supervisor's two-phase
handler; ``env`` is broadcast; the rest go to the first healthy worker.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.cluster.ring import ConsistentHashRing
from repro.exceptions import ServiceError
from repro.obs.export import TraceSampler
from repro.obs.trace import Span, SpanCollector, TraceContext, new_span_id
from repro.service.protocol import (
    KIND_REQUEST,
    MAX_LINE_BYTES,
    MAX_OP_LINE_BYTES,
    InternTables,
    dumps_line,
    encode_binary_error,
    encode_binary_unavailable,
    encode_unavailable,
    frame,
    parse_line,
    peek_binary_id,
    peek_binary_request,
    peek_binary_trace,
    splice_binary_trace,
    splice_line_trace,
)
from repro.service.transport import WireConnection

#: Reserved wire id for the router's own intern replays to upstreams;
#: responses carrying it are consumed, never forwarded.
ROUTER_INTERN_ID = "__router_intern__"

#: Ops the router forwards to any healthy worker (cluster-wide
#: aggregation lives on the supervisor's admin endpoint instead).
_FORWARD_OPS = frozenset(
    {"stats", "metrics", "health", "ready", "dump", "tenants", "intern"}
)

_RELOAD_OPS = frozenset({"reload", "reload_prepare", "reload_activate",
                         "reload_abort"})


class CircuitBreaker:
    """Per-worker failure gate: open after N failures, probe after cooldown.

    While open, routed requests shed with ``DENY_UNAVAILABLE`` instead
    of paying a connect timeout each.  After ``cooldown_s`` the breaker
    is *half-open*: attempts pass again, one failure re-opens it, one
    success closes it.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown_s: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise ServiceError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ServiceError("cooldown_s must be > 0")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0

    @property
    def open(self) -> bool:
        if self.opened_at is None:
            return False
        if time.monotonic() - self.opened_at >= self.cooldown_s:
            return False  # half-open: let a probe through
        return True

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.failure_threshold:
            if self.opened_at is None:
                self.opens += 1
            self.opened_at = time.monotonic()

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def force_open(self) -> None:
        """Open immediately (supervisor saw the worker die)."""
        if self.opened_at is None:
            self.opens += 1
        self.failures = max(self.failures, self.failure_threshold)
        self.opened_at = time.monotonic()

    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        return "open" if self.open else "half-open"


class _Upstream(WireConnection):
    """One client session's pipelined connection to one worker.

    Created synchronously and writable at once; the socket follows.
    While it cannot write — still connecting, or the worker stopped
    reading — it holds its session's reads.
    """

    #: An op reply (a metrics exposition) outgrows any decision line.
    max_line_bytes = MAX_OP_LINE_BYTES

    def __init__(self, session: "_Session", name: str) -> None:
        super().__init__()
        self.session = session
        self.name = name
        #: wire id -> (lane tag, pending router span or None), in
        #: insertion order for failure synthesis.  The tag is "bin" |
        #: "json" | "op" | "intern" | "router-intern"; the span (sampled
        #: requests only) completes when the worker's response comes
        #: back, so its duration is the upstream round-trip time.
        self.outstanding: Dict[object, Tuple[str, Optional[dict]]] = {}
        #: Resolves once the socket is gone (see :meth:`close`).
        self.gone: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        self._stalled = False
        self.pause_writing()  # until connection_made

    async def connect(self, host: str, port: int) -> None:
        try:
            await asyncio.get_running_loop().create_connection(
                lambda: self, host, port
            )
        except OSError:
            self.session.router._note(self.name, ok=False)
            self.close()

    def send_pin(self) -> None:
        """Pin this connection to the client's exact intern tables (a
        worker restarted after a reload must not decode the client's
        ids against a different codec)."""
        self.outstanding[ROUTER_INTERN_ID] = ("router-intern", None)
        self.write(self.session.pin)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # WireConnection
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.session.router._note(self.name, ok=True)
        self.resume_writing()  # sending the queue may well pause it again
        super().connection_made(transport)

    def pause_writing(self) -> None:
        if not self._stalled:
            self._stalled = True
            self.session.pause_reading()

    def resume_writing(self) -> None:
        if self._stalled:
            self._stalled = False
            self.session.resume_reading()

    def frame_received(self, kind: int, body: bytes) -> None:
        self._settle(peek_binary_id(body), frame(kind, body))

    def line_received(self, line: bytes) -> None:
        """Pass one NDJSON response through; intercept intern replies."""
        wire_id, parsed = _scan_response_id(line)
        self._settle(wire_id, line + b"\n", parsed)

    def _settle(
        self,
        wire_id: object,
        answer: Optional[bytes] = None,
        parsed: Optional[dict] = None,
    ) -> None:
        """``wire_id`` is settled — by the worker's ``answer``, passed
        on to the client, or (``answer`` None) by this upstream's
        failure, answered for it.  Nothing may be owed for it (a pushed
        revocation, a duplicate).  Every in-flight message of the
        session ends here or in a reload, so this is where a
        half-closed client's socket closes behind its last answer."""
        session, router = self.session, self.session.router
        lane, pending = self.outstanding.pop(wire_id, (None, None))
        if answer is None:
            router._shed(session, wire_id, lane, self.name, pending, "unavailable")
        else:
            if pending is not None:
                router._record_span(pending, self.name, "ok")
            # The router's own table pin is consumed; an intern reply
            # whose tables cannot be replayed was refused instead.
            if wire_id != ROUTER_INTERN_ID and (
                lane != "intern"
                or session.capture_tables(self, wire_id, answer, parsed)
            ):
                session.write(answer)
        session.close_if_answered()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        if exc is not None:
            self.session.router._note(self.name, ok=False)
        self.close()
        if not self.gone.done():
            self.gone.set_result(None)

    def close(self, synthesize: bool = True) -> "asyncio.Future[None]":
        """Tear down and — unless the session itself is going away —
        answer everything still owed on this connection; idempotent.
        Returns :attr:`gone`, for a caller that must see the socket
        shut before it moves on."""
        super().close()
        session, router = self.session, self.session.router
        # Settled while still counted in the session's in-flight total,
        # so a half-closed session closes behind the last answer only.
        for wire_id in list(self.outstanding):
            if synthesize:
                self._settle(wire_id)
            else:
                _, pending = self.outstanding.pop(wire_id)
                if pending is not None:
                    router._record_span(pending, self.name, "unavailable")
        if session.upstreams.get(self.name) is self:
            del session.upstreams[self.name]
        self.resume_writing()  # routes nothing here: deregistered first
        if self.transport is None and not self.gone.done():
            self.gone.set_result(None)  # there never was a socket
        return self.gone


class _Session(WireConnection):
    """One client connection and its lazily-built upstream fan."""

    def __init__(self, router: "ShardRouter") -> None:
        super().__init__()
        self.router = router
        self.upstreams: Dict[str, _Upstream] = {}
        #: The client's intern tables (captured off the intern reply)
        #: — used to decode binary routing keys.
        self.tables: Optional[InternTables] = None
        #: The intern line replayed to every upstream (tables pinned).
        self.pin: Optional[bytes] = None
        #: A reload op of this session is being awaited (its reads are
        #: held until the reply is queued).
        self.reloading = False

    @property
    def in_flight(self) -> int:
        """Messages routed for the client and not yet answered."""
        return self.reloading + sum(
            len(u.outstanding) for u in self.upstreams.values()
        )

    # ------------------------------------------------------------------
    # Upstream management
    # ------------------------------------------------------------------
    def upstream_for(self, name: str) -> Optional[_Upstream]:
        """The (possibly fresh, possibly still connecting) upstream to
        worker ``name``; ``None`` means unroutable right now — breaker
        open or worker removed — and the caller sheds."""
        upstream = self.upstreams.get(name)
        if upstream is not None:
            return upstream  # a closed one has already removed itself
        router = self.router
        address = router._workers.get(name)
        if address is None or router.breaker(name).open:
            return None
        upstream = self.upstreams[name] = _Upstream(self, name)
        if self.writable is not None:
            upstream.pause_reading()  # born under a client that isn't reading
        if self.pin is not None:
            upstream.send_pin()
        router._spawn(upstream.connect(*address))
        return upstream

    def capture_tables(
        self, source: _Upstream, wire_id: object, line: bytes, parsed: Optional[dict]
    ) -> bool:
        """An intern reply is passing through from ``source``: keep its
        tables for routing and pin every other upstream, present and
        future, to them.  False when the client was sent a refusal in
        the reply's place: the pin outgrows the line a worker accepts
        (an un-pinned worker could not decode this client's frames)."""
        try:
            payload = parsed if parsed is not None else parse_line(
                line, max_bytes=MAX_OP_LINE_BYTES
            )
            if "error" in payload:
                return True
            tables = InternTables.from_payload(payload)
        except ServiceError:
            return True
        pin = dumps_line(
            {
                "op": "intern",
                "id": ROUTER_INTERN_ID,
                "revision": payload.get("revision", 0),
                "tables": payload.get("tables"),
            }
        )
        if len(pin) > MAX_LINE_BYTES:
            self.tables = self.pin = None
            self.refuse(
                wire_id,
                f"intern tables take a {len(pin)}-byte line to replay to each "
                f"worker and the wire line cap is {MAX_LINE_BYTES} bytes: no "
                "binary lane through the router for this policy (NDJSON works)",
            )
            return False
        self.tables, self.pin = tables, pin
        for upstream in self.upstreams.values():
            if upstream is not source:
                upstream.send_pin()
        return True

    # ------------------------------------------------------------------
    # WireConnection
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        if self.router._accepting:
            self.router.connections += 1
            self.router._sessions.add(self)
        else:
            self.close()

    def frame_received(self, kind: int, body: bytes) -> None:
        self.router._route_frame(self, kind, body)

    def line_received(self, line: bytes) -> None:
        self.router._route_line(self, line)

    def protocol_error(self, message: str, binary: bool) -> None:
        self.write(
            encode_binary_error(None, message)
            if binary
            else dumps_line({"error": message})
        )

    def eof_received(self) -> bool:
        super().eof_received()
        return self.in_flight > 0  # half-closed peers still get their answers

    def pause_writing(self) -> None:
        super().pause_writing()
        for upstream in self.upstreams.values():
            upstream.pause_reading()

    def resume_writing(self) -> None:
        super().resume_writing()
        for upstream in self.upstreams.values():
            upstream.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.router._sessions.discard(self)
        self.close()

    def close(self) -> None:
        super().close()
        for upstream in list(self.upstreams.values()):
            upstream.close(synthesize=False)

    def close_if_answered(self) -> None:
        """Something in flight was settled: a half-closed client's
        socket closes behind the last answer it was owed."""
        if self._eof and not self.in_flight:
            self.close()

    def refuse(self, wire_id: object, message: str) -> None:
        """Answer control op ``wire_id`` with an error line."""
        self.write(dumps_line({"id": wire_id, "error": message}))


class ShardRouter:
    """The cluster's front listener (see module docstring).

    :param workers: initial ``name -> (host, port)`` map; the ring is
        built from the names, so slots (not ports) own key ranges and
        a restarted worker keeps its range.
    :param reload_handler: async callable given the parsed reload-op
        payload, returning the response payload — the supervisor's
        cluster-wide two-phase reload.  Without one, reload ops are
        refused (reloading one shard of a cluster would fork it).
    :param trace_sample_rate: head-sampling rate for traces the
        *router originates* on requests that arrive without a trace
        context.  Requests that already carry one keep their origin's
        sampled flag — the router never re-rolls.
    """

    def __init__(
        self,
        workers: Optional[Dict[str, Tuple[str, int]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = 128,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        reload_handler: Optional[
            Callable[[dict], Awaitable[dict]]
        ] = None,
        trace_sample_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ServiceError("trace_sample_rate must be in [0, 1]")
        self.host = host
        self.reload_handler = reload_handler
        self.sampler = TraceSampler(trace_sample_rate)
        self.trace_sample_rate = trace_sample_rate
        #: The router's own retained spans (``router.route``).
        self.spans = SpanCollector()
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: Dict[str, Tuple[str, int]] = dict(workers or {})
        self.ring = ConsistentHashRing(sorted(self._workers), vnodes=vnodes)
        self._failure_threshold = failure_threshold
        self._cooldown_s = cooldown_s
        self._breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(failure_threshold, cooldown_s)
            for name in self._workers
        }
        self._sessions: "set[_Session]" = set()
        #: Upstream connects and reload delegations in progress.
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._accepting = True
        self.connections = 0
        self.routed: Dict[str, int] = {name: 0 for name in self._workers}
        self.unavailable_synthesized = 0

    # ------------------------------------------------------------------
    # Membership (driven by the supervisor)
    # ------------------------------------------------------------------
    def breaker(self, name: str) -> CircuitBreaker:
        found = self._breakers.get(name)
        if found is None:
            raise ServiceError(f"unknown worker {name!r}")
        return found

    def set_worker(self, name: str, host: str, port: int) -> None:
        """Add ``name`` or update its address (restart on a new port).

        A fresh address resets the breaker — the supervisor only calls
        this once the worker answered its readiness probe.
        """
        self._workers[name] = (host, port)
        self._breakers.setdefault(
            name,
            CircuitBreaker(self._failure_threshold, self._cooldown_s),
        ).record_success()
        self.routed.setdefault(name, 0)
        if name not in self.ring:
            self.ring.add(name)

    def mark_worker_down(self, name: str) -> None:
        """Shed immediately for ``name`` (supervisor saw it die).

        The slot stays on the ring — its key range sheds until the
        restarted worker re-registers — so no other shard's cache
        locality is disturbed by the outage.
        """
        self.breaker(name).force_open()

    def remove_worker(self, name: str) -> None:
        """Take ``name`` out of rotation (scale-down, not a crash)."""
        self._workers.pop(name, None)
        self._breakers.pop(name, None)
        if name in self.ring:
            self.ring.remove(name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ServiceError("router is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ShardRouter":
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Session(self),
            host=self.host,
            port=self._requested_port,
        )
        return self

    async def stop(self) -> None:
        await self.drain(timeout_s=0.0)

    async def drain(self, timeout_s: float = 5.0) -> int:
        """Stop accepting, wait (bounded) for in-flight work, close.

        :returns: requests still in flight when the deadline hit
            (0 on a clean drain).
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not any(s.in_flight for s in self._sessions):
                break
            await asyncio.sleep(0.02)
        remaining = sum(s.in_flight for s in self._sessions)
        for session in list(self._sessions):
            session.close()
        self._sessions.clear()
        return remaining

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Routing — synchronous, inside the read that delivered the message
    # ------------------------------------------------------------------
    def _route_frame(self, session: _Session, kind: int, body: bytes) -> None:
        if kind != KIND_REQUEST:
            session.write(
                encode_binary_error(None, f"unexpected frame kind {kind}")
            )
            return
        try:
            if session.pin is None:  # so no upstream could decode it
                raise ServiceError("binary request before intern handshake")
            wire_id, subject, tenant = peek_binary_request(
                session.tables, body
            )
            incoming = peek_binary_trace(body)
        except ServiceError as error:
            session.write(
                encode_binary_error(peek_binary_id(body), str(error))
            )
            return
        key = tenant or subject or str(wire_id)
        pending = self._begin_trace(incoming, wire_id, key, "bin")
        if pending is not None:
            body = splice_binary_trace(body, pending["ctx"])
        self._forward(
            session,
            self.ring.route(key),
            frame(kind, body),
            wire_id,
            "bin",
            pending,
        )

    def _route_line(self, session: _Session, line: bytes) -> None:
        scanned = _scan_request(line)
        if scanned is None:
            # Slow path: ops, escaped strings, unusual field order.
            try:
                payload = parse_line(line)
            except ServiceError as error:
                session.write(dumps_line({"error": str(error)}))
                return
            op = payload.get("op")
            if op is not None:
                self._handle_op(session, op, payload, line + b"\n")
                return
            wire_id = payload.get("id")
            if not isinstance(wire_id, (int, str)) and wire_id is not None:
                wire_id = str(wire_id)
            subject = payload.get("subject")
            tenant = payload.get("tenant")
            key = (
                tenant
                if isinstance(tenant, str) and tenant
                else subject
                if isinstance(subject, str) and subject
                else str(wire_id)
            )
        else:
            wire_id, key = scanned
        incoming = _scan_trace(line)
        pending = self._begin_trace(incoming, wire_id, key, "json")
        data = None
        if pending is not None:
            try:
                data = splice_line_trace(line, pending["ctx"])
            except ServiceError:
                pending = None  # not a JSON object; forward verbatim
        self._forward(
            session,
            self.ring.route(key),
            data or line + b"\n",
            wire_id,
            "json",
            pending,
        )

    def _begin_trace(
        self,
        incoming: Optional[TraceContext],
        wire_id: object,
        key: str,
        lane: str,
    ) -> Optional[Dict[str, object]]:
        """Originate or propagate trace context for one request.

        Returns the pending router-span record (the forwarded context
        under ``"ctx"``), or ``None`` when the request is untraced —
        in which case the message must be forwarded byte-verbatim.
        An incoming context's sampled flag is authoritative; only
        context-less requests consult the router's own sampler.
        """
        if incoming is not None:
            if not incoming.sampled:
                return None  # head said drop: forward untouched
            forward = TraceContext(incoming.trace_id, new_span_id(), True)
            parent = incoming.span_id
        elif self.sampler.should_sample():
            forward = TraceContext.origin()
            parent = ""
        else:
            return None
        return {
            "ctx": forward,
            "parent": parent,
            "start": time.perf_counter(),
            # Wall clock for the span record: perf_counter times the
            # hop, but only wall time is comparable across processes
            # when the collector orders siblings in a joined trace.
            "start_wall": time.time(),
            "key": key,
            "lane": lane,
            "wire_id": wire_id,
        }

    def _record_span(
        self,
        pending: Dict[str, object],
        worker: str,
        outcome: str,
    ) -> None:
        """Emit the router's own span for one completed route."""
        ctx = pending["ctx"]
        assert isinstance(ctx, TraceContext)
        breaker = self._breakers.get(worker)
        start = pending.get("start")
        self.spans.add(
            Span(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_span_id=str(pending.get("parent", "")),
                name="router.route",
                service="router",
                start_s=pending.get("start_wall"),
                duration_s=(
                    time.perf_counter() - start
                    if isinstance(start, float)
                    else None
                ),
                annotations={
                    "worker": worker,
                    "key": pending.get("key"),
                    "lane": pending.get("lane"),
                    "breaker": breaker.state() if breaker else "unknown",
                    "outcome": outcome,
                    "request_id": pending.get("wire_id"),
                    "origin": pending.get("parent", "") == "",
                },
            ).to_dict()
        )

    def _forward(
        self,
        session: _Session,
        worker: str,
        data: bytes,
        wire_id: object,
        lane: str,
        trace_pending: Optional[Dict[str, object]] = None,
    ) -> None:
        upstream = session.upstream_for(worker)
        if upstream is None:
            self._shed(session, wire_id, lane, worker, trace_pending)
            return
        upstream.outstanding[wire_id] = (lane, trace_pending)
        upstream.write(data)
        self.routed[worker] = self.routed.get(worker, 0) + 1

    def _shed(
        self,
        session: _Session,
        wire_id: object,
        lane: str,
        worker: str,
        trace_pending: Optional[Dict[str, object]] = None,
        outcome: str = "shed",
    ) -> None:
        """Answer for a worker that cannot: ``DENY_UNAVAILABLE`` on the
        lane the request came in on, an error line for a control op,
        nothing for the router's own pin."""
        if trace_pending is not None:
            self._record_span(trace_pending, worker, outcome)
        detail = f"worker {worker} unavailable"
        if lane == "bin":
            data = encode_binary_unavailable(wire_id, detail)
        elif lane == "json":
            data = dumps_line(encode_unavailable(wire_id, detail))
        elif lane == "router-intern":
            return
        else:
            data = dumps_line({"id": wire_id, "error": detail})
        self.unavailable_synthesized += 1
        session.write(data)

    def _spawn(self, coroutine: Awaitable[None]) -> None:
        """Run one of the router's two awaits as a short task of its
        own, referenced until done (the loop holds tasks weakly)."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _note(self, worker: str, ok: bool) -> None:
        """Feed ``worker``'s breaker one connect/IO outcome."""
        breaker = self._breakers.get(worker)  # None: since removed
        if breaker is not None:
            (breaker.record_success if ok else breaker.record_failure)()

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    def _handle_op(
        self, session: _Session, op: object, payload: dict, line: bytes
    ) -> None:
        wire_id = payload.get("id")
        if op == "ping":
            session.write(dumps_line({"op": "pong", "id": wire_id}))
        elif op in _RELOAD_OPS:
            if self.reload_handler is None:
                session.refuse(
                    wire_id,
                    "cluster reload requires the supervisor "
                    "(no reload handler installed)",
                )
                return
            # Nothing later in this session's stream is routed before
            # the reply is queued — not even what this read delivered.
            session.reloading = True
            session.pause_reading()
            self._spawn(self._reload(session, op, wire_id, payload))
        elif op == "env":
            # Environment events fan out to *every* worker: each worker
            # process holds its own environment replica, and a flip
            # must revoke subscribed grants wherever they were issued —
            # not just on the shard this client's subjects hash to.
            # All workers answer with the same wire id; the client's
            # pending-future table resolves on the first and ignores
            # the rest, exactly like a duplicated op response.
            delivered = False
            for name in list(self._workers):
                upstream = session.upstream_for(name)
                if upstream is not None:
                    upstream.outstanding[wire_id] = ("op", None)
                    upstream.write(line)
                    delivered = True
            if not delivered:
                session.refuse(wire_id, "no healthy worker")
        elif op in _FORWARD_OPS:
            for name in self.ring.members:  # the first healthy worker
                upstream = session.upstream_for(name)
                if upstream is not None:
                    upstream.outstanding[wire_id] = (
                        "intern" if op == "intern" else "op", None
                    )
                    upstream.write(line)
                    return
            session.refuse(wire_id, "no healthy worker")
        else:
            session.refuse(wire_id, f"unknown op {op!r}")

    async def _reload(
        self, session: _Session, op: object, wire_id: object, payload: dict
    ) -> None:
        """Await the supervisor's cluster reload for one held session,
        answer it, and let its stream move again."""
        try:
            result = await self.reload_handler(payload)  # type: ignore[misc]
            reply = {"op": op, "id": wire_id, **result}
        except Exception as error:  # noqa: BLE001 - reported to the caller
            reply = {"id": wire_id, "error": f"cluster reload failed: {error}"}
        finally:
            session.reloading = False
        session.write(dumps_line(reply))
        session.resume_reading()
        session.close_if_answered()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def find_trace(self, trace_id: str) -> "list[Dict[str, object]]":
        """The router's retained spans for ``trace_id`` (maybe [])."""
        return self.spans.get(trace_id)

    def recent_traces(self, limit: Optional[int] = None) -> "list[str]":
        """Retained trace ids, newest first."""
        return self.spans.trace_ids(limit)

    def stats(self) -> Dict[str, object]:
        return {
            "workers": {
                name: {
                    "address": list(self._workers[name]),
                    "routed": self.routed.get(name, 0),
                    "breaker": self._breakers[name].state(),
                    "breaker_opens": self._breakers[name].opens,
                }
                for name in sorted(self._workers)
            },
            "connections": self.connections,
            "sessions": len(self._sessions),
            "in_flight": sum(s.in_flight for s in self._sessions),
            "unavailable_synthesized": self.unavailable_synthesized,
            "trace_sample_rate": self.trace_sample_rate,
            "traces_sampled": self.sampler.sampled,
            "trace_buffer": self.spans.stats(),
        }


# ----------------------------------------------------------------------
# Fast-path line scanners
# ----------------------------------------------------------------------
# encode_request serializes compactly with "id" first and "subject"
# second, so the hot path can lift the routing key with two byte scans
# and no JSON parse.  Anything surprising (ops, escapes, other
# producers' field orders) falls back to parse_line — the scanners
# must never guess.

_ID_PREFIX = b'{"id":'
_SUBJECT_MARK = b'"subject":"'
_TENANT_MARK = b'"tenant":"'
_TRACE_MARK = b'"trace":"'


def _scan_string(line: bytes, marker: bytes) -> Optional[str]:
    start = line.find(marker)
    if start < 0:
        return None
    start += len(marker)
    end = line.find(b'"', start)
    if end < 0 or b"\\" in line[start:end]:
        return None
    try:
        return line[start:end].decode("utf-8")
    except UnicodeDecodeError:
        return None


def _scan_request(line: bytes) -> Optional[Tuple[object, str]]:
    """``(id, shard_key)`` of a compact decision line; None → slow path."""
    if not line.startswith(_ID_PREFIX):
        return None
    if b'"op"' in line:
        return None  # never treat an op as a decision
    rest = line[len(_ID_PREFIX) :]
    wire_id: object
    if rest[:1] == b'"':
        end = rest.find(b'"', 1)
        if end < 0 or b"\\" in rest[1:end]:
            return None
        wire_id = rest[1:end].decode("utf-8", "replace")
    else:
        end = 0
        while end < len(rest) and rest[end : end + 1] in b"-0123456789":
            end += 1
        if end == 0 or rest[end : end + 1] not in (b",", b"}"):
            return None
        try:
            wire_id = int(rest[:end])
        except ValueError:
            return None
    tenant = _scan_string(line, _TENANT_MARK)
    if tenant:
        return wire_id, tenant
    subject = _scan_string(line, _SUBJECT_MARK)
    if subject:
        return wire_id, subject
    if b'"subject"' in line or b'"tenant"' in line:
        return None  # present but not scannable: fall back
    return wire_id, str(wire_id)  # subjectless request


def _scan_trace(line: bytes) -> Optional[TraceContext]:
    """The line's trace context, or None (absent or unscannable).

    A valid wire context is pure hex-and-dash, so the no-escapes scan
    is exact; anything unparseable forwards verbatim and the worker's
    own decoder renders the verdict.
    """
    if _TRACE_MARK not in line:
        return None
    wire = _scan_string(line, _TRACE_MARK)
    if wire is None:
        return None
    try:
        return TraceContext.parse(wire)
    except ValueError:
        return None


def _scan_response_id(
    line: bytes,
) -> Tuple[object, Optional[dict]]:
    """``(id, parsed_payload_or_None)`` of a response line.

    Responses also serialize ``id`` first; when the scan cannot be
    trusted the line is fully parsed (and the parse returned so the
    caller does not pay it twice).
    """
    if line.startswith(_ID_PREFIX):
        rest = line[len(_ID_PREFIX) :]
        if rest[:1] == b'"':
            end = rest.find(b'"', 1)
            if end >= 0 and b"\\" not in rest[1:end]:
                return rest[1:end].decode("utf-8", "replace"), None
        else:
            end = 0
            while end < len(rest) and rest[end : end + 1] in b"-0123456789":
                end += 1
            if end and rest[end : end + 1] in (b",", b"}"):
                try:
                    return int(rest[:end]), None
                except ValueError:
                    pass
    try:
        payload = parse_line(line, max_bytes=MAX_OP_LINE_BYTES)
    except ServiceError:
        return None, None
    return payload.get("id"), payload


__all__ = ["CircuitBreaker", "ShardRouter", "ROUTER_INTERN_ID"]
