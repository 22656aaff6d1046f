"""The TCP face of the PDP: NDJSON and binary frames over asyncio.

:class:`PDPServer` binds a :class:`~repro.service.pdp.PolicyDecisionPoint`
to a listening socket.  Each connection is a long-lived pipelined
stream — one :class:`~repro.service.transport.WireConnection`, no
coroutine, task, lock or ``drain()`` per request:

* **parse-all-per-read** — every complete message a read delivered is
  handled in that one loop turn, in stream order.  Wire negotiation is
  per *message*: the binary magic byte routes to the struct-frame
  decoder of :mod:`repro.service.protocol`, anything else is an NDJSON
  line, so NDJSON and binary clients (and mixed traffic from one
  client) share a single listener.  Binary requests get binary
  responses, NDJSON requests get NDJSON responses.
* **decide on the read pass** — decisions enter the PDP through its
  synchronous admission (:meth:`~repro.service.pdp.PolicyDecisionPoint.admit`):
  cache hits, sheds and unknown-tenant denies are answered on the spot;
  a request that must be mediated joins the pending list, and when the
  read pass ends the connection calls
  :meth:`~repro.service.pdp.PolicyDecisionPoint.step`, which decides
  the pass's misses as one batch.  Every answer to a read therefore
  leaves in that read's write.  Responses carry the request's ``id``
  and may overtake one another.
* **op ordering** — control ops (``intern``, ``env``, ``reload*``,
  ``stats`` …) run to completion where they stand in the stream: no
  later byte of that connection is parsed before the op has answered.
* **one write per read** — everything a read answered on a connection
  leaves in one ``transport.write``.  Pushed revocations are the
  exception: they are written at the end of the grant-table sweep that
  produced them, ahead of the reply to whatever caused the flip.
* **pause-reading backpressure** — the PDP's bounded pending list
  sheds what one read brings beyond ``max_queue`` explicitly; across
  connections there is no queue to overflow, because a connection is
  read again only after its last read was decided.  A peer that does
  not read its answers stops being *read* once the transport's write
  buffer passes its high-water mark, so a slow reader throttles only
  its own connection.

The CLI's ``serve`` subcommand (see :mod:`repro.cli`) is a thin
wrapper over :func:`PDPServer.serve_forever`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, Optional

from repro.cluster.ring import DEFAULT_VNODES
from repro.exceptions import ServiceError
from repro.service.pdp import (
    DEFAULT_TENANT,
    PDPOutcome,
    PDPResponse,
    PolicyDecisionPoint,
    SessionGrant,
)
from repro.service.protocol import (
    KIND_REQUEST,
    InternTables,
    WireRevocation,
    decode_binary_request_ex,
    decode_request,
    decode_subscribe,
    decode_tenant,
    decode_trace_context,
    dumps_line,
    encode_binary_error,
    encode_binary_response,
    encode_binary_revocation,
    encode_response,
    encode_revocation,
    parse_line,
    peek_binary_subscribe,
)
from repro.service.transport import WireConnection

_NO_ADMIN = "policy administration is not enabled on this server"
_NO_POLICY = "'policy' must be non-empty policy text (DSL or serialized JSON)"


class PDPServer:
    """Serves one PDP over TCP.

    :param pdp: the decision point; started/stopped with the server.
    :param host: bind address (default loopback).
    :param port: bind port; 0 picks an ephemeral port — read
        :attr:`port` after :meth:`start`.
    :param administrator: optional
        :class:`~repro.policy.admin.PolicyAdministrator` bound to the
        same PDP; enables the ``reload`` wire op (and the two-phase
        ``reload_prepare``/``reload_activate``/``reload_abort`` ops
        the cluster supervisor drives).  Servers without one refuse
        every ``reload*`` op, for any tenant, and change nothing.
    :param drain_timeout_s: bound on the graceful drain when
        :meth:`serve_forever` shuts down (signal or cancellation).
        ``None`` drains without a deadline; past the deadline queued
        work is shed with ``DENY_OVERLOAD`` instead.
    :param environment: optional
        :class:`~repro.env.runtime.EnvironmentRuntime` this server is
        the authority for.  Enables *continuous authorization*
        (§4.2.2): subscribed GRANTs register in the PDP's
        :class:`~repro.service.pdp.SessionGrantTable`, the runtime's
        bus is watched for ``role.deactivated``, the ``env`` wire op
        accepts state writes/moves, and a background driver observes
        the activator at each scheduled temporal boundary so
        wall-clock flips push revocations with zero requests in
        flight.
    """

    def __init__(
        self,
        pdp: PolicyDecisionPoint,
        host: str = "127.0.0.1",
        port: int = 0,
        administrator: Optional[object] = None,
        drain_timeout_s: Optional[float] = None,
        environment: Optional[object] = None,
    ) -> None:
        if drain_timeout_s is not None and drain_timeout_s <= 0:
            raise ServiceError("drain_timeout_s must be > 0 or None")
        self.pdp = pdp
        self.host = host
        self.administrator = administrator
        self.drain_timeout_s = drain_timeout_s
        self.environment = environment
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._boundary_task: Optional["asyncio.Task[None]"] = None
        #: Connections accepted so far, and the ones still open.
        self.connections = 0
        self._open: "set[_Connection]" = set()
        #: Messages answered/pushed and the socket writes that carried
        #: them; their ratio is the write-coalescing factor.
        self._m_responses = pdp.metrics.counter("server.responses")
        self._m_socket_writes = pdp.metrics.counter("server.socket_writes")
        if environment is not None:
            pdp.watch_environment(environment.bus)

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    def stats(self) -> Dict[str, int]:
        """Connection and write-coalescing counters (the ``server``
        block of the ``stats`` op)."""
        return {
            "connections": self.connections,
            "open_connections": len(self._open),
            "responses": self._m_responses.value,
            "socket_writes": self._m_socket_writes.value,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PDPServer":
        await self.pdp.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self),
            host=self.host,
            port=self._requested_port,
        )
        if self.environment is not None and self._boundary_task is None:
            self._boundary_task = loop.create_task(self._drive_boundaries())
        return self

    async def stop(self, drain: bool = True) -> None:
        """Close the listener, then drain (or shed) the PDP."""
        if self._boundary_task is not None:
            self._boundary_task.cancel()
            try:
                await self._boundary_task
            except asyncio.CancelledError:
                pass
            self._boundary_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.pdp.stop(drain=drain)
        # The drain answered by callback: hand those answers to the
        # sockets now, not on a loop iteration that may never come.
        for connection in list(self._open):
            connection.flush()

    async def _drive_boundaries(self) -> None:
        """Observe the activator at every scheduled temporal boundary.

        The activator's timer wheel knows the next instant any bound
        temporal condition may flip (:meth:`next_boundary`); this task
        sleeps until then and performs one observation, which advances
        the wheel, re-evaluates only the affected roles, and publishes
        ``role.deactivated`` events — i.e. pushes revocations — even
        when no request is in flight and no state event arrives.  The
        sleep is capped at one second so roles bound after the timer
        was armed (whose boundary may be earlier) are picked up
        promptly; between boundaries each wake-up is a memo hit.
        """
        activator = self.environment.activator
        clock = self.environment.clock
        while True:
            deadline = activator.next_boundary()
            if deadline is None:
                delay = 1.0
            else:
                delay = min(1.0, max(0.01, deadline - clock.now()))
            await asyncio.sleep(delay)
            activator.active_environment_roles()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to exit and drain gracefully.

        Safe to call from a signal handler registered with
        ``loop.add_signal_handler`` (it runs on the loop); idempotent.
        Before :meth:`serve_forever` runs it is a no-op.
        """
        if self._shutdown is not None:
            self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into the graceful drain path.

        Without this, SIGTERM kills the process mid-batch and SIGINT
        relies on KeyboardInterrupt unwinding; with it, either signal
        closes the listener first and decides everything already
        admitted (bounded by :attr:`drain_timeout_s`).
        """
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_shutdown)

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled or shut down.

        Cancellation (KeyboardInterrupt in the CLI) and
        :meth:`request_shutdown` (the SIGTERM/SIGINT path) both
        trigger a graceful stop: listener closed first, admitted work
        drained — shed after :attr:`drain_timeout_s` when one is set.
        """
        if self._server is None:
            await self.start()
        assert self._server is not None
        self._shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        forever = loop.create_task(self._server.serve_forever())
        shutdown = loop.create_task(self._shutdown.wait())
        try:
            await asyncio.wait(
                (forever, shutdown), return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            pass
        finally:
            for task in (forever, shutdown):
                task.cancel()
            await asyncio.gather(forever, shutdown, return_exceptions=True)
            if self.drain_timeout_s is None:
                await self.stop(drain=True)
            else:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(
                            asyncio.ensure_future(self.stop(drain=True))
                        ),
                        timeout=self.drain_timeout_s,
                    )
                except asyncio.TimeoutError:
                    # Deadline blown: shed whatever is still queued.
                    await self.stop(drain=False)

    async def __aenter__(self) -> "PDPServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Control ops — synchronous, answered where they stand in the stream
    # ------------------------------------------------------------------
    def _handle_op(
        self, op: object, payload: dict, connection: "_Connection"
    ) -> dict:
        """The reply to one control op.  A :class:`ServiceError` raised
        by a handler becomes ``{"id": ..., "error": ...}``."""
        request_id = payload.get("id")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        try:
            if handler is None:
                raise ServiceError(f"unknown op {op!r}")
            if op.startswith("reload") and self.administrator is None:
                raise ServiceError(_NO_ADMIN)  # no mutation, any tenant
            reply = handler(self, payload, connection)
        except ServiceError as error:
            return {"id": request_id, "error": str(error)}
        reply.setdefault("id", request_id)
        return reply

    def _op_ping(self, payload: dict, connection: "_Connection") -> dict:
        return {"op": "pong"}

    def _op_members(self, payload: dict, connection: "_Connection") -> dict:
        # A plain server is a ring of one: itself, at the address the
        # asking connection reached it on.  A client therefore has one
        # decision path, to a server or to a cluster's workers.
        host, port = connection.transport.get_extra_info("sockname")[:2]
        return {
            "op": "members",
            "vnodes": DEFAULT_VNODES,
            "members": {"self": [host, port]},
        }

    def _op_intern(self, payload: dict, connection: "_Connection") -> dict:
        # Hand out (and pin, for this connection) the integer id
        # tables the binary request lane encodes against.  Re-issuing
        # the op after a policy change refreshes them.  An optional
        # "tenant" interns against that tenant's active policy instead
        # of the default engine's.  A client may instead *provide*
        # tables (replaying a handshake on a fresh connection); they
        # are pinned verbatim so the same ids decode to the same names
        # on every connection of a session, even across reloads.
        if payload.get("tables") is not None:
            interned = InternTables.from_payload(payload)
        else:
            tenant = payload.get("tenant")
            if tenant is not None and not isinstance(tenant, str):
                raise ServiceError("'tenant' must be a string")
            interned = InternTables.from_policy(self.pdp.tenant_policy(tenant))
        connection.tables = interned
        return interned.to_payload()

    def _op_tenants(self, payload: dict, connection: "_Connection") -> dict:
        return {"op": "tenants", "tenants": self.pdp.tenants_overview()}

    def _op_stats(self, payload: dict, connection: "_Connection") -> dict:
        return {
            "op": "stats",
            "stats": {**self.pdp.stats(), "server": self.stats()},
        }

    def _op_trace(self, payload: dict, connection: "_Connection") -> dict:
        # Span lookup for one distributed trace: the cluster admin (or
        # a debugging client) asks each worker for the spans it
        # retained for a trace id and joins them.  Without a trace id
        # it lists the retained ones, newest first.
        trace_id = payload.get("trace_id")
        if trace_id is None:
            limit = payload.get("limit")
            if limit is not None and (not isinstance(limit, int) or limit < 0):
                raise ServiceError("'limit' must be a non-negative integer")
            return {"op": "trace", "trace_ids": self.pdp.recent_traces(limit)}
        if not isinstance(trace_id, str) or not trace_id:
            raise ServiceError("'trace_id' must be a non-empty string")
        return {
            "op": "trace",
            "trace_id": trace_id,
            "spans": self.pdp.find_trace(trace_id),
        }

    def _op_metrics(self, payload: dict, connection: "_Connection") -> dict:
        return {
            "op": "metrics",
            "prometheus": self.pdp.metrics_prometheus(),
            "json": self.pdp.metrics_json(),
        }

    def _op_health(self, payload: dict, connection: "_Connection") -> dict:
        return {"op": "health", **self.pdp.health()}

    def _op_ready(self, payload: dict, connection: "_Connection") -> dict:
        return {"op": "ready", **self.pdp.ready()}

    def _op_dump(self, payload: dict, connection: "_Connection") -> dict:
        limit = payload.get("limit")
        since_seq = payload.get("since_seq", 0)
        subject = payload.get("subject")
        outcome = payload.get("outcome")
        if limit is not None and not isinstance(limit, int):
            raise ServiceError("'limit' must be an integer")
        if not isinstance(since_seq, int):
            raise ServiceError("'since_seq' must be an integer")
        return {
            "op": "dump",
            "entries": self.pdp.dump(
                limit=limit,
                since_seq=since_seq,
                subject=subject if isinstance(subject, str) else None,
                outcome=outcome if isinstance(outcome, str) else None,
            ),
        }

    def _op_env(self, payload: dict, connection: "_Connection") -> dict:
        """The ``env`` wire op: feed the server's live environment.

        Only servers constructed with an ``environment`` runtime accept
        it — a PDP whose environment lives elsewhere must not pretend
        to be its authority.  Actions:

        * ``{"op": "env", "action": "set", "name": ..., "value": ...}``
          — write one state variable (a sensor event);
        * ``{"op": "env", "action": "move", "subject": ...,
          "zone": ...}`` — a location update through the
          :class:`~repro.env.location.LocationService`;
        * ``{"op": "env", "action": "advance", "seconds": N}`` — step a
          *simulated* clock (tests/smoke drills; a system clock
          refuses);
        * ``{"op": "env", "action": "define_time_role", "name": ...,
          "start": "19:00", "end": "22:00", "weekdays": false}`` —
          register and bind a temporal environment role (§5.1's
          free-time shape) in the default tenant's policy;
        * ``{"op": "env", "action": "define_location_role",
          "name": ..., "subject": ..., "zone": ...}`` — an
          environment role active while ``subject`` is in ``zone``.

        Every action answers with the post-action snapshot revision and
        active-role census.  Side effects — role flips, cache
        invalidation, pushed revocations — happen synchronously on the
        bus before the answer is built: each revoke a flip causes is
        already written to its holder's socket (at the end of the
        grant-table sweep) by the time the reply is.
        """
        runtime = self.environment
        if runtime is None:
            raise ServiceError(
                "this server has no live environment "
                "(start serve with --continuous)"
            )
        action = payload.get("action")
        try:
            if action == "set":
                name = payload.get("name")
                if not isinstance(name, str) or not name:
                    raise ServiceError("'name' must be a non-empty string")
                runtime.state.set(name, payload.get("value"))
            elif action == "move":
                subject = payload.get("subject")
                zone = payload.get("zone")
                if not isinstance(subject, str) or not isinstance(zone, str):
                    raise ServiceError(
                        "'subject' and 'zone' must be strings"
                    )
                runtime.location.move(subject, zone)
            elif action == "advance":
                seconds = payload.get("seconds")
                if not isinstance(seconds, (int, float)) or seconds < 0:
                    raise ServiceError("'seconds' must be a number >= 0")
                advance = getattr(runtime.clock, "advance", None)
                if advance is None:
                    raise ServiceError(
                        "this server's clock is not simulated"
                    )
                advance(seconds=float(seconds))
            elif action == "define_time_role":
                from repro.env.temporal import time_window, weekdays

                name = payload.get("name")
                start = payload.get("start")
                end = payload.get("end")
                if not all(
                    isinstance(value, str) and value
                    for value in (name, start, end)
                ):
                    raise ServiceError(
                        "'name', 'start', 'end' must be non-empty strings"
                    )
                expression = time_window(start, end)
                if payload.get("weekdays"):
                    expression = weekdays() & expression
                runtime.define_time_role(self.pdp.policy, name, expression)
            elif action == "define_location_role":
                name = payload.get("name")
                subject = payload.get("subject")
                zone = payload.get("zone")
                if not all(
                    isinstance(value, str) and value
                    for value in (name, subject, zone)
                ):
                    raise ServiceError(
                        "'name', 'subject', 'zone' must be non-empty strings"
                    )
                runtime.define_location_role(
                    self.pdp.policy, name, subject, zone
                )
            else:
                raise ServiceError(
                    "'action' must be one of set/move/advance/"
                    "define_time_role/define_location_role"
                )
        except ServiceError:
            raise
        except Exception as error:  # noqa: BLE001 - env errors answer, not kill
            raise ServiceError(str(error)) from error
        return {
            "op": "env",
            "revision": runtime.revision,
            "active": sorted(runtime.active_roles()),
        }

    def _op_two_phase(self, payload: dict, connection: "_Connection") -> dict:
        """The cluster reload ops: prepare / activate / abort.

        ``reload_prepare`` validates and compiles the candidate and
        answers with a ``token``; ``reload_activate`` swaps a prepared
        token in (the cheap, non-rejectable phase the supervisor fans
        out only after *every* worker prepared); ``reload_abort``
        discards one.  All three are admin-gated like ``reload`` (in
        :meth:`_handle_op`).
        """
        op = payload["op"]
        administrator = self.administrator
        actor = _actor(payload)
        if op == "reload_prepare":
            prepared = administrator.prepare(
                _policy_text(payload), actor=actor
            )
            return {
                "op": op,
                "accepted": prepared.accepted,
                "token": prepared.token,
                "error": prepared.error,
                "record": prepared.record.to_dict(),
            }
        token = payload.get("token")
        if not isinstance(token, str) or not token:
            raise ServiceError("'token' must be a non-empty string")
        if op == "reload_activate":
            result = administrator.activate_prepared(token, actor=actor)
            return {
                "op": op,
                "accepted": result.accepted,
                "error": result.error,
                "generation": result.generation,
                "record": result.record.to_dict(),
            }
        aborted = administrator.abort_prepared(token, actor=actor)
        return {
            "op": op,
            "aborted": aborted,
            "error": "" if aborted else f"unknown prepare token {token!r}",
        }

    def _op_reload(self, payload: dict, connection: "_Connection") -> dict:
        """The ``reload`` op: parse the arguments, ask the deployment's
        one :class:`~repro.policy.admin.PolicyAdministrator` (which
        owns the tenant cases), map its answer onto the reply."""
        tenant = payload.get("tenant")
        if tenant is not None and (not isinstance(tenant, str) or not tenant):
            raise ServiceError("'tenant' must be a non-empty string")
        scoped = tenant is not None and tenant != DEFAULT_TENANT
        policy_text = payload.get("policy")
        if policy_text is not None and (
            not isinstance(policy_text, str) or not policy_text.strip()
        ):
            raise ServiceError(
                "'policy' must be non-empty policy text when present"
                if scoped
                else _NO_POLICY
            )
        result = self.administrator.reload(
            policy_text,
            actor=_actor(payload),
            dry_run=_dry_run(payload),
            tenant=tenant,
        )
        if result.refusal == "no-candidate":
            raise ServiceError(
                f"unknown store tenant {tenant!r} "
                "(reload without 'policy' refreshes from the store)"
                if scoped
                else _NO_POLICY
            )
        if result.refusal:
            raise ServiceError(result.error)
        reply: dict = {"op": "reload"}
        if scoped:
            reply["tenant"] = tenant
        if result.store_backed:
            reply.update(
                dry_run=False,
                accepted=result.accepted,
                error=result.error or None,
            )
            if result.accepted:
                reply.update(
                    version=result.version, generation=result.generation
                )
        else:
            reply.update(
                accepted=result.accepted,
                dry_run=result.dry_run,
                error=result.error,
                record=result.record.to_dict(),
            )
        return reply

    _OPS: Dict[str, Callable[["PDPServer", dict, "_Connection"], dict]] = {
        "ping": _op_ping,
        "members": _op_members,
        "intern": _op_intern,
        "tenants": _op_tenants,
        "stats": _op_stats,
        "trace": _op_trace,
        "metrics": _op_metrics,
        "health": _op_health,
        "ready": _op_ready,
        "dump": _op_dump,
        "env": _op_env,
        "reload": _op_reload,
        "reload_prepare": _op_two_phase,
        "reload_activate": _op_two_phase,
        "reload_abort": _op_two_phase,
    }


def _actor(payload: dict) -> str:
    actor = payload.get("actor", "")
    if not isinstance(actor, str):
        raise ServiceError("'actor' must be a string")
    return actor or "wire"


def _dry_run(payload: dict) -> bool:
    dry_run = payload.get("dry_run", False)
    if not isinstance(dry_run, bool):
        raise ServiceError("'dry_run' must be a boolean")
    return dry_run


def _policy_text(payload: dict) -> str:
    policy_text = payload.get("policy")
    if not isinstance(policy_text, str) or not policy_text.strip():
        raise ServiceError(_NO_POLICY)
    return policy_text


class _Connection(WireConnection):
    """One client socket: its intern tables, its standing grants and
    the decisions it is still owed.

    The connection object is also its identity in the PDP's
    :class:`~repro.service.pdp.SessionGrantTable`.
    """

    def __init__(self, server: PDPServer) -> None:
        super().__init__()
        self.server = server
        self.pdp = server.pdp
        #: Intern tables pinned by the last ``{"op": "intern"}``.
        self.tables: Optional[InternTables] = None
        #: Standing grants issued on the binary lane (their revokes
        #: answer in kind).
        self._binary_grants: "set[object]" = set()
        #: Decisions admitted and not yet answered; after the peer's
        #: EOF the socket stays open until they are.
        self._owed = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.server.connections += 1
        self.server._open.add(self)
        self.pdp.grants.attach_session(self, self._push_revocation, self.flush)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.server._open.discard(self)
        self.pdp.grants.detach_session(self)

    def eof_received(self) -> bool:
        super().eof_received()
        self.pdp.grants.detach_session(self)
        return self._owed > 0  # half-closed peers still get their answers

    def flush(self) -> int:
        count = super().flush()
        if count:
            self.server._m_responses.value += count
            self.server._m_socket_writes.value += 1
        return count

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def protocol_error(self, message: str, binary: bool) -> None:
        self._error(None, message, binary)

    def pass_ended(self) -> None:
        self.pdp.step()

    def _error(self, request_id: object, message: str, binary: bool) -> None:
        if binary:
            self.write(encode_binary_error(request_id, message))
        elif request_id is None:
            self.write(dumps_line({"error": message}))
        else:
            self.write(dumps_line({"id": request_id, "error": message}))

    def frame_received(self, kind: int, body: bytes) -> None:
        if kind != KIND_REQUEST:
            self._error(None, f"unexpected frame kind {kind}", True)
            return
        try:
            request_id, request, env, timeout_s, tenant, trace_ctx = (
                decode_binary_request_ex(self.tables, body)
            )
        except ServiceError as error:
            self._error(None, str(error), True)
            return
        watch = env is None and peek_binary_subscribe(body)
        self._submit(
            request, env, timeout_s, request_id, tenant, trace_ctx,
            self._watch_binary if watch else self._reply_binary, True,
        )

    def line_received(self, line: bytes) -> None:
        try:
            payload = parse_line(line)
        except ServiceError as error:
            self._error(None, str(error), False)
            return
        op = payload.get("op")
        if op is not None:
            self.write(dumps_line(self.server._handle_op(op, payload, self)))
            return
        try:
            request_id, request, env, timeout_s = decode_request(payload)
            tenant = decode_tenant(payload)
            trace_ctx = decode_trace_context(payload)
            watch = decode_subscribe(payload) and env is None
        except ServiceError as error:
            self.write(
                dumps_line({"id": payload.get("id"), "error": str(error)})
            )
            return
        self._submit(
            request, env, timeout_s, request_id, tenant, trace_ctx,
            self._watch_json if watch else self._reply_json, False,
        )

    def _submit(
        self, request, env, timeout_s, request_id, tenant, trace_ctx,
        callback: Callable[[PDPResponse], None], binary: bool,
    ) -> None:
        self._owed += 1
        try:
            self.pdp.admit(
                request,
                callback,
                environment_roles=env,
                timeout=timeout_s,
                request_id=request_id,
                tenant=tenant,
                trace_ctx=trace_ctx,
            )
        except ServiceError as error:  # the PDP has stopped
            self._owed -= 1
            self._error(request_id, str(error), binary)

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def _reply_binary(self, response: PDPResponse) -> None:
        self._reply(encode_binary_response(response.request_id, response))

    def _reply_json(self, response: PDPResponse) -> None:
        self._reply(dumps_line(encode_response(response.request_id, response)))

    def _watch_binary(self, response: PDPResponse) -> None:
        if self._watch(response):
            self._binary_grants.add(response.request_id)
        self._reply_binary(response)

    def _watch_json(self, response: PDPResponse) -> None:
        self._watch(response)
        self._reply_json(response)

    def _reply(self, data: bytes) -> None:
        self._owed -= 1
        self.write(data)  # a no-op if the peer left with this still queued
        if self._eof and not self._owed:
            self.close()

    def _watch(self, response: PDPResponse) -> bool:
        """Turn a subscribed GRANT resolved against the *live*
        environment into a standing grant: any supporting role
        deactivating pushes a revoke.  Registered before the response
        is written, so a flip arriving right after the decision can
        never fall between grant and subscription."""
        if response.outcome is not PDPOutcome.GRANT or response.decision is None:
            return False
        request = response.request
        return self.pdp.grants.register(
            SessionGrant(
                session_id=self,
                grant_id=response.request_id,
                subject=request.subject,
                transaction=request.transaction,
                obj=request.obj,
                roles=frozenset(response.decision.environment_roles),
                tenant=response.tenant,
                request=request,
            )
        )

    def _push_revocation(self, grant, roles, reason: str, ts: float) -> None:
        """Queue one ``revoke`` push; called synchronously from the
        grant-table sweep, which flushes this connection when it ends —
        a 1k-session sweep is 1k buffer appends and one write each."""
        revocation = WireRevocation(
            id=grant.grant_id,
            subject=grant.subject,
            transaction=grant.transaction,
            obj=grant.obj,
            roles=tuple(roles),
            reason=reason,
            ts=ts,
        )
        data: Optional[bytes] = None
        if grant.grant_id in self._binary_grants:
            self._binary_grants.discard(grant.grant_id)
            if self.tables is not None:
                try:
                    data = encode_binary_revocation(self.tables, revocation)
                except ServiceError:
                    pass  # uninterned name: the NDJSON lane carries it
        if data is None:
            data = dumps_line(encode_revocation(revocation))
        # Flip-to-delivery latency, observed as late as the server can
        # see it: as the push is queued for this sweep's write.
        self.pdp.record_revocation_latency(time.time() - ts)
        self.write(data)
