"""Async TCP client for a remote PDP (NDJSON, plus the binary lane).

:class:`RemotePDPClient` keeps one connection and pipelines: each
in-flight request is tracked by id in a pending-future table, the
connection's protocol dispatches every response a read delivered as it
arrives (they may be reordered by the server — cache hits overtake
batched work), and any number of callers can await decisions
concurrently.  Requests sent in one loop turn leave in one socket
write; a sender waits only while the transport has paused writing.
The surface mirrors the in-process
:class:`~repro.service.pdp.PDPClient` so load generators and examples
can target either transparently.

``wire="binary"`` adds the interned-ID fast lane of
:mod:`repro.service.protocol`: the client runs the ``intern``
handshake on connect and encodes eligible decision requests as
fixed-layout struct frames, falling back to NDJSON per request when a
name is not interned, the request carries role claims, or a timeout
rides along.  Control ops always speak NDJSON.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set

from repro.core.decision import AccessRequest
from repro.exceptions import ServiceError
from repro.obs.trace import TraceContext
from repro.service.protocol import (
    KIND_ERROR,
    KIND_RESPONSE,
    KIND_REVOKE,
    MAX_OP_LINE_BYTES,
    InternTables,
    WireResponse,
    WireRevocation,
    decode_binary_error,
    decode_binary_response,
    decode_binary_revocation,
    decode_response,
    decode_revocation,
    dumps_line,
    encode_binary_request,
    encode_request,
    parse_line,
)
from repro.service.transport import WireConnection


class RemotePDPClient:
    """One pipelined connection to a :class:`~repro.service.server.PDPServer`.

    Use as an async context manager::

        async with await RemotePDPClient.connect("127.0.0.1", 7471) as pdp:
            granted = await pdp.check("alice", "watch", "livingroom/tv",
                                      environment_roles={"weekday-free-time"})

    With ``wire="binary"`` the client runs the intern handshake on
    connect and ships interned-integer frames for every request the
    binary lane can carry (no role claims, no per-request timeout, all
    names interned); anything else transparently falls back to NDJSON
    on the same connection.
    """

    def __init__(self, wire: str = "json") -> None:
        if wire not in ("json", "binary"):
            raise ServiceError(f"unknown wire format {wire!r}")
        self.wire = wire
        self._loop = asyncio.get_running_loop()
        self._link = _Link(self)
        #: Resolves when the transport is gone (see :meth:`close`).
        self._lost: "asyncio.Future[None]" = self._loop.create_future()
        self._ids = itertools.count(1)
        self._pending: Dict[Any, "asyncio.Future[Any]"] = {}
        self._closed = False
        #: Why the connection ended, once it has.
        self._failure: Optional[Exception] = None
        self._tables: Optional[InternTables] = None
        #: Unsolicited grant withdrawals received on this connection,
        #: oldest first (continuous authorization; see
        #: :meth:`subscribe`).
        self.revocations: List[WireRevocation] = []
        self._revocation_handlers: List[
            Callable[[WireRevocation], None]
        ] = []

    @classmethod
    async def connect(
        cls, host: str, port: int, wire: str = "json"
    ) -> "RemotePDPClient":
        client = cls(wire=wire)
        await client._loop.create_connection(lambda: client._link, host, port)
        if wire == "binary":
            await client.intern()
        return client

    async def intern(self, tenant: Optional[str] = None) -> InternTables:
        """Run (or re-run) the intern handshake.

        Fetches the server's current name<->id tables and pins them
        for this connection's binary lane.  Re-issue after a policy
        reload to pick up newly minted names — stale tables are never
        *unsafe* (an unknown or stale name fails mediation exactly as
        it would over NDJSON), just slower, since uninterned requests
        fall back to NDJSON.  ``tenant`` interns against that tenant's
        active policy instead of the default engine's — a client
        mostly talking to one tenant should intern against it.
        """
        request_id = next(self._ids)
        payload: Dict[str, Any] = {"op": "intern", "id": request_id}
        if tenant is not None:
            payload["tenant"] = tenant
        raw = await self._roundtrip(request_id, payload)
        if raw.get("op") != "intern":
            raise ServiceError(f"bad intern response: {raw!r}")
        self._tables = InternTables.from_payload(raw)
        return self._tables

    async def __aenter__(self) -> "RemotePDPClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def subscribe(self, handler: Callable[[WireRevocation], None]) -> None:
        """Register a callback for pushed grant revocations.

        ``handler(revocation)`` runs synchronously, inside the read that
        delivered it, for every unsolicited ``revoke`` the server pushes
        (on either wire lane); exceptions are swallowed so a broken handler cannot
        kill the connection.  Every revocation is also appended to
        :attr:`revocations` whether or not handlers are registered —
        polling callers need no callback at all.
        """
        self._revocation_handlers.append(handler)

    async def decide(
        self,
        request: AccessRequest,
        environment_roles: Optional[Set[str]] = None,
        timeout_ms: Optional[float] = None,
        tenant: Optional[str] = None,
        trace: Optional[TraceContext] = None,
        subscribe: bool = False,
    ) -> WireResponse:
        """Submit one request and await its wire response.

        ``tenant`` routes the decision to that tenant's engine; the
        server answers ``deny-unknown-tenant`` (never an error) for
        names it cannot resolve.  ``None`` is the default tenant and
        keeps the wire bytes identical to a tenantless client.
        ``trace`` rides both lanes as the compact trace-context
        segment; untraced requests stay byte-identical.

        ``subscribe=True`` asks a continuous-authorization server to
        keep watching a GRANT resolved against its live environment:
        when a supporting environment role later deactivates, the
        server pushes an unsolicited revoke (see :meth:`subscribe`
        and :attr:`revocations`).  Requests pinning an explicit
        ``environment_roles`` override are never watched — they are
        not claims about the live environment.
        """
        env: Optional[FrozenSet[str]] = (
            frozenset(environment_roles) if environment_roles is not None else None
        )
        request_id = next(self._ids)
        if self.wire == "binary" and self._tables is not None and timeout_ms is None:
            try:
                data = encode_binary_request(
                    self._tables,
                    request,
                    request_id,
                    env=env,
                    tenant=tenant,
                    trace=trace,
                    subscribe=subscribe,
                )
            except ServiceError:
                data = None  # uninterned name / claims: NDJSON lane
            if data is not None:
                raw = await self._send_and_wait(request_id, data)
                if isinstance(raw, WireResponse):
                    return raw
                return decode_response(raw)
        payload = encode_request(
            request,
            request_id,
            env=env,
            timeout_ms=timeout_ms,
            tenant=tenant,
            trace=trace,
            subscribe=subscribe,
        )
        raw = await self._roundtrip(request_id, payload)
        return decode_response(raw)

    async def check(
        self,
        subject: str,
        transaction: str,
        obj: str,
        environment_roles: Optional[Set[str]] = None,
        timeout_ms: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> bool:
        request = AccessRequest(transaction=transaction, obj=obj, subject=subject)
        response = await self.decide(
            request,
            environment_roles=environment_roles,
            timeout_ms=timeout_ms,
            tenant=tenant,
        )
        return response.granted

    async def ping(self) -> bool:
        request_id = next(self._ids)
        raw = await self._roundtrip(request_id, {"op": "ping", "id": request_id})
        return raw.get("op") == "pong"

    async def env(self, action: str, **fields: Any) -> Dict[str, Any]:
        """Drive the server's live environment (the ``env`` wire op).

        ``action`` is ``"set"`` (``name=``, ``value=``), ``"move"``
        (``subject=``, ``zone=``), or ``"advance"`` (``seconds=``, on
        simulated clocks).  Answers the post-action snapshot:
        ``{"revision": N, "active": [...]}``.  By the time this
        returns, every revocation the action caused has been pushed.

        :raises ServiceError: when the server has no live environment
            or the action was malformed.
        """
        request_id = next(self._ids)
        payload: Dict[str, Any] = {
            "op": "env",
            "id": request_id,
            "action": action,
            **fields,
        }
        raw = await self._roundtrip(request_id, payload)
        if raw.get("op") != "env" or "revision" not in raw:
            raise ServiceError(
                f"bad env response: {raw.get('error', raw)!r}"
            )
        return raw

    async def env_set(self, name: str, value: Any) -> Dict[str, Any]:
        """Write one environment state variable (a sensor event)."""
        return await self.env("set", name=name, value=value)

    async def env_move(self, subject: str, zone: str) -> Dict[str, Any]:
        """Report a subject's location to the server's environment."""
        return await self.env("move", subject=subject, zone=zone)

    async def stats(self) -> Dict[str, Any]:
        """The server-side PDP's :meth:`stats` snapshot."""
        request_id = next(self._ids)
        raw = await self._roundtrip(request_id, {"op": "stats", "id": request_id})
        stats = raw.get("stats")
        if not isinstance(stats, dict):
            raise ServiceError(f"bad stats response: {raw!r}")
        return stats

    async def metrics(self) -> Dict[str, Any]:
        """The server's metrics exposition.

        :returns: ``{"prometheus": <text exposition>, "json":
            <registry snapshot>}``.
        """
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id, {"op": "metrics", "id": request_id}
        )
        if "prometheus" not in raw or "json" not in raw:
            raise ServiceError(f"bad metrics response: {raw!r}")
        return {"prometheus": raw["prometheus"], "json": raw["json"]}

    async def health(self) -> Dict[str, Any]:
        """The server's ``health`` body (liveness + SLO state)."""
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id, {"op": "health", "id": request_id}
        )
        if "healthy" not in raw:
            raise ServiceError(f"bad health response: {raw!r}")
        return raw

    async def ready(self) -> Dict[str, Any]:
        """The server's ``ready`` body (admission headroom)."""
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id, {"op": "ready", "id": request_id}
        )
        if "ready" not in raw:
            raise ServiceError(f"bad ready response: {raw!r}")
        return raw

    async def reload(
        self,
        policy_text: Optional[str] = None,
        actor: str = "",
        dry_run: bool = False,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Ask the server to hot-reload ``policy_text`` (DSL or JSON).

        With ``tenant`` the reload is tenant-scoped: store-backed
        tenants go through ``put`` + ``activate``, pinned tenants
        through the same gate and swap as the default one.
        ``policy_text=None`` is only meaningful with a store-backed
        tenant — it refreshes the PDP from the store's current active
        version without shipping text.

        :returns: ``{"accepted": bool, "dry_run": bool, "error": str,
            "record": {...}}`` — the audited
            :class:`~repro.policy.admin.ReloadRecord` as a dict
            (store-path reloads return ``version``/``generation``
            instead of a record).
        :raises ServiceError: when the server has no administrator or
            the message itself was malformed (a *rejected candidate*
            is not an exception — read ``accepted``/``error``).
        """
        request_id = next(self._ids)
        payload: Dict[str, Any] = {
            "op": "reload",
            "id": request_id,
            "actor": actor,
            "dry_run": dry_run,
        }
        if policy_text is not None:
            payload["policy"] = policy_text
        if tenant is not None:
            payload["tenant"] = tenant
        raw = await self._roundtrip(request_id, payload)
        if raw.get("op") != "reload" or "accepted" not in raw:
            raise ServiceError(
                f"bad reload response: {raw.get('error', raw)!r}"
            )
        result = {
            "accepted": raw["accepted"],
            "dry_run": raw.get("dry_run", dry_run),
            "error": raw.get("error", ""),
            "record": raw.get("record", {}),
        }
        for key in ("tenant", "version", "generation"):
            if key in raw:
                result[key] = raw[key]
        return result

    async def reload_prepare(
        self, policy_text: str, actor: str = ""
    ) -> Dict[str, Any]:
        """Phase one of a two-phase reload: validate and hold warm.

        The server parses, lints, diffs, and *compiles* the candidate
        but keeps serving the old policy; an accepted prepare returns
        a ``token`` to pass to :meth:`reload_activate` (or
        :meth:`reload_abort`).  A cluster supervisor prepares on every
        worker and activates only when all of them accepted.

        :returns: ``{"accepted": bool, "token": str|None,
            "error": str, "record": {...}}``.
        """
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id,
            {
                "op": "reload_prepare",
                "id": request_id,
                "actor": actor,
                "policy": policy_text,
            },
        )
        if raw.get("op") != "reload_prepare" or "accepted" not in raw:
            raise ServiceError(
                f"bad reload_prepare response: {raw.get('error', raw)!r}"
            )
        return {
            "accepted": raw["accepted"],
            "token": raw.get("token"),
            "error": raw.get("error", ""),
            "record": raw.get("record", {}),
        }

    async def reload_activate(
        self, token: str, actor: str = ""
    ) -> Dict[str, Any]:
        """Phase two: atomically swap in the prepared candidate.

        :returns: ``{"accepted": bool, "error": str,
            "generation": int|None, "record": {...}}``.
        """
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id,
            {
                "op": "reload_activate",
                "id": request_id,
                "actor": actor,
                "token": token,
            },
        )
        if raw.get("op") != "reload_activate" or "accepted" not in raw:
            raise ServiceError(
                f"bad reload_activate response: {raw.get('error', raw)!r}"
            )
        return {
            "accepted": raw["accepted"],
            "error": raw.get("error", ""),
            "generation": raw.get("generation"),
            "record": raw.get("record", {}),
        }

    async def reload_abort(self, token: str, actor: str = "") -> bool:
        """Discard a prepared candidate; ``True`` if it existed."""
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id,
            {
                "op": "reload_abort",
                "id": request_id,
                "actor": actor,
                "token": token,
            },
        )
        if raw.get("op") != "reload_abort" or "aborted" not in raw:
            raise ServiceError(
                f"bad reload_abort response: {raw.get('error', raw)!r}"
            )
        return bool(raw["aborted"])

    async def tenants(self) -> List[Dict[str, Any]]:
        """The server's tenant overview (one summary row per tenant)."""
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id, {"op": "tenants", "id": request_id}
        )
        rows = raw.get("tenants")
        if not isinstance(rows, list):
            raise ServiceError(f"bad tenants response: {raw!r}")
        return rows

    async def dump(
        self,
        limit: Optional[int] = None,
        since_seq: int = 0,
        subject: Optional[str] = None,
        outcome: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Flight-recorder entries from the server (oldest first)."""
        request_id = next(self._ids)
        payload: Dict[str, Any] = {
            "op": "dump",
            "id": request_id,
            "since_seq": since_seq,
        }
        if limit is not None:
            payload["limit"] = limit
        if subject is not None:
            payload["subject"] = subject
        if outcome is not None:
            payload["outcome"] = outcome
        raw = await self._roundtrip(request_id, payload)
        entries = raw.get("entries")
        if not isinstance(entries, list):
            raise ServiceError(f"bad dump response: {raw!r}")
        return entries

    async def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """The server's retained spans for ``trace_id`` (maybe []).

        One worker's contribution only; the cluster admin fans this
        out across workers and joins the results with the router's
        spans into the cross-process waterfall.
        """
        request_id = next(self._ids)
        raw = await self._roundtrip(
            request_id,
            {"op": "trace", "id": request_id, "trace_id": trace_id},
        )
        spans = raw.get("spans")
        if not isinstance(spans, list):
            raise ServiceError(f"bad trace response: {raw!r}")
        return spans

    # ------------------------------------------------------------------
    # Transport internals
    # ------------------------------------------------------------------
    async def _roundtrip(self, request_id: Any, payload: dict) -> dict:
        return await self._send_and_wait(request_id, dumps_line(payload))

    async def _send_and_wait(self, request_id: Any, data: bytes) -> Any:
        link = self._link
        while link.writable is not None:  # the transport paused writing
            await link.writable
        if self._failure is not None:  # closed, by either side
            raise self._failure
        future: "asyncio.Future[Any]" = self._loop.create_future()
        self._pending[request_id] = future
        link.write(data)
        try:
            return await future
        finally:
            self._pending.pop(request_id, None)

    def _deliver_revocation(self, revocation: WireRevocation) -> None:
        self.revocations.append(revocation)
        for handler in self._revocation_handlers:
            try:
                handler(revocation)
            except Exception:  # noqa: BLE001 - a handler bug, not the wire
                pass

    def _dispatch_frame(self, kind: int, body: bytes) -> None:
        if kind == KIND_REVOKE:
            try:
                revocation = decode_binary_revocation(self._tables, body)
            except ServiceError:
                return  # undecodable push; the stream itself is fine
            self._deliver_revocation(revocation)
        elif kind == KIND_RESPONSE:
            response = decode_binary_response(body)
            future = self._pending.get(response.id)
            if future is not None and not future.done():
                future.set_result(response)
        elif kind == KIND_ERROR:
            request_id, message = decode_binary_error(body)
            future = (
                self._pending.get(request_id)
                if request_id is not None
                else None
            )
            if future is not None and not future.done():
                future.set_exception(
                    ServiceError(f"server rejected request: {message}")
                )

    def _dispatch_line(self, line: bytes) -> None:
        try:
            payload = parse_line(line, max_bytes=MAX_OP_LINE_BYTES)
        except ServiceError:
            return  # garbage line; keep the stream alive
        if payload.get("op") == "revoke":
            # Unsolicited push — never matched against pending futures
            # (its id names a *grant*, whose decide() future resolved
            # long ago).
            try:
                self._deliver_revocation(decode_revocation(payload))
            except ServiceError:
                pass
            return
        future = self._pending.get(payload.get("id"))
        if future is not None and not future.done():
            future.set_result(payload)

    def _fail(self, error: Optional[Exception]) -> None:
        """The connection ended: fail anything still waiting, so
        callers never hang on EOF."""
        if self._failure is None:
            self._failure = ServiceError(
                str(error or "connection closed by server")
            )
        for future in self._pending.values():
            if not future.done():
                future.set_exception(self._failure)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._failure is None:
            self._failure = ServiceError("client is closed")
        self._link.close()
        await self._lost


class _Link(WireConnection):
    """The client's end of the wire: every message a read delivered is
    dispatched to its waiting caller in that one pass."""

    #: An op response (a metrics exposition) is much larger than any
    #: decision response.
    max_line_bytes = MAX_OP_LINE_BYTES

    def __init__(self, client: RemotePDPClient) -> None:
        super().__init__()
        self.client = client

    def line_received(self, line: bytes) -> None:
        self.client._dispatch_line(line)

    def frame_received(self, kind: int, body: bytes) -> None:
        try:
            self.client._dispatch_frame(kind, body)
        except ServiceError as error:  # malformed frame: position lost
            self.protocol_error(str(error), True)
            self.close()

    def protocol_error(self, message: str, binary: bool) -> None:
        self.client._fail(ServiceError(message))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.client._fail(exc)
        if not self.client._lost.done():
            self.client._lost.set_result(None)
