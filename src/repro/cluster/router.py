"""The shard router: the cluster's front door for control, not decisions.

A client asks the router for the cluster's membership —
``{"op": "members"}`` answers the ring's ``vnodes`` and
``{worker name: [host, port]}`` (``null`` for a worker the supervisor
saw die) — builds the same :class:`~repro.cluster.ring.ConsistentHashRing`
from the slot names, and sends every decision straight to the worker
that owns its shard key (see :class:`~repro.service.client.RemotePDPClient`).
Slot names ("w0".."wN-1") are stable across restarts, so a restarted
worker keeps its key range; only its port changes, which is why a
client re-fetches ``members`` before every reconnect.

A decision sent here anyway — a binary frame or an NDJSON line without
an ``op`` — is answered with one explicit error that names ``members``.
It fails closed: nothing is relayed, nothing is granted.

What the router keeps is the control plane, on the
:class:`~repro.service.transport.WireConnection` stack the server and
client use:

* ``ping`` and ``members`` are answered in the read that delivered
  them;
* reload ops go to the supervisor's two-phase handler;
* ``env`` is broadcast to every live worker and answered once;
* ``stats``, ``metrics``, ``health``, ``ready``, ``dump`` and
  ``tenants`` go to the first live worker.

An op that needs a worker holds its session's stream until its reply
is queued — nothing later in that session is read before it, as on a
server — while other sessions carry on.  The router talks to workers
over one :class:`~repro.service.client.RemotePDPClient` per worker,
opened on first use.  A half-closed client keeps its socket until the
op it is owed has been answered.  ``drain()`` stops accepting, lets
held ops finish (bounded), then closes.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.cluster.ring import ConsistentHashRing
from repro.exceptions import ServiceError
from repro.service.client import RemotePDPClient
from repro.service.protocol import (
    dumps_line,
    encode_binary_error,
    parse_line,
    peek_binary_id,
)
from repro.service.transport import WireConnection

#: Ops the router forwards to the first live worker (cluster-wide
#: aggregation lives on the supervisor's admin endpoint instead).
_FORWARD_OPS = frozenset(
    {"stats", "metrics", "health", "ready", "dump", "tenants"}
)

_RELOAD_OPS = frozenset({"reload", "reload_prepare", "reload_activate",
                         "reload_abort"})

#: The answer to a decision sent to the router.
NOT_RELAYED = (
    "the router does not relay decisions: fetch {\"op\": \"members\"} "
    "and send each decision to the worker owning its shard key"
)


class _Session(WireConnection):
    """One client connection to the router."""

    def __init__(self, router: "ShardRouter") -> None:
        super().__init__()
        self.router = router
        #: An op of this session is being awaited (its reads are held
        #: until the reply is queued).
        self.holding = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        if self.router._accepting:
            self.router.connections += 1
            self.router._sessions.add(self)
        else:
            self.close()

    def frame_received(self, kind: int, body: bytes) -> None:
        self.write(encode_binary_error(peek_binary_id(body), NOT_RELAYED))

    def line_received(self, line: bytes) -> None:
        self.router._handle_line(self, line)

    def protocol_error(self, message: str, binary: bool) -> None:
        self.write(
            encode_binary_error(None, message)
            if binary
            else dumps_line({"error": message})
        )

    def eof_received(self) -> bool:
        super().eof_received()
        return self.holding  # a half-closed peer still gets its answer

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.router._sessions.discard(self)

    def close_if_answered(self) -> None:
        """A held op was answered: a half-closed client's socket closes
        behind it."""
        if self._eof and not self.holding:
            self.close()

    def refuse(self, wire_id: object, message: str) -> None:
        """Answer message ``wire_id`` with an error line."""
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
    """

    def __init__(
        self,
        workers: Optional[Dict[str, Tuple[str, int]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = 128,
        reload_handler: Optional[
            Callable[[dict], Awaitable[dict]]
        ] = None,
    ) -> None:
        self.host = host
        self.reload_handler = reload_handler
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: Dict[str, Tuple[str, int]] = dict(workers or {})
        #: Workers the supervisor saw die and has not re-registered.
        self._down: Set[str] = set()
        self.ring = ConsistentHashRing(sorted(self._workers), vnodes=vnodes)
        #: One control client per worker, opened on first use.
        self._clients: Dict[str, RemotePDPClient] = {}
        self._dialing = asyncio.Lock()
        self._sessions: "set[_Session]" = set()
        #: Held ops in progress.
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._accepting = True
        self.connections = 0

    # ------------------------------------------------------------------
    # Membership (driven by the supervisor)
    # ------------------------------------------------------------------
    def set_worker(self, name: str, host: str, port: int) -> None:
        """Add ``name`` or update its address (restart on a new port).

        The supervisor only calls this once the worker answered its
        readiness probe.
        """
        self._workers[name] = (host, port)
        self._down.discard(name)
        self._forget_client(name)
        if name not in self.ring:
            self.ring.add(name)

    def mark_worker_down(self, name: str) -> None:
        """Report ``name`` down (the supervisor saw it die).

        The slot stays on the ring — clients shed its key range until
        the restarted worker re-registers — so no other shard's cache
        locality is disturbed by the outage.
        """
        if name not in self._workers:
            raise ServiceError(f"unknown worker {name!r}")
        self._down.add(name)
        self._forget_client(name)

    def remove_worker(self, name: str) -> None:
        """Take ``name`` out of rotation (scale-down, not a crash)."""
        self._workers.pop(name, None)
        self._down.discard(name)
        self._forget_client(name)
        if name in self.ring:
            self.ring.remove(name)

    def members(self) -> Dict[str, object]:
        """The ``members`` answer: ring geometry and live addresses."""
        return {
            "vnodes": self.ring.vnodes,
            "members": {
                name: (
                    None
                    if name in self._down or name not in self._workers
                    else list(self._workers[name])
                )
                for name in self.ring.members
            },
        }

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
        """Stop accepting, wait (bounded) for held ops, close.

        :returns: ops still held when the deadline hit (0 on a clean
            drain).
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and self.in_flight:
            await asyncio.sleep(0.02)
        remaining = self.in_flight
        for session in list(self._sessions):
            session.close()
        self._sessions.clear()
        for task in list(self._tasks):
            task.cancel()
        clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            await client.close()
        return remaining

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def in_flight(self) -> int:
        """Ops held for an answer from a worker or the supervisor."""
        return sum(session.holding for session in self._sessions)

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    def _handle_line(self, session: _Session, line: bytes) -> None:
        try:
            payload = parse_line(line)
        except ServiceError as error:
            session.write(dumps_line({"error": str(error)}))
            return
        op, wire_id = payload.get("op"), payload.get("id")
        if op is None:
            session.refuse(wire_id, NOT_RELAYED)
        elif op == "ping":
            session.write(dumps_line({"op": "pong", "id": wire_id}))
        elif op == "members":
            session.write(
                dumps_line({"op": "members", "id": wire_id, **self.members()})
            )
        elif op in _RELOAD_OPS:
            if self.reload_handler is None:
                session.refuse(
                    wire_id,
                    "cluster reload requires the supervisor "
                    "(no reload handler installed)",
                )
                return
            self._hold(session, wire_id, self._reload(op, payload))
        elif op == "env":
            # Every worker holds its own environment replica, and a flip
            # must revoke subscribed grants wherever they were issued.
            self._hold(session, wire_id, self._broadcast(payload))
        elif op in _FORWARD_OPS:
            self._hold(session, wire_id, self._forward(payload))
        else:
            session.refuse(wire_id, f"unknown op {op!r}")

    def _hold(
        self, session: _Session, wire_id: object, work: Awaitable[dict]
    ) -> None:
        """Hold ``session``'s stream while ``work`` produces its reply."""
        session.holding = True
        session.pause_reading()
        task = asyncio.get_running_loop().create_task(
            self._answer(session, wire_id, work)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _answer(
        self, session: _Session, wire_id: object, work: Awaitable[dict]
    ) -> None:
        try:
            reply = await work
        except Exception as error:  # noqa: BLE001 - reported to the caller
            reply = {"error": str(error)}
        finally:
            session.holding = False
        session.write(dumps_line({**reply, "id": wire_id}))
        session.resume_reading()
        session.close_if_answered()

    async def _reload(self, op: object, payload: dict) -> dict:
        try:
            result = await self.reload_handler(payload)  # type: ignore[misc]
        except Exception as error:  # noqa: BLE001 - reported to the caller
            return {"error": f"cluster reload failed: {error}"}
        return {"op": op, "id": None, **result}

    async def _broadcast(self, payload: dict) -> dict:
        """Send ``payload`` to every live worker; the first answer (by
        slot name) stands for all of them."""
        clients = [
            client
            for client in await asyncio.gather(
                *(self._client(name) for name in self.ring.members)
            )
            if client is not None
        ]
        if not clients:
            return {"error": "no healthy worker"}
        replies = await asyncio.gather(
            *(client.call(payload) for client in clients),
            return_exceptions=True,
        )
        for reply in replies:
            if isinstance(reply, dict):
                return reply
        return {"error": f"no worker answered: {replies[0]}"}

    async def _forward(self, payload: dict) -> dict:
        for name in self.ring.members:  # the first live worker
            client = await self._client(name)
            if client is None:
                continue
            try:
                return await client.call(payload)
            except (OSError, ServiceError):
                self._forget_client(name)
        return {"error": "no healthy worker"}

    async def _client(self, name: str) -> Optional[RemotePDPClient]:
        """The control client of worker ``name``, dialled if need be;
        ``None`` when it is down or unreachable."""
        async with self._dialing:
            address = self._workers.get(name)
            if address is None or name in self._down:
                return None
            client = self._clients.get(name)
            if client is not None and client.connected:
                return client
            try:
                client = await RemotePDPClient.connect(*address)
            except (OSError, ServiceError):
                return None
            self._clients[name] = client
            return client

    def _forget_client(self, name: str) -> None:
        client = self._clients.pop(name, None)
        if client is not None:
            task = asyncio.get_running_loop().create_task(client.close())
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "workers": {
                name: {
                    "address": list(self._workers[name]),
                    "state": "down" if name in self._down else "up",
                }
                for name in sorted(self._workers)
            },
            "connections": self.connections,
            "sessions": len(self._sessions),
            "in_flight": self.in_flight,
            # The router answers no decision, so it synthesizes no
            # DENY_UNAVAILABLE; clients do, for the shards they cannot
            # reach.  Kept so dashboards reading it see the truth.
            "unavailable_synthesized": 0,
        }


__all__ = ["NOT_RELAYED", "ShardRouter"]
