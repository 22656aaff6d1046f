"""Async TCP client for a remote PDP or a whole cluster of them.

:class:`RemotePDPClient` holds the cluster's consistent-hash ring.
``connect(host, port)`` asks the peer for its ``members`` — a plain
``repro serve`` answers a ring of one, itself; a cluster's router
answers its workers — then dials every member directly, so a decision
travels one hop, to the worker that owns its shard key (tenant, else
subject, else the wire id), on the same
:class:`~repro.cluster.ring.ConsistentHashRing` every peer builds.
There is one decision path: to a single server it is a ring of one
whose only link is the connection the client opened.  Control ops
(``stats``, ``reload`` …) go to the peer; ``env`` and ``intern`` go
to every member link, so an ``env`` answer returns only after every
revoke the flip caused has arrived (each worker pushes its revokes
ahead of its reply, on the link that holds the grant).

Each link pipelines: in-flight requests wait in the link's table by
id, every response a read delivered is dispatched as it arrives (they
may be reordered — cache hits overtake batched work), requests sent in
one loop turn leave in one socket write, and a sender waits only while
its link has paused writing.  The surface mirrors the in-process
:class:`~repro.service.pdp.PDPClient`.

**Failing closed.**  When a link is lost, every decision outstanding
on it answers ``DENY_UNAVAILABLE`` — never a hang, never a grant.  A
:class:`CircuitBreaker` per member gates reconnects: while it is open
that member's keys shed ``DENY_UNAVAILABLE`` at once.  Every reconnect
fetches ``members`` again first, because a restarted worker listens on
a new port.

``wire="binary"`` adds the interned-ID fast lane of
:mod:`repro.service.protocol`: each link runs the ``intern``
handshake when it opens and eligible decisions travel as fixed-layout
struct frames, falling back to NDJSON per request when a name is not
interned, the request carries role claims, or a timeout rides along.
Control ops always speak NDJSON.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.cluster.ring import ConsistentHashRing
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
    encode_unavailable,
    parse_line,
)
from repro.service.transport import WireConnection

#: Shard keys whose ring slot is remembered; past this the memo
#: starts over (keys that are wire ids never repeat).
_SLOT_MEMO = 1 << 16

#: Addresses a member may be registered under that mean "the host the
#: client dialled" rather than a host to dial.
_UNSPECIFIED = frozenset({"", "0.0.0.0", "::"})


class CircuitBreaker:
    """Per-member failure gate: open after N failures, probe after cooldown.

    While open, the member's keys shed ``DENY_UNAVAILABLE`` instead of
    paying a reconnect each.  After ``cooldown_s`` the breaker is
    *half-open*: attempts pass again, one failure re-opens it, one
    success closes it.  ``clock`` is the monotonic time source (tests
    inject their own).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ServiceError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ServiceError("cooldown_s must be > 0")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0

    @property
    def open(self) -> bool:
        if self.opened_at is None:
            return False
        if self.clock() - self.opened_at >= self.cooldown_s:
            return False  # half-open: let a probe through
        return True

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.failure_threshold:
            if self.opened_at is None:
                self.opens += 1
            self.opened_at = self.clock()

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def force_open(self) -> None:
        """Open immediately (the cluster reports the member down)."""
        if self.opened_at is None:
            self.opens += 1
        self.failures = max(self.failures, self.failure_threshold)
        self.opened_at = self.clock()

    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        return "open" if self.open else "half-open"


class _LinkLost(ServiceError):
    """The link a message was sent on is gone."""


class RemotePDPClient:
    """Pipelined links to a :class:`~repro.service.server.PDPServer` or
    to every worker of a cluster (see the module docstring).

    Use as an async context manager::

        async with await RemotePDPClient.connect("127.0.0.1", 7471) as pdp:
            granted = await pdp.check("alice", "watch", "livingroom/tv",
                                      environment_roles={"weekday-free-time"})
    """

    def __init__(self, wire: str = "json") -> None:
        if wire not in ("json", "binary"):
            raise ServiceError(f"unknown wire format {wire!r}")
        self.wire = wire
        self._loop = asyncio.get_running_loop()
        #: Decisions number up from 1, control ops down from -1: a
        #: client's handshakes never shift its decision ids.
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(-1, -1)
        self._closed = False
        #: Where ``connect`` pointed the client; members are (re)fetched
        #: from there.
        self._seed: Tuple[str, int] = ("", 0)
        #: The connection to the seed: control ops travel on it.  For a
        #: plain server it is also the ring's only member link.
        self._peer: Optional[_Link] = None
        #: Why the peer connection ended, once it has.
        self._failure: Optional[ServiceError] = None
        self._ring = ConsistentHashRing()
        #: Member name -> dialable address (``None``: reported down).
        self._addresses: Dict[str, Optional[Tuple[str, int]]] = {}
        #: Member name -> its open link.
        self._links: Dict[str, _Link] = {}
        #: Shard key -> member name (memo of the ring lookup).
        self._slots: Dict[str, str] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._joining = asyncio.Lock()
        self._reviving: Dict[str, "asyncio.Task[None]"] = {}
        #: Tenant the links intern against (see :meth:`intern`).
        self._intern_tenant: Optional[str] = None
        #: Unsolicited grant withdrawals received on any link, oldest
        #: first (continuous authorization; see :meth:`subscribe`).
        self.revocations: List[WireRevocation] = []
        self._revocation_handlers: List[
            Callable[[WireRevocation], None]
        ] = []

    @classmethod
    async def connect(
        cls, host: str, port: int, wire: str = "json"
    ) -> "RemotePDPClient":
        """Fetch ``members`` from ``host:port`` and open a link to each
        member, all at once (and intern each binary link at once)."""
        client = cls(wire=wire)
        client._seed = (host, port)
        try:
            await client._join()
        except BaseException:
            await client.close()
            raise
        return client

    async def __aenter__(self) -> "RemotePDPClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def connected(self) -> bool:
        """Whether the connection to the peer is still up."""
        return self._peer is not None and not self._closed

    def route(self, key: str) -> str:
        """The member owning shard ``key`` (what :meth:`decide` uses)."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._ring.route(key)
            if len(self._slots) >= _SLOT_MEMO:
                self._slots.clear()
            self._slots[key] = slot
        return slot

    # ------------------------------------------------------------------
    # Membership and links
    # ------------------------------------------------------------------
    async def _join(self, only: Optional[str] = None) -> None:
        """Fetch ``members`` from the seed (re-dialled if its connection
        is gone) and open the missing links — all of them, or ``only``'s."""
        async with self._joining:
            if self._closed:
                raise ServiceError("client is closed")
            peer = self._peer
            if peer is None:
                peer = self._peer = await self._dial(*self._seed)
                self._failure = None
            self._apply_members(await peer.call(self, {"op": "members"}))
            names = list(self._addresses) if only is None else [only]
            await asyncio.gather(
                *(
                    self._open(name)
                    for name in names
                    if name in self._addresses and name not in self._links
                )
            )

    def _apply_members(self, reply: Dict[str, Any]) -> None:
        members, vnodes = reply.get("members"), reply.get("vnodes")
        if not isinstance(members, dict) or not members or not isinstance(
            vnodes, int
        ):
            raise ServiceError(f"bad members response: {reply!r}")
        addresses: Dict[str, Optional[Tuple[str, int]]] = {}
        for name, address in members.items():
            if address is None:
                addresses[name] = None
                continue
            try:
                host, port = address
                port = int(port)
            except (TypeError, ValueError):
                raise ServiceError(f"bad members response: {reply!r}") from None
            addresses[name] = (
                self._seed[0] if host in _UNSPECIFIED else str(host),
                port,
            )
        if sorted(addresses) != self._ring.members or vnodes != self._ring.vnodes:
            self._ring = ConsistentHashRing(sorted(addresses), vnodes=vnodes)
            self._slots.clear()
            for name in set(self._links) - set(addresses):
                self._links.pop(name).close()
        for name, address in addresses.items():
            link = self._links.get(name)
            if link is not None and link.address != address:
                del self._links[name]  # the member moved: its old link goes
                if link is not self._peer:
                    link.close()
            self.breakers.setdefault(name, CircuitBreaker())
        self._addresses = addresses

    async def _open(self, name: str) -> None:
        """Open (or, for the peer itself, adopt) ``name``'s link; a
        failure feeds its breaker and leaves the member linkless."""
        address, breaker = self._addresses[name], self.breakers[name]
        if address is None:  # the cluster reports it down
            breaker.force_open()
            return
        peer = self._peer
        link: Optional[_Link] = None
        try:
            if peer is not None and peer.peername == address:
                link = peer  # a ring of one: the server itself
            else:
                link = await self._dial(*address)
            if self.wire == "binary" and link.tables is None:
                await self._intern_link(link, self._intern_tenant)
        except (OSError, ServiceError):
            if link is not None and link is not peer:
                link.close()
            breaker.record_failure()
            return
        link.name, link.address = name, address
        self._links[name] = link
        breaker.record_success()

    async def _dial(self, host: str, port: int) -> "_Link":
        link = _Link(self)
        transport, _ = await self._loop.create_connection(
            lambda: link, host, port
        )
        peername = transport.get_extra_info("peername")
        link.peername = (peername[0], peername[1])
        return link

    async def _revive(self, slot: str) -> Optional["_Link"]:
        """``slot``'s link after one reconnect attempt shared by every
        caller waiting on it; ``None`` while its breaker is open or the
        attempt failed."""
        if self._closed:
            raise ServiceError("client is closed")
        breaker = self.breakers[slot]
        if breaker.open:
            return None
        task = self._reviving.get(slot)
        if task is None:
            task = self._reviving[slot] = self._loop.create_task(
                self._reconnect(slot)
            )
            task.add_done_callback(lambda _: self._reviving.pop(slot, None))
        try:
            await asyncio.shield(task)
        except asyncio.CancelledError:
            if task.cancelled():  # close() stopped the attempt, not us
                raise ServiceError("client is closed") from None
            raise
        return self._links.get(slot)

    async def _reconnect(self, slot: str) -> None:
        try:
            await self._join(only=slot)
        except (OSError, ServiceError):
            self.breakers[slot].record_failure()

    def _lost(self, link: "_Link", exc: Optional[Exception]) -> None:
        """``link`` ended: answer everything outstanding on it and
        forget it.  Decisions answer ``DENY_UNAVAILABLE`` (see
        :meth:`decide`); control ops raise."""
        if link.failure is not None:
            return  # a protocol error already ended it
        if self._closed:
            error: ServiceError = ServiceError("client is closed")
        else:
            error = _LinkLost(str(exc or "connection closed by server"))
        link.failure = error
        for future in link.pending.values():
            if not future.done():
                future.set_exception(error)
        if self._links.get(link.name) is link:
            del self._links[link.name]
            if not self._closed:
                self.breakers[link.name].record_failure()
        if self._peer is link:
            self._peer = None
            self._failure = error

    def _member_links(self) -> List["_Link"]:
        links = list(self._links.values())
        if not links:
            raise ServiceError("no member of the cluster is reachable")
        return links

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def subscribe(self, handler: Callable[[WireRevocation], None]) -> None:
        """Register a callback for pushed grant revocations.

        ``handler(revocation)`` runs synchronously, inside the read that
        delivered it, for every unsolicited ``revoke`` a server pushes
        (on either wire lane, on any link); exceptions are swallowed so
        a broken handler cannot kill a connection.  Every revocation is
        also appended to :attr:`revocations` whether or not handlers are
        registered — polling callers need no callback at all.
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
        """Submit one request to the member owning it; await the answer.

        ``tenant`` routes the decision to that tenant's engine (and
        shards by tenant); the server answers ``deny-unknown-tenant``
        (never an error) for names it cannot resolve.  ``None`` is the
        default tenant and keeps the wire bytes identical to a
        tenantless client.  ``trace`` rides both lanes as the compact
        trace-context segment; untraced requests stay byte-identical.

        ``subscribe=True`` asks a continuous-authorization server to
        keep watching a GRANT resolved against its live environment:
        when the environment changes so that it no longer holds, the
        server pushes an unsolicited revoke (see :meth:`subscribe` and
        :attr:`revocations`).  Requests pinning an explicit
        ``environment_roles`` override are never watched — they are
        not claims about the live environment.

        A member that cannot be reached — its link lost with this
        request in flight, its breaker open, its reconnect failed —
        answers ``DENY_UNAVAILABLE``.
        """
        env: Optional[FrozenSet[str]] = (
            frozenset(environment_roles) if environment_roles is not None else None
        )
        request_id = next(self._ids)
        slot = self.route(tenant or request.subject or str(request_id))
        link = self._links.get(slot)
        if link is None:
            link = await self._revive(slot)
            if link is None:
                return _unavailable(request_id, slot)
        data: Optional[bytes] = None
        if self.wire == "binary" and link.tables is not None and timeout_ms is None:
            try:
                data = encode_binary_request(
                    link.tables,
                    request,
                    request_id,
                    env=env,
                    tenant=tenant,
                    trace=trace,
                    subscribe=subscribe,
                )
            except ServiceError:
                data = None  # uninterned name / claims: NDJSON lane
        if data is None:
            data = dumps_line(
                encode_request(
                    request,
                    request_id,
                    env=env,
                    timeout_ms=timeout_ms,
                    tenant=tenant,
                    trace=trace,
                    subscribe=subscribe,
                )
            )
        try:
            raw = await link.send(request_id, data)
        except _LinkLost:
            return _unavailable(request_id, slot)
        if isinstance(raw, WireResponse):
            return raw
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

    async def intern(self, tenant: Optional[str] = None) -> InternTables:
        """Run (or re-run) the intern handshake on every member link.

        Fetches each member's current name<->id tables and pins them
        for that link's binary lane.  Re-issue after a policy reload to
        pick up newly minted names — stale tables are never *unsafe*
        (an unknown or stale name fails mediation exactly as it would
        over NDJSON), just slower, since uninterned requests fall back
        to NDJSON.  ``tenant`` interns against that tenant's active
        policy instead of the default engine's — a client mostly
        talking to one tenant should intern against it.  Links opened
        later intern the same way.
        """
        self._intern_tenant = tenant
        tables = await asyncio.gather(
            *(self._intern_link(link, tenant) for link in self._member_links())
        )
        return tables[0]

    async def _intern_link(
        self, link: "_Link", tenant: Optional[str]
    ) -> InternTables:
        payload: Dict[str, Any] = {"op": "intern"}
        if tenant is not None:
            payload["tenant"] = tenant
        raw = await link.call(self, payload)
        if raw.get("op") != "intern":
            raise ServiceError(f"bad intern response: {raw!r}")
        link.tables = InternTables.from_payload(raw)
        return link.tables

    async def ping(self) -> bool:
        raw = await self._roundtrip({"op": "ping"})
        return raw.get("op") == "pong"

    async def env(self, action: str, **fields: Any) -> Dict[str, Any]:
        """Drive the live environment (the ``env`` wire op) on every
        member.

        ``action`` is ``"set"`` (``name=``, ``value=``), ``"move"``
        (``subject=``, ``zone=``), or ``"advance"`` (``seconds=``, on
        simulated clocks).  Answers the first member's post-action
        snapshot: ``{"revision": N, "active": [...]}``.  By the time
        this returns, every revocation the action caused has been
        pushed *and received*: each member answers on the link its
        revokes travel on, behind them.

        :raises ServiceError: when no member has a live environment or
            the action was malformed.
        """
        payload = {"op": "env", "action": action, **fields}
        replies = await asyncio.gather(
            *(link.call(self, payload) for link in self._member_links()),
            return_exceptions=True,
        )
        for raw in replies:
            if isinstance(raw, dict) and raw.get("op") == "env" and "revision" in raw:
                return raw
        raw = replies[0]
        if isinstance(raw, BaseException):
            raise raw
        raise ServiceError(f"bad env response: {raw.get('error', raw)!r}")

    async def env_set(self, name: str, value: Any) -> Dict[str, Any]:
        """Write one environment state variable (a sensor event)."""
        return await self.env("set", name=name, value=value)

    async def env_move(self, subject: str, zone: str) -> Dict[str, Any]:
        """Report a subject's location to the environment."""
        return await self.env("move", subject=subject, zone=zone)

    async def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one control op to the peer as given (its ``id``
        replaced by the client's own) and return the reply unparsed."""
        return await self._roundtrip(dict(payload))

    async def stats(self) -> Dict[str, Any]:
        """The peer PDP's :meth:`stats` snapshot."""
        raw = await self._roundtrip({"op": "stats"})
        stats = raw.get("stats")
        if not isinstance(stats, dict):
            raise ServiceError(f"bad stats response: {raw!r}")
        return stats

    async def metrics(self) -> Dict[str, Any]:
        """The peer's metrics exposition.

        :returns: ``{"prometheus": <text exposition>, "json":
            <registry snapshot>}``.
        """
        raw = await self._roundtrip({"op": "metrics"})
        if "prometheus" not in raw or "json" not in raw:
            raise ServiceError(f"bad metrics response: {raw!r}")
        return {"prometheus": raw["prometheus"], "json": raw["json"]}

    async def health(self) -> Dict[str, Any]:
        """The peer's ``health`` body (liveness + SLO state)."""
        raw = await self._roundtrip({"op": "health"})
        if "healthy" not in raw:
            raise ServiceError(f"bad health response: {raw!r}")
        return raw

    async def ready(self) -> Dict[str, Any]:
        """The peer's ``ready`` body (admission headroom)."""
        raw = await self._roundtrip({"op": "ready"})
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
        """Ask the peer to hot-reload ``policy_text`` (DSL or JSON).

        With ``tenant`` the reload is tenant-scoped: store-backed
        tenants go through ``put`` + ``activate``, pinned tenants
        through the same gate and swap as the default one.
        ``policy_text=None`` is only meaningful with a store-backed
        tenant — it refreshes the PDP from the store's current active
        version without shipping text.  A cluster's router runs it as
        the supervisor's two-phase reload across every worker.

        :returns: ``{"accepted": bool, "dry_run": bool, "error": str,
            "record": {...}}`` — the audited
            :class:`~repro.policy.admin.ReloadRecord` as a dict
            (store-path reloads return ``version``/``generation``
            instead of a record).
        :raises ServiceError: when the server has no administrator or
            the message itself was malformed (a *rejected candidate*
            is not an exception — read ``accepted``/``error``).
        """
        payload: Dict[str, Any] = {
            "op": "reload",
            "actor": actor,
            "dry_run": dry_run,
        }
        if policy_text is not None:
            payload["policy"] = policy_text
        if tenant is not None:
            payload["tenant"] = tenant
        raw = await self._roundtrip(payload)
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
        raw = await self._roundtrip(
            {"op": "reload_prepare", "actor": actor, "policy": policy_text}
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
        raw = await self._roundtrip(
            {"op": "reload_activate", "actor": actor, "token": token}
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
        raw = await self._roundtrip(
            {"op": "reload_abort", "actor": actor, "token": token}
        )
        if raw.get("op") != "reload_abort" or "aborted" not in raw:
            raise ServiceError(
                f"bad reload_abort response: {raw.get('error', raw)!r}"
            )
        return bool(raw["aborted"])

    async def tenants(self) -> List[Dict[str, Any]]:
        """The peer's tenant overview (one summary row per tenant)."""
        raw = await self._roundtrip({"op": "tenants"})
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
        """Flight-recorder entries from the peer (oldest first)."""
        payload: Dict[str, Any] = {"op": "dump", "since_seq": since_seq}
        if limit is not None:
            payload["limit"] = limit
        if subject is not None:
            payload["subject"] = subject
        if outcome is not None:
            payload["outcome"] = outcome
        raw = await self._roundtrip(payload)
        entries = raw.get("entries")
        if not isinstance(entries, list):
            raise ServiceError(f"bad dump response: {raw!r}")
        return entries

    async def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """The peer's retained spans for ``trace_id`` (maybe []).

        One worker's contribution only; the cluster admin fans this
        out across workers and joins the results into the
        cross-process waterfall.
        """
        raw = await self._roundtrip({"op": "trace", "trace_id": trace_id})
        spans = raw.get("spans")
        if not isinstance(spans, list):
            raise ServiceError(f"bad trace response: {raw!r}")
        return spans

    async def traces(self, limit: Optional[int] = None) -> List[str]:
        """Trace ids the peer retained spans for, newest first."""
        payload: Dict[str, Any] = {"op": "trace"}
        if limit is not None:
            payload["limit"] = limit
        raw = await self._roundtrip(payload)
        trace_ids = raw.get("trace_ids")
        if not isinstance(trace_ids, list):
            raise ServiceError(f"bad trace response: {raw!r}")
        return trace_ids

    # ------------------------------------------------------------------
    # Transport internals
    # ------------------------------------------------------------------
    async def _roundtrip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One control op on the peer connection."""
        peer = self._peer
        if peer is None:
            raise self._failure or ServiceError("client is closed")
        return await peer.call(self, payload)

    def _deliver_revocation(self, revocation: WireRevocation) -> None:
        self.revocations.append(revocation)
        for handler in self._revocation_handlers:
            try:
                handler(revocation)
            except Exception:  # noqa: BLE001 - a handler bug, not the wire
                pass

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for task in list(self._reviving.values()):
            task.cancel()
        links = {id(link): link for link in self._links.values()}
        if self._peer is not None:
            links[id(self._peer)] = self._peer
        for link in links.values():
            link.close()
        await asyncio.gather(*(link.gone for link in links.values()))


def _unavailable(request_id: int, member: str) -> WireResponse:
    return decode_response(
        encode_unavailable(request_id, f"worker {member} unavailable")
    )


class _Link(WireConnection):
    """One pipelined connection: its pending-answer table, its intern
    tables, and the dispatch of every message a read delivered."""

    #: An op response (a metrics exposition) is much larger than any
    #: decision response.
    max_line_bytes = MAX_OP_LINE_BYTES

    def __init__(self, client: RemotePDPClient) -> None:
        super().__init__()
        self.client = client
        #: The member this link serves and the address it was given
        #: for it ("" and None for a peer that is not a member).
        self.name = ""
        self.address: Optional[Tuple[str, int]] = None
        #: Where the socket is connected, as the kernel names it.
        self.peername: Optional[Tuple[str, int]] = None
        self.tables: Optional[InternTables] = None
        self.pending: Dict[Any, "asyncio.Future[Any]"] = {}
        #: Why the link ended, once it has.
        self.failure: Optional[ServiceError] = None
        #: Resolves once the socket is gone.
        self.gone: "asyncio.Future[None]" = client._loop.create_future()

    async def send(self, request_id: Any, data: bytes) -> Any:
        while self.writable is not None:  # the transport paused writing
            await self.writable
        if self.failure is not None:
            raise self.failure
        future: "asyncio.Future[Any]" = self.client._loop.create_future()
        self.pending[request_id] = future
        self.write(data)
        try:
            return await future
        finally:
            self.pending.pop(request_id, None)

    async def call(
        self, client: RemotePDPClient, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        request_id = next(client._op_ids)
        payload["id"] = request_id
        return await self.send(request_id, dumps_line(payload))

    # ------------------------------------------------------------------
    # WireConnection
    # ------------------------------------------------------------------
    def line_received(self, line: bytes) -> None:
        try:
            payload = parse_line(line, max_bytes=MAX_OP_LINE_BYTES)
        except ServiceError:
            return  # garbage line; keep the stream alive
        if payload.get("op") == "revoke":
            # Unsolicited push — never matched against pending futures
            # (its id names a *grant*, whose decide() future resolved
            # long ago).
            try:
                self.client._deliver_revocation(decode_revocation(payload))
            except ServiceError:
                pass
            return
        future = self.pending.get(payload.get("id"))
        if future is not None and not future.done():
            future.set_result(payload)

    def frame_received(self, kind: int, body: bytes) -> None:
        try:
            self._dispatch_frame(kind, body)
        except ServiceError as error:  # malformed frame: position lost
            self.protocol_error(str(error), True)
            self.close()

    def _dispatch_frame(self, kind: int, body: bytes) -> None:
        if kind == KIND_REVOKE:
            try:
                revocation = decode_binary_revocation(self.tables, body)
            except ServiceError:
                return  # undecodable push; the stream itself is fine
            self.client._deliver_revocation(revocation)
        elif kind == KIND_RESPONSE:
            response = decode_binary_response(body)
            future = self.pending.get(response.id)
            if future is not None and not future.done():
                future.set_result(response)
        elif kind == KIND_ERROR:
            request_id, message = decode_binary_error(body)
            future = (
                self.pending.get(request_id)
                if request_id is not None
                else None
            )
            if future is not None and not future.done():
                future.set_exception(
                    ServiceError(f"server rejected request: {message}")
                )

    def protocol_error(self, message: str, binary: bool) -> None:
        self.client._lost(self, ServiceError(message))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.client._lost(self, exc)
        if not self.gone.done():
            self.gone.set_result(None)
