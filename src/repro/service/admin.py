"""The admin HTTP sidecar: scrape and poke a PDP with plain HTTP.

The NDJSON protocol is the PDP's data plane; operations tooling —
Prometheus scrapers, load-balancer health checks, ``curl`` — speaks
HTTP.  :class:`AdminServer` is a deliberately tiny HTTP/1.0-style
listener (stdlib asyncio only, one response per connection) bound to
a separate port (``repro serve --admin-port``) so a scraper can never
occupy a decision-plane connection slot:

=========================  ==================================================
``GET /metrics``           Prometheus text exposition (0.0.4), whole stack
``GET /metrics.json``      the same registry snapshot as JSON
``GET /health``            liveness + SLO state; 200 while serving, 503 after
``GET /ready``             admission headroom; 200 ready / 503 not ready
``GET /dump``              flight-recorder entries; ``?limit=&since_seq=&``
                           ``subject=&outcome=`` filters
``GET /tenants``           one summary row per tenant: store lineage merged
                           with live serving state and counters
``GET /traces``            retained distributed-trace ids, newest first
                           (``?limit=`` caps the listing)
``GET /trace/<id>``        this process's spans for one trace id; 404 with
                           an empty span list when nothing is retained
``POST /reload``           validated hot-reload; the request body is the
                           candidate policy (DSL or serialized JSON),
                           ``?actor=&dry_run=1`` qualify it.  200 on an
                           applied (or clean dry-run) candidate, 422 on a
                           rejected one — body is the audited ReloadRecord
                           either way.  404 unless the server was built
                           with an administrator.  ``?tenant=NAME`` scopes
                           the reload: store-backed tenants go through the
                           store's put+activate (an **empty** body then
                           refreshes the PDP from the store's active
                           version), pinned tenants through the default
                           tenant's gate and swap — one audited decision.
=========================  ==================================================

Connections are read under a deadline (:attr:`AdminServer.read_timeout_s`,
408 on expiry) with hard size caps on the header block and body (413) —
a stalled or oversized scrape connection can hold a handler slot at
most one deadline long, never forever.
"""

from __future__ import annotations

import asyncio
import inspect
import json
from typing import Awaitable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ServiceError
from repro.service.pdp import PolicyDecisionPoint

#: Request line + headers must fit in this; admin requests are tiny.
_MAX_REQUEST_BYTES = 8 * 1024

#: Upper bound on a request body (the /reload policy text).
_MAX_BODY_BYTES = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    503: "Service Unavailable",
}

#: Content type Prometheus scrapers expect for the text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _BadRequest(Exception):
    """Internal: abort request reading with a specific status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


#: What a route answers: status, content type, body.
Response = Tuple[int, str, bytes]


class AdminHTTPServer:
    """The HTTP/1.1 listener under every admin endpoint: one request
    per connection, read under a deadline (408) with capped head and
    body (413), malformed framing refused (400) — all before routing.

    Subclasses implement :meth:`_route`; it may answer directly or
    return an awaitable (the cluster endpoint aggregates over workers).

    :param host: bind address (default loopback).
    :param port: bind port; 0 picks an ephemeral port — read
        :attr:`port` after :meth:`start`.
    :param read_timeout_s: deadline for reading one full request
        (request line, headers, body).  A connection that has not
        produced a complete request by then is answered 408 and closed.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, read_timeout_s: float = 5.0
    ) -> None:
        if read_timeout_s <= 0:
            raise ServiceError("read_timeout_s must be > 0")
        self.host = host
        self.read_timeout_s = read_timeout_s
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.requests_served = 0
        #: Connections dropped for blowing the read deadline (408).
        self.read_timeouts = 0

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ServiceError("admin server is not listening")
        return self._server.sockets[0].getsockname()[1]

    def _route(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Union[Response, Awaitable[Response]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AdminHTTPServer":
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
            limit=_MAX_REQUEST_BYTES,
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "AdminHTTPServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                # One deadline covers the whole read: a peer that
                # stalls mid-headers or trickles a body cannot hold
                # this handler longer than read_timeout_s.
                request_line, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=self.read_timeout_s
                )
            except asyncio.TimeoutError:
                self.read_timeouts += 1
                response = 408, "text/plain", b"request read deadline expired\n"
            except _BadRequest as refused:
                response = (
                    refused.status,
                    "text/plain",
                    f"{refused.message}\n".encode("utf-8"),
                )
            else:
                response = await self._dispatch(request_line, body)
                self.requests_served += 1
            writer.write(self._response(*response))
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
            ValueError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[bytes, bytes]:
        """Read one request: line, capped headers, capped body.

        :raises _BadRequest: 413 when the header block or declared
            body outgrows its cap.
        """
        request_line = await reader.readline()
        header_bytes = len(request_line)
        content_length = 0
        while True:
            header = await reader.readline()
            header_bytes += len(header)
            if header_bytes > _MAX_REQUEST_BYTES:
                raise _BadRequest(
                    413,
                    f"request head exceeds {_MAX_REQUEST_BYTES} bytes",
                )
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest(
                        400, "malformed Content-Length header"
                    ) from None
        if content_length < 0:
            raise _BadRequest(400, "malformed Content-Length header")
        if content_length > _MAX_BODY_BYTES:
            raise _BadRequest(
                413, f"request body exceeds {_MAX_BODY_BYTES} bytes"
            )
        body = b""
        if content_length:
            try:
                body = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError as error:
                raise _BadRequest(
                    400, "request body shorter than Content-Length"
                ) from error
        return request_line, body

    async def _dispatch(self, request_line: bytes, body: bytes) -> Response:
        """Split the request line and hand the request to the routes."""
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return 400, "text/plain", b"malformed request line\n"
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        response = self._route(method, split.path, query, body)
        if inspect.isawaitable(response):
            response = await response
        return response

    @staticmethod
    def _response(status: int, content_type: str, body: bytes) -> bytes:
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        return head.encode("ascii") + body


class AdminServer(AdminHTTPServer):
    """Serves a PDP's live-ops surface over HTTP.

    :param pdp: the decision point to expose (read-only access).
    :param administrator: optional
        :class:`~repro.policy.admin.PolicyAdministrator`; enables
        ``POST /reload``.  Without one the route 404s, so a scrape-only
        sidecar exposes no mutation surface at all.

    ``host``, ``port`` and ``read_timeout_s`` are
    :class:`AdminHTTPServer`'s.
    """

    def __init__(
        self,
        pdp: PolicyDecisionPoint,
        host: str = "127.0.0.1",
        port: int = 0,
        administrator: Optional[object] = None,
        read_timeout_s: float = 5.0,
    ) -> None:
        super().__init__(host, port, read_timeout_s)
        self.pdp = pdp
        self.administrator = administrator

    def _route(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Response:
        if path == "/reload":
            if self.administrator is None:
                return 404, "text/plain", b"unknown path\n"
            if method != "POST":
                return 405, "text/plain", b"/reload requires POST\n"
            return self._handle_reload(query, body)
        if method != "GET":
            return 405, "text/plain", b"only GET is supported\n"
        if path == "/metrics":
            return (
                200,
                PROMETHEUS_CONTENT_TYPE,
                self.pdp.metrics_prometheus().encode("utf-8"),
            )
        if path == "/metrics.json":
            return 200, "application/json", json_body(self.pdp.metrics_json())
        if path == "/health":
            health = self.pdp.health()
            return (
                200 if health["healthy"] else 503,
                "application/json",
                json_body(health),
            )
        if path == "/ready":
            ready = self.pdp.ready()
            return (
                200 if ready["ready"] else 503,
                "application/json",
                json_body(ready),
            )
        if path == "/dump":
            try:
                entries = self.pdp.dump(
                    limit=int_param(query, "limit"),
                    since_seq=int_param(query, "since_seq") or 0,
                    subject=query.get("subject"),
                    outcome=query.get("outcome"),
                )
            except ValueError as error:
                return 400, "text/plain", f"{error}\n".encode("utf-8")
            return 200, "application/json", json_body({"entries": entries})
        if path == "/tenants":
            return (
                200,
                "application/json",
                json_body({"tenants": self.pdp.tenants_overview()}),
            )
        if path == "/traces":
            try:
                limit = int_param(query, "limit")
            except ValueError as error:
                return 400, "text/plain", f"{error}\n".encode("utf-8")
            return (
                200,
                "application/json",
                json_body({"trace_ids": self.pdp.recent_traces(limit)}),
            )
        if path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            if not trace_id:
                return 400, "text/plain", b"missing trace id\n"
            spans = self.pdp.find_trace(trace_id)
            if not spans:
                return (
                    404,
                    "application/json",
                    json_body({"trace_id": trace_id, "spans": []}),
                )
            return (
                200,
                "application/json",
                json_body({"trace_id": trace_id, "spans": spans}),
            )
        return 404, "text/plain", b"unknown path\n"

    def _handle_reload(
        self, query: Dict[str, str], body: bytes
    ) -> Response:
        """``POST /reload``: the body is the candidate policy text,
        ``?tenant=`` scopes it; the administrator owns the cases."""
        try:
            policy_text = body.decode("utf-8")
        except UnicodeDecodeError:
            return 400, "text/plain", b"policy body must be UTF-8 text\n"
        result = self.administrator.reload(  # type: ignore[attr-defined]
            policy_text,
            actor=query.get("actor", "") or "admin-http",
            dry_run=query.get("dry_run", "").lower() in ("1", "true", "yes"),
            tenant=query.get("tenant"),
        )
        tenant = result.record.tenant
        if result.refusal:
            # The request, not the candidate, was wrong.
            status = 400
            if result.refusal == "unknown-tenant":
                status, message = 404, result.error
            elif result.refusal == "dry-run":
                message = "dry_run is not supported for store-backed tenants"
            elif tenant is None:
                message = "empty body; POST the candidate policy (DSL or JSON)"
            else:
                message = (
                    f"unknown store tenant {tenant!r} (an empty body "
                    "refreshes a store-backed tenant)"
                )
            return status, "text/plain", f"{message}\n".encode("utf-8")
        payload: Dict[str, object] = {}
        if tenant is not None:
            payload["tenant"] = tenant
        payload["accepted"] = result.accepted
        if result.store_backed:
            payload["error"] = result.error
            if result.accepted:
                payload["version"] = result.version
                payload["generation"] = result.generation
        else:
            payload["dry_run"] = result.dry_run
            payload["error"] = result.error
            payload["record"] = result.record.to_dict()
        # A rejected candidate is a *content* problem: 422, with the
        # audited record explaining why, and the old policy serving.
        status = 200 if not result.error else 422
        return status, "application/json", json_body(payload)


def json_body(payload: Dict[str, object]) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def int_param(query: Dict[str, str], name: str) -> Optional[int]:
    raw = query.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be an integer") from None
