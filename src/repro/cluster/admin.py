"""The cluster admin endpoint: one HTTP surface for the whole fleet.

The per-worker ``--admin-port`` sidecars still exist (debugging one
shard), but operations tooling should not need to know how many
workers there are or which ports they restarted onto.
:class:`ClusterAdminServer` binds one port on the supervisor and
aggregates:

=========================  ==================================================
``GET /metrics``           every worker's Prometheus exposition merged into
                           one, each sample labelled ``shard="wN"``
``GET /metrics.json``      per-shard registry snapshots, keyed by worker
``GET /health``            merged health: 200 only when every worker is
                           healthy *and* all serve one policy generation
``GET /status``            supervisor view: worker states/pids/ports/
                           restarts, membership and each worker's
                           request count (``router.workers.<name>.routed``),
                           reload counters
``GET /dump``              interleaved flight-recorder tails (``?limit=``),
                           each entry labelled with its shard
``GET /traces``            recent trace ids the workers retained
                           (``?limit=``)
``GET /trace/<id>``        one distributed trace joined across every
                           worker: a waterfall-ordered span list with
                           parentage depth
``POST /reload``           cluster-wide two-phase reload; the body is the
                           candidate policy, ``?actor=&dry_run=1`` qualify
                           it.  200 when every worker activated, 422 when
                           the cluster rejected it (and nothing changed)
``POST /drain``            graceful cluster shutdown: router drains, then
                           every worker gets SIGTERM and drains too
=========================  ==================================================

The listener is the single-PDP sidecar's
(:class:`~repro.service.admin.AdminHTTPServer`): one request per
connection, read deadline (408), capped head and body (413).
"""

from __future__ import annotations

import asyncio
from typing import Dict

from repro.cluster.supervisor import ClusterSupervisor
from repro.service.admin import (
    PROMETHEUS_CONTENT_TYPE,
    AdminHTTPServer,
    Response,
    int_param,
    json_body,
)


class ClusterAdminServer(AdminHTTPServer):
    """Aggregating live-ops HTTP endpoint over a running supervisor.

    The listener, its deadline and its caps are
    :class:`~repro.service.admin.AdminHTTPServer`'s; only the routes —
    which aggregate over workers, so routing is async — live here.
    """

    def __init__(
        self,
        supervisor: ClusterSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout_s: float = 5.0,
    ) -> None:
        super().__init__(host, port, read_timeout_s)
        self.supervisor = supervisor
        #: Set by ``POST /drain``; the CLI awaits it to exit cleanly.
        self.drain_requested = asyncio.Event()

    async def _route(
        self, method: str, path: str, query: Dict[str, str], body: bytes
    ) -> Response:
        supervisor = self.supervisor
        if path == "/reload":
            if method != "POST":
                return 405, "text/plain", b"/reload requires POST\n"
            return await self._handle_reload(query, body)
        if path == "/drain":
            if method != "POST":
                return 405, "text/plain", b"/drain requires POST\n"
            self.drain_requested.set()
            return 200, "application/json", json_body({"draining": True})
        if method != "GET":
            return 405, "text/plain", b"only GET is supported\n"
        if path == "/metrics":
            merged = await supervisor.cluster_metrics()
            return (
                200,
                PROMETHEUS_CONTENT_TYPE,
                merged["prometheus"].encode("utf-8"),
            )
        if path == "/metrics.json":
            merged = await supervisor.cluster_metrics()
            return 200, "application/json", json_body({"shards": merged["json"]})
        if path == "/health":
            health = await supervisor.cluster_health()
            return (
                200 if health["healthy"] else 503,
                "application/json",
                json_body(health),
            )
        if path == "/status":
            status = await supervisor.cluster_status()
            return 200, "application/json", json_body(status)
        if path in ("/dump", "/traces"):
            try:
                limit = int_param(query, "limit")
            except ValueError as error:
                return 400, "text/plain", f"{error}\n".encode("utf-8")
            if path == "/dump":
                entries = await supervisor.cluster_tail(limit=limit)
                return 200, "application/json", json_body({"entries": entries})
            trace_ids = await supervisor.cluster_traces(
                50 if limit is None else limit
            )
            return 200, "application/json", json_body({"trace_ids": trace_ids})
        if path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            if not trace_id:
                return 400, "text/plain", b"missing trace id\n"
            joined = await supervisor.cluster_trace(trace_id)
            status = 200 if joined["spans"] else 404
            return status, "application/json", json_body(joined)
        return 404, "text/plain", b"unknown path\n"

    async def _handle_reload(
        self, query: Dict[str, str], body: bytes
    ) -> Response:
        """``POST /reload``: body is the candidate, two-phase fan-out."""
        try:
            policy_text = body.decode("utf-8")
        except UnicodeDecodeError:
            return 400, "text/plain", b"policy body must be UTF-8 text\n"
        if not policy_text.strip():
            return (
                400,
                "text/plain",
                b"empty body; POST the candidate policy (DSL or JSON)\n",
            )
        actor = query.get("actor", "") or "cluster-admin-http"
        dry_run = query.get("dry_run", "").lower() in ("1", "true", "yes")
        result = await self.supervisor.reload_cluster(
            policy_text, actor=actor, dry_run=dry_run
        )
        status = 200 if result["accepted"] else 422
        return status, "application/json", json_body(result)


__all__ = ["ClusterAdminServer"]
