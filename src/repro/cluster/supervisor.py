"""The cluster supervisor: spawn, watch, reload, and drain N workers.

One :class:`ClusterSupervisor` process forks N ``repro.cli serve``
workers (each its own interpreter — its own GIL, asyncio loop, PDP,
and admin sidecar, all on ephemeral ports) and fronts them with a
:class:`~repro.cluster.router.ShardRouter`, which answers the
membership clients route decisions by.  The supervisor owns the
control plane:

* **Liveness** — a monitor task probes each worker (process exit and
  a wire ``ping``); a dead worker is reported down in ``members`` at
  once (clients shed its key range with ``DENY_UNAVAILABLE``) while it
  is restarted with exponential backoff.  Worker *names*
  ("w0".."wN-1") are ring slots, so a restart keeps its key range —
  no cluster-wide reshuffle for a crash.
* **Two-phase policy reload** — :meth:`reload_cluster` runs
  ``prepare`` on every worker (parse, lint, diff, *compile*, hold
  warm), and only when all of them accepted fans out ``activate``
  (the cheap, non-rejectable swap).  Any prepare failure aborts every
  prepared candidate: nothing changed anywhere.  The last activated
  text is replayed onto restarted workers, so a crash after a reload
  cannot resurrect the old policy on one shard.
* **Live-ops aggregation** — merged Prometheus metrics (``shard``
  labels), cluster health (including generation-skew detection),
  per-worker request counts, joined traces (workers originate them at
  ``trace_sample_rate``), and interleaved flight-recorder tails, via
  the per-worker control connections.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

import repro
from repro.cluster.liveops import (
    join_trace,
    merge_flight,
    merge_health,
    merge_prometheus,
)
from repro.cluster.router import ShardRouter
from repro.exceptions import ServiceError
from repro.service.client import RemotePDPClient

_SERVING_LINE = re.compile(r"serving .* listening on ([^\s:]+):(\d+)")
_ADMIN_LINE = re.compile(r"admin http listening on ([^\s:]+):(\d+)")


class WorkerHandle:
    """One managed worker: process, ports, control client, history."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.process: Optional[asyncio.subprocess.Process] = None
        self.port: Optional[int] = None
        self.admin_port: Optional[int] = None
        self.state = "starting"  # starting | ready | down | stopped
        self.restarts = 0
        self.probe_failures = 0
        self.started_at = 0.0
        self.log: Deque[str] = deque(maxlen=100)
        self.client: Optional[RemotePDPClient] = None
        self._log_pump: Optional[asyncio.Task] = None
        self._restart_task: Optional[asyncio.Task] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "pid": self.pid,
            "port": self.port,
            "admin_port": self.admin_port,
            "restarts": self.restarts,
            "uptime_s": (
                round(time.monotonic() - self.started_at, 3)
                if self.state == "ready"
                else 0.0
            ),
        }


class ClusterSupervisor:
    """Spawn and operate a shard-routed PDP worker cluster.

    Exactly one of ``policy_path`` / ``store_dir`` boot sources is
    required (both is fine too: the file is the default tenant, the
    store adds tenants).  ``worker_args`` is passed through to every
    worker's ``serve`` command line (PDP tuning flags).
    """

    def __init__(
        self,
        policy_path: Optional[str] = None,
        store_dir: Optional[str] = None,
        workers: int = 4,
        host: str = "127.0.0.1",
        router_port: int = 0,
        vnodes: int = 128,
        probe_interval_s: float = 0.5,
        probe_failure_limit: int = 3,
        restart_backoff_s: float = 0.2,
        restart_backoff_max_s: float = 5.0,
        spawn_timeout_s: float = 30.0,
        drain_timeout_s: float = 5.0,
        worker_args: Sequence[str] = (),
        python: Optional[str] = None,
        trace_sample_rate: float = 0.0,
        audit_dir: Optional[str] = None,
    ) -> None:
        if policy_path is None and store_dir is None:
            raise ServiceError(
                "a cluster needs a policy file or a --store directory"
            )
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if probe_interval_s <= 0 or spawn_timeout_s <= 0:
            raise ServiceError("intervals and timeouts must be > 0")
        self.policy_path = policy_path
        self.store_dir = store_dir
        self.host = host
        self.vnodes = vnodes
        self.probe_interval_s = probe_interval_s
        self.probe_failure_limit = probe_failure_limit
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_max_s = restart_backoff_max_s
        self.spawn_timeout_s = spawn_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.worker_args = list(worker_args)
        self.python = python or sys.executable
        #: Directory for per-worker hash-chained audit logs
        #: (``<audit_dir>/<worker>.audit.jsonl``); ``None`` disables.
        self.audit_dir = audit_dir
        if audit_dir is not None:
            os.makedirs(audit_dir, exist_ok=True)
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ServiceError("trace_sample_rate must be in [0, 1]")
        #: Head-sampling rate every worker originates traces at.
        self.trace_sample_rate = trace_sample_rate
        self.router = ShardRouter(
            host=host,
            port=router_port,
            vnodes=vnodes,
            reload_handler=self._wire_reload,
        )
        self._workers: Dict[str, WorkerHandle] = {
            f"w{i}": WorkerHandle(f"w{i}") for i in range(workers)
        }
        self._monitor_task: Optional[asyncio.Task] = None
        self._running = False
        #: The text activated by the last successful cluster reload —
        #: replayed onto restarted workers so a post-reload crash
        #: cannot bring the old policy back on one shard.
        self._current_policy_text: Optional[str] = None
        self.reloads_accepted = 0
        self.reloads_rejected = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusterSupervisor":
        self._running = True
        spawned = await asyncio.gather(
            *(self._spawn(worker) for worker in self._workers.values()),
            return_exceptions=True,
        )
        failures = [e for e in spawned if isinstance(e, BaseException)]
        if failures:
            await self.stop(drain=False)
            raise ServiceError(
                f"cluster failed to start: {failures[0]}"
            ) from failures[0]
        try:
            await self.router.start()
        except Exception as exc:
            # The workers are already up; leaving them running after a
            # failed router bind would orphan N serve processes.
            await self.stop(drain=False)
            raise ServiceError(f"cluster failed to start: {exc}") from exc
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor()
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Drain (or abort) the router, then SIGTERM every worker."""
        self._running = False
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for worker in self._workers.values():
            if worker._restart_task is not None:
                worker._restart_task.cancel()
        try:
            if drain:
                await self.router.drain(self.drain_timeout_s)
            else:
                await self.router.stop()
        except ServiceError:
            pass
        await asyncio.gather(
            *(self._stop_worker(w) for w in self._workers.values())
        )

    async def _stop_worker(self, worker: WorkerHandle) -> None:
        worker.state = "stopped"
        if worker.client is not None:
            await worker.client.close()
            worker.client = None
        process = worker.process
        if process is not None and process.returncode is None:
            process.terminate()  # workers installed a SIGTERM drain
            try:
                await asyncio.wait_for(
                    process.wait(), self.drain_timeout_s + 2.0
                )
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        if worker._log_pump is not None:
            worker._log_pump.cancel()
            worker._log_pump = None

    async def __aenter__(self) -> "ClusterSupervisor":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _worker_argv(self, worker: WorkerHandle) -> List[str]:
        argv = [self.python, "-m", "repro.cli", "serve"]
        if self.policy_path is not None:
            argv.append(self.policy_path)
        if self.store_dir is not None:
            # Workers share the supervisor-side store directory
            # read-only; the writer (CLI / admin) appends, readers
            # follow the log.
            argv += ["--store", self.store_dir, "--store-reader"]
        argv += [
            "--host", self.host,
            "--port", "0",
            "--admin-port", "0",
            "--drain-timeout", str(self.drain_timeout_s),
        ]
        if self.trace_sample_rate > 0:
            argv += ["--trace-sample-rate", str(self.trace_sample_rate)]
        if self.audit_dir is not None:
            # One chain per worker: a restarted worker resumes its own
            # file's head, so the chain survives crashes without any
            # cross-worker hash coordination.
            argv += [
                "--audit-file",
                os.path.join(
                    self.audit_dir, f"{worker.name}.audit.jsonl"
                ),
            ]
        argv += self.worker_args
        return argv

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_dir if not existing
            else src_dir + os.pathsep + existing
        )
        return env

    async def _spawn(self, worker: WorkerHandle) -> None:
        worker.state = "starting"
        worker.probe_failures = 0
        process = await asyncio.create_subprocess_exec(
            *self._worker_argv(worker),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=self._worker_env(),
        )
        worker.process = process
        try:
            await asyncio.wait_for(
                self._await_ready(worker), self.spawn_timeout_s
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            process.kill()
            await process.wait()
            tail = " | ".join(list(worker.log)[-5:])
            raise ServiceError(
                f"worker {worker.name} did not become ready within "
                f"{self.spawn_timeout_s}s: {tail}"
            ) from None
        worker._log_pump = asyncio.get_running_loop().create_task(
            self._pump_log(worker)
        )
        worker.client = await RemotePDPClient.connect(
            self.host, worker.port
        )
        if self._current_policy_text is not None:
            # The boot source predates the last cluster reload; heal
            # the fresh worker before it takes traffic.
            result = await worker.client.reload(
                self._current_policy_text, actor="supervisor-restart"
            )
            if not result["accepted"]:
                raise ServiceError(
                    f"worker {worker.name} rejected the current "
                    f"cluster policy on restart: {result['error']}"
                )
        worker.state = "ready"
        worker.started_at = time.monotonic()
        self.router.set_worker(worker.name, self.host, worker.port)

    async def _await_ready(self, worker: WorkerHandle) -> None:
        """Parse readiness lines until both ports are known."""
        assert worker.process is not None and worker.process.stdout
        worker.port = None
        worker.admin_port = None
        while worker.port is None or worker.admin_port is None:
            raw = await worker.process.stdout.readline()
            if not raw:
                raise asyncio.IncompleteReadError(b"", None)
            line = raw.decode("utf-8", "replace").rstrip()
            worker.log.append(line)
            serving = _SERVING_LINE.search(line)
            if serving:
                worker.port = int(serving.group(2))
            admin = _ADMIN_LINE.search(line)
            if admin:
                worker.admin_port = int(admin.group(2))

    async def _pump_log(self, worker: WorkerHandle) -> None:
        """Keep draining worker stdout so the pipe never fills."""
        process = worker.process
        assert process is not None and process.stdout
        try:
            while True:
                raw = await process.stdout.readline()
                if not raw:
                    return
                worker.log.append(raw.decode("utf-8", "replace").rstrip())
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # Monitoring and restart
    # ------------------------------------------------------------------
    async def _monitor(self) -> None:
        while self._running:
            await asyncio.sleep(self.probe_interval_s)
            for worker in self._workers.values():
                if worker.state in ("stopped", "down"):
                    continue
                process = worker.process
                if process is not None and process.returncode is not None:
                    self._declare_down(
                        worker, f"exited {process.returncode}"
                    )
                    continue
                if worker.state != "ready" or worker.client is None:
                    continue
                try:
                    await asyncio.wait_for(worker.client.ping(), 2.0)
                    worker.probe_failures = 0
                except (ServiceError, OSError, asyncio.TimeoutError):
                    worker.probe_failures += 1
                    if worker.probe_failures >= self.probe_failure_limit:
                        if process is not None and process.returncode is None:
                            process.kill()
                        self._declare_down(worker, "unresponsive")

    def _declare_down(self, worker: WorkerHandle, reason: str) -> None:
        if (
            worker.state == "ready"
            and time.monotonic() - worker.started_at > 30.0
        ):
            worker.restarts = 0  # it ran long enough: fresh backoff
        worker.state = "down"
        worker.log.append(f"[supervisor] worker down: {reason}")
        try:
            self.router.mark_worker_down(worker.name)
        except ServiceError:
            pass
        if worker._restart_task is None or worker._restart_task.done():
            worker._restart_task = asyncio.get_running_loop().create_task(
                self._restart(worker)
            )

    async def _restart(self, worker: WorkerHandle) -> None:
        if worker.client is not None:
            await worker.client.close()
            worker.client = None
        if worker._log_pump is not None:
            worker._log_pump.cancel()
            worker._log_pump = None
        while self._running:
            backoff = min(
                self.restart_backoff_s * (2 ** worker.restarts),
                self.restart_backoff_max_s,
            )
            await asyncio.sleep(backoff)
            if not self._running:
                return
            worker.restarts += 1
            try:
                await self._spawn(worker)
            except (ServiceError, OSError) as error:
                worker.log.append(f"[supervisor] restart failed: {error}")
                continue
            # A worker that stays up long enough earns its backoff
            # reset on the *next* crash, via started_at below.
            return

    # ------------------------------------------------------------------
    # Two-phase cluster reload
    # ------------------------------------------------------------------
    async def reload_cluster(
        self,
        policy_text: str,
        actor: str = "cluster",
        dry_run: bool = False,
    ) -> Dict[str, Any]:
        """Prepare everywhere; activate everywhere or nothing.

        Phase one runs ``reload_prepare`` on every ready worker — each
        parses, lints, diffs, and compiles the candidate while still
        serving the old policy.  Only if *all* of them accepted does
        phase two ``reload_activate`` the held candidates (an atomic
        in-worker swap); otherwise every prepared candidate is
        aborted and the cluster is untouched.  With ``dry_run`` the
        prepare fan-out runs and everything is aborted regardless —
        cluster-wide validation with zero risk.

        :returns: ``{"accepted", "phase", "error", "dry_run",
            "workers": {name: {...}}, "generations": {name: gen}}``.
        """
        workers = [
            w for w in self._workers.values() if w.state == "ready"
        ]
        absent = sorted(
            w.name for w in self._workers.values() if w.state != "ready"
        )
        if absent:
            # Activating around a down worker would fork generations
            # the moment it restarts with the older boot source.
            self.reloads_rejected += 1
            return {
                "accepted": False,
                "phase": "prepare",
                "dry_run": dry_run,
                "error": f"workers not ready: {', '.join(absent)}",
                "workers": {},
                "generations": {},
            }

        async def prepare(worker: WorkerHandle) -> Dict[str, Any]:
            assert worker.client is not None
            return await worker.client.reload_prepare(policy_text, actor)

        prepared = await asyncio.gather(
            *(prepare(w) for w in workers), return_exceptions=True
        )
        per_worker: Dict[str, Any] = {}
        tokens: Dict[str, str] = {}
        failed = False
        first_error = ""
        for worker, outcome in zip(workers, prepared):
            if isinstance(outcome, BaseException):
                failed = True
                first_error = first_error or str(outcome)
                per_worker[worker.name] = {
                    "accepted": False, "error": str(outcome)
                }
                continue
            per_worker[worker.name] = outcome
            if outcome["accepted"] and outcome["token"]:
                tokens[worker.name] = outcome["token"]
            else:
                failed = True
                first_error = first_error or outcome["error"]
        if failed or dry_run:
            # Abort everything that *was* prepared: all-or-nothing.
            for worker in workers:
                token = tokens.get(worker.name)
                if token is None or worker.client is None:
                    continue
                try:
                    await worker.client.reload_abort(token, actor)
                except (ServiceError, OSError):
                    pass  # worker will evict it FIFO; nothing active
            accepted = dry_run and not failed
            if accepted:
                self.reloads_accepted += 1
            else:
                self.reloads_rejected += 1
            return {
                "accepted": accepted,
                "phase": "prepare",
                "dry_run": dry_run,
                "error": first_error,
                "workers": per_worker,
                "generations": {},
            }

        async def activate(worker: WorkerHandle) -> Dict[str, Any]:
            assert worker.client is not None
            return await worker.client.reload_activate(
                tokens[worker.name], actor
            )

        activated = await asyncio.gather(
            *(activate(w) for w in workers), return_exceptions=True
        )
        generations: Dict[str, Any] = {}
        all_activated = True
        for worker, outcome in zip(workers, activated):
            if isinstance(outcome, BaseException):
                all_activated = False
                first_error = first_error or str(outcome)
                per_worker[worker.name] = {
                    "accepted": False, "error": str(outcome)
                }
                continue
            per_worker[worker.name] = outcome
            if outcome["accepted"]:
                generations[worker.name] = outcome["generation"]
            else:
                all_activated = False
                first_error = first_error or outcome["error"]
        if all_activated:
            self._current_policy_text = policy_text
            self.reloads_accepted += 1
        else:
            # Prepare succeeded everywhere, so activation can only
            # fail on a worker that died mid-swap; its restart replays
            # _current_policy_text... which must therefore be the NEW
            # text only if someone activated it.  If *any* worker
            # activated, converge forward; if none did, stay put.
            if generations:
                self._current_policy_text = policy_text
            self.reloads_rejected += 1
        return {
            "accepted": all_activated,
            "phase": "activate",
            "dry_run": False,
            "error": "" if all_activated else first_error,
            "workers": per_worker,
            "generations": generations,
        }

    async def _wire_reload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The router's reload handler: cluster two-phase over the wire."""
        op = payload.get("op")
        if op != "reload":
            return {
                "accepted": False,
                "error": f"{op!r} is supervisor-internal; send a "
                "'reload' op to the cluster",
            }
        policy_text = payload.get("policy")
        if not isinstance(policy_text, str) or not policy_text:
            return {
                "accepted": False,
                "error": "cluster reload requires 'policy' text "
                "(store-backed refresh goes through the store writer)",
            }
        actor = payload.get("actor")
        result = await self.reload_cluster(
            policy_text,
            actor=actor if isinstance(actor, str) and actor else "wire",
            dry_run=bool(payload.get("dry_run", False)),
        )
        result["record"] = {}  # shape-compatible with single-server reload
        return result

    # ------------------------------------------------------------------
    # Live-ops aggregation
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Worker table, router view and reload counters (no I/O)."""
        return {
            "workers": {
                name: self._workers[name].describe()
                for name in sorted(self._workers)
            },
            "router": self.router.stats(),
            "reloads": {
                "accepted": self.reloads_accepted,
                "rejected": self.reloads_rejected,
            },
        }

    async def cluster_status(self) -> Dict[str, Any]:
        """:meth:`status` plus each worker's request count under
        ``router.workers.<name>.routed`` — decisions reach workers
        directly, so the workers' own counters are the routed ones."""
        status = self.status()
        reports = await self._each_ready(lambda c: c.stats())
        for name, row in status["router"]["workers"].items():
            report = reports.get(name)
            row["routed"] = report["requests"] if report else 0
        return status

    async def _each_ready(self, call) -> Dict[str, Any]:
        """``{name: result-or-None}`` of ``call(client)`` per worker."""
        workers = sorted(self._workers)

        async def one(name: str) -> Any:
            worker = self._workers[name]
            if worker.state != "ready" or worker.client is None:
                return None
            try:
                return await asyncio.wait_for(call(worker.client), 5.0)
            except (ServiceError, OSError, asyncio.TimeoutError):
                return None

        results = await asyncio.gather(*(one(name) for name in workers))
        return dict(zip(workers, results))

    async def cluster_health(self) -> Dict[str, Any]:
        reports = await self._each_ready(lambda c: c.health())
        merged = merge_health(reports)
        merged["router"] = self.router.stats()
        return merged

    async def cluster_metrics(self) -> Dict[str, Any]:
        reports = await self._each_ready(lambda c: c.metrics())
        texts = {
            name: report["prometheus"]
            for name, report in reports.items()
            if report is not None
        }
        return {
            "prometheus": merge_prometheus(texts),
            "json": {
                name: (None if report is None else report["json"])
                for name, report in reports.items()
            },
        }

    async def cluster_trace(self, trace_id: str) -> Dict[str, Any]:
        """Join one trace across every ready worker.

        Each worker is asked over the control connection for the spans
        its PDP retained (``pdp.decide`` / ``pdp.cache_hit``); the
        result is one waterfall-ordered span list (see
        :func:`~repro.cluster.liveops.join_trace`) — the cross-process
        view no single process can produce alone.
        """
        reports = await self._each_ready(lambda c: c.trace(trace_id))
        spans = join_trace(reports)
        return {
            "trace_id": trace_id,
            "spans": spans,
            "span_count": len(spans),
            "services": sorted(
                {span.get("service") or "" for span in spans} - {""}
            ),
        }

    async def cluster_traces(self, limit: int = 50) -> List[str]:
        """Recent trace ids the workers retained, newest first per
        worker, interleaved across workers."""
        reports = await self._each_ready(lambda c: c.traces(limit))
        lists = [ids for _, ids in sorted(reports.items()) if ids]
        merged: List[str] = []
        for row in itertools.zip_longest(*lists):
            merged += [trace_id for trace_id in row
                       if trace_id is not None and trace_id not in merged]
        return merged[:limit]

    async def cluster_tail(
        self, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        reports = await self._each_ready(lambda c: c.dump(limit=limit))
        tails = {
            name: report
            for name, report in reports.items()
            if report is not None
        }
        return merge_flight(tails, limit=limit)


__all__ = ["ClusterSupervisor", "WorkerHandle"]
