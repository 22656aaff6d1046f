"""The operator surface the benchmark drives, on real processes.

``perf/`` measures the product only through what an operator has:
the ``repro`` command lines, their readiness lines, the cluster admin
``/status`` document and :class:`RemotePDPClient`.  These tests start
``repro cluster start`` and ``repro serve`` exactly as ``perf/sut.py``
does and walk every one of those surfaces, so a change that keeps the
product working but breaks the benchmark's contract fails here.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import AccessRequest
from repro.service import PDPOutcome, RemotePDPClient

ROOT = Path(__file__).resolve().parents[2]
POLICY = ROOT / "examples" / "policies" / "entertainment.grbac"

# The three readiness line shapes perf/sut.py parses.
LISTENING = re.compile(r"listening on ([\w.]+):(\d+)")
ADMIN = re.compile(r"admin http listening on ([\w.]+):(\d+)")
WORKER = re.compile(r"worker (\w+) pid (\d+) on port (\d+)")

BOOT_TIMEOUT_S = 60.0
STATS_KEYS = ("decided", "batches", "cache_hits", "cache_misses", "shed",
              "timeouts")
FREE_TIME = {"weekday-free-time"}
WATCH_TV = AccessRequest("watch", "livingroom/tv", subject="alice")


class Started:
    """One ``python -m repro.cli ...`` process in its own group."""

    def __init__(self, *argv: str) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self.log: List[str] = []
        self.deadline = time.monotonic() + BOOT_TIMEOUT_S

    def readline(self) -> str:
        assert time.monotonic() < self.deadline, "".join(self.log)
        line = self.process.stdout.readline()
        assert line, f"exited before readiness:\n{''.join(self.log)}"
        self.log.append(line)
        return line

    def listening(self) -> Tuple[str, int]:
        while True:
            found = LISTENING.search(self.readline())
            if found:
                return found.group(1), int(found.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(15.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()


def cluster_banner(started: Started, workers: int):
    """Router address, admin address and worker ports, as perf reads
    them: the first ``listening on`` line is the router's."""
    router = started.listening()
    admin = None
    ports: Dict[str, int] = {}
    while len(ports) < workers:
        line = started.readline()
        found = ADMIN.search(line)
        if found:
            admin = (found.group(1), int(found.group(2)))
        found = WORKER.search(line)
        if found:
            ports[found.group(1)] = int(found.group(3))
    return router, admin, ports


def status(admin: Tuple[str, int]) -> dict:
    with urllib.request.urlopen(
        f"http://{admin[0]}:{admin[1]}/status", timeout=10
    ) as reply:
        return json.loads(reply.read())


def test_cluster_surface_the_benchmark_drives() -> None:
    started = Started(
        "cluster", "start", str(POLICY), "--port", "0", "--workers", "2",
        "--worker-arg=--max-queue=65536",
    )
    try:
        (host, port), admin, ports = cluster_banner(started, 2)
        assert admin is not None and sorted(ports) == ["w0", "w1"]

        async def drive():
            client = await RemotePDPClient.connect(host, port, wire="binary")
            try:
                responses = await asyncio.gather(
                    *(
                        client.decide(
                            AccessRequest("watch", "livingroom/tv",
                                          subject=subject),
                            environment_roles=FREE_TIME,
                        )
                        for subject in ("mom", "dad", "alice", "bobby") * 5
                    )
                )
            finally:
                await client.close()
            stats = {}
            for name, worker_port in ports.items():
                worker = await RemotePDPClient.connect(
                    host, worker_port, wire="binary"
                )
                try:
                    stats[name] = await worker.stats()
                finally:
                    await worker.close()
            return responses, stats

        responses, stats = asyncio.run(drive())
        assert {r.outcome for r in responses} == {PDPOutcome.GRANT}
        for worker_stats in stats.values():
            for key in STATS_KEYS:
                assert isinstance(worker_stats[key], int), key
        assert sum(s["decided"] for s in stats.values()) >= 1

        router = status(admin)["router"]
        routed = {name: row["routed"] for name, row in router["workers"].items()}
        assert sorted(routed) == ["w0", "w1"]
        assert sum(routed.values()) == len(responses)
        assert router["unavailable_synthesized"] == 0
    finally:
        started.stop()


def test_serve_surface_the_benchmark_drives() -> None:
    started = Started(
        "serve", str(POLICY), "--port", "0", "--max-queue", "65536",
        "--continuous", "--sim-start", "2000-01-17T20:00:00",
    )
    try:
        host, port = started.listening()

        async def drive():
            binary = await RemotePDPClient.connect(host, port, wire="binary")
            try:
                pinned = await binary.decide(
                    WATCH_TV, environment_roles=FREE_TIME
                )
                stats = await binary.stats()
            finally:
                await binary.close()
            client = await RemotePDPClient.connect(host, port, wire="json")
            try:
                revoked: List[object] = []
                client.subscribe(revoked.append)
                await client.env(
                    "define_time_role", name="weekday-free-time",
                    start="19:00", end="22:00",
                )
                live = await client.decide(WATCH_TV, subscribe=True)
                flipped = await client.env("advance", seconds=3 * 3600)
            finally:
                await client.close()
            return pinned, stats, live, flipped, revoked

        pinned, stats, live, flipped, revoked = asyncio.run(drive())
        assert pinned.outcome is PDPOutcome.GRANT
        for key in STATS_KEYS:
            assert isinstance(stats[key], int), key
        assert live.outcome is PDPOutcome.GRANT
        assert "weekday-free-time" not in flipped["active"]
        # The env answer came back behind the revoke it caused.
        (revocation,) = revoked
        assert revocation.id == live.id
    finally:
        started.stop()
