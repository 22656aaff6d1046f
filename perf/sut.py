"""The system under test as operator-started processes.

``repro serve`` and ``repro cluster start`` are spawned exactly as an
operator would start them (``python -m repro.cli ...``), readiness is
parsed from their stdout, CPU and peak memory are read per process
from ``/proc``, and teardown is guaranteed: every SUT lives in its own
process group that is killed if the graceful stop leaves anything
behind, also when the benchmark itself dies.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perf", "out")

_TICK = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on ([\w.]+):(\d+)")
_ADMIN = re.compile(r"admin http listening on ([\w.]+):(\d+)")
_WORKER = re.compile(r"worker (\w+) pid (\d+) on port (\d+)")

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

_live: List["Sut"] = []


def _partition() -> Tuple[set, set]:
    """(CPUs for the SUT, CPUs for the load generator).

    On the 2-CPU bench box the scheduler can leave two runnable
    processes on one CPU for over a second before it balances them,
    which reads as a latency spike or a late generator.  Each side gets
    its own CPUs instead: the generator the last one, the SUT the rest.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


SUT_CPUS, GENERATOR_CPUS = _partition()


def pin(cpus: set) -> None:
    """Pin the calling thread, and every thread and process it starts;
    a host that forbids it gets the same run, unpinned."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def require_product() -> None:
    """Make ``repro`` importable, or exit: the benchmark measures the
    product in this checkout and has nothing to say without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        sys.exit(f"perf: no product to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def product_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def fingerprint() -> Dict[str, object]:
    """What a number must be read against: the host that produced it."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "sut_cpus": sorted(SUT_CPUS),
        "generator_cpus": sorted(GENERATOR_CPUS),
    }


def cpu_seconds(pid: int) -> float:
    """user+sys CPU of ``pid`` so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name may hold spaces; fields count from the ")".
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Sut:
    """One started product: where to connect and which pids do the work.

    ``pids`` maps a role (``worker0``, ``worker1``, ``router``) to its
    process; the cluster's ``router`` process also holds the supervisor.
    """

    def __init__(self, argv: List[str]) -> None:
        self.spawned_at = time.perf_counter()
        pin(SUT_CPUS)  # inherited by the child and by its workers
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=product_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,  # its own group: workers die with it
        )
        pin(GENERATOR_CPUS)
        _live.append(self)
        self.host = "127.0.0.1"
        self.port = 0
        self.admin: Optional[Tuple[str, int]] = None
        self.pids: Dict[str, int] = {}
        self.worker_ports: Dict[str, int] = {}
        self.log: List[str] = []

    def _readline(self, deadline: float) -> str:
        if time.perf_counter() > deadline:
            raise RuntimeError("SUT not ready in time:\n" + "".join(self.log))
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"SUT exited ({self.process.poll()}) before readiness:\n"
                + "".join(self.log)
            )
        self.log.append(line)
        return line

    def await_ready(self, workers: int = 0) -> "Sut":
        """Block until the readiness lines appeared.  ``workers`` > 0
        reads a cluster's banner: router port, admin port, worker pids."""
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            found = _LISTENING.search(self._readline(deadline))
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                break
        if not workers:
            self.pids["worker0"] = self.process.pid
            self.worker_ports["worker0"] = self.port
            return self
        self.pids["router"] = self.process.pid
        while len(self.worker_ports) < workers:
            line = self._readline(deadline)
            found = _ADMIN.search(line)
            if found:
                self.admin = (found.group(1), int(found.group(2)))
            found = _WORKER.search(line)
            if found:
                role = f"worker{len(self.worker_ports)}"
                self.pids[role] = int(found.group(2))
                self.worker_ports[role] = int(found.group(3))
        return self

    def cpu(self) -> Dict[str, float]:
        return {role: cpu_seconds(pid) for role, pid in self.pids.items()}

    def peak_rss(self) -> Dict[str, float]:
        return {role: peak_rss_mb(pid) for role, pid in self.pids.items()}

    def cluster_status(self) -> Dict[str, object]:
        host, port = self.admin
        with urllib.request.urlopen(
            f"http://{host}:{port}/status", timeout=10
        ) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        """SIGTERM, wait, then kill whatever is left of the group."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()
        for pid in self.pids.values():  # reaped by init once killed
            deadline = time.perf_counter() + STOP_TIMEOUT_S
            while _alive(pid):
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"SUT process {pid} survived teardown")
                time.sleep(0.01)
        if self in _live:
            _live.remove(self)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def serve(policy_path: str, *extra: str) -> Sut:
    """``repro serve`` with product defaults; only the admission bound
    is raised so a closed loop is never shed."""
    return Sut(
        ["serve", policy_path, "--port", "0", "--max-queue", "65536", *extra]
    ).await_ready()


def cluster(policy_path: str, workers: int = 2) -> Sut:
    return Sut(
        [
            "cluster", "start", policy_path, "--port", "0",
            "--workers", str(workers),
            "--worker-arg=--max-queue=65536",
        ]
    ).await_ready(workers)


def write_policy(name: str, text: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _kill_all() -> None:
    for sut in list(_live):
        try:
            os.killpg(sut.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _on_signal(signum: int, _frame: object) -> None:
    sys.exit(128 + signum)  # unwinds through finally blocks, then atexit


def install_cleanup() -> None:
    """No SUT outlives the benchmark, however the benchmark ends; the
    benchmark itself runs on the generator's CPUs."""
    pin(GENERATOR_CPUS)
    atexit.register(_kill_all)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
