"""``repro cluster start`` under an early SIGTERM: no orphaned workers.

The supervisor used to install its SIGTERM/SIGINT handlers only after
every worker was forked and readiness was printed; a signal in that gap
met the default disposition, killed the supervisor and left N ``repro
serve`` processes running with nobody to stop them.  These tests start
the real CLI in its own process group, signal it at the two worst
moments, and require a clean exit with the whole group gone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
POLICY_PATH = os.path.join(ROOT, "examples", "policies", "entertainment.grbac")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

pytestmark = pytest.mark.skipif(
    not os.path.exists(POLICY_PATH) or not os.path.isdir("/proc/self"),
    reason="needs the example policy and /proc",
)


def group_members(pgid: int) -> "list[int]":
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != b"Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def start_cluster() -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "cluster", "start",
            POLICY_PATH, "--port", "0", "--workers", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # pgid == pid: the workers share it
    )


def wait_until(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


@pytest.mark.parametrize("moment", ["first-worker-forked", "first-readiness-line"])
def test_early_sigterm_leaves_no_worker_behind(moment: str) -> None:
    process = start_cluster()
    try:
        if moment == "first-worker-forked":
            # Mid-start: at least one worker exists, none is ready yet.
            wait_until(lambda: len(group_members(process.pid)) > 1)
        else:
            line = process.stdout.readline()
            assert "listening on" in line, line
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 0, output
        assert "cluster stopped" in output
        wait_until(lambda: not group_members(process.pid), timeout_s=10.0)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        process.stdout.close()
