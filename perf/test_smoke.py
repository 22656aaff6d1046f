"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Outside tier-1's ``testpaths`` on purpose: it boots real servers and
takes about a minute.  A ``--quick`` pass of every workload, untraced
and traced, must emit every metric ``BENCHMARK.json`` names, with its
unit, and fail no operation.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def invoke(cwd, *arguments):
    return subprocess.run(
        [sys.executable, "-m", "perf", "run", *arguments],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def passes():
    """(workload, trace) -> (the contract's last line, the result file)."""
    made = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = invoke(ROOT, "--workload", workload, "--seed", str(SEED),
                          "--quick", "--trace", str(trace))
            assert done.returncode == 0, done.stdout + done.stderr
            path = os.path.join(
                ROOT, "perf", "out",
                f"result-{workload}-seed{SEED}-trace{trace}.json",
            )
            with open(path, encoding="utf-8") as handle:
                made[workload, trace] = (
                    json.loads(done.stdout.strip().splitlines()[-1]),
                    json.load(handle),
                )
    return made


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(
    passes, workload, trace, section
):
    line, result = passes[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, result["failures"]
    assert result["failed_share"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {entry["name"] for entry in SPEC[section]}
    for entry in SPEC[section]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
        if section == "end_to_end":
            assert line["metrics"][entry["name"]]["value"] > 0, entry["name"]


def test_every_layer_metric_is_measured_on_some_workload(passes):
    """The contract line reads 0 where a layer is not on the workload's
    path; no metric may read 0 everywhere because nothing measures it."""
    measured = set()
    for workload in WORKLOADS:
        measured |= set(passes[workload, 1][1]["metrics"])
    missing = {entry["name"] for entry in SPEC["per_layer"]} - measured
    assert not missing


def test_the_routed_stream_is_the_served_stream(passes):
    digests = {
        passes[workload, 0][1]["notes"]["open_stream_digest"]
        for workload in ("served-hot", "cluster-routed")
    }
    assert len(digests) == 1


def test_refuses_to_run_without_the_product(tmp_path):
    """In a directory holding only the benchmark: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = invoke(tmp_path, "--workload", "served-hot", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
