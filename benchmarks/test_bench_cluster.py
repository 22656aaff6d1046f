"""E14 — cluster scaling and cluster-wide two-phase reload under load.

Two claims about the multi-worker PDP cluster are measured against
real forked workers behind the shard router:

* **Scaling** — with shard-affine keys (the router hashes tenant else
  subject, so a subject's whole stream lands on one worker and stays
  in that worker's decision cache), a 4-worker cluster should sustain
  at least ``SCALING_GATE``x the throughput of a 1-worker cluster
  *when the host actually has cores to scale onto*.  The gate is
  asserted only on hosts with >= 4 usable CPUs; on smaller machines
  the ratio is still measured and reported (workers just time-slice
  one core).
* **Reload correctness under load** (always asserted) — a cluster-wide
  two-phase reload driven mid-load must lose nothing: zero errors,
  zero drops, zero unavailable sheds, and zero mixed-generation
  answers — per shard, the flip from old-policy answers to new-policy
  answers happens exactly once, and afterwards every worker reports
  the same generation.

Machine-readable results go to ``benchmarks/reports/BENCH_cluster.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.cluster import ClusterSupervisor
from repro.core import AccessRequest
from repro.policy.admin import load_policy_text
from repro.service import (
    LoadgenConfig,
    PDPOutcome,
    RemotePDPClient,
    build_stream,
    compute_expected,
    run_loadgen,
)

SCALING_GATE = 2.5  # 4 workers vs 1, only gated with >= 4 CPUs
HOMES = 64
UNIQUE_REQUESTS = 400
REPEAT = 2
CONCURRENCY = 32

#: Probe subjects for the reload phase — spread across shards.
PROBES = 8


def build_policy_text(homes: int) -> str:
    """A §5.1-shaped entertainment policy instanced across homes.

    Written as DSL text (not a built policy object) because cluster
    workers are separate processes booting from a policy *file*.
    """
    lines = [
        "subject role family-member",
        "subject role parent extends family-member",
        "subject role child extends family-member",
        "object role entertainment-devices",
        "object role game-devices extends entertainment-devices",
        "environment role free-time",
    ]
    for i in range(homes):
        lines.append(f"subject mom-{i} is parent")
        lines.append(f"subject alice-{i} is child")
        lines.append(f"object home{i}/tv is entertainment-devices")
        lines.append(f"object home{i}/console is game-devices")
    lines += [
        "allow child to watch on entertainment-devices when free-time",
        "allow parent to watch, power_on on entertainment-devices",
        "precedence deny-overrides",
        "default deny",
    ]
    return "\n".join(lines) + "\n"


#: The reload flips this probe from DENY to GRANT on every shard.
NEW_RULE = "allow child to power_on on game-devices when free-time\n"


def probe_request(i: int) -> AccessRequest:
    return AccessRequest(
        "power_on", f"home{i}/console", subject=f"alice-{i}"
    )


def measure_cluster(policy_path, policy, stream, expected, workers):
    """Best-of-2 verified loadgen runs through a ``workers``-cluster."""

    loadgen_config = LoadgenConfig(
        requests=UNIQUE_REQUESTS,
        concurrency=CONCURRENCY,
        seed=14,
        repeat=REPEAT,
    )

    async def scenario():
        async with ClusterSupervisor(
            policy_path=str(policy_path),
            workers=workers,
            probe_interval_s=0.5,
            drain_timeout_s=2.0,
        ) as sup:
            client = await RemotePDPClient.connect(
                "127.0.0.1", sup.router.port, wire="binary"
            )
            try:
                warm = await run_loadgen(
                    client, stream, loadgen_config, expected=expected
                )
                assert warm.ok, "verification failed during cluster warmup"
                best = None
                for _ in range(2):
                    result = await run_loadgen(
                        client, stream, loadgen_config, expected=expected
                    )
                    assert result.ok, "stale answer or drop through router"
                    assert result.errors == 0
                    assert result.unavailable == 0
                    if (
                        best is None
                        or result.throughput_rps > best.throughput_rps
                    ):
                        best = result
            finally:
                await client.close()
            status = await sup.cluster_status()
            routed = {
                name: row["routed"]
                for name, row in status["router"]["workers"].items()
            }
        return best, routed

    return asyncio.run(scenario())


def reload_under_load(policy_path, old_text):
    """Drive probes continuously while the cluster reloads under them.

    :returns: ``(per-probe outcome timelines, health after, tallies)``
        where each timeline is the ordered list of granted booleans
        that probe observed across the reload.
    """
    new_text = old_text + NEW_RULE

    async def scenario():
        async with ClusterSupervisor(
            policy_path=str(policy_path),
            workers=4,
            probe_interval_s=0.5,
            drain_timeout_s=2.0,
        ) as sup:
            client = await RemotePDPClient.connect(
                "127.0.0.1", sup.router.port, wire="binary"
            )
            timelines = {i: [] for i in range(PROBES)}
            tallies = {"decided": 0, "errors": 0, "unavailable": 0}
            stop = asyncio.Event()

            async def hammer(i: int) -> None:
                request = probe_request(i)
                while not stop.is_set():
                    try:
                        response = await client.decide(
                            request, environment_roles={"free-time"}
                        )
                    except Exception:
                        tallies["errors"] += 1
                        continue
                    if response.outcome is PDPOutcome.DENY_UNAVAILABLE:
                        tallies["unavailable"] += 1
                        continue
                    tallies["decided"] += 1
                    timelines[i].append(response.granted)

            drivers = [
                asyncio.get_running_loop().create_task(hammer(i))
                for i in range(PROBES)
            ]
            await asyncio.sleep(0.5)  # steady old-policy traffic first
            reload_started = time.perf_counter()
            result = await sup.reload_cluster(new_text, actor="bench-e14")
            reload_s = time.perf_counter() - reload_started
            assert result["accepted"], result["error"]
            await asyncio.sleep(0.5)  # steady new-policy traffic after
            stop.set()
            await asyncio.gather(*drivers)
            await client.close()
            health = await sup.cluster_health()
        return timelines, health, tallies, result, reload_s

    return asyncio.run(scenario())


def test_bench_cluster(benchmark, report, tmp_path):
    old_text = build_policy_text(HOMES)
    policy_path = tmp_path / "e14.grbac"
    policy_path.write_text(old_text, encoding="utf-8")
    policy = load_policy_text(old_text, name="e14")

    loadgen_config = LoadgenConfig(
        requests=UNIQUE_REQUESTS, concurrency=CONCURRENCY, seed=14,
        repeat=REPEAT,
    )
    stream = build_stream(policy, loadgen_config)
    expected = compute_expected(policy, stream)

    cpus = len(os.sched_getaffinity(0))
    rows = [
        "E14 Cluster scaling and two-phase reload under load",
        f"  policy: {HOMES} homes, "
        f"{policy.stats()['permissions']} permissions; "
        f"stream: {len(stream)} requests, {CONCURRENCY} closed-loop "
        f"workers, binary wire through the shard router",
        f"  host: {cpus} usable CPU(s)",
        "",
        f"  {'cluster':>10}{'req/s':>10}{'p50 us':>9}{'p95 us':>9}"
        f"{'shards hit':>12}",
    ]

    records = {}
    for workers in (1, 4):
        result, routed = measure_cluster(
            policy_path, policy, stream, expected, workers
        )
        active = sum(1 for count in routed.values() if count > 0)
        rows.append(
            f"  {workers:>8}w{'':>1}{result.throughput_rps:>10,.0f}"
            f"{result.latency_us(0.5):>9.1f}"
            f"{result.latency_us(0.95):>9.1f}{active:>12}"
        )
        records[f"workers_{workers}"] = {
            "throughput_rps": round(result.throughput_rps, 1),
            "latency_p50_us": round(result.latency_us(0.5), 1),
            "latency_p95_us": round(result.latency_us(0.95), 1),
            "completed": result.completed,
            "mismatches": result.mismatches,
            "errors": result.errors,
            "unavailable": result.unavailable,
            "shards_hit": active,
            "routed": routed,
        }

    scaling = (
        records["workers_4"]["throughput_rps"]
        / records["workers_1"]["throughput_rps"]
    )
    gated = cpus >= 4
    rows.append(
        f"  4-worker vs 1-worker: {scaling:.2f}x "
        + (
            f"(gate {SCALING_GATE}x, {cpus} CPUs)"
            if gated
            else f"(gate waived: only {cpus} CPU(s); workers time-slice)"
        )
    )
    assert records["workers_4"]["shards_hit"] == 4, (
        "shard-affine keys did not reach all four workers: "
        f"{records['workers_4']['routed']}"
    )
    if gated:
        assert scaling >= SCALING_GATE, (
            f"4-worker cluster is only {scaling:.2f}x a single worker "
            f"with shard-affine keys on a {cpus}-CPU host; the "
            f"acceptance gate is {SCALING_GATE}x"
        )

    # ---- two-phase reload under load (always gated) --------------------
    timelines, health, tallies, result, reload_s = reload_under_load(
        policy_path, old_text
    )
    flips = {}
    for i, timeline in timelines.items():
        assert timeline, f"probe {i} observed no decisions"
        # Old policy answers False, new policy answers True; a clean
        # per-shard cutover is False...False True...True — exactly one
        # flip, never back.  Anything else is a mixed-generation shard
        # or a resurrected old policy.
        transitions = sum(
            1
            for a, b in zip(timeline, timeline[1:])
            if a != b
        )
        assert timeline[0] is False, f"probe {i} started on the new policy"
        assert timeline[-1] is True, f"probe {i} never saw the new policy"
        assert transitions == 1, (
            f"probe {i} flipped {transitions} times — mixed-generation "
            f"answers during the reload"
        )
        flips[i] = timeline.index(True)
    assert tallies["errors"] == 0, tallies
    assert tallies["unavailable"] == 0, tallies
    assert health["healthy"] and health["generations"] == [1], health
    assert result["generations"] == {f"w{i}": 1 for i in range(4)}

    rows += [
        "",
        "  two-phase reload under load (4 workers, 8 shard-affine probes):",
        f"    decided {tallies['decided']} probes across the reload; "
        f"0 errors, 0 unavailable, 0 drops",
        f"    every probe flipped deny->grant exactly once; cluster "
        f"converged to generation 1 everywhere in {reload_s * 1000:.0f} ms",
        "",
        "shape: shard affinity keeps each subject's stream on one "
        "worker (and in that worker's decision cache); prepare runs the "
        "full validation pipeline on every worker while the old policy "
        "serves, and activate is a per-worker atomic swap — so the only "
        "observable transition is each shard's single deny->grant flip, "
        "with no window where a request errors or sheds.",
    ]

    json_path = os.path.join(
        os.path.dirname(__file__), "reports", "BENCH_cluster.json"
    )
    os.makedirs(os.path.dirname(json_path), exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "experiment": "E14-cluster",
                "homes": HOMES,
                "cpus": cpus,
                "clusters": records,
                "scaling_4w_over_1w": round(scaling, 2),
                "scaling_gate": SCALING_GATE,
                "scaling_gate_asserted": gated,
                "reload_under_load": {
                    "probes": PROBES,
                    "decided": tallies["decided"],
                    "errors": tallies["errors"],
                    "unavailable": tallies["unavailable"],
                    "reload_ms": round(reload_s * 1000, 1),
                    "generations": result["generations"],
                    "flip_indexes": flips,
                },
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    rows.append(f"machine-readable results written to {json_path}")

    # pytest-benchmark hook: steady-state shard routing (the only hot
    # cluster-side cost that doesn't need live subprocesses).
    ring = __import__(
        "repro.cluster.ring", fromlist=["ConsistentHashRing"]
    ).ConsistentHashRing([f"w{i}" for i in range(4)])
    keys = [f"alice-{i}" for i in range(HOMES)]

    def route_all():
        for key in keys:
            ring.route(key)

    benchmark(route_all)
    report("E14-cluster", rows)
