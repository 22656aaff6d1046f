"""E12 — decision-service throughput: micro-batched vs one-at-a-time.

Closed-loop load generation against the in-process PDP over a §5.1
entertainment scenario scaled to ~4000 permissions (500 homes, each
with the paper's child/parent entertainment rules and the §3 negative
right on safety-critical devices).  Four service configurations are
measured — the batching and caching axes ablated independently — and
every configuration's answers are verified against a direct,
cache-less :class:`MediationEngine` before its numbers count.

Acceptance gates (asserted, not just reported):

* the full service (micro-batching + warm revision-keyed cache) must
  sustain at least ``THROUGHPUT_GATE``x the throughput of the
  one-request-per-engine-call configuration (``max_batch=1``, cache
  off) at the 4000-permission point;
* the warm cache hit rate of the full service must be at least
  ``HIT_RATE_GATE``.

Machine-readable results go to ``benchmarks/reports/BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

from repro.core import GrbacPolicy
from repro.core.mediation import MediationEngine
from repro.service import (
    LoadgenConfig,
    PDPClient,
    PDPConfig,
    PolicyDecisionPoint,
    build_stream,
    compute_expected,
    run_loadgen,
)
from repro.service.client import RemotePDPClient
from repro.service.server import PDPServer

THROUGHPUT_GATE = 2.0  # batched+cached vs unbatched+uncached
HIT_RATE_GATE = 0.50  # warm cache hit rate of the full service
TRACE_OVERHEAD_GATE = 0.05  # traced (default sampling) vs untraced
DEFAULT_TRACE_SAMPLE_RATE = 0.01  # the rate a production deploy runs at

HOMES = 500  # 8 rules per home -> ~4000 permissions
UNIQUE_REQUESTS = 400
REPEAT = 3  # replays warm the revision-keyed cache
CONCURRENCY = 32
REPEATS = 2  # best-of-N timing runs per configuration


def build_entertainment_policy(homes: int) -> GrbacPolicy:
    """§5.1's entertainment policy, instanced across ``homes`` homes.

    Shared base hierarchy (family-member/parent/child), one role
    family and device set per home, and the same eight rules the
    single-home example ships with — which is how the permission count
    scales in the deployment the paper sketches (§6's "hundreds of
    millions of homes" divided into per-home policies of this shape).
    """
    policy = GrbacPolicy("entertainment-x%d" % homes)
    policy.add_subject_role("family-member")
    policy.add_subject_role("parent")
    policy.add_subject_role("child")
    policy.subject_roles.add_specialization("parent", "family-member")
    policy.subject_roles.add_specialization("child", "family-member")
    for name in ("weekday-free-time", "weekend", "kitchen-occupied"):
        policy.add_environment_role(name)
    for i in range(homes):
        parent_role = policy.add_subject_role(f"parent-{i}").name
        child_role = policy.add_subject_role(f"child-{i}").name
        policy.subject_roles.add_specialization(parent_role, "parent")
        policy.subject_roles.add_specialization(child_role, "child")
        policy.add_subject(f"mom-{i}")
        policy.assign_subject(f"mom-{i}", parent_role)
        policy.add_subject(f"alice-{i}")
        policy.assign_subject(f"alice-{i}", child_role)

        ent = policy.add_object_role(f"entertainment-{i}").name
        tv = policy.add_object_role(f"television-{i}").name
        games = policy.add_object_role(f"game-devices-{i}").name
        safety = policy.add_object_role(f"safety-critical-{i}").name
        policy.object_roles.add_specialization(tv, ent)
        policy.object_roles.add_specialization(games, ent)
        for obj, role in [
            (f"home{i}/tv", tv),
            (f"home{i}/stereo", ent),
            (f"home{i}/console", games),
            (f"home{i}/oven", safety),
        ]:
            policy.add_object(obj)
            policy.assign_object(obj, role)

        policy.grant(child_role, "watch", ent, "weekday-free-time")
        policy.grant(child_role, "power_on", games, "weekend")
        policy.grant(parent_role, "watch", ent)
        policy.grant(parent_role, "power_on", ent)
        policy.grant(parent_role, "power_on", safety, "kitchen-occupied")
        policy.deny(child_role, "power_on", safety)
        policy.grant(child_role, "query_status", ent)
        policy.grant(parent_role, "query_status", safety)
    return policy


def measure(policy, stream, expected, loadgen_config, *, max_batch, cache_size):
    """Best-of-N loadgen runs for one PDP configuration.

    A warming pass precedes the timed passes so cached configurations
    are measured at their steady state; the returned result is the
    fastest timed pass (the PDP and its cache persist across passes).
    """

    async def one_run(pdp, verify):
        client = PDPClient(pdp)
        return await run_loadgen(
            client, stream, loadgen_config,
            expected=expected if verify else None,
        )

    async def scenario():
        engine = MediationEngine(policy)
        pdp = PolicyDecisionPoint(
            engine,
            PDPConfig(
                max_batch=max_batch,
                max_queue=4096,
                cache_size=cache_size,
            ),
        )
        async with pdp:
            warm = await one_run(pdp, verify=True)
            assert warm.ok, "verification failed during warmup"
            best = None
            for _ in range(REPEATS):
                result = await one_run(pdp, verify=True)
                assert result.ok, "stale answer or silent drop while timing"
                if best is None or result.throughput_rps > best.throughput_rps:
                    best = result
        return best, pdp.stats()

    return asyncio.run(scenario())


def measure_wire(policy, stream, expected, loadgen_config, *, wire):
    """Best-of-N loadgen runs against a real TCP server on one wire.

    Same warming-pass discipline as :func:`measure`, but the client
    speaks NDJSON or binary framing over a loopback socket, so the
    numbers include encode/decode and event-loop I/O — exactly the
    costs the binary lane exists to shrink.
    """

    async def one_run(client, verify):
        return await run_loadgen(
            client, stream, loadgen_config,
            expected=expected if verify else None,
        )

    async def scenario():
        engine = MediationEngine(policy)
        pdp = PolicyDecisionPoint(
            engine,
            PDPConfig(
                max_batch=64, max_queue=4096, cache_size=4096,
            ),
        )
        async with PDPServer(pdp, host="127.0.0.1", port=0) as server:
            client = await RemotePDPClient.connect(
                "127.0.0.1", server.port, wire=wire
            )
            try:
                warm = await one_run(client, verify=True)
                assert warm.ok, "verification failed during wire warmup"
                best = None
                for _ in range(REPEATS):
                    result = await one_run(client, verify=True)
                    assert result.ok, "stale answer or drop on %s wire" % wire
                    if (
                        best is None
                        or result.throughput_rps > best.throughput_rps
                    ):
                        best = result
            finally:
                await client.close()
        return best

    return asyncio.run(scenario())


def test_bench_service(benchmark, report):
    policy = build_entertainment_policy(HOMES)
    permissions = policy.stats()["permissions"]
    assert permissions >= 4000

    loadgen_config = LoadgenConfig(
        requests=UNIQUE_REQUESTS,
        concurrency=CONCURRENCY,
        seed=11,
        repeat=REPEAT,
    )
    stream = build_stream(policy, loadgen_config)
    expected = compute_expected(policy, stream)

    configurations = [
        ("batched+cache", 64, 4096),
        ("batched", 64, 0),
        ("unbatched+cache", 1, 4096),
        ("unbatched", 1, 0),
    ]
    rows = [
        "E12 Decision-service throughput: micro-batching and caching ablated",
        f"  policy: {HOMES} homes, {permissions} permissions; "
        f"stream: {len(stream)} requests "
        f"({UNIQUE_REQUESTS} unique x {REPEAT}), "
        f"{CONCURRENCY} closed-loop workers",
        f"  {'configuration':>16}{'req/s':>10}{'p50 us':>9}{'p99 us':>9}"
        f"{'hit rate':>10}{'mean batch':>12}",
    ]
    records = {}
    for label, max_batch, cache_size in configurations:
        result, stats = measure(
            policy, stream, expected, loadgen_config,
            max_batch=max_batch, cache_size=cache_size,
        )
        hits = stats["cache_hits"]
        # Misses exclude uncacheable lookups (None keys, cache-off
        # configs), so the rate measures only cache-eligible traffic —
        # the cache-off rows report 0/0 here, not a fake near-zero rate.
        lookups = hits + stats["cache_misses"]
        hit_rate = hits / lookups if lookups else 0.0
        mean_batch = (
            stats["decided"] / stats["batches"] if stats["batches"] else 0.0
        )
        rows.append(
            f"  {label:>16}{result.throughput_rps:>10,.0f}"
            f"{result.latency_us(0.5):>9.1f}{result.latency_us(0.99):>9.1f}"
            f"{hit_rate:>10.1%}{mean_batch:>12.1f}"
        )
        records[label] = {
            "max_batch": max_batch,
            "cache_size": cache_size,
            "throughput_rps": round(result.throughput_rps, 1),
            "latency_p50_us": round(result.latency_us(0.5), 1),
            "latency_p95_us": round(result.latency_us(0.95), 1),
            "latency_p99_us": round(result.latency_us(0.99), 1),
            "cache_hit_rate": round(hit_rate, 4),
            "cache_uncacheable": stats["cache_uncacheable"],
            "mean_batch_size": round(mean_batch, 2),
            "completed": result.completed,
            "mismatches": result.mismatches,
            "dropped": result.dropped,
            "shed": result.shed,
            "timeouts": result.timeouts,
        }

    full = records["batched+cache"]
    baseline = records["unbatched"]
    speedup = full["throughput_rps"] / baseline["throughput_rps"]
    rows.append(
        f"  full service vs one-per-call: {speedup:.1f}x throughput "
        f"(gate {THROUGHPUT_GATE:.0f}x); warm hit rate "
        f"{full['cache_hit_rate']:.1%} (gate {HIT_RATE_GATE:.0%})"
    )
    rows.append(
        "shape: the cache turns the replayed share of the stream into "
        "synchronous dict hits, and micro-batching amortizes event-loop "
        "and snapshot overhead across the misses; the unbatched, "
        "uncached column pays one full queue/flush round trip per "
        "request, which is exactly the overhead the service exists to "
        "amortize.  Every configuration's answers were verified against "
        "a direct cache-less engine before being timed."
    )

    assert speedup >= THROUGHPUT_GATE, (
        f"micro-batched+cached service is only {speedup:.2f}x the "
        f"one-request-per-call configuration at {permissions} "
        f"permissions; the acceptance gate is {THROUGHPUT_GATE:.0f}x"
    )
    assert full["cache_hit_rate"] >= HIT_RATE_GATE, (
        f"warm cache hit rate {full['cache_hit_rate']:.1%} is below the "
        f"{HIT_RATE_GATE:.0%} gate"
    )

    # ---- wire framing: NDJSON vs binary over a loopback socket ---------
    rows.append("")
    rows.append(
        "wire framing over TCP (loopback, "
        "interned binary vs NDJSON):"
    )
    rows.append(
        f"  {'wire':>8}{'req/s':>10}{'p50 us':>9}{'p95 us':>9}{'p99 us':>9}"
    )
    wire_records = {}
    for wire in ("json", "binary"):
        result = measure_wire(
            policy, stream, expected, loadgen_config, wire=wire
        )
        rows.append(
            f"  {wire:>8}{result.throughput_rps:>10,.0f}"
            f"{result.latency_us(0.5):>9.1f}{result.latency_us(0.95):>9.1f}"
            f"{result.latency_us(0.99):>9.1f}"
        )
        wire_records[wire] = {
            "throughput_rps": round(result.throughput_rps, 1),
            "latency_p50_us": round(result.latency_us(0.5), 1),
            "latency_p95_us": round(result.latency_us(0.95), 1),
            "latency_p99_us": round(result.latency_us(0.99), 1),
            "completed": result.completed,
            "mismatches": result.mismatches,
        }
    wire_gain = (
        wire_records["binary"]["throughput_rps"]
        / wire_records["json"]["throughput_rps"]
    )
    rows.append(
        f"  binary framing gain: {wire_gain:.2f}x NDJSON throughput"
    )
    rows.append(
        "shape: both wires pay the same mediation cost server-side; the "
        "delta is pure codec + byte volume — fixed-width struct fields "
        "and interned u16/u32 role ids against per-request JSON "
        "serialization and parsing."
    )
    assert wire_gain > 1.0, (
        f"binary framing is not a measurable gain over NDJSON "
        f"({wire_gain:.2f}x)"
    )

    # ---- distributed tracing: traced vs untraced throughput ------------
    rows.append("")
    rows.append(
        "distributed tracing (full service, loadgen-originated context):"
    )
    rows.append(f"  {'tracing':>16}{'req/s':>10}{'p50 us':>9}{'p99 us':>9}")
    trace_records = {}
    trace_columns = [
        ("untraced", 0.0),
        (f"sampled@{DEFAULT_TRACE_SAMPLE_RATE:.0%}", DEFAULT_TRACE_SAMPLE_RATE),
        ("sampled@100%", 1.0),
    ]
    for label, rate in trace_columns:
        traced_config = LoadgenConfig(
            requests=UNIQUE_REQUESTS,
            concurrency=CONCURRENCY,
            seed=11,
            repeat=REPEAT,
            trace_sample_rate=rate,
        )
        result, _ = measure(
            policy, stream, expected, traced_config,
            max_batch=64, cache_size=4096,
        )
        rows.append(
            f"  {label:>16}{result.throughput_rps:>10,.0f}"
            f"{result.latency_us(0.5):>9.1f}{result.latency_us(0.99):>9.1f}"
        )
        trace_records[label] = {
            "trace_sample_rate": rate,
            "traced": result.traced,
            "throughput_rps": round(result.throughput_rps, 1),
            "latency_p50_us": round(result.latency_us(0.5), 1),
            "latency_p99_us": round(result.latency_us(0.99), 1),
        }
    untraced_rps = trace_records["untraced"]["throughput_rps"]
    default_label = f"sampled@{DEFAULT_TRACE_SAMPLE_RATE:.0%}"
    trace_overhead = 1.0 - (
        trace_records[default_label]["throughput_rps"] / untraced_rps
    )
    rows.append(
        f"  overhead at default sampling "
        f"({DEFAULT_TRACE_SAMPLE_RATE:.0%} of requests traced): "
        f"{trace_overhead:+.1%} (gate <= {TRACE_OVERHEAD_GATE:.0%})"
    )
    rows.append(
        "shape: untraced requests pay one sampler test and a None "
        "check; a sampled request additionally mints a context, rides "
        "it through the wire codec, and exports spans to the bounded "
        "collector — head sampling keeps that on a small fraction of "
        "traffic, which is what the overhead gate pins."
    )
    assert trace_overhead <= TRACE_OVERHEAD_GATE, (
        f"tracing at default sampling costs {trace_overhead:.1%} "
        f"throughput; the acceptance gate is {TRACE_OVERHEAD_GATE:.0%}"
    )

    report_dir = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(report_dir, exist_ok=True)
    json_path = os.path.join(report_dir, "BENCH_service.json")
    # Trajectory accumulation: each run appends the full-service
    # headline numbers (client-side percentiles, shed/timeout counts)
    # so drift across commits is visible in one file, not just the
    # latest snapshot.
    trajectory: list = []
    if os.path.exists(json_path):
        try:
            with open(json_path, "r", encoding="utf-8") as handle:
                trajectory = list(json.load(handle).get("trajectory", []))
        except (json.JSONDecodeError, OSError):
            trajectory = []
    trajectory.append(
        {
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "gate_speedup": round(speedup, 2),
            "throughput_rps": full["throughput_rps"],
            "latency_p50_us": full["latency_p50_us"],
            "latency_p95_us": full["latency_p95_us"],
            "latency_p99_us": full["latency_p99_us"],
            "cache_hit_rate": full["cache_hit_rate"],
            "shed": full["shed"],
            "timeouts": full["timeouts"],
            "wire_binary_gain": round(wire_gain, 2),
            "trace_overhead": round(trace_overhead, 4),
        }
    )
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "experiment": "E12-decision-service",
                "homes": HOMES,
                "permissions": permissions,
                "stream_requests": len(stream),
                "unique_requests": UNIQUE_REQUESTS,
                "concurrency": CONCURRENCY,
                "throughput_gate": THROUGHPUT_GATE,
                "gate_speedup": round(speedup, 2),
                "hit_rate_gate": HIT_RATE_GATE,
                "gate_hit_rate": full["cache_hit_rate"],
                "configurations": records,
                "wire_framing": wire_records,
                "wire_binary_gain": round(wire_gain, 2),
                "tracing": trace_records,
                "trace_overhead_gate": TRACE_OVERHEAD_GATE,
                "trace_overhead": round(trace_overhead, 4),
                "default_trace_sample_rate": DEFAULT_TRACE_SAMPLE_RATE,
                "trajectory": trajectory[-50:],
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    rows.append("")
    rows.append(f"machine-readable results written to {json_path}")

    # pytest-benchmark hook: one steady-state pass of the full service.
    bench_stream = stream[: UNIQUE_REQUESTS]

    def run():
        async def pass_once():
            engine = MediationEngine(policy)
            pdp = PolicyDecisionPoint(
                engine, PDPConfig(max_batch=64)
            )
            async with pdp:
                await run_loadgen(
                    PDPClient(pdp), bench_stream, loadgen_config
                )

        asyncio.run(pass_once())

    benchmark(run)
    report("E12-decision-service", rows)
