"""E15 — continuous authorization: push-revocation latency at scale.

The §4.2.2 claim under measurement: when an environment role flips,
every standing grant it supported is *withdrawn by push* — the server
walks its session grant table and writes an unsolicited ``revoke`` to
each subscribed connection — fast enough that "children may use the
videophone only while in the kitchen" means what it says even with a
houseful of open sessions.

Two legs, both against real sockets:

* **In-process** — ``SESSIONS`` binary-wire connections subscribe one
  live-environment grant each; a simulated-clock advance crosses the
  22:00 free-time boundary and the flip-to-delivery latency of every
  push is measured end to end (server flip timestamp rides the revoke
  message; the client stamps receipt — one wall clock, no round
  trip).  Gates: >= ``MIN_SESSIONS`` concurrent subscribed sessions,
  sustained >= ``EVENTS_GATE`` delivered revocations/s, p99 <=
  ``P99_GATE_MS``.
* **Through the shard router** — clients connected at the router:
  they fetch ``members`` there and hold a direct link to the worker,
  which pushes each revoke on the link that holds the grant.  Gate:
  p99 <= ``ROUTER_P99_GATE_MS``.

Machine-readable results go to
``benchmarks/reports/BENCH_revocation.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from datetime import datetime

from repro.cluster import ShardRouter
from repro.core import AccessRequest, GrbacPolicy, MediationEngine
from repro.env.runtime import EnvironmentRuntime
from repro.env.temporal import time_window
from repro.service import (
    LoadgenResult,
    PDPServer,
    PolicyDecisionPoint,
    RemotePDPClient,
    SessionGrant,
    SessionGrantTable,
    attach_revocation_probe,
)

SESSIONS = 1000
ROUTER_SESSIONS = 400
ROUNDS = 3

MIN_SESSIONS = 1000
EVENTS_GATE = 5_000  # delivered revocations/s during a sweep
P99_GATE_MS = 50.0
ROUTER_P99_GATE_MS = 250.0

EVENING = datetime(2000, 1, 17, 20, 0)  # inside free-time 19:00-22:00


def build_pdp(subjects: int):
    runtime = EnvironmentRuntime(start=EVENING)
    policy = GrbacPolicy()
    policy.add_subject_role("child")
    policy.add_object("den/tv")
    policy.add_object_role("entertainment")
    policy.assign_object("den/tv", "entertainment")
    for i in range(subjects):
        policy.add_subject(f"kid-{i}")
        policy.assign_subject(f"kid-{i}", "child")
    runtime.define_time_role(policy, "free-time", time_window("19:00", "22:00"))
    policy.grant("child", "watch", "entertainment", "free-time")
    engine = MediationEngine(policy, runtime.activator)
    pdp = PolicyDecisionPoint(engine, env_revision=runtime)
    return runtime, pdp


async def run_rounds(runtime, pdp, port, sessions, rounds):
    """Subscribe ``sessions`` grants, flip, measure; repeat.

    Returns the merged probe result plus per-round sweep durations.
    Each round re-enters the free-time window (advance 21h: 23:00 ->
    20:00 next day), re-subscribes every session, then crosses 22:00.
    """
    clients = [
        await RemotePDPClient.connect("127.0.0.1", port, wire="binary")
        for _ in range(sessions)
    ]
    result = LoadgenResult()
    delivered = asyncio.Event()
    expected = {"count": 0}

    def on_any(revocation) -> None:
        if result.revocations >= expected["count"]:
            delivered.set()

    for client in clients:
        attach_revocation_probe(client, result)
        client.subscribe(on_any)

    sweep_times = []
    try:
        for round_index in range(rounds):
            if round_index:
                runtime.clock.advance(hours=21)  # back into the window
            await asyncio.gather(
                *(
                    client.decide(
                        AccessRequest("watch", "den/tv", subject=f"kid-{i}"),
                        subscribe=True,
                    )
                    for i, client in enumerate(clients)
                )
            )
            assert pdp.grants.grants == sessions, (
                f"round {round_index}: {pdp.grants.grants} grants "
                f"registered, expected {sessions}"
            )
            expected["count"] = result.revocations + sessions
            delivered.clear()
            started = time.perf_counter()
            runtime.clock.advance(hours=3)  # cross 22:00
            await asyncio.wait_for(delivered.wait(), timeout=30.0)
            sweep_times.append(time.perf_counter() - started)
            assert pdp.grants.grants == 0
    finally:
        for client in clients:
            await client.close()
    return result, sweep_times


def run_in_process():
    async def scenario():
        runtime, pdp = build_pdp(SESSIONS)
        server = PDPServer(pdp, environment=runtime)
        async with server:
            result, sweeps = await run_rounds(
                runtime, pdp, server.port, SESSIONS, ROUNDS
            )
            metrics = pdp.metrics.snapshot()
        return result, sweeps, metrics

    return asyncio.run(scenario())


def run_through_router():
    async def scenario():
        runtime, pdp = build_pdp(ROUTER_SESSIONS)
        worker = PDPServer(pdp, environment=runtime)
        await worker.start()
        router = ShardRouter({"w0": ("127.0.0.1", worker.port)})
        await router.start()
        try:
            result, sweeps = await run_rounds(
                runtime, pdp, router.port, ROUTER_SESSIONS, ROUNDS
            )
        finally:
            await router.stop()
            await worker.stop()
        return result, sweeps

    return asyncio.run(scenario())


def test_bench_revocation(benchmark, report):
    # ---- leg 1: in-process ------------------------------------------
    result, sweeps, metrics = run_in_process()
    total_events = result.revocations
    assert total_events == SESSIONS * ROUNDS
    assert SESSIONS >= MIN_SESSIONS
    events_per_s = min(
        SESSIONS / sweep for sweep in sweeps
    )  # worst round still has to clear the gate
    p50_ms = result.revocation_latency_ms(0.5)
    p99_ms = result.revocation_latency_ms(0.99)
    assert events_per_s >= EVENTS_GATE, (
        f"worst sweep delivered only {events_per_s:,.0f} revocations/s "
        f"to {SESSIONS} sessions; the gate is {EVENTS_GATE:,}/s"
    )
    assert p99_ms <= P99_GATE_MS, (
        f"in-process flip-to-delivery p99 {p99_ms:.1f} ms exceeds "
        f"{P99_GATE_MS} ms across {total_events} pushes"
    )
    # The server-side histogram saw every push it wrote.
    assert (
        metrics["histograms"]["pdp.revocation_latency"]["count"]
        == total_events
    )
    assert metrics["counters"]["pdp.revocations"] == total_events

    # ---- leg 2: through the shard router ----------------------------
    router_result, router_sweeps = run_through_router()
    router_events = router_result.revocations
    assert router_events == ROUTER_SESSIONS * ROUNDS
    router_p50_ms = router_result.revocation_latency_ms(0.5)
    router_p99_ms = router_result.revocation_latency_ms(0.99)
    assert router_p99_ms <= ROUTER_P99_GATE_MS, (
        f"routed flip-to-delivery p99 {router_p99_ms:.1f} ms exceeds "
        f"{ROUTER_P99_GATE_MS} ms across {router_events} pushes"
    )

    cpus = len(os.sched_getaffinity(0))
    rows = [
        "E15 Push revocation: flip-to-delivery latency at scale",
        f"  host: {cpus} usable CPU(s); binary wire; one subscribed "
        f"grant per connection; {ROUNDS} window re-entries per leg",
        "",
        f"  {'leg':>12}{'sessions':>10}{'events':>8}{'events/s':>11}"
        f"{'p50 ms':>8}{'p99 ms':>8}{'gate ms':>9}",
        f"  {'in-process':>12}{SESSIONS:>10}{total_events:>8}"
        f"{events_per_s:>11,.0f}{p50_ms:>8.1f}{p99_ms:>8.1f}"
        f"{P99_GATE_MS:>9.0f}",
        f"  {'via router':>12}{ROUTER_SESSIONS:>10}{router_events:>8}"
        f"{ROUTER_SESSIONS / min(router_sweeps):>11,.0f}"
        f"{router_p50_ms:>8.1f}{router_p99_ms:>8.1f}"
        f"{ROUTER_P99_GATE_MS:>9.0f}",
        "",
        "shape: the grant-table sweep runs synchronously at the flip "
        "(eager revision bump -> role.deactivated -> table walk) and "
        "each push is one inline buffer append on the grant's own "
        "connection — no per-push task, no request in flight anywhere; "
        "the router leg adds one byte-for-byte relay hop.",
    ]

    json_path = os.path.join(
        os.path.dirname(__file__), "reports", "BENCH_revocation.json"
    )
    os.makedirs(os.path.dirname(json_path), exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "experiment": "E15-revocation",
                "cpus": cpus,
                "rounds": ROUNDS,
                "in_process": {
                    "sessions": SESSIONS,
                    "events": total_events,
                    "events_per_s": round(events_per_s, 1),
                    "events_per_s_gate": EVENTS_GATE,
                    "p50_ms": round(p50_ms, 3),
                    "p99_ms": round(p99_ms, 3),
                    "p99_gate_ms": P99_GATE_MS,
                    "server_histogram_count": metrics["histograms"][
                        "pdp.revocation_latency"
                    ]["count"],
                },
                "via_router": {
                    "sessions": ROUTER_SESSIONS,
                    "events": router_events,
                    "events_per_s": round(
                        ROUTER_SESSIONS / min(router_sweeps), 1
                    ),
                    "p50_ms": round(router_p50_ms, 3),
                    "p99_ms": round(router_p99_ms, 3),
                    "p99_gate_ms": ROUTER_P99_GATE_MS,
                },
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    rows.append(f"machine-readable results written to {json_path}")

    # pytest-benchmark hook: the pure table sweep (register + revoke),
    # the server-side cost a flip pays before any bytes move.
    table = SessionGrantTable()
    keys = [object() for _ in range(1000)]
    for key in keys:
        table.attach_session(key, lambda *args: None)

    def sweep_1000():
        for i, key in enumerate(keys):
            table.register(
                SessionGrant(
                    session_id=key,
                    grant_id=i,
                    subject="kid",
                    transaction="watch",
                    obj="den/tv",
                    roles=frozenset({"free-time"}),
                )
            )
        table.revoke_role("free-time", reason="bench flip", ts=0.0)

    benchmark(sweep_1000)
    report("E15-revocation", rows)
