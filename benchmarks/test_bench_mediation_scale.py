"""E11 — mediation scalability: the engine vs the literal quantifier.

Sweeps policy size (permission count, role counts, hierarchy edges)
over synthetic policies and measures per-decision latency for the
§4.2.4 reference oracle (``repro.core.oracle``) and for the one
production engine three ways: ``decide``, ``decide_batch``, and
``decide_batch`` with the ``cache_size`` LRU on a repeated stream.
Equivalence of the engine with the oracle is asserted on every swept
point before any timing happens.

Expected shape: the oracle's latency grows linearly with the
permission count (it visits every rule); the engine tests precomputed
closure bitsets against per-(transaction, subject-role) rule buckets,
so it stays near-flat; ``decide_batch`` is the same kernel in a loop,
so it tracks ``decide``; with the LRU on, a repeated request is a dict
lookup.  Two acceptance gates are asserted, not just reported, both
on the 4000-permission point: ``decide_batch`` at least 3x faster than
the oracle, and a subscribed no-op observer costing at most 5%.

Besides the human-readable report, the sweep is persisted
machine-readably to ``benchmarks/reports/BENCH_mediation.json``; each
point also records its engine columns relative to the report the run
overwrites, so a kernel regression shows as a ratio, not a memory.
"""

from __future__ import annotations

import json
import os
import time

from repro.core import MediationEngine
from repro.core.oracle import reference_decide
from repro.obs import Observer
from repro.workload.generator import (
    RandomPolicyConfig,
    generate_policy,
    generate_requests,
)

SPEEDUP_GATE = 3.0  # decide_batch vs the oracle at the largest sweep point

# Instrumentation guard: the staged pipeline with a subscribed no-op
# observer (the full observability surface active, doing nothing) must
# stay within 5% of the bare engine at the largest sweep point.
# Untraced decisions take no timestamps and publish one emit per
# decision, so the delta is a single hub fan-out.
OVERHEAD_GATE = 0.05


REPEATS = 3  # best-of-N to damp scheduler noise in single-shot sweeps

JSON_PATH = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_mediation.json"
)


def best_us(run, count: int) -> float:
    """Best-of-REPEATS wall time of ``run()``, per decision, in us."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best / count * 1e6


def mean_oracle_us(policy, pairs) -> float:
    def run():
        for request, env in pairs:
            reference_decide(policy, request, env)

    return best_us(run, len(pairs))


def mean_decide_us(engine: MediationEngine, pairs) -> float:
    """Per-decision latency over prebuilt (request, env-set) pairs."""
    decide = engine.decide

    def run():
        for request, env in pairs:
            decide(request, environment_roles=env)

    return best_us(run, len(pairs))


def mean_batch_us(engine: MediationEngine, requests, envs) -> float:
    """Per-decision latency through decide_batch (lists prebuilt)."""
    return best_us(
        lambda: engine.decide_batch(requests, environment_roles=envs),
        len(requests),
    )


def previous_sweep() -> dict:
    """The sweep of the report this run overwrites, by permission count."""
    try:
        with open(JSON_PATH, encoding="utf-8") as handle:
            return {r["permissions"]: r for r in json.load(handle)["sweep"]}
    except (OSError, ValueError, KeyError):
        return {}


def test_bench_mediation_scale(benchmark, report):
    rows = [
        "E11 Mediation scalability: the engine vs the literal quantifier",
        f"  {'permissions':>12}{'roles':>7}{'edges':>7}"
        f"{'oracle us':>11}{'decide us':>11}{'batch us':>10}"
        f"{'cached us':>11}{'observed us':>12}{'ovh%':>7}"
        f"{'decide/orc':>11}{'batch/orc':>10}",
    ]
    previous = previous_sweep()
    sweep_records = []
    gate_speedup = None
    gate_overhead = None
    for permissions, roles, edges in [
        (50, 10, 5),
        (200, 20, 10),
        (1000, 40, 20),
        (4000, 80, 40),
    ]:
        config = RandomPolicyConfig(
            subjects=30,
            objects=40,
            transactions=12,
            subject_roles=roles,
            object_roles=max(4, roles // 2),
            environment_roles=max(3, roles // 3),
            hierarchy_edges=edges,
            permissions=permissions,
            deny_fraction=0.15,
            seed=permissions,
        )
        policy = generate_policy(config)
        engine = MediationEngine(policy)
        batch_engine = MediationEngine(policy)
        # The one decision memo in core/: the LRU, sized to hold the
        # whole stream, so every timed pass is served from it.
        cached = MediationEngine(policy, cache_size=1024)
        # The same pipeline with the full observer surface switched on
        # but subscribed to a no-op observer: measures the cost of
        # instrumentation, not of any particular consumer.
        observed = MediationEngine(policy)
        observed.observers.subscribe(Observer())
        generated = generate_requests(policy, 150, seed=7)
        # Prebuild request/env pairs so set construction stays outside
        # every timed window.
        pairs = [
            (item.request, set(item.active_environment_roles))
            for item in generated
        ]
        requests = [request for request, _ in pairs]
        envs = [env for _, env in pairs]

        # Equivalence first (also warms compiles, memos and the LRU):
        # every way into the engine renders the oracle's decision.
        expected = [
            reference_decide(policy, request, env) for request, env in pairs
        ]
        for candidate in (engine, observed):
            assert [
                candidate.decide(request, environment_roles=env)
                for request, env in pairs
            ] == expected
        for candidate in (batch_engine, cached, cached):
            assert (
                candidate.decide_batch(requests, environment_roles=envs)
                == expected
            )

        oracle_us = mean_oracle_us(policy, pairs)
        decide_us = mean_decide_us(engine, pairs)
        batch_us = mean_batch_us(batch_engine, requests, envs)
        cached_us = mean_batch_us(cached, requests, envs)
        observed_us = mean_decide_us(observed, pairs)
        overhead = observed_us / decide_us - 1.0
        decide_speedup = oracle_us / decide_us
        batch_speedup = oracle_us / batch_us
        rows.append(
            f"  {permissions:>12}{roles:>7}{edges:>7}"
            f"{oracle_us:>11.2f}{decide_us:>11.2f}{batch_us:>10.2f}"
            f"{cached_us:>11.2f}{observed_us:>12.2f}{overhead:>7.1%}"
            f"{decide_speedup:>10.1f}x{batch_speedup:>9.1f}x"
        )
        before = previous.get(permissions, {})
        sweep_records.append(
            {
                "permissions": permissions,
                "subject_roles": roles,
                "hierarchy_edges": edges,
                "requests": len(pairs),
                "oracle_us": round(oracle_us, 3),
                # Stable key names: the *_vs_previous ratios below and
                # any trend tooling join runs on them.
                "compiled_us": round(decide_us, 3),
                "compiled_batch_us": round(batch_us, 3),
                "cached_batch_us": round(cached_us, 3),
                "observed_us": round(observed_us, 3),
                "instrumentation_overhead": round(overhead, 4),
                "compiled_vs_oracle_speedup": round(decide_speedup, 2),
                "batch_vs_oracle_speedup": round(batch_speedup, 2),
                "compiled_us_vs_previous": (
                    round(decide_us / before["compiled_us"], 3)
                    if "compiled_us" in before
                    else None
                ),
                "compiled_batch_us_vs_previous": (
                    round(batch_us / before["compiled_batch_us"], 3)
                    if "compiled_batch_us" in before
                    else None
                ),
                "compile_time_s": round(
                    engine.stats()["compile_time_s"], 6
                ),
                "compiled_rules": engine.stats()["compiled_rules"],
            }
        )
        if permissions == 4000:
            gate_speedup = batch_speedup
            gate_overhead = overhead
    rows.append(
        "shape: the oracle's cost scales with the rule count (it visits "
        "every permission); the engine tests interned closure bitsets "
        "against per-(transaction, subject-role) rule buckets, so "
        "per-decision work tracks the handful of rules that name roles "
        "the requester can actually reach.  'batch' is the same kernel "
        "in a loop.  'cached' is decide_batch with the cache_size LRU "
        "holding the whole 150-request stream: a repeat is one dict "
        "lookup.  'observed' is the same pipeline with a subscribed "
        "no-op observer; its overhead ('ovh%') is the cost of the "
        "instrumentation layer itself."
    )
    assert gate_speedup is not None
    assert gate_speedup >= SPEEDUP_GATE, (
        f"decide_batch is only {gate_speedup:.1f}x faster than the §4.2.4 "
        f"oracle at 4000 permissions; the acceptance gate is "
        f"{SPEEDUP_GATE:.0f}x"
    )
    assert gate_overhead is not None
    assert gate_overhead <= OVERHEAD_GATE, (
        f"no-op-observer pipeline costs {gate_overhead:.1%} over the bare "
        f"engine at 4000 permissions; the instrumentation gate is "
        f"{OVERHEAD_GATE:.0%}"
    )

    # ---- decision-cache ablation ---------------------------------------
    rows.append("")
    rows.append("decision-cache ablation (1000-rule policy, zipf request mix):")
    rows.append(f"  {'cache':>8}{'us/decision':>12}{'hit rate':>10}")
    config = RandomPolicyConfig(
        subjects=30, objects=40, transactions=12, subject_roles=40,
        object_roles=20, environment_roles=13, hierarchy_edges=20,
        permissions=1000, deny_fraction=0.15, seed=1000,
    )
    policy = generate_policy(config)
    # A fixed environment context so repeats actually repeat.
    env_context = {"erole-0"}
    stream = generate_requests(policy, 120, seed=21) * 5
    cache_records = []
    for cache_size in (0, 256, 4096):
        engine = MediationEngine(policy, cache_size=cache_size)
        start = time.perf_counter()
        for item in stream:
            engine.decide(item.request, environment_roles=env_context)
        per_decision = (time.perf_counter() - start) / len(stream) * 1e6
        total = engine.cache_hits + engine.cache_misses
        hit_rate = engine.cache_hits / total if total else 0.0
        label = "off" if cache_size == 0 else str(cache_size)
        rows.append(f"  {label:>8}{per_decision:>12.2f}{hit_rate:>10.1%}")
        cache_records.append(
            {
                "cache_size": cache_size,
                "us_per_decision": round(per_decision, 3),
                "hit_rate": round(hit_rate, 4),
            }
        )
    rows.append(
        "shape: with a repeating request mix the cache converts "
        "mediation into a dict lookup; correctness is guaranteed by "
        "keying on the policy decision revision (property-tested)."
    )

    # Machine-readable sweep for tooling/CI trend tracking.
    os.makedirs(os.path.dirname(JSON_PATH), exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "experiment": "E11-mediation-scale",
                "speedup_gate": SPEEDUP_GATE,
                "gate_speedup_at_4000": round(gate_speedup, 2),
                "instrumentation_overhead_gate": OVERHEAD_GATE,
                "instrumentation_overhead_at_4000": round(gate_overhead, 4),
                "sweep": sweep_records,
                "cache_ablation": cache_records,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    rows.append("")
    rows.append(f"machine-readable sweep written to {JSON_PATH}")

    config = RandomPolicyConfig(permissions=1000, subject_roles=40, seed=1000,
                                subjects=30, objects=40, transactions=12,
                                object_roles=20, environment_roles=13,
                                hierarchy_edges=20, deny_fraction=0.15)
    policy = generate_policy(config)
    engine = MediationEngine(policy)
    generated = generate_requests(policy, 50, seed=9)
    requests = [item.request for item in generated]
    envs = [set(item.active_environment_roles) for item in generated]

    def run():
        engine.decide_batch(requests, environment_roles=envs)

    benchmark(run)
    report("E11-mediation-scale", rows)
