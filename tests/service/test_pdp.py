"""The PDP must agree with the engine — batched, cached, concurrent.

The service layer is pure plumbing: whatever path an answer takes
(cache hit, micro-batch, drain flush), ``granted`` must equal what a
direct :meth:`MediationEngine.decide` call returns at the same policy
and environment revision.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import AccessRequest, MediationEngine, StaticEnvironment
from repro.exceptions import ServiceError
from repro.service import PDPClient, PDPConfig, PDPOutcome, PolicyDecisionPoint
from repro.workload.generator import generate_requests


def run(coroutine):
    return asyncio.run(coroutine)


def make_pdp(policy, env=None, **config) -> PolicyDecisionPoint:
    engine = MediationEngine(policy, env)
    return PolicyDecisionPoint(engine, PDPConfig(**config))


# ----------------------------------------------------------------------
# Equivalence with direct mediation
# ----------------------------------------------------------------------
def test_single_request_matches_engine(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    reference = MediationEngine(tv_policy)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            granted = (
                await pdp.submit(request, environment_roles={"free-time"})
            ).granted
            denied = (await pdp.submit(request, environment_roles=set())).granted
            return granted, denied

    granted, denied = run(scenario())
    assert granted is reference.decide(
        request, environment_roles={"free-time"}
    ).granted
    assert granted is True
    assert denied is False


def test_generated_workload_matches_engine(tv_policy) -> None:
    stream = generate_requests(tv_policy, 120, seed=7)
    reference = MediationEngine(tv_policy)
    expected = [
        reference.decide(
            item.request,
            environment_roles=set(item.active_environment_roles),
        ).granted
        for item in stream
    ]
    pdp = make_pdp(tv_policy, max_batch=16)

    async def scenario():
        async with pdp:
            responses = await asyncio.gather(
                *(
                    pdp.submit(
                        item.request,
                        environment_roles=set(item.active_environment_roles),
                    )
                    for item in stream
                )
            )
        return [r.granted for r in responses]

    assert run(scenario()) == expected


def test_concurrent_submits_coalesce_into_batches(tv_policy) -> None:
    # Cache off so every request reaches the batcher; all 32 submits
    # enqueue before the consumer task gets scheduled, so they must be
    # rendered in a single decide_batch call.
    pdp = make_pdp(tv_policy, max_batch=64, cache_size=0)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            return await asyncio.gather(
                *(
                    pdp.submit(request, environment_roles={"free-time"})
                    for _ in range(32)
                )
            )

    responses = run(scenario())
    assert all(r.granted for r in responses)
    assert all(r.batch_size == 32 for r in responses)
    assert pdp.stats()["batches"] == 1


def test_sequential_submits_are_singleton_batches(tv_policy) -> None:
    pdp = make_pdp(tv_policy, cache_size=0)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            first = await pdp.submit(request, environment_roles={"free-time"})
            second = await pdp.submit(request, environment_roles={"free-time"})
            return first, second

    first, second = run(scenario())
    assert first.batch_size == 1
    assert second.batch_size == 1
    assert not first.cached and not second.cached


# ----------------------------------------------------------------------
# Revision-keyed caching
# ----------------------------------------------------------------------
def test_repeat_request_is_served_from_cache(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            first = await pdp.submit(request, environment_roles={"free-time"})
            second = await pdp.submit(request, environment_roles={"free-time"})
            return first, second

    first, second = run(scenario())
    assert not first.cached
    assert second.cached
    assert second.granted is first.granted is True
    assert second.batch_size == 0  # never touched the queue


def test_policy_mutation_invalidates_cache(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")
    env = {"free-time"}

    async def scenario():
        async with pdp:
            before = await pdp.submit(request, environment_roles=env)
            warmed = await pdp.submit(request, environment_roles=env)
            # Countermand the §5.1 grant; decision_revision moves.
            tv_policy.deny("child", "watch", "entertainment-devices")
            after = await pdp.submit(request, environment_roles=env)
            return before, warmed, after

    before, warmed, after = run(scenario())
    assert before.granted and warmed.cached
    assert after.granted is False
    assert not after.cached  # stale grant was never served


def test_env_revision_bump_invalidates_cache(tv_policy) -> None:
    # Source-resolved requests are keyed on the env_revision reader.
    env = StaticEnvironment({"free-time"})
    revision = {"n": 0}
    engine = MediationEngine(tv_policy, env)
    pdp = PolicyDecisionPoint(engine, env_revision=lambda: revision["n"])
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            before = await pdp.submit(request)
            warmed = await pdp.submit(request)
            env.deactivate("free-time")
            revision["n"] += 1
            after = await pdp.submit(request)
            return before, warmed, after

    before, warmed, after = run(scenario())
    assert before.granted is True and warmed.cached
    assert after.granted is False and not after.cached


def test_opaque_environment_source_is_never_cached(tv_policy) -> None:
    # StaticEnvironment has no .revision: requests resolving through it
    # must not be cached (no way to observe staleness) — but explicit
    # per-request overrides still are.
    engine = MediationEngine(tv_policy, StaticEnvironment({"free-time"}))
    pdp = PolicyDecisionPoint(engine)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            through_source = [await pdp.submit(request) for _ in range(2)]
            overridden = [
                await pdp.submit(request, environment_roles={"free-time"})
                for _ in range(2)
            ]
            return through_source, overridden

    through_source, overridden = run(scenario())
    assert not any(r.cached for r in through_source)
    assert overridden[0].cached is False and overridden[1].cached is True


def test_runtime_revision_keys_the_cache_across_clock_changes(
    empty_policy,
) -> None:
    from datetime import datetime

    from repro.env.runtime import EnvironmentRuntime
    from repro.env.temporal import time_window

    policy = empty_policy
    runtime = EnvironmentRuntime(start=datetime(2000, 1, 17, 10, 0))
    policy.add_subject_role("child")
    policy.add_object_role("tv")
    policy.add_subject("alice")
    policy.assign_subject("alice", "child")
    policy.add_object("den/tv")
    policy.assign_object("den/tv", "tv")
    runtime.define_time_role(
        policy, "free-time", time_window("15:00", "20:00")
    )
    policy.grant("child", "watch", "tv", "free-time")
    engine = MediationEngine(policy, runtime.activator)
    pdp = PolicyDecisionPoint(engine, env_revision=runtime)
    request = AccessRequest("watch", "den/tv", subject="alice")

    async def scenario():
        async with pdp:
            morning = await pdp.submit(request)
            runtime.clock.advance(hours=6)  # 16:00, free time
            afternoon = await pdp.submit(request)
            warmed = await pdp.submit(request)
            runtime.clock.advance(hours=9)  # 01:00 next day
            night = await pdp.submit(request)
            return morning, afternoon, warmed, night

    morning, afternoon, warmed, night = run(scenario())
    assert morning.granted is False
    assert afternoon.granted is True and not afternoon.cached
    assert warmed.cached and warmed.granted is True
    assert night.granted is False and not night.cached


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_submit_requires_running_service(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        with pytest.raises(ServiceError):
            await pdp.submit(request)

    run(scenario())


def test_graceful_drain_decides_everything_admitted(tv_policy) -> None:
    # Submit without yielding so the pending list fills, then
    # stop(drain=True) before any step ran: every admitted request must
    # still get a mediated answer.
    pdp = make_pdp(tv_policy, cache_size=0, max_batch=4)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        responses = []
        async with pdp:
            for _ in range(10):
                pdp.submit_nowait(
                    request, responses.append, environment_roles={"free-time"}
                )
            assert pdp.queue_depth == 10 and not responses
            # __aexit__ drains: all ten must resolve with real answers.
        return responses

    responses = run(scenario())
    assert len(responses) == 10
    assert all(r.outcome is PDPOutcome.GRANT for r in responses)
    assert [r.batch_size for r in responses] == [4] * 8 + [2] * 2


def test_start_is_idempotent_and_restartable(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        await pdp.start()
        await pdp.start()
        assert pdp.running
        await pdp.stop()
        assert not pdp.running
        await pdp.start()
        response = await pdp.submit(request, environment_roles={"free-time"})
        await pdp.stop()
        return response

    assert run(scenario()).granted is True


def test_engine_fault_isolated_to_error_outcome(tv_policy) -> None:
    pdp = make_pdp(tv_policy, cache_size=0)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    def broken(self, requests, env_overrides, engine=None):
        raise RuntimeError("engine exploded")

    pdp._decide = broken.__get__(pdp)

    async def scenario():
        async with pdp:
            first = await pdp.submit(request, environment_roles={"free-time"})
            assert first.outcome is PDPOutcome.ERROR
            assert first.granted is False
            assert "exploded" in first.rationale
            assert pdp.running  # the batcher survived the fault
            return first

    run(scenario())


# ----------------------------------------------------------------------
# Client facade and stats
# ----------------------------------------------------------------------
def test_pdp_client_mirrors_engine_check(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    client = PDPClient(pdp, default_environment_roles={"free-time"})

    async def scenario():
        async with pdp:
            default_env = await client.check("alice", "watch", "livingroom/tv")
            explicit = await client.check(
                "alice", "watch", "livingroom/tv", environment_roles=set()
            )
            return default_env, explicit

    default_env, explicit = run(scenario())
    assert default_env is True
    assert explicit is False


def test_stats_counters_add_up(tv_policy) -> None:
    pdp = make_pdp(tv_policy)
    request = AccessRequest("watch", "livingroom/tv", subject="alice")

    async def scenario():
        async with pdp:
            for _ in range(5):
                await pdp.submit(request, environment_roles={"free-time"})

    run(scenario())
    stats = pdp.stats()
    assert stats["requests"] == 5
    assert stats["cache_hits"] == 4
    assert stats["cache_misses"] == 1
    assert stats["decided"] == 1
    assert stats["shed"] == 0
    assert stats["cache"]["entries"] == 1
