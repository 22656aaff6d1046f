"""Admission and ``step``: every answer exactly once, all observed.

Admission appends to a pending list that :meth:`step` empties in
batches; a started PDP owns no task.  The exactly-once property drives
``admit`` / ``step`` / ``stop`` directly, with no event loop, and is
written against callbacks, not ``submit`` results: a future silently
ignores a second answer, so only a callback count can see a request
that was answered twice (say, shed by a non-draining stop landing
mid-batch and then decided anyway by the step still holding it).
"""

from __future__ import annotations

import asyncio

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import AccessRequest, MediationEngine
from repro.exceptions import ServiceError
from repro.obs.trace import TraceContext
from repro.service import (
    MEDIATED_OUTCOMES,
    PDPConfig,
    PDPOutcome,
    PolicyDecisionPoint,
)

REQUESTS = [
    AccessRequest("watch", "livingroom/tv", subject="alice"),  # grant
    AccessRequest("watch", "kitchen/oven", subject="alice"),  # deny
    AccessRequest("watch", "livingroom/tv", subject="mom"),  # deny
]
ENVS = [frozenset({"free-time"}), frozenset()]
ENV = {"free-time"}


def run_now(coroutine):
    """Run a coroutine that never suspends to completion, right here,
    with no event loop; fails if it would have waited."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise AssertionError("the coroutine suspended")


def gate_decide(pdp: PolicyDecisionPoint):
    """Route ``pdp._decide`` through a gate and a fault injector.

    Returns ``gate``: every callable appended to ``gate["inside"]`` runs
    at the start of the next ``_decide`` call — mid-batch, with the
    batch out of the pending list and unanswered — and each unit of
    ``gate["faults"]`` makes one ``_decide`` call raise instead of
    deciding.
    """
    gate = {"inside": [], "faults": 0}
    original = type(pdp)._decide

    def gated(self, requests, env_overrides, engine=None):
        inside, gate["inside"] = gate["inside"], []
        for action in inside:
            action()
        if gate["faults"]:
            gate["faults"] -= 1
            raise RuntimeError("injected engine fault")
        return original(self, requests, env_overrides, engine)

    pdp._decide = gated.__get__(pdp)
    return gate


def only_this_task() -> bool:
    return asyncio.all_tasks() == {asyncio.current_task()}


# ----------------------------------------------------------------------
# pdp.latency observes every answer
# ----------------------------------------------------------------------
def test_latency_histogram_observes_every_answer(tv_policy) -> None:
    async def scenario():
        pdp = PolicyDecisionPoint(
            MediationEngine(tv_policy),
            PDPConfig(cache_size=0, max_queue=1, max_batch=1),
        )
        answers = []
        async with pdp:
            # Two submits in one turn: the second finds the list full.
            pdp.submit_nowait(REQUESTS[0], answers.append, ENV)
            pdp.submit_nowait(REQUESTS[0], answers.append, ENV)
            while len(answers) < 2:
                await asyncio.sleep(0)
            # An already-expired deadline, an unknown tenant.
            answers.append(await pdp.submit(REQUESTS[0], ENV, timeout=1e-9))
            answers.append(await pdp.submit(REQUESTS[0], ENV, tenant="ghost"))
            # An engine error.
            gate_decide(pdp)["faults"] = 1
            answers.append(await pdp.submit(REQUESTS[0], ENV))
        return pdp, answers

    pdp, answers = asyncio.run(scenario())
    assert [a.outcome for a in answers] == [
        PDPOutcome.DENY_OVERLOAD,
        PDPOutcome.GRANT,
        PDPOutcome.DENY_TIMEOUT,
        PDPOutcome.DENY_UNKNOWN_TENANT,
        PDPOutcome.ERROR,
    ]
    assert pdp.metrics.histogram("pdp.latency").count == len(answers)


# ----------------------------------------------------------------------
# Sampled spans name their tenant, decided or cached
# ----------------------------------------------------------------------
def test_cache_hit_span_carries_the_tenant(tv_policy) -> None:
    async def scenario():
        pdp = PolicyDecisionPoint(MediationEngine(tv_policy))
        pdp.swap_policy(tv_policy, tenant="unit-a")
        ctx = TraceContext.origin()
        async with pdp:
            responses = [
                await pdp.submit(
                    REQUESTS[0], ENV, tenant="unit-a", trace_ctx=ctx
                )
                for _ in range(2)
            ]
        return responses, pdp.find_trace(ctx.trace_id)

    responses, spans = asyncio.run(scenario())
    assert [r.cached for r in responses] == [False, True]
    assert [span["name"] for span in spans] == ["pdp.decide", "pdp.cache_hit"]
    for span in spans:
        assert span["annotations"]["tenant"] == "unit-a"
        assert span["annotations"]["granted"] is True
    cached = spans[1]["annotations"]
    assert cached["cached"] is True and cached["mode"] == "cached"
    assert cached["stage_timings_us"] == {}


# ----------------------------------------------------------------------
# A started PDP owns no task: in-process submits are stepped by call_soon
# ----------------------------------------------------------------------
def test_started_pdp_owns_no_task_once_a_burst_is_answered(tv_policy) -> None:
    async def scenario():
        pdp = PolicyDecisionPoint(
            MediationEngine(tv_policy), PDPConfig(cache_size=0, max_batch=4)
        )
        async with pdp:
            idle_at_start = only_this_task()
            responses = await asyncio.gather(
                *(pdp.submit(REQUESTS[0], ENV) for _ in range(10))
            )
            return idle_at_start, only_this_task(), pdp.running, responses

    idle_at_start, idle_after, running, responses = asyncio.run(scenario())
    assert idle_at_start and idle_after and running
    assert [r.outcome for r in responses] == [PDPOutcome.GRANT] * 10
    assert max(r.batch_size for r in responses) == 4


# ----------------------------------------------------------------------
# Exactly once, whatever the interleaving
# ----------------------------------------------------------------------
submission = st.tuples(
    st.integers(0, len(REQUESTS) - 1),
    st.integers(0, len(ENVS) - 1),
    st.sampled_from([None, None, None, "ghost"]),  # tenant
    st.sampled_from([None, None, 1e-9]),  # timeout: none or expired
)


@st.composite
def scenarios(draw):
    max_queue = draw(st.integers(1, 6))
    max_batch = draw(st.integers(1, 4))
    burst = st.lists(submission, max_size=max_queue + max_batch + 1)
    action = st.one_of(
        st.tuples(st.just("burst"), burst),
        st.tuples(st.just("step"), st.none()),
        # A burst admitted from inside the next batch's _decide.
        st.tuples(st.just("nest"), burst),
        st.tuples(st.just("fault"), st.none()),
    )
    actions = draw(st.lists(action, max_size=10))
    return {
        "config": PDPConfig(
            max_queue=max_queue,
            max_batch=max_batch,
            cache_size=draw(st.sampled_from([0, 8])),
        ),
        "actions": actions,
        "stop_at": draw(st.integers(0, len(actions))),
        # Stop from inside the next _decide (mid-batch, with a backlog
        # behind it), or between actions.
        "stop_inside": draw(st.booleans()),
        "drain": draw(st.booleans()),
    }


@settings(
    max_examples=150,
    deadline=None,
    # tv_policy is only read, never mutated, so sharing it is sound.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(plan=scenarios())
# A non-draining stop lands mid-batch with a backlog behind the batch:
# the stop must empty the very list the running step is slicing.
@example(
    plan={
        "config": PDPConfig(max_queue=6, max_batch=1, cache_size=0),
        "actions": [("burst", [(0, 0, None, None)] * 3)],
        "stop_at": 1,
        "stop_inside": True,
        "drain": False,
    }
)
def test_every_admitted_request_is_answered_exactly_once(
    tv_policy, plan
) -> None:
    reference = MediationEngine(tv_policy)
    submitted = []  # (request, env, answers)
    pdp = PolicyDecisionPoint(MediationEngine(tv_policy), plan["config"])
    gate = gate_decide(pdp)

    def admit(burst) -> None:
        for request_index, env_index, tenant, timeout in burst:
            request, env = REQUESTS[request_index], ENVS[env_index]
            answers = []
            submitted.append((request, env, answers))
            try:
                pdp.admit(
                    request, answers.append, set(env),
                    timeout=timeout, tenant=tenant,
                )
            except ServiceError:  # admitted after a nested stop
                answers.append("refused at the door")

    def stop() -> None:
        run_now(pdp.stop(drain=plan["drain"]))

    run_now(pdp.start())
    for action, arg in plan["actions"][: plan["stop_at"]]:
        if action == "burst":
            admit(arg)
        elif action == "step":
            pdp.step()
        elif action == "nest":
            gate["inside"].append(lambda burst=arg: admit(burst))
        else:
            gate["faults"] += 1
    if plan["stop_inside"]:
        gate["inside"].append(stop)
        pdp.step()
    stop()  # a no-op when the nested stop already ran

    for request, env, answers in submitted:
        assert len(answers) == 1, f"{request} answered {len(answers)} times"
        (response,) = answers
        if response == "refused at the door":
            continue
        if response.outcome in MEDIATED_OUTCOMES:
            expected = reference.decide(request, environment_roles=set(env))
            assert response.decision == expected
            assert response.granted == expected.granted
    stats = pdp.stats()
    assert stats["requests"] == sum(
        answers != ["refused at the door"] for _, _, answers in submitted
    )
    assert stats["requests"] == (
        stats["decided"]
        + stats["cache_hits"]
        + stats["shed"]
        + stats["timeouts"]
        + stats["errors"]
        + stats["unknown_tenant"]
    )
    assert pdp.queue_depth == 0 and not pdp.running
