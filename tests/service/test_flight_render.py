"""Flight entries rendered on read equal the eagerly built ones.

The flight ring keeps each served :class:`PDPResponse` by reference and
renders it only when ``dump()`` asks.  The reference here is the eager
summary: the exact ``FlightRecorder.record(...)`` call that used to run
once per answer, fed the same response.  Every answer kind goes through
one PDP — grant, deny, cache hit, shed, timeout, unknown tenant, engine
error — with a policy reload in between, and each dumped entry must
equal its eager twin key for key.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List

from repro.core import AccessRequest, MediationEngine
from repro.obs import FlightRecorder
from repro.obs.trace import TraceContext
from repro.service import PDPConfig, PDPOutcome, PDPResponse, PolicyDecisionPoint

ENV = {"free-time"}
GRANT = AccessRequest("watch", "livingroom/tv", subject="alice")
DENY = AccessRequest("watch", "kitchen/oven", subject="alice")
PARENT = AccessRequest("watch", "livingroom/tv", subject="mom")
CLAIMED = AccessRequest("watch", "livingroom/tv", role_claims={"child": 0.9})
BOBBY = AccessRequest("watch", "livingroom/tv", subject="bobby")


def eager_entry(response: PDPResponse, seq: int) -> Dict[str, object]:
    """The summary the eager per-answer ``record()`` call produced."""
    decision = response.decision
    winner = decision.resolution.winner if decision is not None else None
    entry = FlightRecorder(1).record(
        subject=response.request.subject,
        transaction=response.request.transaction,
        obj=response.request.obj,
        outcome=response.outcome.value,
        granted=response.granted,
        cached=response.cached,
        request_id=response.request_id,
        trace_id=response.trace_id,
        matched_rule=(
            winner.permission.describe() if winner is not None else None
        ),
        rationale=response.rationale,
        environment_roles=(
            sorted(decision.environment_roles)
            if decision is not None
            else None
        ),
        latency_us=response.latency_s * 1e6,
    )
    entry["seq"] = seq
    return entry


def serve_every_kind(tv_policy):
    """One PDP answering each kind once, plus a reload; returns
    ``(pdp, responses by request id)``."""

    async def scenario():
        pdp = PolicyDecisionPoint(
            MediationEngine(tv_policy), PDPConfig(max_queue=1, max_batch=1)
        )
        answers: List[PDPResponse] = []
        async with pdp:
            # Two admissions in one turn: the second finds the list full.
            pdp.submit_nowait(GRANT, answers.append, ENV, request_id="grant")
            pdp.submit_nowait(GRANT, answers.append, ENV, request_id="shed")
            while len(answers) < 2:
                await asyncio.sleep(0)
            answers.append(await pdp.submit(GRANT, ENV, request_id="hit"))
            answers.append(await pdp.submit(DENY, ENV, request_id="deny"))
            pdp.swap_policy(tv_policy)
            answers.append(
                await pdp.submit(
                    CLAIMED, ENV, request_id="traced",
                    trace_ctx=TraceContext.origin(),
                )
            )
            answers.append(
                await pdp.submit(
                    PARENT, ENV, timeout=1e-9, request_id="timeout"
                )
            )
            answers.append(
                await pdp.submit(GRANT, ENV, tenant="ghost", request_id="ghost")
            )

            def broken(self, requests, env_overrides, engine=None):
                raise RuntimeError("injected engine fault")

            pdp._decide = broken.__get__(pdp)
            answers.append(await pdp.submit(BOBBY, ENV, request_id="error"))
        return pdp, {answer.request_id: answer for answer in answers}

    return asyncio.run(scenario())


def test_every_answer_kind_renders_as_the_eager_entry(tv_policy) -> None:
    pdp, responses = serve_every_kind(tv_policy)
    assert {r.outcome for r in responses.values()} == set(PDPOutcome) - {
        PDPOutcome.DENY_UNAVAILABLE  # synthesized by the router, not a PDP
    }
    assert responses["hit"].cached and responses["traced"].trace_id
    assert responses["traced"].request.subject is None

    entries = pdp.dump()
    assert [e["seq"] for e in entries] == list(range(1, len(entries) + 1))
    reloads = [e for e in entries if e["outcome"] == "reload"]
    answered = [e for e in entries if e["outcome"] != "reload"]
    assert len(reloads) == 1 and len(answered) == len(responses)
    for entry in answered:
        assert entry == eager_entry(responses[entry["request_id"]], entry["seq"])
        assert list(entry) == list(eager_entry(responses["grant"], 0))
    json.dumps(entries)

    (reload,) = reloads
    assert reload["transaction"] == "policy.reload"
    assert reload["subject"] is None and reload["object"] == "tv"
    assert reload["environment_roles"] == [] and reload["trace_id"] == ""
    assert list(reload) == list(answered[0])
    # The reload sits between the deny and the traced answer.
    order = [e["request_id"] or e["outcome"] for e in entries]
    assert order.index("reload") == order.index("deny") + 1


def test_two_dumps_are_equal_but_independent(tv_policy) -> None:
    pdp, _ = serve_every_kind(tv_policy)
    first, second = pdp.dump(), pdp.dump()
    assert first == second
    for a, b in zip(first, second):
        assert a is not b
        assert a["environment_roles"] is not b["environment_roles"]
        a["environment_roles"].append("tampered")
        a["outcome"] = "tampered"
    assert pdp.dump() == second


def test_filters_and_cursor_over_a_wrapped_ring(tv_policy) -> None:
    _, responses = serve_every_kind(tv_policy)
    answers = list(responses.values()) * 3  # 24 answers
    recorder = FlightRecorder(capacity=10)
    for answer in answers:
        recorder.add(answer)
    eager = [eager_entry(a, seq) for seq, a in enumerate(answers, 1)]
    retained = eager[-10:]
    assert recorder.recorded == recorder.last_seq == 24
    assert len(recorder) == 10
    assert recorder.dump() == retained

    assert recorder.dump(since_seq=20) == eager[20:]
    assert recorder.dump(since_seq=3) == retained  # cursor behind the ring
    assert recorder.dump(limit=3) == eager[-3:]
    assert recorder.dump(limit=0) == []
    for subject in ("alice", "bobby"):
        assert recorder.dump(subject=subject) == [
            e for e in retained if e["subject"] == subject
        ]
    for outcome in ("grant", "deny", "deny-timeout", "error"):
        assert recorder.dump(outcome=outcome) == [
            e for e in retained if e["outcome"] == outcome
        ]
    both = [
        e for e in retained
        if e["subject"] == "alice" and e["outcome"] == "grant"
    ]
    assert recorder.dump(subject="alice", outcome="grant") == both
    assert recorder.dump(subject="alice", outcome="grant", limit=1) == both[-1:]
    assert recorder.dump(since_seq=22, outcome="error") == [
        e for e in eager[22:] if e["outcome"] == "error"
    ]
