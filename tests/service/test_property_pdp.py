"""Property: the served path is indistinguishable from direct mediation.

Hypothesis drives random interleavings of decision requests, policy
mutations, and environment transitions through a live PDP.  After
every step, each answer — whether it came from the revision-keyed
cache, a micro-batch, or a concurrent gather — must equal what a
fresh, direct :class:`MediationEngine` says for the same request at
the same policy and environment state.  A cached stale grant (or
deny) falsifies the property immediately.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessRequest,
    GrbacPolicy,
    MediationEngine,
    StaticEnvironment,
)
from repro.exceptions import GrbacError
from repro.service import MEDIATED_OUTCOMES, PDPConfig, PolicyDecisionPoint

SUBJECT_ROLES = ["parent", "child"]
SUBJECTS = {"mom": "parent", "alice": "child", "bobby": "child"}
OBJECT_ROLES = ["entertainment", "dangerous"]
OBJECTS = {"tv": "entertainment", "stereo": "entertainment", "oven": "dangerous"}
ENV_ROLES = ["free-time", "weekday", "weekend"]
TRANSACTIONS = ["watch", "power_on"]


def build_policy() -> GrbacPolicy:
    policy = GrbacPolicy("prop")
    for role in SUBJECT_ROLES:
        policy.add_subject_role(role)
    for role in OBJECT_ROLES:
        policy.add_object_role(role)
    for role in ENV_ROLES:
        policy.add_environment_role(role)
    for subject, role in SUBJECTS.items():
        policy.add_subject(subject)
        policy.assign_subject(subject, role)
    for obj, role in OBJECTS.items():
        policy.add_object(obj)
        policy.assign_object(obj, role)
    policy.grant("child", "watch", "entertainment", "free-time")
    policy.deny("child", "power_on", "dangerous")
    return policy


request_ops = st.tuples(
    st.just("request"),
    st.sampled_from(sorted(SUBJECTS)),
    st.sampled_from(TRANSACTIONS),
    st.sampled_from(sorted(OBJECTS)),
    st.one_of(
        st.none(),  # resolve through the environment source
        st.frozensets(st.sampled_from(ENV_ROLES), max_size=2),
    ),
)

rule_ops = st.tuples(
    st.sampled_from(["grant", "deny"]),
    st.sampled_from(SUBJECT_ROLES),
    st.sampled_from(TRANSACTIONS),
    st.sampled_from(OBJECT_ROLES),
    st.sampled_from(ENV_ROLES + ["any-environment"]),
)

env_ops = st.tuples(
    st.just("env"),
    st.sampled_from(ENV_ROLES),
    st.booleans(),
)

ops = st.lists(
    st.one_of(request_ops, rule_ops, env_ops), min_size=1, max_size=14
)


@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_pdp_always_agrees_with_direct_mediation(ops) -> None:
    policy = build_policy()
    environment = StaticEnvironment({"free-time"})
    # Manual revision reader for the opaque StaticEnvironment; every
    # env op bumps it (over-bumping costs hits, never correctness).
    revision = {"n": 0}
    engine = MediationEngine(policy, environment)
    pdp = PolicyDecisionPoint(
        engine,
        PDPConfig(max_batch=8, cache_size=64),
        env_revision=lambda: revision["n"],
    )

    async def scenario():
        async with pdp:
            for op in ops:
                kind = op[0]
                if kind == "request":
                    _, subject, transaction, obj, env = op
                    request = AccessRequest(transaction, obj, subject=subject)
                    env_set = set(env) if env is not None else None
                    # Three concurrent copies: exercises batching and
                    # the cache on the 2nd/3rd at the same revision.
                    responses = await asyncio.gather(
                        *(
                            pdp.submit(request, environment_roles=env_set)
                            for _ in range(3)
                        )
                    )
                    resolved = (
                        set(env)
                        if env is not None
                        else environment.active_environment_roles()
                    )
                    expected = (
                        MediationEngine(policy)
                        .decide(request, environment_roles=resolved)
                        .granted
                    )
                    for response in responses:
                        assert response.outcome in MEDIATED_OUTCOMES
                        assert response.granted == expected, (
                            f"{'cached ' if response.cached else ''}answer "
                            f"diverged from direct mediation for {op!r}"
                        )
                elif kind in ("grant", "deny"):
                    _, srole, transaction, orole, erole = op
                    try:
                        if kind == "grant":
                            policy.grant(srole, transaction, orole, erole)
                        else:
                            policy.deny(srole, transaction, orole, erole)
                    except GrbacError:
                        pass  # duplicate rule: no revision change needed
                else:
                    _, role, active = op
                    if active:
                        environment.activate(role)
                    else:
                        environment.deactivate(role)
                    revision["n"] += 1

    asyncio.run(scenario())


@settings(max_examples=20, deadline=None)
@given(
    env=st.frozensets(st.sampled_from(ENV_ROLES), max_size=3),
    repeats=st.integers(min_value=2, max_value=5),
)
def test_cache_hits_repeat_the_first_answer_verbatim(env, repeats) -> None:
    policy = build_policy()
    pdp = PolicyDecisionPoint(MediationEngine(policy))
    request = AccessRequest("watch", "tv", subject="alice")

    async def scenario():
        async with pdp:
            return [
                await pdp.submit(request, environment_roles=set(env))
                for _ in range(repeats)
            ]

    responses = asyncio.run(scenario())
    first = responses[0]
    assert not first.cached
    for later in responses[1:]:
        assert later.cached
        assert later.granted == first.granted
        assert later.decision is first.decision  # the very same object
