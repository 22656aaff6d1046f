"""Property-based tests for the core model (hypothesis).

Invariants checked:

* hierarchy seniority is a partial order (reflexive, transitive,
  antisymmetric) and ``expand`` equals the union of closures;
* random edge insertions never produce a cycle (cycle attempts raise);
* the mediation engine is decision-equivalent to the literal §4.2.4
  quantifier (``repro.core.oracle``) on random policies and requests,
  through every entry point;
* deny-overrides/allow-overrides resolutions are monotone in match
  sets (adding a deny never turns a deny-overrides grant... etc.).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    STAGE_ORDER,
    AccessRequest,
    MediationEngine,
    PrecedenceStrategy,
    Sign,
    StaticEnvironment,
)
from repro.core.hierarchy import RoleHierarchy
from repro.core.oracle import reference_decide
from repro.core.roles import RoleKind, subject_role
from repro.exceptions import HierarchyCycleError
from repro.workload.generator import (
    RandomPolicyConfig,
    generate_policy,
    generate_requests,
)

# ----------------------------------------------------------------------
# Hierarchy properties
# ----------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    min_size=0,
    max_size=30,
)


def build_hierarchy(edges) -> RoleHierarchy:
    h = RoleHierarchy(RoleKind.SUBJECT)
    names = [f"r{i}" for i in range(12)]
    for name in names:
        h.add_role(subject_role(name))
    for child, parent in edges:
        if child == parent:
            continue
        try:
            h.add_specialization(names[child], names[parent])
        except HierarchyCycleError:
            pass
    return h


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_hierarchy_seniority_is_partial_order(edges):
    h = build_hierarchy(edges)
    names = [r.name for r in h.roles()]
    # Reflexive
    for name in names:
        assert h.is_specialization_of(name, name)
    # Antisymmetric (a DAG cannot have a <= b and b <= a for a != b)
    for a in names:
        for b in names:
            if a != b and h.is_specialization_of(a, b):
                assert not h.is_specialization_of(b, a)
    # Transitive
    for a in names:
        for b in (r.name for r in h.generalizations(a)):
            for c in (r.name for r in h.generalizations(b)):
                assert h.is_specialization_of(a, c)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_hierarchy_expand_is_union_of_closures(edges):
    h = build_hierarchy(edges)
    names = [r.name for r in h.roles()]
    some = names[::3]
    expanded = {r.name for r in h.expand(some)}
    union = set()
    for name in some:
        union.add(name)
        union.update(r.name for r in h.generalizations(name))
    assert expanded == union


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_hierarchy_distance_consistent_with_closure(edges):
    h = build_hierarchy(edges)
    names = [r.name for r in h.roles()]
    for a in names[:6]:
        for b in names[:6]:
            distance = h.distance(a, b)
            related = h.is_specialization_of(a, b)
            assert (distance is not None) == related
            if a == b:
                assert distance == 0


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_hierarchy_never_becomes_cyclic(edges):
    h = build_hierarchy(edges)
    # topological_order succeeds only on DAGs.
    order = [r.name for r in h.topological_order()]
    position = {name: i for i, name in enumerate(order)}
    for child, parent in ((c.name, p.name) for c, p in h.edges()):
        assert position[child] < position[parent]


# ----------------------------------------------------------------------
# Mediation equivalence: engine == the §4.2.4 oracle
# ----------------------------------------------------------------------
@st.composite
def policy_configs(draw):
    """Random-policy configs whose permission count always fits the
    unique grant-tuple space (the generator draws signs randomly, so
    the safe capacity is the grant-only one)."""
    subject_roles = draw(st.integers(2, 6))
    object_roles = draw(st.integers(2, 5))
    environment_roles = draw(st.integers(1, 4))
    transactions = draw(st.integers(1, 5))
    capacity = (
        subject_roles * (object_roles + 1) * (environment_roles + 1) * transactions
    )
    return RandomPolicyConfig(
        subjects=draw(st.integers(2, 8)),
        objects=draw(st.integers(2, 8)),
        transactions=transactions,
        subject_roles=subject_roles,
        object_roles=object_roles,
        environment_roles=environment_roles,
        hierarchy_edges=draw(st.integers(0, 5)),
        roles_per_subject=draw(st.integers(1, 3)),
        roles_per_object=draw(st.integers(1, 3)),
        permissions=min(draw(st.integers(1, 25)), capacity),
        deny_fraction=draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 10_000)),
    )


def _requests_with_env(policy, count, seed):
    return [
        (generated.request, set(generated.active_environment_roles))
        for generated in generate_requests(policy, count, seed=seed)
    ]


def _assert_engine_equals_oracle(policy, requests_with_env, threshold=0.0):
    """Every way into the engine must render what the §4.2.4 quantifier
    renders — full :class:`Decision` equality: granted, the matched
    permissions in policy order with their specificities and
    confidences, the resolution's winner and rationale, the role sets.

    Ways in: ``decide``; ``decide_batch`` with a per-request
    environment sequence, with one shared set, and with ``None`` (the
    engine's environment source); and the ``cache_size`` LRU, replayed
    so the second pass is served from it.
    """
    requests = [request for request, _ in requests_with_env]
    envs = [env for _, env in requests_with_env]

    def oracle(env_of):
        return [
            reference_decide(
                policy, request, env_of(i), confidence_threshold=threshold
            )
            for i, request in enumerate(requests)
        ]

    per_request = oracle(lambda i: envs[i])
    shared = oracle(lambda i: envs[0])
    engine = MediationEngine(
        policy, StaticEnvironment(envs[0]), confidence_threshold=threshold
    )
    assert [
        engine.decide(request, environment_roles=env)
        for request, env in requests_with_env
    ] == per_request
    assert engine.decide_batch(requests, environment_roles=envs) == per_request
    assert engine.decide_batch(requests, environment_roles=envs[0]) == shared
    assert engine.decide_batch(requests) == shared
    cached = MediationEngine(
        policy, confidence_threshold=threshold, cache_size=64
    )
    for _ in range(2):
        assert cached.decide_batch(requests, environment_roles=envs) == per_request
    assert cached.cache_hits >= len(requests)


@given(policy_configs(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_engine_equals_oracle(config, request_seed):
    policy = generate_policy(config)
    _assert_engine_equals_oracle(
        policy, _requests_with_env(policy, 15, request_seed)
    )


@given(
    policy_configs(),
    st.integers(0, 10_000),
    st.sampled_from(list(PrecedenceStrategy)),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_engine_equals_oracle_with_claims(
    config, request_seed, precedence, data
):
    """Equivalence under partial authentication and every precedence
    strategy.

    Requests are enriched with random role claims, identity
    confidences, and engine thresholds, so the DENY-at-any-confidence
    rule and the wildcard roles (the generator emits ``any-object`` /
    ``any-environment`` rules) are exercised.
    """
    policy = generate_policy(config)
    policy.precedence = precedence
    threshold = data.draw(
        st.sampled_from([0.0, 0.3, 0.7, 0.95]), label="threshold"
    )
    role_names = [r.name for r in policy.subject_roles.roles()]
    requests_with_env = []
    for base, env in _requests_with_env(policy, 8, request_seed):
        claims = data.draw(
            st.dictionaries(
                st.sampled_from(role_names),
                st.floats(0.0, 1.0),
                max_size=2,
            ),
            label="claims",
        )
        identity = data.draw(st.floats(0.0, 1.0), label="identity")
        subject = base.subject
        if claims and data.draw(st.booleans(), label="drop_subject"):
            subject = None  # pure sensor-driven request (§5.2)
        request = AccessRequest(
            transaction=base.transaction,
            obj=base.obj,
            subject=subject,
            role_claims=claims,
            identity_confidence=identity,
        )
        requests_with_env.append((request, env))
    _assert_engine_equals_oracle(policy, requests_with_env, threshold)


@given(policy_configs(), st.integers(0, 10_000), st.data())
@settings(max_examples=25, deadline=None)
def test_engine_equals_oracle_with_sessions(config, request_seed, data):
    """Equivalence when sessions restrict the active role set,
    including mid-session activation changes (the epoch-keyed memo
    must never serve a stale activation state)."""
    policy = generate_policy(config)
    engine = MediationEngine(policy)
    for request, env in _requests_with_env(policy, 5, request_seed):
        session = policy.sessions.open(request.subject)

        def check():
            expected = reference_decide(policy, request, env, session)
            assert engine.decide(
                request, session=session, environment_roles=env
            ) == expected
            assert engine.decide_batch(
                [request], session=session, environment_roles=env
            ) == [expected]

        try:
            for role in sorted(
                policy.authorized_subject_role_names(request.subject)
            ):
                if data.draw(st.booleans(), label=f"activate {role}"):
                    session.activate(role)
            check()
            # Flip the activation state and re-check: the session memo
            # must follow the epoch.
            active = sorted(session.active_roles)
            if active:
                session.deactivate(active[0])
                check()
        finally:
            policy.sessions.close(session)


@given(policy_configs(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_compiled_snapshot_invalidates_on_revision_bumps(config, request_seed):
    """A held engine must re-compile and agree with the oracle after
    every kind of policy mutation, mid-stream."""
    policy = generate_policy(config)
    engine = MediationEngine(policy)
    stream = _requests_with_env(policy, 6, request_seed)

    def check_against_oracle():
        for request, env in stream:
            assert engine.decide(
                request, environment_roles=env
            ) == reference_decide(policy, request, env)

    check_against_oracle()
    revision_before = policy.decision_revision
    # Permission mutation.
    removed = policy.permissions()[0]
    policy.remove_permission(removed)
    check_against_oracle()
    policy.add_permission(removed)
    check_against_oracle()
    # Assignment mutation.
    subject = policy.subjects()[0].name
    assigned = sorted(policy.authorized_subject_role_names(subject))
    if assigned:
        policy.revoke_subject(subject, assigned[0])
        check_against_oracle()
        policy.assign_subject(subject, assigned[0])
        check_against_oracle()
    # Hierarchy mutation (fresh leaf role, then an edge).
    policy.add_subject_role("prop-fresh-role")
    policy.subject_roles.add_specialization(
        "prop-fresh-role", policy.subject_roles.roles()[0].name
    )
    check_against_oracle()
    assert policy.decision_revision > revision_before
    assert engine.stats()["snapshot_revision"] == policy.decision_revision


# ----------------------------------------------------------------------
# Trace / decision coherence
# ----------------------------------------------------------------------
@given(policy_configs(), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_trace_coheres_with_decision(config, request_seed):
    """A traced decision must agree with the untraced one and with the
    oracle, and its trace must mirror the decision: granted iff a
    matched permission survived precedence as a grant, stage spans in
    pipeline order with real timings, and stage outputs (role
    closures, active environment roles) equal to direct policy
    queries."""
    policy = generate_policy(config)
    engine = MediationEngine(policy)
    for generated in generate_requests(policy, 6, seed=request_seed):
        env = set(generated.active_environment_roles)
        decision = engine.decide(
            generated.request, environment_roles=env, trace=True
        )
        trace = decision.trace
        assert trace is not None
        assert trace.mode == "compiled"

        # Tracing must not change the decision.
        assert decision == engine.decide(generated.request, environment_roles=env)
        assert decision == reference_decide(policy, generated.request, env)

        # One timed span per pipeline stage, in order.
        assert [span.name for span in trace.spans] == list(STAGE_ORDER)
        assert all(
            span.duration_s is not None and span.duration_s >= 0.0
            for span in trace.spans
        )

        # Decision facts mirrored into the trace.
        assert trace.granted == decision.granted
        assert trace.matched_rules == [
            m.permission.describe() for m in decision.matches
        ]

        # Granted iff a matched permission survived precedence as a
        # grant (or the policy default grants when nothing matched).
        winner = decision.resolution.winner
        if winner is not None:
            assert decision.granted == (winner.sign is Sign.GRANT)
            assert winner.permission.describe() in trace.matched_rules
        else:
            assert not trace.matched_rules
            assert decision.granted == (policy.default_sign is Sign.GRANT)

        # Stage outputs equal direct policy queries.
        subject = generated.request.subject
        assigned = policy.authorized_subject_role_names(subject)
        assert set(trace.subject_roles) == {
            r.name for r in policy.subject_roles.expand(assigned)
        }
        assert set(trace.object_roles) == {
            r.name
            for r in policy.effective_object_roles(generated.request.obj)
        }
        known = {n for n in env if n in policy.environment_roles}
        expected_env = {r.name for r in policy.environment_roles.expand(known)}
        expected_env.add("any-environment")
        assert set(trace.environment_roles) == expected_env


@given(policy_configs(), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_deny_overrides_is_never_more_permissive(config, request_seed):
    """deny-overrides grants a subset of what allow-overrides grants."""
    policy = generate_policy(config)
    engine = MediationEngine(policy)
    for generated in generate_requests(policy, 10, seed=request_seed):
        env = set(generated.active_environment_roles)
        policy.precedence = PrecedenceStrategy.DENY_OVERRIDES
        deny_first = engine.decide(generated.request, environment_roles=env)
        policy.precedence = PrecedenceStrategy.ALLOW_OVERRIDES
        allow_first = engine.decide(generated.request, environment_roles=env)
        if deny_first.granted:
            assert allow_first.granted


@given(policy_configs(), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_activating_more_environment_roles_is_monotone_for_grant_only(
    config, request_seed
):
    """With no deny rules, more active environment roles never revoke."""
    # Zeroing deny_fraction halves the unique-rule space (sign is part
    # of the rule key), so cap the permission count to what fits.
    capacity = (
        config.subject_roles
        * (config.object_roles + 1)
        * (config.environment_roles + 1)
        * config.transactions
    )
    config = RandomPolicyConfig(
        **{
            **config.__dict__,
            "deny_fraction": 0.0,
            "permissions": min(config.permissions, capacity),
        }
    )
    policy = generate_policy(config)
    engine = MediationEngine(policy)
    all_env = {
        r.name for r in policy.environment_roles.roles()
        if r.name != "any-environment"
    }
    for generated in generate_requests(policy, 10, seed=request_seed):
        some = set(generated.active_environment_roles)
        with_some = engine.decide(generated.request, environment_roles=some)
        with_all = engine.decide(generated.request, environment_roles=all_env)
        if with_some.granted:
            assert with_all.granted
