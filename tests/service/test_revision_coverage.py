"""Revision coverage: no decision-observable change may serve stale.

Two regression families guard the service cache key:

* every policy mutation that can change a decision must move
  ``decision_revision`` (or already be a key component, like
  precedence) — a mutation outside the key is a stale-serve bug;
* the environment part of the key must track the engine's *live*
  environment source.  The source used to be resolved once at PDP
  construction, so attaching or replacing a source afterwards changed
  decisions without changing keys.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import AccessRequest, MediationEngine, StaticEnvironment
from repro.core.precedence import PrecedenceStrategy
from repro.service import PDPConfig, PDPOutcome, PolicyDecisionPoint

REQUEST = AccessRequest("watch", "livingroom/tv", subject="alice")
ENV = {"free-time"}


def run(coroutine):
    return asyncio.run(coroutine)


def make_pdp(engine, **config) -> PolicyDecisionPoint:
    return PolicyDecisionPoint(engine, PDPConfig(**config))


class RevisionedEnvironment(StaticEnvironment):
    """A static source that also carries an explicit revision number."""

    def __init__(self, active=None, revision=0) -> None:
        super().__init__(active)
        self.revision = revision


# ----------------------------------------------------------------------
# Mutation sweep: everything decision-observable moves the revision
# ----------------------------------------------------------------------
def _specialize_subject(policy):
    policy.subject_roles.add_specialization("grandparent", "family-member")


def _specialize_object(policy):
    policy.object_roles.add_specialization("appliances", "dangerous")


def _specialize_environment(policy):
    policy.environment_roles.add_specialization("nighttime", "free-time")


MUTATIONS = [
    ("assign_subject", None, lambda p: p.assign_subject("mom", "child")),
    ("revoke_subject", None, lambda p: p.revoke_subject("alice", "child")),
    (
        "assign_object",
        None,
        lambda p: p.assign_object("kitchen/oven", "entertainment-devices"),
    ),
    (
        "revoke_object",
        None,
        lambda p: p.revoke_object("livingroom/tv", "television"),
    ),
    ("grant", None, lambda p: p.grant("parent", "watch", "dangerous")),
    ("deny", None, lambda p: p.deny("child", "watch", "dangerous")),
    (
        "remove_permission",
        None,
        lambda p: p.remove_permission(p.permissions()[0]),
    ),
    ("add_subject_role", None, lambda p: p.add_subject_role("grandparent")),
    ("add_object_role", None, lambda p: p.add_object_role("appliances")),
    (
        "add_environment_role",
        None,
        lambda p: p.add_environment_role("nighttime"),
    ),
    (
        "subject_specialization",
        lambda p: p.add_subject_role("grandparent"),
        _specialize_subject,
    ),
    (
        "object_specialization",
        lambda p: p.add_object_role("appliances"),
        _specialize_object,
    ),
    (
        "environment_specialization",
        lambda p: p.add_environment_role("nighttime"),
        _specialize_environment,
    ),
    (
        "remove_specialization",
        None,
        lambda p: p.object_roles.remove_specialization(
            "television", "entertainment-devices"
        ),
    ),
]


@pytest.mark.parametrize(
    "prepare,mutate",
    [case[1:] for case in MUTATIONS],
    ids=[case[0] for case in MUTATIONS],
)
def test_decision_observable_mutation_moves_revision(
    tv_policy, prepare, mutate
) -> None:
    if prepare is not None:
        prepare(tv_policy)
    before = tv_policy.decision_revision
    mutate(tv_policy)
    assert tv_policy.decision_revision > before


def test_entity_registration_does_not_move_revision(tv_policy) -> None:
    """Registering entities is deliberately revision-neutral.

    An unregistered entity can only produce an ERROR outcome, and
    errors are never cached — so registration cannot flip a cached
    answer and needs no revision bump (keeps bulk loading cheap).
    """
    before = tv_policy.decision_revision
    tv_policy.add_subject("grandma")
    tv_policy.add_object("den/radio")
    tv_policy.add_transaction("listen")
    assert tv_policy.decision_revision == before


def test_error_for_unknown_subject_is_not_served_after_registration(
    tv_policy,
) -> None:
    """The revision-neutrality above is safe only because ERROR
    outcomes never enter the cache: once the subject is registered
    *and assigned* (the assignment moves the revision), the next
    submit is decided fresh."""
    pdp = make_pdp(MediationEngine(tv_policy))
    request = AccessRequest("watch", "livingroom/tv", subject="grandma")

    async def scenario():
        async with pdp:
            unknown = await pdp.submit(request, environment_roles=ENV)
            tv_policy.add_subject("grandma")
            tv_policy.assign_subject("grandma", "parent")
            tv_policy.grant("parent", "watch", "entertainment-devices")
            known = await pdp.submit(request, environment_roles=ENV)
        return unknown, known

    unknown, known = run(scenario())
    assert unknown.outcome is PDPOutcome.ERROR
    assert known.outcome is PDPOutcome.GRANT
    assert known.cached is False


def test_mutation_invalidates_cached_decision_end_to_end(tv_policy) -> None:
    """Warm the cache, revoke the granting assignment, resubmit."""
    pdp = make_pdp(MediationEngine(tv_policy))

    async def scenario():
        async with pdp:
            first = await pdp.submit(REQUEST, environment_roles=ENV)
            warmed = await pdp.submit(REQUEST, environment_roles=ENV)
            tv_policy.revoke_subject("alice", "child")
            revoked = await pdp.submit(REQUEST, environment_roles=ENV)
        return first, warmed, revoked

    first, warmed, revoked = run(scenario())
    assert first.granted is True
    assert warmed.cached is True
    assert revoked.cached is False
    assert revoked.granted is False


def test_precedence_and_default_sign_are_key_components(tv_policy) -> None:
    """Precedence and the default sign do not move the revision — they
    are key components directly, so flipping them must still miss."""
    pdp = make_pdp(MediationEngine(tv_policy))
    tv_policy.deny("child", "watch", "television", "free-time")

    async def scenario():
        async with pdp:
            deny_wins = await pdp.submit(REQUEST, environment_roles=ENV)
            tv_policy.precedence = PrecedenceStrategy.MOST_SPECIFIC
            specific = await pdp.submit(REQUEST, environment_roles=ENV)
        return deny_wins, specific

    deny_wins, specific = run(scenario())
    assert deny_wins.granted is False  # deny-overrides
    # television ⊂ entertainment-devices: the deny is more specific,
    # so the answer happens to agree — the point is the key moved.
    assert specific.cached is False


# ----------------------------------------------------------------------
# Environment-source coverage (the attach/replace epoch fix)
# ----------------------------------------------------------------------
def _change_source(tv_policy, tenant, first, second):
    """Serve ``tenant`` from an engine whose environment source is
    ``first``, warm the cache, then put ``second`` in its place.

    ``tenant=None`` is the default tenant; a named one is pinned by
    ``swap_policy`` (its engine inherits the deployment's source).
    Returns the ``(initial, warmed, changed)`` responses."""
    engine = MediationEngine(tv_policy, first)
    pdp = make_pdp(engine)
    if tenant is not None:
        pdp.swap_policy(tv_policy, tenant=tenant)
        engine = pdp._resolve_tenant(tenant)[0]

    async def scenario():
        async with pdp:
            initial = await pdp.submit(REQUEST, tenant=tenant)
            warmed = await pdp.submit(REQUEST, tenant=tenant)
            engine.environment = second
            changed = await pdp.submit(REQUEST, tenant=tenant)
        return initial, warmed, changed

    return run(scenario())


def test_attaching_environment_source_is_decision_visible(tv_policy) -> None:
    """No source → cached DENY; attach one mid-flight → fresh GRANT.

    Before the epoch fix the environment part of the key was resolved
    once at construction, so the attach changed decisions without
    changing keys."""
    bare, warmed, attached = _change_source(
        tv_policy, None, None, RevisionedEnvironment({"free-time"})
    )
    assert bare.granted is False  # free-time not active
    assert warmed.cached is True
    assert attached.cached is False
    assert attached.granted is True


def test_replacing_source_with_equal_revision_cannot_serve_stale(
    tv_policy,
) -> None:
    """Two sources with the *same* revision number: the identity epoch
    keeps their keys disjoint."""
    granted, warmed, replaced = _change_source(
        tv_policy,
        None,
        RevisionedEnvironment({"free-time"}, revision=5),
        RevisionedEnvironment(set(), revision=5),
    )
    assert granted.granted is True
    assert warmed.cached is True
    assert replaced.cached is False
    assert replaced.granted is False


@pytest.mark.parametrize(
    "tenant,first,second",
    [
        ("pinned", None, RevisionedEnvironment({"free-time"})),
        (
            "pinned",
            RevisionedEnvironment({"free-time"}, revision=5),
            RevisionedEnvironment(set(), revision=5),
        ),
        (None, RevisionedEnvironment({"free-time"}), None),
        ("pinned", RevisionedEnvironment({"free-time"}), None),
    ],
    ids=["attach-pinned", "replace-pinned", "detach-default", "detach-pinned"],
)
def test_source_identity_is_tracked_for_every_tenant(
    tv_policy, tenant, first, second
) -> None:
    """The same regressions for a pinned tenant — whose key had no
    identity epoch, so an equal-revision replacement served stale —
    and detaching the source, for both."""
    initial, warmed, changed = _change_source(tv_policy, tenant, first, second)
    assert initial.granted is (first is not None)
    assert warmed.cached is True
    assert changed.cached is False
    assert changed.granted is (
        second is not None and "free-time" in second.active_environment_roles()
    )


def test_source_revision_change_is_decision_visible(tv_policy) -> None:
    """The routine case: same source object, revision moves."""
    source = RevisionedEnvironment({"free-time"}, revision=1)
    engine = MediationEngine(tv_policy, source)
    pdp = make_pdp(engine)

    async def scenario():
        async with pdp:
            granted = await pdp.submit(REQUEST)
            source.set_active(set())
            source.revision += 1
            changed = await pdp.submit(REQUEST)
        return granted, changed

    granted, changed = run(scenario())
    assert granted.granted is True
    assert changed.cached is False
    assert changed.granted is False


def test_opaque_source_is_uncacheable_not_stale(tv_policy) -> None:
    """A source without ``.revision`` cannot be keyed: every submit is
    decided fresh (counted uncacheable) rather than risking staleness."""
    source = StaticEnvironment({"free-time"})
    pdp = make_pdp(MediationEngine(tv_policy, source))

    async def scenario():
        async with pdp:
            first = await pdp.submit(REQUEST)
            second = await pdp.submit(REQUEST)
            source.set_active(set())
            third = await pdp.submit(REQUEST)
        return first, second, third

    first, second, third = run(scenario())
    assert first.granted is second.granted is True
    assert second.cached is False
    assert third.granted is False
    stats = pdp.stats()
    assert stats["cache_hits"] == 0
    assert stats["cache_uncacheable"] == 3
