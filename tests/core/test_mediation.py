"""Tests for the mediation engine — the §4.2.4 decision procedure."""

import pytest

from repro.core import (
    AccessRequest,
    MediationEngine,
    PrecedenceStrategy,
    StaticEnvironment,
)
from repro.core.oracle import reference_decide
from repro.exceptions import PolicyError, UnknownEntityError


class TestBasicRule:
    """The three existential conditions of §4.2.4."""

    def test_grant_requires_all_three_roles(self, tv_policy, tv_engine):
        env = tv_engine.environment
        # Environment role inactive -> deny (condition 2 fails).
        assert not tv_engine.check("alice", "watch", "livingroom/tv")
        env.activate("free-time")
        # All three hold -> grant.
        assert tv_engine.check("alice", "watch", "livingroom/tv")

    def test_object_role_must_match(self, tv_engine):
        tv_engine.environment.activate("free-time")
        # The oven possesses no entertainment role (condition 1 fails).
        assert not tv_engine.check("alice", "watch", "kitchen/oven")

    def test_subject_role_must_match(self, tv_engine):
        tv_engine.environment.activate("free-time")
        # Mom possesses parent, not child (condition 3 fails).
        assert not tv_engine.check("mom", "watch", "livingroom/tv")

    def test_unknown_entities_raise(self, tv_engine):
        with pytest.raises(UnknownEntityError):
            tv_engine.check("ghost", "watch", "livingroom/tv")
        with pytest.raises(UnknownEntityError):
            tv_engine.check("alice", "watch", "ghost-object")
        with pytest.raises(UnknownEntityError):
            tv_engine.check("alice", "ghost-transaction", "livingroom/tv")


class TestHierarchyExpansion:
    def test_object_hierarchy_expansion(self, tv_policy, free_time_env):
        # The rule names entertainment-devices; the TV's direct role is
        # television, a specialization.
        engine = MediationEngine(tv_policy, free_time_env)
        assert engine.check("alice", "watch", "livingroom/tv")

    def test_subject_hierarchy_expansion(self, tv_policy, free_time_env):
        # A rule for family-member covers children through expansion.
        tv_policy.grant("family-member", "open", "any-object")
        engine = MediationEngine(tv_policy, free_time_env)
        assert engine.check("alice", "open", "kitchen/oven")

    def test_environment_hierarchy_expansion(self, tv_policy):
        # weekday-evening specializes free-time: activating the
        # specific role activates the general one.
        tv_policy.add_environment_role("weekday-evening")
        tv_policy.environment_roles.add_specialization("weekday-evening", "free-time")
        engine = MediationEngine(tv_policy, StaticEnvironment({"weekday-evening"}))
        assert engine.check("alice", "watch", "livingroom/tv")

    def test_expansion_is_upward_only(self, tv_policy, free_time_env):
        # A rule for the *specific* role must not cover subjects that
        # hold only the general role.
        tv_policy.add_subject("guest-kid")
        tv_policy.assign_subject("guest-kid", "family-member")
        tv_policy.grant("parent", "unlock", "any-object")
        engine = MediationEngine(tv_policy, free_time_env)
        assert not engine.check("guest-kid", "watch", "livingroom/tv")
        assert not engine.check("guest-kid", "unlock", "kitchen/oven")


class TestNegativeRights:
    def test_deny_overrides_grant(self, tv_policy, free_time_env):
        tv_policy.deny("child", "watch", "television", "any-environment")
        engine = MediationEngine(tv_policy, free_time_env)
        decision = engine.decide(
            AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        )
        assert not decision.granted
        assert "deny-overrides" in decision.rationale

    def test_allow_overrides_flips_it(self, tv_policy, free_time_env):
        tv_policy.deny("child", "watch", "television", "any-environment")
        tv_policy.precedence = PrecedenceStrategy.ALLOW_OVERRIDES
        engine = MediationEngine(tv_policy, free_time_env)
        assert engine.check("alice", "watch", "livingroom/tv")

    def test_most_specific_prefers_television_rule(self, tv_policy, free_time_env):
        # Deny on the specific 'television' role vs grant on the
        # general 'entertainment-devices' (same environment role):
        # most-specific lets the deny win because it sits one
        # hierarchy step closer to the object's direct role.
        tv_policy.deny("child", "watch", "television", "free-time")
        tv_policy.precedence = PrecedenceStrategy.MOST_SPECIFIC
        engine = MediationEngine(tv_policy, free_time_env)
        assert not engine.check("alice", "watch", "livingroom/tv")

    def test_most_specific_treats_wildcards_as_least_specific(
        self, tv_policy, free_time_env
    ):
        # A deny written against any-environment is *less* specific
        # than a grant that names the active environment role, even if
        # the deny names a more specific object role.
        tv_policy.deny("child", "watch", "television")  # any-environment
        tv_policy.precedence = PrecedenceStrategy.MOST_SPECIFIC
        engine = MediationEngine(tv_policy, free_time_env)
        assert engine.check("alice", "watch", "livingroom/tv")

    def test_priority_strategy(self, tv_policy, free_time_env):
        tv_policy.deny("child", "watch", "television", priority=1)
        tv_policy.grant("child", "watch", "television", priority=5)
        tv_policy.precedence = PrecedenceStrategy.PRIORITY
        engine = MediationEngine(tv_policy, free_time_env)
        assert engine.check("alice", "watch", "livingroom/tv")


class TestSessions:
    def test_session_restricts_usable_roles(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env)
        session = tv_policy.sessions.open("alice")  # nothing active
        request = AccessRequest(
            transaction="watch", obj="livingroom/tv", subject="alice"
        )
        assert not engine.decide(request, session=session).granted
        session.activate("child")
        assert engine.decide(request, session=session).granted

    def test_session_subject_mismatch_raises(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env)
        session = tv_policy.sessions.open("bobby")
        request = AccessRequest(
            transaction="watch", obj="livingroom/tv", subject="alice"
        )
        with pytest.raises(PolicyError):
            engine.decide(request, session=session)


class TestConfidence:
    def test_rule_min_confidence_gates_grant(self, tv_policy, free_time_env):
        tv_policy.grant(
            "parent", "view_stream", "any-object", min_confidence=0.9
        )
        engine = MediationEngine(tv_policy, free_time_env)
        weak = AccessRequest(
            transaction="view_stream",
            obj="livingroom/tv",
            subject="mom",
            identity_confidence=0.7,
        )
        strong = AccessRequest(
            transaction="view_stream",
            obj="livingroom/tv",
            subject="mom",
            identity_confidence=0.95,
        )
        assert not engine.decide(weak).granted
        assert engine.decide(strong).granted

    def test_engine_threshold_gates_grant(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env, confidence_threshold=0.9)
        weak = AccessRequest(
            transaction="watch",
            obj="livingroom/tv",
            subject="alice",
            identity_confidence=0.75,
        )
        assert not engine.decide(weak).granted

    def test_rule_threshold_overrides_engine_threshold(self, tv_policy, free_time_env):
        # §3 quality tiers: a rule with its own (lower) min_confidence
        # governs itself, even under a stricter house default.
        tv_policy.grant(
            "parent", "view_snapshot", "any-object", min_confidence=0.6
        )
        engine = MediationEngine(tv_policy, free_time_env, confidence_threshold=0.9)
        request = AccessRequest(
            transaction="view_snapshot",
            obj="livingroom/tv",
            subject="mom",
            identity_confidence=0.75,
        )
        assert engine.decide(request).granted

    def test_role_claims_without_identity(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env, confidence_threshold=0.9)
        request = AccessRequest(
            transaction="watch",
            obj="livingroom/tv",
            role_claims={"child": 0.98},
        )
        decision = engine.decide(request)
        assert decision.granted
        assert decision.request.subject is None

    def test_claims_combine_with_identity_take_max(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env, confidence_threshold=0.9)
        request = AccessRequest(
            transaction="watch",
            obj="livingroom/tv",
            subject="alice",
            identity_confidence=0.75,
            role_claims={"child": 0.98},
        )
        decision = engine.decide(request)
        assert decision.granted
        assert decision.subject_role_confidence["child"] == 0.98

    def test_low_confidence_never_escapes_a_deny(self, tv_policy, free_time_env):
        # Denies match at any confidence; weak evidence must not
        # unlock what a deny forbids.
        tv_policy.deny("child", "watch", "television")
        engine = MediationEngine(tv_policy, free_time_env, confidence_threshold=0.9)
        request = AccessRequest(
            transaction="watch",
            obj="livingroom/tv",
            role_claims={"child": 0.98},
        )
        assert not engine.decide(request).granted

    def test_claim_for_unknown_role_raises(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env)
        with pytest.raises(UnknownEntityError):
            engine.decide(
                AccessRequest(
                    transaction="watch",
                    obj="livingroom/tv",
                    role_claims={"ghost": 0.9},
                )
            )

    def test_confidence_propagates_to_generalizations(self, tv_policy, free_time_env):
        tv_policy.grant("family-member", "open", "any-object")
        engine = MediationEngine(tv_policy, free_time_env)
        decision = engine.decide(
            AccessRequest(
                transaction="open",
                obj="kitchen/oven",
                role_claims={"child": 0.8},
            )
        )
        assert decision.subject_role_confidence["family-member"] == 0.8


class TestRequestValidation:
    def test_request_needs_subject_or_claims(self):
        with pytest.raises(PolicyError):
            AccessRequest(transaction="t", obj="o")

    def test_confidence_ranges_validated(self):
        with pytest.raises(PolicyError):
            AccessRequest(transaction="t", obj="o", subject="s", identity_confidence=2)
        with pytest.raises(PolicyError):
            AccessRequest(transaction="t", obj="o", role_claims={"r": -0.5})


class TestEngineVsOracle:
    def test_paths_agree_on_fixture(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env)
        for subject in ("mom", "alice"):
            for obj in ("livingroom/tv", "kitchen/oven"):
                request = AccessRequest(
                    transaction="watch", obj=obj, subject=subject
                )
                assert engine.decide(request) == reference_decide(
                    tv_policy, request, {"free-time"}
                )

    def test_snapshot_refreshes_after_rule_changes(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env)
        request = AccessRequest(
            transaction="watch", obj="livingroom/tv", subject="alice"
        )

        def granted() -> bool:
            decision = engine.decide(request)
            assert decision == reference_decide(tv_policy, request, {"free-time"})
            return decision.granted

        assert granted()
        permission = tv_policy.permissions()[0]
        tv_policy.remove_permission(permission)
        assert not granted()
        tv_policy.add_permission(permission)
        assert granted()


class TestDecisionExplain:
    def test_explain_contains_key_facts(self, tv_policy, free_time_env):
        engine = MediationEngine(tv_policy, free_time_env)
        decision = engine.decide(
            AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        )
        text = decision.explain()
        assert "GRANT" in text
        assert "alice" in text
        assert "child" in text
        assert "free-time" in text
        assert "matched rules:" in text

    def test_environment_override(self, tv_policy):
        engine = MediationEngine(tv_policy)  # no environment source
        request = AccessRequest(
            transaction="watch", obj="livingroom/tv", subject="alice"
        )
        assert not engine.decide(request).granted
        assert engine.decide(request, environment_roles={"free-time"}).granted
