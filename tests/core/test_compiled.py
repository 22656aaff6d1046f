"""Compiled-snapshot mediation: structure, invalidation, batch path.

The equivalence of the engine with the §4.2.4 reference oracle is
property-tested in ``test_properties.py``; this file pins down the
snapshot mechanics themselves — interning, bitset closures, revision
invalidation, the expansion memos, ``decide_batch``, ``check``'s
environment passthrough, and the engine statistics surface.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AccessRequest,
    GrbacPolicy,
    MediationEngine,
    Sign,
)
from repro.exceptions import PolicyError, UnknownEntityError


@pytest.fixture
def tv_policy() -> GrbacPolicy:
    policy = GrbacPolicy("tv")
    policy.add_subject_role("home-user")
    policy.add_subject_role("family-member")
    policy.add_subject_role("parent")
    policy.add_subject_role("child")
    policy.subject_roles.add_specialization("family-member", "home-user")
    policy.subject_roles.add_specialization("parent", "family-member")
    policy.subject_roles.add_specialization("child", "family-member")
    policy.add_object_role("entertainment")
    policy.add_object_role("television")
    policy.object_roles.add_specialization("television", "entertainment")
    policy.add_environment_role("free-time")
    policy.add_subject("mom")
    policy.add_subject("bobby")
    policy.add_object("tv")
    policy.assign_subject("mom", "parent")
    policy.assign_subject("bobby", "child")
    policy.assign_object("tv", "television")
    policy.grant("family-member", "watch", "entertainment", "free-time")
    policy.deny("child", "watch", "television")
    return policy


class TestCompiledPolicyStructure:
    def test_interning_is_dense_and_insertion_ordered(self, tv_policy):
        snapshot = tv_policy.compiled()
        ids = snapshot.subjects.ids
        assert sorted(ids.values()) == list(range(len(ids)))
        assert list(ids) == [r.name for r in tv_policy.subject_roles.roles()]

    def test_upward_closure_masks(self, tv_policy):
        snapshot = tv_policy.compiled()
        interned = snapshot.subjects
        parent_mask = interned.up_masks[interned.ids["parent"]]
        for name in ("parent", "family-member", "home-user"):
            assert parent_mask & (1 << interned.ids[name])
        assert not parent_mask & (1 << interned.ids["child"])

    def test_rules_bucketed_by_transaction_and_subject_role(self, tv_policy):
        snapshot = tv_policy.compiled()
        watch = snapshot.rules["watch"]
        family_id = snapshot.subjects.ids["family-member"]
        child_id = snapshot.subjects.ids["child"]
        assert {family_id, child_id} == set(watch)
        (deny_rule,) = watch[child_id]
        assert deny_rule.is_deny
        assert deny_rule.object_is_wildcard is False
        assert snapshot.rule_count == 2

    def test_snapshot_cached_per_revision(self, tv_policy):
        first = tv_policy.compiled()
        assert tv_policy.compiled() is first
        tv_policy.grant("parent", "configure", "television")
        second = tv_policy.compiled()
        assert second is not first
        assert second.revision > first.revision
        assert tv_policy.compile_count == 2


class TestCompiledDecisions:
    def test_compiled_is_default_mode(self, tv_policy):
        # ... and the only one: traces still say which path rendered a
        # decision, and for the engine that is always "compiled".
        engine = MediationEngine(tv_policy)
        assert not hasattr(engine, "mode") and not hasattr(engine, "strategy")
        request = AccessRequest(transaction="watch", obj="tv", subject="mom")
        assert engine.decide(request, trace=True).trace.mode == "compiled"
        assert "mode" not in engine.stats()

    def test_unknown_mode_rejected(self, tv_policy):
        # Every mode is unknown now: the selectors are gone from the
        # engine and from the store that builds engines.
        from repro.store import PolicyStore

        for selector in ({"mode": "turbo"}, {"use_index": True}):
            with pytest.raises(TypeError):
                MediationEngine(tv_policy, **selector)
        with pytest.raises(TypeError):
            PolicyStore(engine_mode="compiled")

    def test_grant_and_deny_precedence(self, tv_policy):
        engine = MediationEngine(tv_policy)
        assert engine.check("mom", "watch", "tv", environment_roles={"free-time"})
        assert not engine.check(
            "bobby", "watch", "tv", environment_roles={"free-time"}
        )

    def test_check_environment_passthrough(self, tv_policy):
        engine = MediationEngine(tv_policy)
        # Without the environment role active, the grant cannot match.
        assert not engine.check("mom", "watch", "tv")
        assert engine.check("mom", "watch", "tv", environment_roles={"free-time"})

    def test_unknown_entities_raise_like_other_paths(self, tv_policy):
        engine = MediationEngine(tv_policy)
        with pytest.raises(UnknownEntityError):
            engine.check("stranger", "watch", "tv")
        with pytest.raises(UnknownEntityError):
            engine.check("mom", "watch", "toaster")
        with pytest.raises(UnknownEntityError):
            engine.check("mom", "defrost", "tv")

    def test_entities_registered_after_compile_are_visible(self, tv_policy):
        engine = MediationEngine(tv_policy)
        engine.check("mom", "watch", "tv")  # forces a compile
        # add_object / add_transaction do not move the decision
        # revision; the compiled path must still resolve them.
        tv_policy.add_object("radio")
        tv_policy.add_transaction("listen")
        request = AccessRequest(transaction="listen", obj="radio", subject="mom")
        decision = engine.decide(request)
        assert not decision.granted
        assert decision.matches == ()

    def test_snapshot_invalidates_on_each_mutation_kind(self, tv_policy):
        engine = MediationEngine(tv_policy)
        env = {"free-time"}
        assert not engine.check("bobby", "watch", "tv", environment_roles=env)
        revisions = {engine.stats()["snapshot_revision"]}

        # Permission mutation: retract the child deny.
        (deny,) = [
            p for p in tv_policy.permissions() if p.sign is Sign.DENY
        ]
        tv_policy.remove_permission(deny)
        assert engine.check("bobby", "watch", "tv", environment_roles=env)
        revisions.add(engine.stats()["snapshot_revision"])

        # Assignment mutation: bobby loses child (and with it the path
        # to family-member), so the grant stops matching.
        tv_policy.revoke_subject("bobby", "child")
        assert not engine.check("bobby", "watch", "tv", environment_roles=env)
        revisions.add(engine.stats()["snapshot_revision"])

        # Hierarchy mutation: assign a fresh role and wire it under
        # family-member — possession flows again.
        tv_policy.add_subject_role("teen")
        tv_policy.assign_subject("bobby", "teen")
        assert not engine.check("bobby", "watch", "tv", environment_roles=env)
        tv_policy.subject_roles.add_specialization("teen", "family-member")
        assert engine.check("bobby", "watch", "tv", environment_roles=env)
        revisions.add(engine.stats()["snapshot_revision"])

        assert len(revisions) == 4
        assert engine.stats()["compile_count"] >= 4

    def test_session_memo_tracks_activation_epoch(self, tv_policy):
        engine = MediationEngine(tv_policy)
        session = tv_policy.sessions.open("mom")
        request = AccessRequest(transaction="watch", obj="tv", subject="mom")
        env = {"free-time"}
        # No active roles: nothing matches.
        assert not engine.decide(
            request, session=session, environment_roles=env
        ).granted
        session.activate("parent")
        assert engine.decide(
            request, session=session, environment_roles=env
        ).granted
        session.deactivate("parent")
        assert not engine.decide(
            request, session=session, environment_roles=env
        ).granted

    def test_session_subject_mismatch_raises(self, tv_policy):
        engine = MediationEngine(tv_policy)
        session = tv_policy.sessions.open("mom")
        request = AccessRequest(transaction="watch", obj="tv", subject="bobby")
        with pytest.raises(PolicyError):
            engine.decide(request, session=session)

    def test_deny_matches_at_any_confidence(self, tv_policy):
        engine = MediationEngine(tv_policy, confidence_threshold=0.9)
        request = AccessRequest(
            transaction="watch", obj="tv", role_claims={"child": 0.2}
        )
        decision = engine.decide(request, environment_roles={"free-time"})
        assert not decision.granted
        # The weak claim still triggered the DENY rule; the GRANT was
        # confidence-gated out.
        assert [m.sign for m in decision.matches] == [Sign.DENY]


class TestDecideBatch:
    def _requests(self):
        return [
            AccessRequest(transaction="watch", obj="tv", subject="mom"),
            AccessRequest(transaction="watch", obj="tv", subject="bobby"),
        ]

    def test_shared_environment(self, tv_policy):
        engine = MediationEngine(tv_policy)
        decisions = engine.decide_batch(
            self._requests(), environment_roles={"free-time"}
        )
        assert [d.granted for d in decisions] == [True, False]

    def test_per_request_environments(self, tv_policy):
        engine = MediationEngine(tv_policy)
        decisions = engine.decide_batch(
            self._requests(), environment_roles=[{"free-time"}, set()]
        )
        assert [d.granted for d in decisions] == [True, False]

    def test_per_request_environment_length_mismatch(self, tv_policy):
        engine = MediationEngine(tv_policy)
        with pytest.raises(PolicyError):
            engine.decide_batch(self._requests(), environment_roles=[set()])

    def test_batch_equals_singles(self, tv_policy):
        requests = self._requests() * 3
        engine = MediationEngine(tv_policy)
        singles = [
            engine.decide(r, environment_roles={"free-time"}) for r in requests
        ]
        assert engine.decide_batch(
            requests, environment_roles={"free-time"}
        ) == singles

    def test_batch_reuses_expansion_memos(self, tv_policy):
        engine = MediationEngine(tv_policy)
        engine.decide_batch(
            self._requests() * 10, environment_roles={"free-time"}
        )
        stats = engine.stats()
        assert stats["decisions"] == 20
        assert stats["compile_count"] == 1
        assert stats["subject_profiles"] == 2
        assert stats["object_profiles"] == 1
        assert stats["environment_profiles"] == 1


class TestEngineStats:
    def test_stats_shape(self, tv_policy):
        engine = MediationEngine(tv_policy, cache_size=16)
        env = {"free-time"}
        engine.check("mom", "watch", "tv", environment_roles=env)
        engine.check("mom", "watch", "tv", environment_roles=env)
        stats = engine.stats()
        assert stats["decisions"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_entries"] == 1
        assert stats["compile_count"] == 1
        assert stats["compile_time_s"] >= 0.0
        assert stats["compiled_rules"] == 2
        assert stats["snapshot_revision"] == tv_policy.decision_revision

    def test_stats_before_first_decision(self, tv_policy):
        stats = MediationEngine(tv_policy).stats()
        assert stats["decisions"] == 0
        assert stats["snapshot_revision"] is None
        assert stats["compiled_rules"] == 0
