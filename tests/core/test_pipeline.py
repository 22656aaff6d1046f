"""Unit tests for the staged decision pipeline."""

import os
import subprocess
import sys

import pytest

from repro.core import (
    STAGE_ORDER,
    AccessRequest,
    MediationEngine,
    Sign,
)
from repro.core.pipeline import (
    DecisionContext,
    direct_subject_confidences,
    restricted_assigned_roles,
)
from repro.exceptions import PolicyError
from repro.obs import CollectingObserver


class TestPipelineStructure:
    def test_stage_order_constant_matches_pipeline(self, tv_policy):
        engine = MediationEngine(tv_policy)
        assert tuple(s.name for s in engine.pipeline.stages) == STAGE_ORDER

    def test_direct_pipeline_execution_resolves_environment(self, tv_policy):
        # Driving the pipeline without a pre-resolved environment must
        # make SnapshotEnvironment consult the engine's source.
        from repro.core import StaticEnvironment

        engine = MediationEngine(tv_policy, StaticEnvironment({"free-time"}))
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        decision = engine.pipeline.execute(request)
        assert decision.granted
        assert "free-time" in decision.environment_roles

    def test_cli_import_leaves_numpy_out(self):
        # Every worker, router and CLI process pays for what
        # ``repro.cli`` imports: ~13 MiB and ~0.1 s when that was numpy.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; import repro.cli; "
                "sys.exit('numpy' in sys.modules)",
            ],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            timeout=60,
        )
        assert result.returncode == 0


class TestTracedDecisions:
    def test_trace_records_all_stages_with_timings(self, tv_engine):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        decision = tv_engine.decide(
            request, environment_roles={"free-time"}, trace=True
        )
        trace = decision.trace
        assert trace is not None
        assert [s.name for s in trace.spans] == list(STAGE_ORDER)
        assert all(s.duration_s is not None for s in trace.spans)
        assert trace.total_s is not None and trace.total_s > 0.0
        assert trace.granted is True
        assert trace.stage_timings_us().keys() == set(STAGE_ORDER)

    def test_untraced_decision_has_no_trace(self, tv_engine):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        decision = tv_engine.decide(request, environment_roles={"free-time"})
        assert decision.trace is None

    def test_traced_and_untraced_decisions_agree(self, tv_engine):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="bobby")
        env = {"free-time"}
        traced = tv_engine.decide(request, environment_roles=env, trace=True)
        plain = tv_engine.decide(request, environment_roles=env)
        assert traced == plain  # Decision equality ignores the trace

    def test_traced_decisions_bypass_the_cache(self, tv_policy):
        engine = MediationEngine(tv_policy, cache_size=16)
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        env = {"free-time"}
        first = engine.decide(request, environment_roles=env)
        again = engine.decide(request, environment_roles=env)
        assert again is first
        traced = engine.decide(request, environment_roles=env, trace=True)
        assert traced is not first
        assert traced.trace is not None
        # The cached entry must not have been replaced by the traced one.
        assert engine.decide(request, environment_roles=env) is first

    def test_traced_calls_feed_stage_histograms(self, tv_engine):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        tv_engine.decide(request, environment_roles={"free-time"}, trace=True)
        histograms = tv_engine.metrics.histograms()
        for stage in STAGE_ORDER:
            assert histograms[f"pipeline.{stage}"]["count"] == 1
        assert histograms["pipeline.total"]["count"] == 1

    def test_explain_renders_the_recorded_trace(self, tv_engine):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        decision = tv_engine.decide(
            request, environment_roles={"free-time"}, trace=True
        )
        text = decision.explain()
        assert "pipeline (compiled strategy):" in text
        assert "resolve-subject-roles" in text
        assert "matched rules:" in text


class TestApplyConstraints:
    def test_constraint_veto_turns_grant_into_deny(self, tv_engine):
        tv_engine.decision_constraints.append(
            lambda ctx: "curfew" if ctx.request.subject == "alice" else None
        )
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        decision = tv_engine.decide(request, environment_roles={"free-time"})
        assert not decision.granted
        assert "constraint veto: curfew" in decision.rationale
        # Other subjects are untouched.
        other = AccessRequest(transaction="watch", obj="livingroom/tv", subject="bobby")
        assert tv_engine.decide(other, environment_roles={"free-time"}).granted

    def test_constraints_never_turn_a_deny_into_a_grant(self, tv_engine):
        tv_engine.decision_constraints.append(lambda ctx: None)
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        # No active free-time: denied, constraint returning None keeps it.
        decision = tv_engine.decide(request, environment_roles=set())
        assert not decision.granted

    def test_engines_with_constraints_skip_the_cache(self, tv_policy):
        engine = MediationEngine(tv_policy, cache_size=16)
        engine.decision_constraints.append(lambda ctx: None)
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        env = {"free-time"}
        first = engine.decide(request, environment_roles=env)
        second = engine.decide(request, environment_roles=env)
        assert second is not first
        assert engine.cache_hits == 0


class TestObserverIntegration:
    def test_observer_sees_every_decision(self, tv_policy):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        # With the decision cache on, the second and third batches are
        # cache hits: they must reach observers like rendered ones.
        for cache_size in (0, 8):
            engine = MediationEngine(tv_policy, cache_size=cache_size)
            observer = engine.observers.subscribe(CollectingObserver())
            plain = [
                engine.decide_batch([request], environment_roles={"free-time"})[0]
                for _ in range(3)
            ]
            traced = engine.decide(
                request, environment_roles={"free-time"}, trace=True
            )
            assert engine.cache_hits == (2 if cache_size else 0)
            assert engine.decisions == 4
            assert observer.decisions == plain + [traced]
            assert observer.traces == [None, None, None, traced.trace]


class TestSharedRoleHelpers:
    def test_restricted_roles_without_session(self, tv_policy):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="mom")
        assert restricted_assigned_roles(tv_policy, request, None) == {"parent"}

    def test_restricted_roles_intersect_session_activation(self, tv_policy):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="mom")
        session = tv_policy.sessions.open("mom")
        try:
            assert restricted_assigned_roles(tv_policy, request, session) == set()
            session.activate("parent")
            assert restricted_assigned_roles(tv_policy, request, session) == {
                "parent"
            }
        finally:
            tv_policy.sessions.close(session)

    def test_session_subject_mismatch_raises(self, tv_policy):
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="mom")
        session = tv_policy.sessions.open("alice")
        try:
            with pytest.raises(PolicyError):
                restricted_assigned_roles(tv_policy, request, session)
        finally:
            tv_policy.sessions.close(session)

    def test_claims_merge_with_max_confidence(self, tv_policy):
        request = AccessRequest(
            transaction="watch",
            obj="livingroom/tv",
            subject="alice",
            role_claims={"child": 0.5},
            identity_confidence=0.9,
        )
        direct = direct_subject_confidences(tv_policy, request, None)
        assert direct["child"] == 0.9  # identity beats the weaker claim


class TestEngineTallies:
    def test_grants_and_denies_counted_including_cache_hits(self, tv_policy):
        engine = MediationEngine(tv_policy, cache_size=8)
        grant = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        for _ in range(3):
            engine.decide(grant, environment_roles={"free-time"})
        engine.decide(grant, environment_roles=set())  # deny
        stats = engine.stats()
        assert stats["grants"] == 3
        assert stats["denies"] == 1
        assert stats["decisions"] == 4
        # stats() syncs the tallies into the metrics registry.
        counters = engine.metrics.counters()
        assert counters["engine.decisions"] == 4
        assert counters["engine.grants"] == 3
        assert counters["engine.denies"] == 1

    def test_decision_context_carries_resolved_outputs(self, tv_policy):
        from repro.core import StaticEnvironment

        engine = MediationEngine(tv_policy, StaticEnvironment({"free-time"}))
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        ctx = DecisionContext(request)
        for run in engine.pipeline._runners:
            run(ctx)
        assert ctx.decision.granted
        assert ctx.matches and ctx.matches[0].sign is Sign.GRANT
        assert ctx.resolution.sign is Sign.GRANT
        assert "child" in ctx.subject_confidences
