"""Unit tests for the observability substrate (metrics, traces, hubs)."""

import pytest

from repro.core import AccessRequest, AuditLog, MediationEngine
from repro.obs import (
    CollectingObserver,
    DecisionTrace,
    MetricsRegistry,
    Observer,
    ObserverHub,
)
from repro.obs.metrics import Counter, Histogram


class TestCounter:
    def test_inc_and_set(self):
        counter = Counter("decisions")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(2)
        assert counter.value == 2


class TestHistogram:
    def test_tracks_count_sum_min_max(self):
        histogram = Histogram("latency")
        for value in (1e-6, 2e-6, 8e-6):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == pytest.approx(1e-6)
        assert histogram.max == pytest.approx(8e-6)
        assert histogram.mean == pytest.approx(11e-6 / 3)

    def test_quantiles_are_bucket_bounded(self):
        histogram = Histogram("latency")
        for _ in range(100):
            histogram.observe(5e-6)
        # 5us falls in the (4us, 8us] bucket; the bucket's upper bound
        # is clamped to the observed max, so a uniform stream reports
        # the true value instead of over-reporting by up to one bucket.
        assert histogram.quantile(0.5) == pytest.approx(5e-6)
        assert histogram.quantile(0.99) == pytest.approx(5e-6)
        # A spread within one bucket still reports that bucket's bound
        # (clamped to the max actually seen).
        histogram.observe(7e-6)
        assert histogram.quantile(0.99) == pytest.approx(7e-6)

    def test_empty_histogram_is_zeroed(self):
        histogram = Histogram("latency")
        assert histogram.quantile(0.5) == 0.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_us"] == 0.0

    def test_quantile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram("latency").quantile(0.0)


class TestMetricsRegistry:
    def test_create_on_demand_and_reuse(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.inc("decisions", 3)
        registry.observe("latency", 2e-6)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"decisions": 3}
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_render_mentions_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("decisions")
        registry.observe("latency", 2e-6)
        text = registry.render()
        assert "counters:" in text
        assert "decisions" in text
        assert "latency histograms (us):" in text

    def test_render_empty(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"


class TestDecisionTrace:
    def test_render_without_spans_matches_explain_contract(self):
        trace = DecisionTrace(subject="alice", transaction="watch", obj="livingroom/tv")
        trace.granted = True
        trace.rationale = "why not"
        trace.subject_roles = {"child": 1.0}
        trace.object_roles = ["entertainment"]
        trace.environment_roles = ["free-time"]
        trace.matched_rules = ["rule one"]
        text = trace.render()
        assert "GRANT" in text
        assert "alice" in text
        assert "child@1.00" in text
        assert "matched rules:" in text
        assert "pipeline" not in text  # no spans -> no pipeline section

    def test_spans_and_total(self):
        trace = DecisionTrace(subject=None, transaction="watch", obj="livingroom/tv")
        trace.add_span("a", 1e-6, {"k": 1})
        trace.add_span("b", 2e-6)
        assert trace.total_s == pytest.approx(3e-6)
        assert trace.span("a").annotations == {"k": 1}
        assert trace.span("missing") is None
        assert trace.stage_timings_us() == {"a": 1.0, "b": 2.0}
        assert "<unidentified>" in trace.render()


class TestObserverHub:
    def test_emit_reaches_all_observers(self):
        hub = ObserverHub()
        first = hub.subscribe(CollectingObserver())
        second = hub.subscribe(CollectingObserver())
        hub.emit("session.open", subject="mom")
        assert first.event_names() == ["session.open"]
        assert second.events[0][1] == {"subject": "mom"}

    def test_raising_observer_is_dropped_not_propagated(self):
        class Broken(Observer):
            def on_event(self, name, payload):
                raise RuntimeError("dashboard down")

        hub = ObserverHub()
        hub.subscribe(Broken())
        survivor = hub.subscribe(CollectingObserver())
        hub.emit("tick")  # must not raise
        assert len(hub) == 1
        assert hub.dropped and "dashboard down" in hub.dropped[0][1]
        assert survivor.event_names() == ["tick"]

    def test_empty_hub_is_falsy(self):
        hub = ObserverHub()
        assert not hub
        hub.subscribe(CollectingObserver())
        assert hub


class TestProducers:
    def test_session_manager_publishes_lifecycle_events(self, tv_policy):
        hub = ObserverHub()
        observer = hub.subscribe(CollectingObserver())
        tv_policy.sessions.observers = hub
        session = tv_policy.sessions.open("mom")
        session.activate("parent")
        session.deactivate("parent")
        tv_policy.sessions.close(session)
        assert observer.event_names() == [
            "session.open",
            "session.activate",
            "session.deactivate",
            "session.close",
        ]
        assert observer.events[1][1]["role"] == "parent"

    def test_audit_log_publishes_records(self, tv_engine):
        hub = ObserverHub()
        observer = hub.subscribe(CollectingObserver())
        log = AuditLog(observers=hub)
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        decision = tv_engine.decide(request, environment_roles={"free-time"})
        log.record(decision)
        assert observer.event_names() == ["audit.record"]
        payload = observer.events[0][1]
        assert payload["granted"] is True
        assert payload["subject"] == "alice"

    def test_audit_export_carries_stage_timings_for_traced_decisions(
        self, tv_engine
    ):
        import json

        log = AuditLog()
        request = AccessRequest(transaction="watch", obj="livingroom/tv", subject="alice")
        traced = tv_engine.decide(
            request, environment_roles={"free-time"}, trace=True
        )
        plain = tv_engine.decide(request, environment_roles={"free-time"})
        log.record(traced)
        log.record(plain)
        lines = [json.loads(line) for line in log.export_jsonl().splitlines()]
        assert "stage_timings_us" in lines[0]
        assert "resolve-subject-roles" in lines[0]["stage_timings_us"]
        assert "stage_timings_us" not in lines[1]

    def test_environment_runtime_publishes_role_definitions(self, tv_policy):
        from repro.env import EnvironmentRuntime
        from repro.env.conditions import always_true

        hub = ObserverHub()
        observer = hub.subscribe(CollectingObserver())
        runtime = EnvironmentRuntime(observers=hub)
        runtime.define_role(tv_policy, "at-home", always_true())
        assert observer.event_names() == ["env.define_role"]
        assert observer.events[0][1]["role"] == "at-home"

    def test_shared_registry_across_engines(self, tv_policy):
        registry = MetricsRegistry()
        first = MediationEngine(tv_policy, metrics=registry)
        second = MediationEngine(tv_policy, metrics=registry)
        assert first.metrics is registry
        assert second.metrics is registry
