"""Tests for rolling SLO tracking (fake clock — nothing sleeps)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, RollingRatio, SloObjective, SloTracker


class FakeClock:
    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TestRollingRatio:
    def test_empty_window_reports_default(self):
        ratio = RollingRatio(clock=FakeClock())
        assert ratio.ratio() == 1.0
        assert ratio.ratio(default=0.0) == 0.0

    def test_ratio_over_live_window(self):
        clock = FakeClock()
        ratio = RollingRatio(window_s=300, buckets=30, clock=clock)
        for good in (True, True, True, False):
            ratio.record(good)
        assert ratio.ratio() == pytest.approx(0.75)
        assert ratio.window_counts() == {"good": 3, "total": 4}

    def test_old_buckets_age_out(self):
        clock = FakeClock()
        ratio = RollingRatio(window_s=300, buckets=30, clock=clock)
        ratio.record(False)  # a bad event now...
        clock.advance(301)  # ...outlives the window
        ratio.record(True)
        assert ratio.ratio() == 1.0
        assert ratio.lifetime_total == 2  # lifetime tallies never age

    def test_stale_slot_reset_on_wraparound(self):
        clock = FakeClock()
        ratio = RollingRatio(window_s=30, buckets=3, clock=clock)
        ratio.record(False)
        # Land in the SAME slot one full ring later: the stale count
        # must be discarded, not added to.
        clock.advance(30)
        ratio.record(True)
        assert ratio.window_counts() == {"good": 1, "total": 1}

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            RollingRatio(window_s=0)
        with pytest.raises(ValueError):
            RollingRatio(buckets=0)


class TestSloObjective:
    def test_burn_rate_one_means_budget_spent_at_accrual(self):
        clock = FakeClock()
        objective = SloObjective("availability", 0.99, clock=clock)
        for _ in range(99):
            objective.record(True)
        objective.record(False)  # 1% errors against a 1% budget
        assert objective.burn_rate == pytest.approx(1.0)
        assert objective.met

    def test_burn_rate_scales_with_error_fraction(self):
        clock = FakeClock()
        objective = SloObjective("availability", 0.99, clock=clock)
        for _ in range(90):
            objective.record(True)
        for _ in range(10):
            objective.record(False)  # 10% errors = 10x budget spend
        assert objective.burn_rate == pytest.approx(10.0)
        assert not objective.met

    def test_snapshot_shape(self):
        objective = SloObjective("latency", 0.9, clock=FakeClock())
        objective.record(True)
        snapshot = objective.snapshot()
        assert snapshot["target"] == 0.9
        assert snapshot["ratio"] == 1.0
        assert snapshot["met"] is True
        assert snapshot["window_total"] == 1
        assert snapshot["lifetime_total"] == 1

    def test_rejects_degenerate_targets(self):
        with pytest.raises(ValueError):
            SloObjective("x", 0.0)
        with pytest.raises(ValueError):
            SloObjective("x", 1.0)


class TestSloTracker:
    def make_tracker(self, **kwargs) -> "tuple[SloTracker, FakeClock]":
        clock = FakeClock()
        tracker = SloTracker(
            availability_target=0.999,
            latency_threshold_s=0.050,
            latency_target=0.99,
            clock=clock,
            **kwargs,
        )
        return tracker, clock

    def test_mediated_fast_responses_keep_both_objectives(self):
        tracker, _ = self.make_tracker()
        for _ in range(100):
            tracker.record_response(mediated=True, latency_s=0.001)
        assert tracker.healthy
        snapshot = tracker.snapshot()
        assert snapshot["availability"]["ratio"] == 1.0
        assert snapshot["latency"]["ratio"] == 1.0
        assert snapshot["healthy"] is True

    def test_sheds_spend_availability_budget(self):
        tracker, _ = self.make_tracker()
        for _ in range(9):
            tracker.record_response(mediated=True, latency_s=0.001)
        tracker.record_response(mediated=False, latency_s=0.0)  # a shed
        assert not tracker.availability.met
        assert tracker.latency.met  # the shed was fast; separate axes
        assert not tracker.healthy

    def test_slow_responses_spend_latency_budget(self):
        tracker, _ = self.make_tracker()
        for _ in range(9):
            tracker.record_response(mediated=True, latency_s=0.001)
        tracker.record_response(mediated=True, latency_s=0.200)
        assert tracker.availability.met
        assert not tracker.latency.met

    def test_threshold_boundary_is_inclusive(self):
        tracker, _ = self.make_tracker()
        tracker.record_response(mediated=True, latency_s=0.050)
        assert tracker.latency.ratio == 1.0

    def test_bound_metrics_expose_live_gauges(self):
        registry = MetricsRegistry()
        tracker, _ = self.make_tracker(metrics=registry)
        gauges = registry.gauges()
        assert gauges["slo.availability.target"] == 0.999
        assert gauges["slo.latency.threshold_seconds"] == 0.050
        assert gauges["slo.availability.ratio"] == 1.0
        tracker.record_response(mediated=False, latency_s=0.0)
        assert registry.gauges()["slo.availability.ratio"] == 0.0
        assert registry.gauges()["slo.availability.burn_rate"] == (
            pytest.approx(1.0 / 0.001)
        )

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            SloTracker(latency_threshold_s=0.0)


class SteppingClock(FakeClock):
    """Advances ``step`` seconds on every read."""

    def __init__(self) -> None:
        super().__init__()
        self.step = 0.0

    def __call__(self) -> float:
        now = self.t
        self.t += self.step
        return now


def assert_self_consistent(snapshot, target: float) -> None:
    total = snapshot["window_total"]
    ratio = snapshot["window_good"] / total if total else 1.0
    assert snapshot["ratio"] == round(ratio, 6)
    assert snapshot["burn_rate"] == round((1.0 - ratio) / (1.0 - target), 4)
    assert snapshot["met"] is (ratio >= target)


class TestSnapshotReadsTheWindowOnce:
    def test_bucket_boundary_mid_snapshot_cannot_contradict(self):
        # 5 bad events land in the oldest live bucket; every later clock
        # read during the snapshot pushes them out of the window.
        clock = SteppingClock()
        objective = SloObjective(
            "availability", 0.99, window_s=30, buckets=3, clock=clock
        )
        for _ in range(5):
            objective.record(False)
        clock.advance(20)
        clock.step = 10.0
        snapshot = objective.snapshot()
        assert snapshot["window_good"] == 0
        assert snapshot["window_total"] == 5
        assert snapshot["ratio"] == 0.0
        assert snapshot["met"] is False
        assert_self_consistent(snapshot, 0.99)

    def test_tracker_snapshot_and_healthy_agree(self):
        clock = SteppingClock()
        tracker = SloTracker(window_s=30, buckets=3, clock=clock)
        for _ in range(5):
            tracker.record_response(mediated=False, latency_s=1.0)
        clock.advance(20)
        clock.step = 10.0
        snapshot = tracker.snapshot()
        assert snapshot["availability"]["window_total"] == 5
        assert_self_consistent(snapshot["availability"], 0.999)
        assert_self_consistent(snapshot["latency"], 0.99)
        assert snapshot["healthy"] is False

    def test_tracker_objectives_record_only_through_the_tracker(self):
        tracker = SloTracker(clock=FakeClock())
        with pytest.raises(TypeError):
            tracker.availability.record(True)


def reference_snapshot(availability, latency, threshold_s):
    """What two independent objectives (the pre-shared-ring shape)
    report for the same stream."""
    return {
        "availability": availability.snapshot(),
        "latency": {
            "threshold_ms": round(threshold_s * 1e3, 3),
            **latency.snapshot(),
        },
        "healthy": availability.met and latency.met,
    }


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.floats(min_value=0.0, max_value=0.1),
            # Up to ~3 windows: gaps longer than the window included.
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=60,
    )
)
def test_one_ring_tracker_matches_two_rolling_ratios(events):
    clock = FakeClock()
    window = {"window_s": 30.0, "buckets": 3, "clock": clock}
    tracker = SloTracker(
        availability_target=0.9, latency_threshold_s=0.05,
        latency_target=0.8, **window,
    )
    availability = SloObjective("availability", 0.9, **window)
    latency = SloObjective("latency", 0.8, **window)
    for mediated, latency_s, advance in events:
        clock.advance(advance)
        tracker.record_response(mediated=mediated, latency_s=latency_s)
        availability.record(mediated)
        latency.record(latency_s <= 0.05)
        expected = reference_snapshot(availability, latency, 0.05)
        assert tracker.snapshot() == expected
        assert tracker.healthy is expected["healthy"]
        assert tracker.availability.burn_rate == availability.burn_rate
        assert tracker.latency.ratio == latency.ratio
    clock.advance(31.0)  # everything ages out; lifetimes stay
    assert tracker.snapshot() == reference_snapshot(availability, latency, 0.05)
