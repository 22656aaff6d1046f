"""SLO tracking: rolling service-level objectives with burn rates.

The PDP's counters say what happened since the process started; an
operator needs to know whether the service is meeting its objectives
*right now*.  This module tracks two objectives the serving layer
cares about:

* **availability** — the fraction of requests answered by mediation
  (not shed, not timed out, not errored).  The PDP's explicit
  fail-closed refusals are exactly the "error budget" spend.
* **latency** — the fraction of requests answered within a latency
  threshold.

Both objectives count into one rolling window (a bucketed ring of
three counters per bucket — total, mediated, fast — O(1) memory,
O(buckets) reads) plus lifetime totals, so recording a response reads
the clock once and finds one bucket.  Each objective derives the
standard **burn rate**: observed error fraction divided by the error
budget ``1 - target``.  Burn rate 1.0 means the budget is being spent
exactly as fast as it accrues; a sustained burn rate above ~14 on a
small window is the classic page-now signal.

Time is injectable (``clock``) and defaults to ``time.monotonic`` —
tests drive the window with a fake clock, nothing here sleeps.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


class _CounterRing:
    """``width`` integer counters over a rolling window, bucketed ring.

    Counter 0 is the total; the others are "good" tallies against it.
    """

    def __init__(
        self,
        width: int,
        window_s: float,
        buckets: int,
        clock: Optional[Callable[[], float]],
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.width = width
        self.window_s = window_s
        self.bucket_s = window_s / buckets
        self.clock = clock if clock is not None else time.monotonic
        self._rows: List[List[int]] = [[0] * width for _ in range(buckets)]
        #: Absolute bucket index (monotonic) each slot currently holds.
        self._stamp: List[int] = [-1] * buckets
        self.lifetime: List[int] = [0] * width

    def bucket(self) -> List[int]:
        """The counters of the bucket holding *now* (one clock read)."""
        epoch = int(self.clock() / self.bucket_s)
        index = epoch % len(self._stamp)
        if self._stamp[index] != epoch:
            self._stamp[index] = epoch
            self._rows[index] = [0] * self.width
        return self._rows[index]

    def window(self) -> List[int]:
        """Each counter summed over the buckets still inside the window."""
        oldest_live = int(self.clock() / self.bucket_s) - len(self._stamp) + 1
        sums = [0] * self.width
        for stamp, row in zip(self._stamp, self._rows):
            if stamp >= oldest_live:
                for column, count in enumerate(row):
                    sums[column] += count
        return sums


class RollingRatio:
    """good/total ratio over a rolling time window, bucketed ring."""

    def __init__(
        self,
        window_s: float = 300.0,
        buckets: int = 30,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._ring = _CounterRing(2, window_s, buckets, clock)

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    @property
    def lifetime_good(self) -> int:
        return self._ring.lifetime[1]

    @property
    def lifetime_total(self) -> int:
        return self._ring.lifetime[0]

    def record(self, good: bool) -> None:
        row, lifetime = self._ring.bucket(), self._ring.lifetime
        row[0] += 1
        lifetime[0] += 1
        if good:
            row[1] += 1
            lifetime[1] += 1

    def window_counts(self) -> Dict[str, int]:
        """(good, total) summed over buckets still inside the window."""
        total, good = self._ring.window()
        return {"good": good, "total": total}

    def ratio(self, default: float = 1.0) -> float:
        """Rolling good fraction; ``default`` when the window is empty."""
        counts = self.window_counts()
        if counts["total"] == 0:
            return default
        return counts["good"] / counts["total"]


class SloObjective:
    """One named objective: a target ratio over a rolling window."""

    def __init__(
        self,
        name: str,
        target: float,
        window_s: float = 300.0,
        buckets: int = 30,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.rolling = RollingRatio(window_s, buckets, clock)
        self._bind(name, target, self.rolling._ring, 1)

    def _bind(
        self, name: str, target: float, ring: _CounterRing, column: int
    ) -> None:
        """Read the objective as ``column`` good out of ``ring``'s total."""
        if not 0.0 < target < 1.0:
            raise ValueError("SLO target must be in (0, 1)")
        self.name = name
        self.target = target
        self._ring = ring
        self._column = column

    def record(self, good: bool) -> None:
        self.rolling.record(good)

    def _counts(self) -> Tuple[int, int]:
        """(good, total) over the window: one ring read."""
        window = self._ring.window()
        return window[self._column], window[0]

    @property
    def ratio(self) -> float:
        return _ratio(*self._counts())

    @property
    def met(self) -> bool:
        return self.ratio >= self.target

    @property
    def burn_rate(self) -> float:
        """Error fraction over error budget (1.0 = spending at accrual)."""
        return self._burn(self.ratio)

    def _burn(self, ratio: float) -> float:
        return (1.0 - ratio) / (1.0 - self.target)

    def snapshot(self) -> Dict[str, object]:
        return self._snapshot(*self._counts())

    def _snapshot(self, good: int, total: int) -> Dict[str, object]:
        """Every field from one ``(good, total)`` window read, so a
        bucket boundary crossed mid-snapshot cannot make it disagree
        with itself."""
        ratio = _ratio(good, total)
        lifetime = self._ring.lifetime
        return {
            "target": self.target,
            "window_s": self._ring.window_s,
            "window_good": good,
            "window_total": total,
            "ratio": round(ratio, 6),
            "burn_rate": round(self._burn(ratio), 4),
            "met": ratio >= self.target,
            "lifetime_good": lifetime[self._column],
            "lifetime_total": lifetime[0],
        }


def _ratio(good: int, total: int) -> float:
    """Good fraction; 1.0 when nothing was counted."""
    return good / total if total else 1.0


class _TrackedObjective(SloObjective):
    """An objective over one column of :class:`SloTracker`'s shared
    ring; recorded only through :meth:`SloTracker.record_response`."""

    def __init__(
        self, name: str, target: float, ring: _CounterRing, column: int
    ) -> None:
        self._bind(name, target, ring, column)

    def record(self, good: bool) -> None:
        raise TypeError(
            f"the {self.name!r} objective is recorded through "
            "SloTracker.record_response"
        )


class SloTracker:
    """The PDP's two serving objectives, plus metric exposition.

    :param availability_target: minimum fraction of requests that must
        be mediated (neither shed nor timed out nor errored).
    :param latency_threshold_s: a request is "fast" when its
        end-to-end service latency is at or under this.
    :param latency_target: minimum fraction of fast requests.
    :param window_s: rolling window both objectives evaluate over.
    :param clock: injectable monotonic clock (tests).
    :param metrics: when given, live gauges are registered
        (``slo.availability.ratio``, ``slo.availability.burn_rate``,
        ``slo.latency.ratio``, ``slo.latency.burn_rate``, targets and
        the latency threshold) so every exposition surface shows SLO
        state without a sync step.
    """

    def __init__(
        self,
        availability_target: float = 0.999,
        latency_threshold_s: float = 0.050,
        latency_target: float = 0.99,
        window_s: float = 300.0,
        buckets: int = 30,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be > 0")
        self.latency_threshold_s = latency_threshold_s
        #: Counters per bucket: [total, mediated, fast].
        self._ring = _CounterRing(3, window_s, buckets, clock)
        self.availability: SloObjective = _TrackedObjective(
            "availability", availability_target, self._ring, 1
        )
        self.latency: SloObjective = _TrackedObjective(
            "latency", latency_target, self._ring, 2
        )
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        availability, latency = self.availability, self.latency
        metrics.gauge("slo.availability.target").set(availability.target)
        metrics.gauge("slo.availability.ratio", lambda: availability.ratio)
        metrics.gauge(
            "slo.availability.burn_rate", lambda: availability.burn_rate
        )
        metrics.gauge("slo.latency.target").set(latency.target)
        metrics.gauge(
            "slo.latency.threshold_seconds"
        ).set(self.latency_threshold_s)
        metrics.gauge("slo.latency.ratio", lambda: latency.ratio)
        metrics.gauge("slo.latency.burn_rate", lambda: latency.burn_rate)

    def record_response(self, mediated: bool, latency_s: float) -> None:
        """Record one served response against both objectives.

        :param mediated: the request got a real grant/deny (service
            refusals — shed, timeout, error — spend availability
            budget).
        :param latency_s: end-to-end service latency.
        """
        row, lifetime = self._ring.bucket(), self._ring.lifetime
        row[0] += 1
        lifetime[0] += 1
        if mediated:
            row[1] += 1
            lifetime[1] += 1
        if latency_s <= self.latency_threshold_s:
            row[2] += 1
            lifetime[2] += 1

    @property
    def healthy(self) -> bool:
        """Both objectives currently met (one window read)."""
        total, mediated, fast = self._ring.window()
        return (
            _ratio(mediated, total) >= self.availability.target
            and _ratio(fast, total) >= self.latency.target
        )

    def snapshot(self) -> Dict[str, object]:
        """Both objectives and ``healthy`` from one window read."""
        total, mediated, fast = self._ring.window()
        availability = self.availability._snapshot(mediated, total)
        latency = self.latency._snapshot(fast, total)
        return {
            "availability": availability,
            "latency": {
                "threshold_ms": round(self.latency_threshold_s * 1e3, 3),
                **latency,
            },
            "healthy": bool(availability["met"] and latency["met"]),
        }
