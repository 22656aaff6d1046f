"""Closed- and open-loop drivers over a fixed, small set of connections.

Logical in-flight requests are coroutines pipelined on ``CONNECTIONS``
sockets (the bench box has 2 CPUs; 1,000 client sockets would measure
the generator).  The open loop sends on a seeded schedule whatever the
SUT does and times every request from its *intended* send time, so a
stall charges the requests queued behind it; how late the generator
itself ran is reported, and a late generator voids the run.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import statistics
import sys
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

CONNECTIONS = 2
IN_FLIGHT = 32
#: After the last scheduled send, how long answers may take before the
#: stragglers are counted as dropped.
DRAIN_S = 10.0
#: A generator later than this at p99, or slower than this share of
#: the offered rate, did not offer the load it claims.
MAX_LATE_P99_S = 0.005
MIN_ACHIEVED = 0.99


class InvalidRun(RuntimeError):
    """The load generator, not the SUT, failed to do its part."""


class Load(NamedTuple):
    """Pre-built requests: product ``AccessRequest`` objects, the
    explicit environment set of each (``None`` = the server's live
    environment) and whether each asks for continuous authorization."""

    requests: Sequence[object]
    envs: Sequence[Optional[frozenset]]
    subscribe: Sequence[bool]


class Tally:
    """Every way an operation can end, counted against those attempted.

    ``check(i, response) -> bool`` says whether a mediated answer is the
    oracle's; everything that is not a mediated answer is a failure of
    its own kind.
    """

    def __init__(self, check: Callable[[int, object], bool]) -> None:
        self.check = check
        self.attempted = 0
        self.completed = 0
        self.mismatches = 0
        self.shed = 0
        self.timeouts = 0
        self.unavailable = 0
        self.errors = 0
        self.dropped = 0

    def record(self, index: int, response: object) -> None:
        outcome = response.outcome
        if outcome == "grant" or outcome == "deny":
            self.completed += 1
            if not self.check(index, response):
                self.mismatches += 1
        elif outcome == "deny-overload":
            self.shed += 1
        elif outcome == "deny-timeout":
            self.timeouts += 1
        elif outcome == "deny-unavailable":
            self.unavailable += 1
        else:
            self.errors += 1

    @property
    def failed(self) -> int:
        return (
            self.mismatches + self.shed + self.timeouts + self.unavailable
            + self.errors + self.dropped
        )


#: Width of the windows a phase is cut into.  Metrics are medians over
#: windows: the bench box changes speed for a second or two at a time,
#: and a median over windows ignores a minority of slow (or fast) ones
#: where a mean over the phase would not.
WINDOW_S = 1.0

Sample = Tuple[float, int, object]  # (seconds into phase, completed, probe())


class Phase(NamedTuple):
    """One timed phase as the client saw it."""

    #: Per answered request: when it started (open loop: was due),
    #: in seconds from the phase start, and how long it took.
    starts_s: List[float]
    latencies_s: List[float]
    elapsed_s: float
    #: ``(time, completed so far, probe())`` at every window edge.
    samples: List[Sample]
    #: Open loop only: how late each request left, and the share of the
    #: offered rate the generator achieved.
    late_s: List[float]
    achieved_over_offered: float

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    def windows(self) -> List[List[float]]:
        """Latencies grouped by the window their request started in;
        the last, partial window is left out."""
        count = int(max(self.starts_s) / WINDOW_S)
        if count == 0:  # a phase shorter than a window is one window
            return [self.latencies_s]
        groups: List[List[float]] = [[] for _ in range(count)]
        for start, latency in zip(self.starts_s, self.latencies_s):
            slot = int(start / WINDOW_S)
            if slot < count:
                groups[slot].append(latency)
        return [group for group in groups if group]

    def window_quantiles(self, q: float) -> List[float]:
        """Each window's ``q``-quantile."""
        return [quantile(window, q) for window in self.windows()]

    def late_p99(self) -> float:
        """(Low) median over windows of how late the generator ran at
        p99: a host hiccup spoils a window, a slow generator most."""
        width = max(1, int(len(self.late_s) * WINDOW_S / self.elapsed_s))
        return statistics.median_low(
            quantile(self.late_s[start:start + width], 0.99)
            for start in range(0, len(self.late_s), width)
        )

    def window_rates(self) -> List[float]:
        """Completions per second in each window."""
        return [
            (later[1] - earlier[1]) / (later[0] - earlier[0])
            for earlier, later in zip(self.samples, self.samples[1:])
        ]


async def _sampler(
    samples: List[Sample],
    origin: float,
    completed: Callable[[], int],
    probe: Optional[Callable[[], object]],
) -> None:
    """A sample at every window edge; on cancellation, one more if the
    phase was shorter than a window (so that it is one window)."""
    clock = time.perf_counter

    def sample() -> None:
        samples.append(
            (clock() - origin, completed(), probe() if probe else None)
        )

    try:
        while True:
            sample()
            await asyncio.sleep(WINDOW_S)
    except asyncio.CancelledError:
        if len(samples) < 2:
            sample()
        raise


def quantile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _cancel(task: "asyncio.Future") -> None:
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


async def connect(client_class, host: str, port: int, wire: str) -> List:
    return [
        await client_class.connect(host, port, wire=wire)
        for _ in range(CONNECTIONS)
    ]


async def close(clients: Sequence) -> None:
    for client in clients:
        await client.close()


async def closed_loop(
    clients: Sequence,
    load: Load,
    tally: Tally,
    seconds: float,
    start_at: int = 0,
    probe: Optional[Callable[[], object]] = None,
) -> Phase:
    """IN_FLIGHT callers, each sending its next request when the last
    one is answered, cycling through ``load`` from ``start_at``."""
    count = len(load.requests)
    cursor = itertools.count(start_at)
    starts: List[float] = []
    latencies: List[float] = []
    samples: List[Sample] = []
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds

    async def caller(client) -> None:
        while True:
            index = next(cursor) % count
            sent = clock()
            if sent >= deadline:
                return
            tally.attempted += 1
            try:
                response = await client.decide(
                    load.requests[index], environment_roles=load.envs[index]
                )
            except Exception:  # noqa: BLE001 - any client failure is an error
                tally.errors += 1
                continue
            starts.append(sent - started)
            latencies.append(clock() - sent)
            tally.record(index, response)

    sampling = asyncio.ensure_future(
        _sampler(samples, started, lambda: len(latencies), probe)
    )
    try:
        await asyncio.gather(
            *(caller(clients[i % len(clients)]) for i in range(IN_FLIGHT))
        )
    finally:
        await _cancel(sampling)
    return Phase(starts, latencies, clock() - started, samples, [], 1.0)


def _ticker(
    wfd: int,
    origin: float,
    arrivals: Sequence[float],
    stop: threading.Event,
) -> None:
    """Wake the event loop at each intended send time.  asyncio timers
    round up to the millisecond; a sleeping thread does not."""
    clock = time.perf_counter
    for offset in arrivals:
        while True:
            wait = origin + offset - clock()
            if wait <= 0:
                break
            time.sleep(wait)
        if stop.is_set():  # the phase was abandoned
            return
        os.write(wfd, b"x")


async def open_loop(
    clients: Sequence,
    load: Load,
    tally: Tally,
    arrivals: Sequence[float],
    on_send: Optional[Callable[[int], None]] = None,
    span: Optional[Callable[[int, float, float], None]] = None,
    probe: Optional[Callable[[], object]] = None,
) -> Phase:
    """Send request ``i`` at ``arrivals[i]`` whatever the SUT does.

    ``on_send(i)`` runs as request ``i`` leaves; ``span(i, start, end)``
    (the traced run's recorder) gets every answered request's interval.
    """
    loop = asyncio.get_running_loop()
    count = len(arrivals)
    clock = time.perf_counter
    starts: List[float] = []
    latencies: List[float] = []
    samples: List[Sample] = []
    late: List[float] = []
    tasks: "set[asyncio.Task]" = set()
    all_sent = asyncio.Event()
    position = 0
    last_sent = 0.0
    connections = len(clients)

    async def one(index: int, due: float) -> None:
        try:
            response = await clients[index % connections].decide(
                load.requests[index],
                environment_roles=load.envs[index],
                subscribe=load.subscribe[index],
            )
        except Exception:  # noqa: BLE001 - any client failure is an error
            tally.errors += 1
            return
        done = clock()
        starts.append(arrivals[index])
        latencies.append(done - due)
        tally.record(index, response)
        if span is not None:
            span(index, due, done)

    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    origin = clock() + 0.05

    def on_tick() -> None:
        nonlocal position, last_sent
        try:
            os.read(read_fd, 65536)
        except BlockingIOError:
            pass
        now = clock()
        while position < count and origin + arrivals[position] <= now:
            index = position
            position += 1
            due = origin + arrivals[index]
            late.append(now - due)
            tally.attempted += 1
            if on_send is not None:
                on_send(index)
            task = loop.create_task(one(index, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if position >= count and not all_sent.is_set():
            last_sent = now
            all_sent.set()

    # The ticker thread needs the GIL for a few microseconds at each
    # send time; a short switch interval bounds how long a busy loop
    # can keep it waiting.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    loop.add_reader(read_fd, on_tick)
    stop = threading.Event()
    thread = threading.Thread(
        target=_ticker, args=(write_fd, origin, arrivals, stop), daemon=True
    )
    thread.start()
    sampling = asyncio.ensure_future(
        _sampler(samples, origin, lambda: len(latencies), probe)
    )
    try:
        await asyncio.wait_for(all_sent.wait(), arrivals[-1] + DRAIN_S)
        if tasks:
            _, stragglers = await asyncio.wait(set(tasks), timeout=DRAIN_S)
            for task in stragglers:
                task.cancel()
                tally.dropped += 1
    finally:
        await _cancel(sampling)
        stop.set()
        thread.join()  # before the pipe closes: its fd number may be reused
        loop.remove_reader(read_fd)
        os.close(read_fd)
        os.close(write_fd)
        sys.setswitchinterval(switch_interval)
    elapsed = clock() - origin
    achieved = arrivals[-1] / (last_sent - origin)
    return Phase(starts, latencies, elapsed, samples, late, achieved)


def require_valid(phase: Phase, tally: Tally) -> None:
    """Void the run if the generator, not the SUT, fell short."""
    late_p99 = phase.late_p99()
    if late_p99 > MAX_LATE_P99_S:
        raise InvalidRun(
            f"load generator ran {late_p99 * 1e3:.2f} ms late at p99 "
            f"(limit {MAX_LATE_P99_S * 1e3:.0f} ms)"
        )
    if phase.achieved_over_offered < MIN_ACHIEVED and not tally.failed:
        raise InvalidRun(
            f"load generator achieved {phase.achieved_over_offered:.3f} "
            f"of the offered rate (limit {MIN_ACHIEVED})"
        )
