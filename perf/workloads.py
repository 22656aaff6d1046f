"""The four workloads: what is booted, what load it gets, what is read.

Each workload is SUT boot (timed, several times: ``setup_s`` is their
median) -> untimed warm-up -> timed phases whose lengths are shares of
``--seconds``.  The product runs with its defaults; the benchmark
passes it a policy file, a port, a raised admission bound and, for
``revoke-churn``, ``--continuous --sim-start``.  Nothing else.

Only the operator surface is used here: the CLI,
``RemotePDPClient.{connect,decide,subscribe,env,stats,close}``,
``MediationEngine(policy).{decide,decide_batch}``,
``load_policy_text`` and ``AccessRequest``.  A traced run (a
:class:`~perf.layers.Recorder` is passed) shortens the phases, repeats
the latency phase with the recorder on, and adds the in-process replay
of :mod:`perf.layers`.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from perf import drive, gen, layers, sut
from perf.drive import Load, Phase, Tally, quantile
from perf.layers import Recorder

Metrics = Dict[str, Tuple[float, str]]

#: SUT boots per untraced run; ``setup_s`` is their median.
SETUPS = 3
WARMUP_S = 1.5
CROSS_CHECK = 2000

HOT_HOMES = 500
HOT_RATE = 1000.0
#: Closed-loop pool: long against the 4,096-entry decision cache.
HOT_POOL = 1 << 17
COLD_HOMES = 2000
COLD_POOL = 150_000
COLD_BATCH = 64
CHURN_HOMES = 256
CHURN_RATE = 1000.0
FLIP_RATE = 20.0
SIM_START = "2000-01-17T20:00:00"

#: Shares of ``--seconds``: (untraced run, traced run).
HOT_CLOSED = 0.3  # untraced only
HOT_OPEN = (0.7, 0.5)  # traced: once plain, once recorded
ROUTED_OPEN = (0.7, 0.25)  # traced: direct, routed, recorded, saturation
COLD_BATCHED = (0.6, 0.4)
COLD_SINGLE = (0.4, 0.3)  # traced: once plain, once recorded
CHURN_OPEN = (1.0, 0.5)  # traced: once plain, once recorded


class Run:
    """What one invocation measured, and every way it could have failed."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.metrics: Metrics = {}
        #: metric -> its value in each window; the metric is the median.
        self.windows: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.notes: Dict[str, object] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def put_windowed(
        self, name: str, series: Sequence[float], unit: str, scale: float = 1.0
    ) -> None:
        """A metric measured once per window: report the median.  The
        bench box changes speed for seconds at a time; the median over
        windows ignores a minority of disturbed ones."""
        self.windows[name] = [value * scale for value in series]
        self.put(name, statistics.median(self.windows[name]), unit)

    def value(self, name: str) -> float:
        return self.metrics[name][0]

    def fail(self, kind: str, count: int) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count

    def absorb(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        for kind in (
            "mismatches", "shed", "timeouts", "unavailable", "errors",
            "dropped",
        ):
            self.fail(kind, getattr(tally, kind))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ----------------------------------------------------------------------
# Loads
# ----------------------------------------------------------------------
def build_load(shapes: Sequence[gen.Shape]) -> Load:
    """Product requests for ``shapes`` (one object per distinct shape)."""
    from repro.core.decision import AccessRequest

    memo: Dict[Tuple, object] = {}
    requests: List[object] = []
    for shape in shapes:
        key = (shape.home, shape.person, shape.transaction, shape.device,
               shape.claim, shape.identity_confidence)
        request = memo.get(key)
        if request is None:
            claims = {}
            if shape.claim is not None:
                role, confidence = shape.claim
                claims = {gen.role_name(role, shape.home): confidence}
            request = memo[key] = AccessRequest(
                transaction=shape.transaction,
                obj=gen.object_name(shape.device, shape.home),
                subject=gen.subject_name(shape.person, shape.home),
                role_claims=claims,
                identity_confidence=shape.identity_confidence,
            )
        requests.append(request)
    envs = [
        None if shape.env is None else gen.ENV_SETS[shape.env]
        for shape in shapes
    ]
    load = Load(requests, envs, [shape.subscribe for shape in shapes])
    # The pools are large and live for the whole run: keep them out of
    # the generator's garbage collections, whose pauses would read as
    # SUT latency.
    gc.collect()
    gc.freeze()
    return load


def static_check(expected: Sequence[bool]) -> Callable[[int, object], bool]:
    return lambda index, response: response.granted == expected[index]


def cross_check(
    run: Run,
    template: gen.HomeTemplate,
    text: str,
    shapes: Sequence[gen.Shape],
) -> None:
    """The oracle against the product's own mediation, before anything
    is timed: a disagreement here is a wrong oracle or a wrong product,
    and either way it is a failure."""
    from repro.core.mediation import MediationEngine
    from repro.policy.admin import load_policy_text

    engine = MediationEngine(load_policy_text(text))
    sample = shapes[:CROSS_CHECK]
    load = build_load(sample)
    mismatches = 0
    for shape, request, env in zip(sample, load.requests, load.envs):
        if env is not None:
            cases = [(env, env)]
        else:  # live-environment shape: try the role both ways
            role = template.home_env_roles[0]
            cases = [
                (frozenset(), frozenset()),
                (
                    frozenset({role}),
                    frozenset({gen.role_name(role, shape.home)}),
                ),
            ]
        for oracle_env, product_env in cases:
            granted = engine.decide(
                request, environment_roles=set(product_env)
            ).granted
            mismatches += granted != gen.oracle(template, shape, oracle_env)
    run.attempted += len(sample)
    run.fail("oracle_cross_check", mismatches)


# ----------------------------------------------------------------------
# Shared plumbing for the served workloads
# ----------------------------------------------------------------------
def remote_client():
    from repro.service.client import RemotePDPClient

    return RemotePDPClient


async def boot_served(
    start: Callable[[], sut.Sut],
    wire: str,
    load: Load,
    check: Callable[[int, object], bool],
    prepare: Optional[Callable[[Sequence], "asyncio.Future"]] = None,
) -> Tuple[sut.Sut, List, float]:
    """Spawn -> connect (intern handshake on the binary lane) ->
    ``prepare`` (role definitions) -> first verified answer."""
    system = start()
    try:
        clients = await drive.connect(
            remote_client(), system.host, system.port, wire
        )
        if prepare is not None:
            await prepare(clients)
        response = await clients[0].decide(
            load.requests[0], environment_roles=load.envs[0]
        )
        if response.outcome not in ("grant", "deny") or not check(0, response):
            raise RuntimeError(f"first answer is wrong: {response!r}")
        return system, clients, time.perf_counter() - system.spawned_at
    except BaseException:
        system.stop()
        raise


async def repeated_setup(
    run: Run, boot: Callable[[], "asyncio.Future"], setups: int
) -> Tuple[sut.Sut, List]:
    """Boot ``setups`` times, keep the last; ``setup_s`` is the median."""
    times: List[float] = []
    for attempt in range(setups):
        system, clients, seconds = await boot()
        times.append(seconds)
        if attempt < setups - 1:
            await drive.close(clients)
            system.stop()
    run.put("setup_s", statistics.median(times), "s")
    run.notes["setup_samples_s"] = times
    return system, clients


def window_cpu_us(phase: Phase, pick: Callable[[object], float]) -> List[float]:
    """CPU µs per decision completed, window by window; ``pick`` takes
    the CPU seconds of interest from a probe."""
    return [
        (pick(later[2]) - pick(earlier[2])) * 1e6 / (later[1] - earlier[1])
        for earlier, later in zip(phase.samples, phase.samples[1:])
        if later[1] > earlier[1]
    ]


def put_latency(run: Run, phase: Phase) -> None:
    run.put_windowed("decide_p50_us", phase.window_quantiles(0.50), "us", 1e6)
    run.put_windowed("decide_p95_us", phase.window_quantiles(0.95), "us", 1e6)
    run.put(
        "client.decide_p99_us", quantile(phase.latencies_s, 0.99) * 1e6, "us"
    )
    run.notes["latency_samples"] = phase.completed


async def measured_open_loop(
    run: Run,
    system: sut.Sut,
    clients: Sequence,
    load: Load,
    tally: Tally,
    arrivals: Sequence[float],
    **hooks: object,
) -> Phase:
    """One open-loop phase with CPU read at every window edge; puts the
    latency, CPU and generator metrics every served workload reports."""
    phase = await drive.open_loop(
        clients, load, tally, arrivals,
        probe=lambda: (system.cpu(), time.process_time()), **hooks
    )
    drive.require_valid(phase, tally)
    put_latency(run, phase)
    run.put("loadgen.late_p99_ms", phase.late_p99() * 1e3, "ms")
    run.put(
        "loadgen.achieved_over_offered", phase.achieved_over_offered, "ratio"
    )
    workers = [role for role in system.pids if role != "router"]
    cpu = {
        "cpu_us_per_decision": lambda p: sum(p[0].values()),
        "server.worker_cpu_us_per_decision":
            lambda p: sum(p[0][role] for role in workers),
        "client.cpu_us_per_decision": lambda p: p[1],
    }
    if "router" in system.pids:
        cpu["router.cpu_us_per_decision"] = lambda p: p[0]["router"]
    for name, pick in cpu.items():
        run.put_windowed(name, window_cpu_us(phase, pick), "us")
    return phase


def put_overhead(run: Run, recorded: Phase) -> None:
    """The same phase again with the recorder on, against the plain one."""
    plain = run.value("decide_p50_us")
    traced = statistics.median(recorded.window_quantiles(0.50)) * 1e6
    run.put("trace.overhead_share", (traced - plain) / plain, "ratio")


async def put_pdp_stats(run: Run, system: sut.Sut, wire: str) -> None:
    """PDP counters through the public ``stats`` op of every worker."""
    totals: Dict[str, float] = {}
    for port in system.worker_ports.values():
        client = await remote_client().connect(system.host, port, wire=wire)
        try:
            stats = await client.stats()
        finally:
            await client.close()
        for key in ("decided", "batches", "cache_hits", "cache_misses",
                    "shed", "timeouts"):
            totals[key] = totals.get(key, 0) + stats[key]
    lookups = totals["cache_hits"] + totals["cache_misses"]
    run.put("pdp.cache_hit_ratio",
            totals["cache_hits"] / lookups if lookups else 0.0, "ratio")
    run.put("pdp.mean_batch_size",
            totals["decided"] / totals["batches"] if totals["batches"] else 0.0,
            "count")
    run.put("pdp.shed", totals["shed"], "count")
    run.put("pdp.timeouts", totals["timeouts"], "count")


def put_peak_rss(run: Run, system: sut.Sut) -> None:
    run.put("peak_rss_mb", sum(system.peak_rss().values()), "MiB")


class Replay(NamedTuple):
    """What a traced workload hands back for the in-process replay,
    which runs after its event loop has closed."""

    template: gen.HomeTemplate
    homes: int
    load: Load
    wire: Optional[str] = None
    routed: bool = False


def put_replay(run: Run, recorder: Recorder, plan: Replay) -> None:
    """The in-process layer measurements and, for a served workload,
    the ledger that sets them against the served p50."""
    template, homes, load, wire, routed = plan
    values = layers.replay(
        recorder, template, homes, load, environment=template is gen.VIDEOPHONE
    )
    if wire is not None:
        values.update(
            layers.ledger(values, wire, routed, run.value("decide_p50_us"))
        )
    for name, value in values.items():
        run.put(name, value, layers.unit_of(name))
    run.notes["trace_file"] = recorder.write(run.workload)


# ----------------------------------------------------------------------
# served-hot and cluster-routed: one stream, two systems
# ----------------------------------------------------------------------
class HotInputs:
    """Everything ``served-hot`` and ``cluster-routed`` share: the
    policy file, the closed-loop pool and the open-loop phase, whose
    requests and send times depend on the seed and on nothing else."""

    def __init__(self, run: Run, open_seconds: float) -> None:
        seed = run.seed
        text = gen.policy_text(gen.ENTERTAINMENT, HOT_HOMES)
        self.path = sut.write_policy("entertainment.grbac", text)
        self.arrivals = gen.poisson_arrivals(
            seed, "hot-open", HOT_RATE, open_seconds
        )
        open_shapes = gen.hot_stream(
            seed, "hot-open", HOT_HOMES, len(self.arrivals)
        )
        pool_shapes = gen.hot_stream(seed, "hot-pool", HOT_HOMES, HOT_POOL)
        self.open_load = build_load(open_shapes)
        self.open_expected = gen.expected_static(gen.ENTERTAINMENT, open_shapes)
        self.pool_load = build_load(pool_shapes)
        self.pool_expected = gen.expected_static(gen.ENTERTAINMENT, pool_shapes)
        self.check = static_check(self.pool_expected)
        run.notes["open_stream_digest"] = gen.stream_digest(
            open_shapes, self.arrivals
        )
        run.notes["open_rate_per_s"] = HOT_RATE
        run.notes["permissions"] = gen.permission_count(
            gen.ENTERTAINMENT, HOT_HOMES
        )
        cross_check(run, gen.ENTERTAINMENT, text, pool_shapes)

    def boot(self, start: Callable[[str], sut.Sut]) -> "asyncio.Future":
        return boot_served(
            lambda: start(self.path), "binary", self.pool_load, self.check
        )


async def hot_open_phase(
    run: Run, system: sut.Sut, clients: Sequence, inputs: HotInputs,
) -> Phase:
    tally = Tally(static_check(inputs.open_expected))
    phase = await measured_open_loop(
        run, system, clients, inputs.open_load, tally, inputs.arrivals
    )
    run.absorb(tally)
    return phase


async def hot_recorded_phase(
    run: Run, clients: Sequence, inputs: HotInputs, recorder: Recorder,
) -> None:
    tally = Tally(static_check(inputs.open_expected))
    recorded = await drive.open_loop(
        clients, inputs.open_load, tally, inputs.arrivals,
        span=recorder.request,
    )
    run.absorb(tally)
    put_overhead(run, recorded)


async def hot_closed_loop(
    run: Run, clients: Sequence, inputs: HotInputs, seconds: float,
    start_at: int = 0,
) -> Phase:
    tally = Tally(inputs.check)
    phase = await drive.closed_loop(
        clients, inputs.pool_load, tally, seconds, start_at
    )
    run.absorb(tally)
    return phase


async def served_hot(run: Run, recorder: Optional[Recorder]) -> Replay:
    traced = recorder is not None
    inputs = HotInputs(run, run.seconds * HOT_OPEN[traced])
    system, clients = await repeated_setup(
        run, lambda: inputs.boot(sut.serve), 1 if traced else SETUPS
    )
    try:
        # Warm-up: caches and memos at steady state before any clock.
        warm = await hot_closed_loop(run, clients, inputs, WARMUP_S)
        if not traced:
            closed = await hot_closed_loop(
                run, clients, inputs, run.seconds * HOT_CLOSED,
                warm.completed + drive.IN_FLIGHT,
            )
            run.put_windowed("decide_rps", closed.window_rates(), "1/s")
        await hot_open_phase(run, system, clients, inputs)
        if traced:
            await hot_recorded_phase(run, clients, inputs, recorder)
        await put_pdp_stats(run, system, "binary")
        put_peak_rss(run, system)
    finally:
        await drive.close(clients)
        system.stop()
    return Replay(gen.ENTERTAINMENT, HOT_HOMES, inputs.open_load, "binary")


async def direct_baseline(run: Run, inputs: HotInputs) -> Run:
    """``served-hot``'s open-loop phase on one worker: what
    ``cluster-routed`` is subtracted from."""
    direct = Run("served-hot", run.seed, run.seconds)
    system, clients, _ = await inputs.boot(sut.serve)
    try:
        await hot_closed_loop(direct, clients, inputs, WARMUP_S)
        await hot_open_phase(direct, system, clients, inputs)
    finally:
        await drive.close(clients)
        system.stop()
    run.attempted += direct.attempted
    for kind, count in direct.failures.items():
        run.fail(kind, count)
    return direct


async def cluster_routed(run: Run, recorder: Optional[Recorder]) -> Replay:
    traced = recorder is not None
    inputs = HotInputs(run, run.seconds * ROUTED_OPEN[traced])
    if traced:
        direct = await direct_baseline(run, inputs)
    system, clients = await repeated_setup(
        run, lambda: inputs.boot(sut.cluster), 1 if traced else SETUPS
    )
    try:
        await hot_closed_loop(run, clients, inputs, WARMUP_S)
        phase = await hot_open_phase(run, system, clients, inputs)
        # Goodput at the offered rate.  The router's closed-loop ceiling
        # on two cores measures the scheduler: a layer metric only.
        run.put_windowed("decide_rps", phase.window_rates(), "1/s")
        if traced:
            await hot_recorded_phase(run, clients, inputs, recorder)
            saturated = await hot_closed_loop(
                run, clients, inputs, run.seconds * ROUTED_OPEN[traced]
            )
            run.put_windowed(
                "cluster.saturation_rps", saturated.window_rates(), "1/s"
            )
            for name, metric in (
                ("router.added_p50_us", "decide_p50_us"),
                ("router.added_cpu_us", "cpu_us_per_decision"),
            ):
                run.put(name, run.value(metric) - direct.value(metric), "us")
        await put_pdp_stats(run, system, "binary")
        router = system.cluster_status()["router"]
        routed = [row["routed"] for row in router["workers"].values()]
        run.put("router.routed_skew",
                max(routed) * len(routed) / max(1, sum(routed)), "ratio")
        run.put("router.unavailable", router["unavailable_synthesized"],
                "count")
        put_peak_rss(run, system)
    finally:
        await drive.close(clients)
        system.stop()
    return Replay(
        gen.ENTERTAINMENT, HOT_HOMES, inputs.open_load, "binary", routed=True
    )


# ----------------------------------------------------------------------
# embedded-cold: the engine in-process, decision caches missing
# ----------------------------------------------------------------------
def embedded_cold(run: Run, recorder: Optional[Recorder]) -> Replay:
    from repro.core.mediation import MediationEngine
    from repro.policy.admin import load_policy_text

    traced = recorder is not None
    sut.pin(sut.SUT_CPUS)  # this process is the system under test
    text = gen.policy_text(gen.ENTERTAINMENT, COLD_HOMES)
    shapes = gen.cold_pool(run.seed, COLD_HOMES, COLD_POOL)
    expected = gen.expected_static(gen.ENTERTAINMENT, shapes)
    load = build_load(shapes)
    requests, envs = load.requests, load.envs
    run.notes["permissions"] = gen.permission_count(gen.ENTERTAINMENT, COLD_HOMES)
    clock = time.perf_counter

    times: List[float] = []
    engine = None
    for _ in range(1 if traced else SETUPS):
        del engine
        gc.collect()  # the previous engine is not this set-up's cost
        started = clock()
        engine = MediationEngine(load_policy_text(text))
        first = engine.decide(requests[0], environment_roles=envs[0])
        times.append(clock() - started)
        if first.granted != expected[0]:
            raise RuntimeError("first answer is wrong")
    run.put("setup_s", statistics.median(times), "s")
    run.notes["setup_samples_s"] = times

    # Warm-up: one pass over the whole pool fills the role-expansion
    # memos (every subject and object is seen); decision-level caches
    # are smaller than the pool and stay cold by construction.
    for position in range(0, len(requests) - COLD_BATCH, COLD_BATCH):
        engine.decide_batch(
            requests[position:position + COLD_BATCH],
            environment_roles=envs[position:position + COLD_BATCH],
        )

    # decide_batch in COLD_BATCHes, cycling the pool, one window at a
    # time: (decisions, seconds, CPU seconds) per window.
    windows: List[Tuple[int, float, float]] = []
    mismatches = position = 0
    deadline = clock() + run.seconds * COLD_BATCHED[traced]
    while clock() < deadline:
        decided = 0
        started, cpu_started = clock(), time.process_time()
        while clock() - started < drive.WINDOW_S:
            stop = position + COLD_BATCH
            decisions = engine.decide_batch(
                requests[position:stop], environment_roles=envs[position:stop]
            )
            for offset, decision in enumerate(decisions):
                mismatches += decision.granted != expected[position + offset]
            decided += len(decisions)
            position = stop if stop + COLD_BATCH <= len(requests) else 0
        windows.append(
            (decided, clock() - started, time.process_time() - cpu_started)
        )
    run.attempted += sum(window[0] for window in windows)
    run.fail("mismatches", mismatches)
    run.put_windowed(
        "decide_rps", [n / seconds for n, seconds, _ in windows], "1/s"
    )
    # The engine shares this process with the answer check above, a
    # fixed and small part of each decision's cost.
    run.put_windowed(
        "cpu_us_per_decision", [cpu * 1e6 / n for n, _, cpu in windows], "us"
    )

    def single_pass(span: Optional[Callable] = None) -> Phase:
        starts: List[float] = []
        latencies: List[float] = []
        mismatches = position = 0
        origin = clock()
        deadline = origin + run.seconds * COLD_SINGLE[traced]
        while True:
            started = clock()
            if started >= deadline:
                break
            decision = engine.decide(
                requests[position], environment_roles=envs[position]
            )
            done = clock()
            starts.append(started - origin)
            latencies.append(done - started)
            if span is not None:
                span(position, started, done)
            mismatches += decision.granted != expected[position]
            position = (position + 1) % len(requests)
        run.attempted += len(latencies)
        run.fail("mismatches", mismatches)
        return Phase(starts, latencies, clock() - origin, [], [], 1.0)

    put_latency(run, single_pass())
    # Engine and request pool share this process: an upper bound on the
    # engine's footprint, steady because the pool's size is fixed.
    run.put("peak_rss_mb", sut.peak_rss_mb(os.getpid()), "MiB")
    if traced:
        put_overhead(run, single_pass(recorder.request))
    return Replay(gen.ENTERTAINMENT, COLD_HOMES, load)


# ----------------------------------------------------------------------
# revoke-churn: writes beside reads
# ----------------------------------------------------------------------
class Churn:
    """Client-side ledger of the live environment and standing grants.

    A home is *settled* when no flip of its child is in flight; only
    then does the oracle know the answer.  Revocation is checked three
    ways: no grant is revoked twice; a subscribed GRANT of the child's
    ``call`` is revoked if a deactivation of its home's role was
    acknowledged after the request left; and every revoke names only
    roles a flip has deactivated.  (The product withdraws a grant when
    *any* role active at decision time deactivates, so most revokes
    name another home's role: allowed, and visible in
    ``grants.revoked_over_registered``.)
    """

    def __init__(self, in_kitchen: List[bool]) -> None:
        self.shapes: Sequence[gen.Shape] = ()
        self.in_kitchen = in_kitchen
        homes = len(in_kitchen)
        self.in_flight = [0] * homes
        self.epoch = [0] * homes
        self.sent_epoch: Dict[int, int] = {}
        self.sent_at: Dict[int, float] = {}
        self.unsettled = 0
        #: (connection, wire id) -> (home, send time, rests on the
        #: home's own location role) of every subscribed GRANT.
        self.grants: Dict[Tuple[int, object], Tuple[int, float, bool]] = {}
        self.revokes: Dict[Tuple[int, object], int] = {}
        self.revoke_latencies_s: List[float] = []
        self.deactivating: set = set()  # role names a flip has withdrawn
        self.deactivated_at: List[List[float]] = [[] for _ in range(homes)]
        self.still_active_revokes = 0
        self.flips = 0

    def on_send(self, index: int) -> None:
        self.sent_epoch[index] = self.epoch[self.shapes[index].home]
        self.sent_at[index] = time.perf_counter()

    def check(self, index: int, response: object) -> bool:
        shape = self.shapes[index]
        home = shape.home
        settled = (
            self.in_flight[home] == 0
            and self.sent_epoch.pop(index) == self.epoch[home]
        )
        sent_at = self.sent_at.pop(index)
        if response.granted and shape.subscribe:
            self.grants[(index % drive.CONNECTIONS, response.id)] = (
                home, sent_at,
                shape.person == "kid" and shape.transaction == "call",
            )
        if not settled:
            self.unsettled += 1
            return True
        active = (
            frozenset(gen.VIDEOPHONE.home_env_roles)
            if self.in_kitchen[home] else frozenset()
        )
        return response.granted == gen.oracle(gen.VIDEOPHONE, shape, active)

    def on_revoke(self, connection: int, revocation: object) -> None:
        self.revoke_latencies_s.append(time.time() - revocation.ts)
        key = (connection, revocation.id)
        self.revokes[key] = self.revokes.get(key, 0) + 1
        if not set(revocation.roles) <= self.deactivating:
            self.still_active_revokes += 1

    async def flip(self, client, home: int) -> None:
        to_kitchen = not self.in_kitchen[home]
        self.flips += 1
        self.in_flight[home] += 1
        self.epoch[home] += 1
        if not to_kitchen:
            self.deactivating.add(
                gen.role_name(gen.VIDEOPHONE.home_env_roles[0], home)
            )
        await client.env(
            "move",
            subject=gen.subject_name("kid", home),
            zone="kitchen" if to_kitchen else "den",
        )
        self.in_kitchen[home] = to_kitchen
        self.in_flight[home] -= 1
        self.epoch[home] += 1
        if not to_kitchen:
            self.deactivated_at[home].append(time.perf_counter())

    def revoke_failures(self) -> Dict[str, int]:
        missing = 0
        for key, (home, sent_at, own_role) in self.grants.items():
            due = own_role and any(
                when > sent_at for when in self.deactivated_at[home]
            )
            missing += due and key not in self.revokes
        return {
            "missing_revokes": missing,
            "duplicate_revokes": sum(
                count - 1 for count in self.revokes.values()
            ),
            "spurious_revokes": self.still_active_revokes + sum(
                1 for key in self.revokes if key not in self.grants
            ),
        }


async def churn_phase(
    run: Run, system: sut.Sut, clients: Sequence, churn: Churn,
    purpose: str, seconds: float, recorder: Optional[Recorder] = None,
) -> Optional[Phase]:
    """Open loop at CHURN_RATE against the live environment while a
    seeded driver flips a child's location FLIP_RATE times a second."""
    seed = run.seed
    arrivals = gen.poisson_arrivals(seed, purpose, CHURN_RATE, seconds)
    churn.shapes = gen.churn_stream(seed, purpose, CHURN_HOMES, len(arrivals))
    flips = gen.flip_schedule(seed, purpose, CHURN_HOMES, FLIP_RATE, seconds)
    load = build_load(churn.shapes)

    async def flipper() -> None:
        origin = time.perf_counter() + 0.05
        pending = []
        for when, home in flips:
            delay = origin + when - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pending.append(asyncio.ensure_future(churn.flip(clients[1], home)))
        await asyncio.gather(*pending)

    tally = Tally(churn.check)
    flipping = asyncio.ensure_future(flipper())
    try:
        if recorder is None:
            phase = await measured_open_loop(
                run, system, clients, load, tally, arrivals,
                on_send=churn.on_send,
            )
        else:
            phase = None
            put_overhead(run, await drive.open_loop(
                clients, load, tally, arrivals, on_send=churn.on_send,
                span=recorder.request,
            ))
    finally:
        await flipping
    await asyncio.sleep(0.25)  # pushed revokes still on the wire
    run.absorb(tally)
    return phase


async def revoke_churn(run: Run, recorder: Optional[Recorder]) -> Replay:
    traced = recorder is not None
    seconds = run.seconds * CHURN_OPEN[traced]
    text = gen.policy_text(gen.VIDEOPHONE, CHURN_HOMES)
    path = sut.write_policy("videophone.grbac", text)
    probe_shapes = gen.churn_stream(run.seed, "probe", CHURN_HOMES, CROSS_CHECK)
    probe_load = build_load(probe_shapes)
    run.notes["permissions"] = gen.permission_count(gen.VIDEOPHONE, CHURN_HOMES)
    run.notes["open_rate_per_s"] = CHURN_RATE
    run.notes["flips_per_s"] = FLIP_RATE
    cross_check(run, gen.VIDEOPHONE, text, probe_shapes)
    start_in_kitchen = gen.initially_in_kitchen(run.seed, CHURN_HOMES)
    role = gen.VIDEOPHONE.home_env_roles[0]

    async def define_roles(clients: Sequence) -> None:
        """Bind each home's location role and place its child."""
        control = clients[0]
        for home in range(CHURN_HOMES):
            kid = gen.subject_name("kid", home)
            await control.env(
                "define_location_role",
                name=gen.role_name(role, home), subject=kid, zone="kitchen",
            )
            await control.env(
                "move", subject=kid,
                zone="kitchen" if start_in_kitchen[home] else "den",
            )

    def first_answer_check(index: int, response: object) -> bool:
        shape = probe_shapes[0]
        active = (
            frozenset({role}) if start_in_kitchen[shape.home] else frozenset()
        )
        return response.granted == gen.oracle(gen.VIDEOPHONE, shape, active)

    system, clients = await repeated_setup(
        run,
        lambda: boot_served(
            lambda: sut.serve(path, "--continuous", "--sim-start", SIM_START),
            "json", probe_load, first_answer_check, define_roles,
        ),
        1 if traced else SETUPS,
    )
    try:
        churn = Churn(list(start_in_kitchen))
        for number, client in enumerate(clients):
            client.subscribe(
                lambda revocation, n=number: churn.on_revoke(n, revocation)
            )
        phase = await churn_phase(
            run, system, clients, churn, "churn", seconds
        )
        # Goodput at the offered rate (see cluster_routed).
        run.put_windowed("decide_rps", phase.window_rates(), "1/s")
        run.put("revoke_p50_ms",
                quantile(churn.revoke_latencies_s, 0.50) * 1e3, "ms")
        run.put("revoke_p95_ms",
                quantile(churn.revoke_latencies_s, 0.95) * 1e3, "ms")
        run.put("grants.revoked_over_registered",
                len(churn.revoke_latencies_s) / max(1, len(churn.grants)),
                "ratio")
        run.notes["revoke_samples"] = len(churn.revoke_latencies_s)
        if traced:
            await churn_phase(
                run, system, clients, churn, "churn-recorded", seconds,
                recorder,
            )
        run.attempted += churn.flips + len(churn.grants)
        for kind, count in churn.revoke_failures().items():
            run.fail(kind, count)
        run.notes["subscribed_grants"] = len(churn.grants)
        run.notes["unsettled_answers"] = churn.unsettled
        await put_pdp_stats(run, system, "json")
        put_peak_rss(run, system)
    finally:
        await drive.close(clients)
        system.stop()
    # The replay pins each sampled request's environment to where the
    # run began; the served run resolved it live.
    sample = probe_load._replace(envs=[
        frozenset(
            {gen.role_name(role, shape.home)}
            if start_in_kitchen[shape.home] else ()
        )
        for shape in probe_shapes
    ])
    return Replay(gen.VIDEOPHONE, CHURN_HOMES, sample, "json")


WORKLOADS = {
    "served-hot": served_hot,
    "embedded-cold": embedded_cold,
    "cluster-routed": cluster_routed,
    "revoke-churn": revoke_churn,
}


def execute(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    run = Run(workload, seed, seconds)
    recorder = Recorder() if traced else None
    body = WORKLOADS[workload]
    if asyncio.iscoroutinefunction(body):
        plan = asyncio.run(body(run, recorder))
    else:
        plan = body(run, recorder)
    if traced:
        put_replay(run, recorder, plan)
    return run
