"""Closed-loop load generation against a PDP (local or remote).

A fixed pool of ``concurrency`` workers each keeps exactly one request
in flight (closed-loop: a worker submits, awaits the answer, then
takes the next item), which is both how interactive clients behave and
what gives the micro-batcher real concurrency to coalesce.  Latencies
are measured client-side around each await, so local and TCP runs are
comparable; percentiles are exact (computed from the full sample set,
not bucketed).

Verification mode replays the same stream through a direct, cache-less
:class:`MediationEngine` and cross-checks every mediated answer — the
CI smoke job's "zero stale responses" assertion.  Dropped requests
(submitted but never answered *and* never explicitly shed) are counted
separately and also fail verification: backpressure must always be
explicit.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.mediation import MediationEngine
from repro.core.policy import GrbacPolicy
from repro.exceptions import ServiceError
from repro.obs.export import TraceSampler
from repro.obs.trace import TraceContext
from repro.service.pdp import PDPOutcome
from repro.workload.generator import GeneratedRequest, generate_requests


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    requests: int = 1000
    concurrency: int = 16
    seed: int = 0
    #: Repeat the unique stream this many times (in order).  Repeats
    #: after the first hit the revision-keyed cache on a static
    #: policy/environment — the replay-workload warmth knob.
    repeat: int = 1
    #: Route every request to this tenant (None = default tenant,
    #: wire bytes unchanged).  The stream should be generated from
    #: that tenant's policy for meaningful grant rates.
    tenant: Optional[str] = None
    #: Originate a trace context on this fraction of requests (the
    #: client-side head-sampling decision; the server and router then
    #: obey it).  0.0 keeps every request byte-identical to the
    #: untraced form.
    trace_sample_rate: float = 0.0
    #: Continuous-authorization mode: send every request with the
    #: ``subscribe`` field set and *without* an explicit environment
    #: override, so grants resolve against the server's live
    #: environment and register in its session grant table.  Pair with
    #: :func:`attach_revocation_probe` to measure flip-to-delivery
    #: latency.  Incompatible with verification (the reference engine
    #: replays the stream's claimed roles, not the live environment).
    subscribe: bool = False

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ServiceError("requests must be >= 1")
        if self.concurrency < 1:
            raise ServiceError("concurrency must be >= 1")
        if self.repeat < 1:
            raise ServiceError("repeat must be >= 1")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ServiceError("trace_sample_rate must be in [0, 1]")


@dataclass
class LoadgenResult:
    """Tallies and latency distribution of one run."""

    sent: int = 0
    completed: int = 0
    grants: int = 0
    denies: int = 0
    shed: int = 0
    timeouts: int = 0
    #: Explicit ``DENY_UNAVAILABLE`` answers — the client's "this
    #: request's worker is down/circuit-broken" refusal.  Counted apart
    #: from ``errors`` because, like sheds, they are sanctioned
    #: backpressure, not protocol failures.
    unavailable: int = 0
    errors: int = 0
    #: Requests that vanished: no mediated answer, no explicit
    #: overload/timeout outcome.  Must be zero — sheds are the only
    #: sanctioned form of loss.
    dropped: int = 0
    #: Mediated answers disagreeing with the direct-engine reference
    #: (verification runs only).  Must be zero: a cache or batching
    #: bug shows up here as a stale grant/deny.
    mismatches: int = 0
    #: Wire/request ids of the mismatched answers — the join key into
    #: the server's flight recorder, exported spans, and audit log, so
    #: a stale answer can be chased to its decision record.
    mismatch_request_ids: List[object] = field(default_factory=list, repr=False)
    #: Trace ids of the mismatched answers, aligned with
    #: ``mismatch_request_ids`` (``""`` when that request was not
    #: sampled) — pasteable straight into ``/trace/<id>`` for the
    #: cross-process waterfall of the stale answer.
    mismatch_trace_ids: List[str] = field(default_factory=list, repr=False)
    #: Requests that carried an originated trace context.
    traced: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list, repr=False)
    #: Unsolicited ``revoke`` pushes received (continuous-authorization
    #: runs with :func:`attach_revocation_probe`).
    revocations: int = 0
    #: Flip-to-delivery latency per received revocation: client
    #: ``time.time()`` at receipt minus the server's flip timestamp
    #: riding the message (``WireRevocation.ts``) — one wall clock end
    #: to end, no round trip needed.
    revocation_latencies_s: List[float] = field(
        default_factory=list, repr=False
    )

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_us(self, q: float) -> float:
        """Exact ``q``-quantile of client-observed latency, in µs."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index] * 1e6

    def revocation_latency_ms(self, q: float) -> float:
        """Exact ``q``-quantile of flip-to-delivery latency, in ms."""
        if not self.revocation_latencies_s:
            return 0.0
        ordered = sorted(self.revocation_latencies_s)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index] * 1e3

    @property
    def ok(self) -> bool:
        """Zero stale answers and zero silent drops."""
        return self.mismatches == 0 and self.dropped == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "sent": self.sent,
            "completed": self.completed,
            "grants": self.grants,
            "denies": self.denies,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "unavailable": self.unavailable,
            "errors": self.errors,
            "dropped": self.dropped,
            "mismatches": self.mismatches,
            "traced": self.traced,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_rps": round(self.throughput_rps, 1),
            "latency_p50_us": round(self.latency_us(0.50), 1),
            "latency_p95_us": round(self.latency_us(0.95), 1),
            "latency_p99_us": round(self.latency_us(0.99), 1),
            "revocations": self.revocations,
            "revocation_p50_ms": round(self.revocation_latency_ms(0.50), 3),
            "revocation_p99_ms": round(self.revocation_latency_ms(0.99), 3),
        }

    def describe(self) -> str:
        lines = [
            f"{self.completed}/{self.sent} answered in {self.elapsed_s * 1e3:.1f} ms "
            f"({self.throughput_rps:,.0f} req/s)",
            f"  grants {self.grants}  denies {self.denies}  cached {self.cached}",
            f"  shed {self.shed}  timeouts {self.timeouts}  "
            f"unavailable {self.unavailable}  errors {self.errors}  "
            f"dropped {self.dropped}",
            f"  latency p50 {self.latency_us(0.5):.1f} us  "
            f"p95 {self.latency_us(0.95):.1f} us  "
            f"p99 {self.latency_us(0.99):.1f} us",
        ]
        if self.revocations:
            lines.append(
                f"  revocations {self.revocations}  "
                f"flip-to-delivery p50 "
                f"{self.revocation_latency_ms(0.5):.2f} ms  "
                f"p99 {self.revocation_latency_ms(0.99):.2f} ms"
            )
        if self.mismatches:
            ids = ", ".join(
                f"{request_id!r}"
                + (f" (trace {trace_id})" if trace_id else "")
                for request_id, trace_id in zip(
                    self.mismatch_request_ids[:10],
                    (self.mismatch_trace_ids + [""] * 10)[:10],
                )
            )
            lines.append(
                f"  STALE ANSWERS: {self.mismatches} mismatches vs direct "
                f"engine (request ids: {ids})"
            )
        return "\n".join(lines)


def build_stream(
    policy: GrbacPolicy, config: LoadgenConfig
) -> List[GeneratedRequest]:
    """The seeded request stream for ``config`` (repeats appended)."""
    unique = generate_requests(policy, config.requests, seed=config.seed)
    return unique * config.repeat


def compute_expected(
    policy: GrbacPolicy,
    stream: Sequence[GeneratedRequest],
    confidence_threshold: float = 0.0,
) -> List[bool]:
    """Reference grant/deny per stream item, from a direct engine.

    Uses a fresh cache-less engine over the same policy, so any
    disagreement with the served path is a service bug, not drift.
    """
    reference = MediationEngine(
        policy, confidence_threshold=confidence_threshold
    )
    return [
        reference.decide(
            item.request, environment_roles=set(item.active_environment_roles)
        ).granted
        for item in stream
    ]


def attach_revocation_probe(client, result: LoadgenResult) -> None:
    """Record flip-to-delivery latency for every push ``client`` gets.

    Registers a :meth:`RemotePDPClient.subscribe` handler that stamps
    ``time.time()`` at receipt and subtracts the server's flip
    timestamp from the message.  Both ends read the same wall clock on
    one machine (the bench topology); across machines the measurement
    inherits clock skew, like any one-way latency.
    """
    subscribe = getattr(client, "subscribe", None)
    if subscribe is None:
        raise ServiceError("client does not support revocation pushes")

    def on_revocation(revocation) -> None:
        result.revocations += 1
        result.revocation_latencies_s.append(
            max(0.0, time.time() - revocation.ts)
        )

    subscribe(on_revocation)


async def run_loadgen(
    client,
    stream: Sequence[GeneratedRequest],
    config: LoadgenConfig,
    expected: Optional[Sequence[bool]] = None,
) -> LoadgenResult:
    """Drive ``stream`` through ``client`` closed-loop.

    :param client: anything with ``async decide(request,
        environment_roles=...)`` returning an object with ``outcome``
        (a :class:`PDPOutcome`), ``granted`` and ``cached`` — both the
        in-process :class:`~repro.service.pdp.PDPClient` and the
        remote :class:`~repro.service.client.RemotePDPClient` qualify.
    :param expected: optional per-item reference grants; when given,
        every mediated answer is cross-checked.
    """
    if expected is not None and len(expected) != len(stream):
        raise ServiceError("expected list must match the stream length")
    if config.subscribe and expected is not None:
        raise ServiceError(
            "subscribe mode resolves against the live environment; "
            "verification replays claimed roles — run one or the other"
        )
    result = LoadgenResult(sent=len(stream))
    next_index = 0
    sampler = (
        TraceSampler(config.trace_sample_rate)
        if config.trace_sample_rate > 0
        else None
    )

    async def worker() -> None:
        nonlocal next_index
        while True:
            index = next_index
            if index >= len(stream):
                return
            next_index = index + 1
            item = stream[index]
            started = time.perf_counter()
            kwargs = {}
            if config.tenant is not None:
                kwargs["tenant"] = config.tenant
            trace_ctx: Optional[TraceContext] = None
            if sampler is not None and sampler.should_sample():
                trace_ctx = TraceContext.origin()
                kwargs["trace"] = trace_ctx
                result.traced += 1
            if config.subscribe:
                # Live-environment resolution: no env override, so the
                # server registers every grant for push revocation.
                kwargs["subscribe"] = True
            else:
                kwargs["environment_roles"] = set(
                    item.active_environment_roles
                )
            try:
                response = await client.decide(item.request, **kwargs)
            except ServiceError:
                result.dropped += 1
                continue
            result.latencies_s.append(time.perf_counter() - started)
            result.completed += 1
            outcome = response.outcome
            if outcome is PDPOutcome.GRANT:
                result.grants += 1
            elif outcome is PDPOutcome.DENY:
                result.denies += 1
            elif outcome is PDPOutcome.DENY_OVERLOAD:
                result.shed += 1
            elif outcome is PDPOutcome.DENY_TIMEOUT:
                result.timeouts += 1
            elif outcome is PDPOutcome.DENY_UNAVAILABLE:
                result.unavailable += 1
            else:
                result.errors += 1
            if response.cached:
                result.cached += 1
            if (
                expected is not None
                and outcome in (PDPOutcome.GRANT, PDPOutcome.DENY)
                and response.granted != expected[index]
            ):
                result.mismatches += 1
                result.mismatch_request_ids.append(
                    getattr(response, "request_id", None)
                )
                result.mismatch_trace_ids.append(
                    getattr(response, "trace_id", "")
                    or (trace_ctx.trace_id if trace_ctx is not None else "")
                )

    workers = [worker() for _ in range(min(config.concurrency, len(stream)))]
    started = time.perf_counter()
    await asyncio.gather(*workers)
    result.elapsed_s = time.perf_counter() - started
    # Closed loop: anything not answered was dropped, however it failed.
    result.dropped = result.sent - result.completed
    return result


class ClientPool:
    """Round-robins ``decide`` over several pipelined clients.

    One TCP connection serializes writes under its lock; spreading a
    closed-loop worker pool over ``--connections N`` sockets per
    endpoint removes that single-connection ceiling.  All other calls
    proxy to the first client.
    """

    def __init__(self, clients: Sequence[object]) -> None:
        if not clients:
            raise ServiceError("client pool needs at least one client")
        self._clients = list(clients)
        self._next = 0

    async def decide(self, request, **kwargs):
        client = self._clients[self._next]
        self._next = (self._next + 1) % len(self._clients)
        return await client.decide(request, **kwargs)

    def subscribe(self, handler) -> None:
        """Register ``handler`` on every pooled connection — a push
        arrives on whichever socket carried the subscribed grant."""
        for client in self._clients:
            client.subscribe(handler)


def merge_results(
    results: Sequence[LoadgenResult], elapsed_s: float
) -> LoadgenResult:
    """Sum per-endpoint tallies into one run-wide result.

    ``elapsed_s`` is the caller's wall clock around the whole run, so
    aggregate throughput reflects real concurrency instead of summing
    per-endpoint rates measured over different windows.
    """
    merged = LoadgenResult(elapsed_s=elapsed_s)
    for result in results:
        merged.sent += result.sent
        merged.completed += result.completed
        merged.grants += result.grants
        merged.denies += result.denies
        merged.shed += result.shed
        merged.timeouts += result.timeouts
        merged.unavailable += result.unavailable
        merged.errors += result.errors
        merged.dropped += result.dropped
        merged.mismatches += result.mismatches
        merged.mismatch_request_ids.extend(result.mismatch_request_ids)
        merged.mismatch_trace_ids.extend(result.mismatch_trace_ids)
        merged.traced += result.traced
        merged.cached += result.cached
        merged.latencies_s.extend(result.latencies_s)
        merged.revocations += result.revocations
        merged.revocation_latencies_s.extend(result.revocation_latencies_s)
    return merged


async def run_loadgen_endpoints(
    clients_by_endpoint: "Dict[str, Sequence[object]]",
    stream: Sequence[GeneratedRequest],
    config: LoadgenConfig,
    expected: Optional[Sequence[bool]] = None,
) -> "tuple[LoadgenResult, Dict[str, LoadgenResult]]":
    """Drive one stream across several endpoints concurrently.

    The stream is dealt round-robin across endpoints (item ``i`` goes
    to endpoint ``i % k``), each endpoint running its own closed loop
    of ``config.concurrency`` workers over its client pool.  Returns
    the aggregate plus per-endpoint results so a cluster bench can
    attribute throughput skew or sheds to a single shard.
    """
    if expected is not None and len(expected) != len(stream):
        raise ServiceError("expected list must match the stream length")
    endpoints = list(clients_by_endpoint)
    if not endpoints:
        raise ServiceError("at least one endpoint is required")
    count = len(endpoints)

    async def run_one(index: int, endpoint: str) -> LoadgenResult:
        part = list(stream[index::count])
        part_expected = (
            list(expected[index::count]) if expected is not None else None
        )
        if not part:
            return LoadgenResult()
        pool = ClientPool(clients_by_endpoint[endpoint])
        return await run_loadgen(pool, part, config, part_expected)

    started = time.perf_counter()
    results = await asyncio.gather(
        *(run_one(i, endpoint) for i, endpoint in enumerate(endpoints))
    )
    elapsed = time.perf_counter() - started
    per_endpoint = dict(zip(endpoints, results))
    return merge_results(results, elapsed), per_endpoint
