"""The asyncio Policy Decision Point (PDP).

NIST RBAC frames mediation as a reference monitor interposed on every
access; the ROADMAP's north star is that monitor under *heavy
concurrent traffic*.  :class:`PolicyDecisionPoint` is the serving
layer between the compiled engine's ``decide_batch`` fast path (PR 1)
and live callers:

* **bounded admission** — admitted requests wait in a plain pending
  list of at most ``max_queue`` entries, which never holds more than
  one read pass admitted; the excess of a pass is *shed immediately*
  with the explicit :attr:`PDPOutcome.DENY_OVERLOAD` outcome.  Across
  connections overload is TCP backpressure instead: the server reads
  a connection again only after the pass before was decided.
  Overload never produces an unbounded wait and never a spurious
  grant.
* **micro-batching** — a read is a batch: whatever one read pass of a
  server connection (or one loop iteration of in-process submits)
  admitted waits in the pending list until :meth:`step` runs at the
  end of that pass, which hands at most ``max_batch`` entries at a
  time to one :meth:`MediationEngine.decide_batch` call, amortizing
  snapshot lookups and expansion memos across the pass, until the list
  is empty.  Batch size therefore follows load: a lone request is
  decided on the pass that read it, a pipelined read fills real
  batches, and a miss costs no more loop iterations than a hit.
* **revision-keyed caching** — answers are cached keyed on
  ``(policy.decision_revision, environment revision, request)``; any
  policy mutation or environment transition moves a revision counter
  and the stale entry stops matching (see
  :mod:`repro.service.cache`).  Hits resolve synchronously at submit
  time without ever touching the pending list.
* **deadlines** — a request may carry a timeout; if it is still
  queued when its deadline passes it resolves to
  :attr:`PDPOutcome.DENY_TIMEOUT` instead of occupying a batch slot.
* **graceful drain** — :meth:`stop` (default) decides everything
  already admitted before shutting down, so an accepted request is
  never silently dropped; ``stop(drain=False)`` sheds the pending list
  instead, and only a batch already being decided completes.
* **hot-reload** — :meth:`swap_policy` atomically replaces the served
  policy without a restart: in-flight micro-batches complete against
  the engine they started with, subsequent batches see only the new
  one, and a :attr:`generation` counter in every cache key guarantees
  a swapped-in policy can never collide with cached decisions from an
  earlier one — even when their ``decision_revision`` values happen to
  coincide.  The validated administration path (parse, lint, diff,
  audit) lives in :mod:`repro.policy.admin`; the PDP only performs the
  swap itself.

The PDP is deliberately sessionless: callers that need §4.1.2 session
semantics hold a :class:`~repro.core.activation.Session` and talk to
the engine directly.  Admission, batching and deciding are
synchronous: :meth:`admit` and :meth:`step` are a plain state machine
that needs no event loop, and the asyncio shell is one ``call_soon``
of :meth:`step` per loop iteration that queued work.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import time
import weakref
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.audit import HashChainWriter
from repro.core.decision import AccessRequest, Decision
from repro.core.mediation import MediationEngine
from repro.core.permissions import Sign
from repro.core.policy import GrbacPolicy
from repro.core.roles import ANY_ENVIRONMENT
from repro.exceptions import PolicyStoreError, ServiceError
from repro.obs.export import (
    TraceSampler,
    TraceSink,
    prometheus_name,
    render_label_set,
    trace_to_dict,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.observers import ObserverHub
from repro.obs.slo import SloTracker
from repro.obs.trace import (
    DecisionTrace,
    Span,
    SpanCollector,
    TraceContext,
    new_span_id,
)
from repro.policy.admin import DEFAULT_TENANT
from repro.service.cache import CacheKey, DecisionCache
from repro.store.store import PolicyStore


class PDPOutcome(str, enum.Enum):
    """How the service answered — distinct from grant/deny alone.

    ``GRANT``/``DENY`` are mediated answers; the remaining outcomes
    are *service* refusals, all of which report ``granted=False`` so
    an overloaded or timed-out request can never be mistaken for an
    authorization.  ``DENY_UNKNOWN_TENANT`` is the explicit answer for
    a request naming a tenant this PDP does not serve — a routing
    mistake must read as a refusal, never a crash and never a grant.
    """

    GRANT = "grant"
    DENY = "deny"
    DENY_OVERLOAD = "deny-overload"
    DENY_TIMEOUT = "deny-timeout"
    DENY_UNKNOWN_TENANT = "deny-unknown-tenant"
    #: The worker a request routes to is down, circuit-broken or lost
    #: the link mid-request; the client synthesizes this instead of
    #: hanging.  Like every service refusal it reports ``granted=False``.
    DENY_UNAVAILABLE = "deny-unavailable"
    ERROR = "error"


#: Outcomes that carry a mediated :class:`Decision`.
MEDIATED_OUTCOMES = frozenset({PDPOutcome.GRANT, PDPOutcome.DENY})


@dataclass(frozen=True)
class PDPResponse:
    """One answered request, as seen by the submitting caller."""

    request: AccessRequest
    outcome: PDPOutcome
    #: Always ``False`` unless ``outcome is GRANT``.
    granted: bool
    #: The full mediated decision for GRANT/DENY; ``None`` for shed,
    #: timed-out, and errored requests (nothing was mediated).
    decision: Optional[Decision]
    #: Served from the revision-keyed cache (no queue, no batch).
    cached: bool = False
    #: Size of the micro-batch this request was decided in (0 when it
    #: never reached the batcher: cache hits, sheds, timeouts).
    batch_size: int = 0
    #: End-to-end service latency in seconds (submit to resolution).
    latency_s: float = 0.0
    #: Why a non-mediated outcome happened (overload/timeout/error).
    detail: str = ""
    #: Caller-supplied correlation id (the wire protocol's ``id``);
    #: echoed so logs, traces, and verification failures all name the
    #: same request.
    request_id: Optional[object] = None
    #: The tenant this request was routed to (the default tenant for
    #: single-policy traffic, preserving pre-tenancy behavior).
    tenant: str = DEFAULT_TENANT
    #: Distributed trace id when the request carried (or the PDP
    #: originated) a :class:`TraceContext`; ``""`` otherwise.
    trace_id: str = ""

    @property
    def rationale(self) -> str:
        if self.decision is not None:
            return self.decision.rationale
        return self.detail or self.outcome.value


@dataclass(frozen=True)
class PDPConfig:
    """Tuning knobs for the decision service."""

    #: Flush a batch at this size.
    max_batch: int = 64
    #: Admission bound: pending (not yet decided) request limit.  A
    #: submit finding the pending list full is shed with DENY_OVERLOAD.
    max_queue: int = 1024
    #: Revision-keyed decision cache capacity (0 disables).
    cache_size: int = 4096
    #: Default per-request deadline in seconds (None = no deadline).
    default_timeout_s: Optional[float] = None
    #: Head-based trace sampling rate in [0, 1]; sampled requests are
    #: decided with a full pipeline trace exported to the trace sink
    #: (no-op unless a sink is attached).
    trace_sample_rate: float = 0.0
    #: Flight-recorder ring capacity (0 disables the recorder).
    flight_capacity: int = 512

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ServiceError("max_queue must be >= 1")
        if self.cache_size < 0:
            raise ServiceError("cache_size must be >= 0")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ServiceError("default_timeout_s must be > 0")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ServiceError("trace_sample_rate must be in [0, 1]")
        if self.flight_capacity < 0:
            raise ServiceError("flight_capacity must be >= 0")


#: Tenants given their own ``tenant="..."`` label on the exported
#: per-tenant series; everything past the top K folds into the
#: ``__other__`` bucket so exposition cardinality stays bounded no
#: matter how many tenants a PDP has served.
TENANT_LABEL_TOPK = 8


@dataclass
class _Pending:
    """One admitted request waiting for the batcher."""

    request: AccessRequest
    env_override: Optional[FrozenSet[str]]
    submitted_at: float
    #: ``time.monotonic()`` deadline, or None.
    deadline: Optional[float]
    #: How the answer is delivered.
    callback: Callable[[PDPResponse], None]
    #: Wire correlation id, threaded into the response and any trace.
    request_id: Optional[object] = None
    #: Head-sampled for tracing: decided individually with a full
    #: pipeline trace that is exported to the trace sink.
    traced: bool = False
    #: Tenant the request was admitted for; the batcher groups a
    #: flush by this so each group renders on its tenant's engine.
    tenant: str = DEFAULT_TENANT
    #: Distributed trace context the request arrived with (or that
    #: submit originated for a locally sampled request); ``None`` on
    #: untraced traffic.
    trace_ctx: Optional[TraceContext] = None

    @property
    def trace_id(self) -> str:
        return self.trace_ctx.trace_id if self.trace_ctx is not None else ""


@dataclass
class _TenantState:
    """Per-tenant serving state: generation, origin, and counters.

    The default tenant is one of these too — pinned to the constructor
    engine, created in ``__init__``.  Store-backed tenants deliberately
    hold **no strong engine reference** — the engine is owned by the
    store's bounded compiled LRU, so resident memory scales with the
    LRU capacity, not the tenant count (the E13 bench gates on this).
    What they do keep is a *weak* reference plus the version it was
    resolved at: while the active pointer stands still and the LRU has
    not evicted, requests skip the store's locks entirely.  Tenants
    swapped in directly via :meth:`PolicyDecisionPoint.swap_policy`
    pin a strong engine reference here instead.
    """

    name: str
    #: Install counter, bumped by every swap/refresh (and an observed
    #: store pointer move).  It leads this tenant's cache keys: two
    #: policies can legitimately share a ``decision_revision`` (a
    #: freshly-built policy starts its counters from the same
    #: deterministic construction order), so revision alone cannot
    #: tell pre-install entries from post-install ones.
    generation: int = 0
    #: Store version the last resolution saw; a pointer move observed
    #: at resolve time bumps :attr:`generation` so cached decisions
    #: from the previous version stop matching.
    version: Optional[int] = None
    #: Pinned engine (direct swaps only); None = resolve via store.
    engine: Optional[MediationEngine] = None
    #: Weak reference to the engine the last store resolution returned,
    #: valid while :attr:`version` is still the active version.  Weak
    #: on purpose: the store's compiled LRU stays the engine's only
    #: owner (eviction still bounds memory); the reference only lets
    #: the per-request path skip the store's locks when nothing moved.
    store_engine: Optional["weakref.ref"] = None
    #: Environment-source identity tracking: cache keys must change
    #: when the serving engine's ``environment`` is attached, detached
    #: or replaced — two different sources can carry equal revision
    #: numbers.  Compared by identity in ``_env_component``; the epoch
    #: bumps on every observed change.  Per tenant, because tenants
    #: alternate through a flush and a shared epoch would thrash.
    env_source: object = None
    env_epoch: int = 0
    #: The caller-supplied ``env_revision=`` reader (default tenant
    #: only); overrides source tracking.
    env_revision: Optional[Callable[[], int]] = None
    # Per-tenant tallies.  Deliberately plain attributes rather than
    # registry counters: registering ``pdp.tenant.<name>.*`` series
    # per tenant made exposition cardinality grow with tenant count
    # (an unbounded-label bug at fleet scale).  The exposition layer
    # instead emits bounded ``tenant="..."`` labels for the top-K
    # hottest tenants plus an ``__other__`` overflow bucket — see
    # :meth:`PolicyDecisionPoint._tenant_prometheus`.
    requests: int = 0
    cache_hits: int = 0
    decided: int = 0
    reloads: int = 0
    #: Decision-latency accumulator (seconds) and sample count, fed by
    #: every observed response for this tenant; exported as a
    #: Prometheus ``_sum``/``_count`` pair.
    latency_sum_s: float = 0.0
    latency_count: int = 0


#: policy -> (decision revision, environment role -> transactions of
#: the DENY permissions its activation arms).
_ARMED_DENIES: "weakref.WeakKeyDictionary[GrbacPolicy, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _armed_denies(policy: GrbacPolicy) -> Dict[str, FrozenSet[str]]:
    """Environment role -> transactions of the DENY permissions that
    are active once it is: those conditioned on it or on one of its
    generalisations.  Built once per policy revision."""
    revision = policy.decision_revision
    memo = _ARMED_DENIES.get(policy)
    if memo is not None and memo[0] == revision:
        return memo[1]
    index: Dict[str, Set[str]] = {}
    hierarchy = policy.environment_roles
    for permission in policy.permissions():
        role = permission.environment_role
        if permission.sign is not Sign.DENY or role == ANY_ENVIRONMENT:
            continue
        for armed in {role, *hierarchy.specializations(role)}:
            index.setdefault(armed.name, set()).add(permission.transaction.name)
    frozen = {name: frozenset(names) for name, names in index.items()}
    _ARMED_DENIES[policy] = (revision, frozen)
    return frozen


@dataclass(frozen=True)
class SessionGrant:
    """One pushed-revocation subscription: a live grant being watched.

    Continuous authorization (§4.2.2) turns a GRANT answer from a
    point-in-time fact into a *standing* one: the videophone session
    that was allowed to start must be torn down the moment the
    environment roles that justified it deactivate.  A subscribed
    GRANT is recorded as one of these; the supporting ``roles`` set is
    the decision's active environment-role census at grant time, so
    *any* member deactivating withdraws the grant (conditions are
    conjunctive once granted — we cannot know which roles were
    load-bearing without re-mediating, and re-checking on flip is
    exactly what the subscriber will do anyway).
    """

    #: Opaque connection identity the grant was issued on.
    session_id: object
    #: Wire id of the decision request (what the revoke push echoes).
    grant_id: object
    subject: Optional[str]
    transaction: str
    obj: str
    #: Environment roles active when the grant was rendered.
    roles: FrozenSet[str]
    tenant: str = DEFAULT_TENANT
    #: The request the grant answered — re-mediated when an activation
    #: arms a DENY on its transaction.  ``None``: rebuilt from the
    #: subject, transaction and object.
    request: Optional[AccessRequest] = field(default=None, compare=False)


class SessionGrantTable:
    """Who holds which environment-supported grants, by connection.

    The PDP-side half of push revocation: the serving layer registers
    each subscribed GRANT here together with a per-session ``push``
    callable; when an environment role deactivates,
    :meth:`revoke_role` sweeps the role's postings list and hands every
    affected grant to its session's push callback exactly once (the
    grant is removed before the callback runs, so a re-entrant flip
    cannot double-revoke).  Grants supported by *no* environment role
    are never registered — nothing in the environment can withdraw
    them, so watching them would only grow the table.

    Not thread-safe by design: it lives on the server's event loop,
    where activator events (delivered synchronously by the
    :class:`~repro.env.events.EventBus`) and connection lifecycles
    already serialize.
    """

    def __init__(self) -> None:
        # session -> grant_id -> grant; insertion order preserves
        # grant age for deterministic revocation order in tests.
        self._sessions: Dict[object, Dict[object, SessionGrant]] = {}
        self._push: Dict[object, Callable[..., None]] = {}
        self._flush: Dict[object, Callable[[], object]] = {}
        # role name -> {(session_id, grant_id)} postings, so a flip
        # touches only the grants that role supports — O(affected),
        # not O(table).
        self._by_role: Dict[str, Set[Tuple[object, object]]] = {}
        #: Push callbacks that raised (kept for observability; a dead
        #: connection's failed push must not break the sweep).
        self.push_errors = 0

    def attach_session(
        self,
        session_id: object,
        push: Callable[..., None],
        flush: Optional[Callable[[], object]] = None,
    ) -> None:
        """Start accepting grants for ``session_id``.

        ``push(grant, roles, reason, ts)`` is invoked for every
        revocation: the withdrawn :class:`SessionGrant`, the tuple of
        deactivated role names that withdrew it, a human-readable
        reason, and the server wall-clock timestamp of the flip.
        ``flush()``, when given, runs once at the end of every sweep
        that pushed to this session — a transport that coalesces
        writes sends the sweep's revokes there, not whenever its next
        reply happens to leave.
        """
        self._sessions.setdefault(session_id, {})
        self._push[session_id] = push
        if flush is not None:
            self._flush[session_id] = flush

    def detach_session(self, session_id: object) -> None:
        """Forget a closed connection and every grant it held."""
        grants = self._sessions.pop(session_id, None)
        self._push.pop(session_id, None)
        self._flush.pop(session_id, None)
        if not grants:
            return
        for grant in grants.values():
            self._unindex(grant)

    def register(self, grant: SessionGrant) -> bool:
        """Record one subscribed GRANT; ``True`` when it is watched.

        Returns ``False`` (and records nothing) for grants with no
        supporting environment roles or on sessions never attached —
        both mean no push can ever fire.  Re-registering the same
        ``(session, grant_id)`` replaces the old record (a client
        reusing a wire id after re-asking sees the fresh census).
        """
        if not grant.roles or grant.session_id not in self._sessions:
            return False
        grants = self._sessions[grant.session_id]
        old = grants.get(grant.grant_id)
        if old is not None:
            self._unindex(old)
        grants[grant.grant_id] = grant
        key = (grant.session_id, grant.grant_id)
        for role in grant.roles:
            self._by_role.setdefault(role, set()).add(key)
        return True

    def revoke_role(
        self, role: str, reason: str, ts: float
    ) -> List[SessionGrant]:
        """Withdraw every grant ``role`` supports and push each one.

        Returns the withdrawn grants (already removed from the table).
        """
        postings = self._by_role.pop(role, None)
        if not postings:
            return []
        return self._withdraw(postings, role, reason, ts, skip_role=role)

    def revoke_grants(
        self, grants: Sequence[SessionGrant], role: str, reason: str, ts: float
    ) -> List[SessionGrant]:
        """Withdraw ``grants`` — ``role``'s activation now denies them —
        and push each one, naming ``role``."""
        if not grants:
            return []
        keys = {(grant.session_id, grant.grant_id) for grant in grants}
        return self._withdraw(keys, role, reason, ts)

    def standing(self) -> List[SessionGrant]:
        """Every grant being watched, oldest first per session."""
        return [
            grant
            for grants in self._sessions.values()
            for grant in grants.values()
        ]

    def _withdraw(
        self,
        postings: Set[Tuple[object, object]],
        role: str,
        reason: str,
        ts: float,
        skip_role: str = "",
    ) -> List[SessionGrant]:
        revoked: List[SessionGrant] = []
        for session_id, grant_id in sorted(
            postings, key=lambda key: (repr(key[0]), repr(key[1]))
        ):
            grants = self._sessions.get(session_id)
            if grants is None:
                continue
            grant = grants.pop(grant_id, None)
            if grant is None:
                continue
            revoked.append(grant)
            push = self._push.get(session_id)
            if push is None:
                continue
            try:
                push(grant, (role,), reason, ts)
            except Exception:  # noqa: BLE001 - a dead writer, not us
                self.push_errors += 1
        # Holders first, bookkeeping second: every revoke is on its way
        # before the withdrawn grants leave the other roles' postings
        # (a grant rests on its whole census, so that is the slow half
        # of a sweep).  Neither push nor flush re-enters the table.
        for session_id in {grant.session_id for grant in revoked}:
            flush = self._flush.get(session_id)
            if flush is not None:
                try:
                    flush()
                except Exception:  # noqa: BLE001 - a dead writer, not us
                    self.push_errors += 1
        for grant in revoked:
            self._unindex(grant, skip_role=skip_role)
        return revoked

    def _unindex(self, grant: SessionGrant, skip_role: str = "") -> None:
        key = (grant.session_id, grant.grant_id)
        for role in grant.roles:
            if role == skip_role:
                continue
            postings = self._by_role.get(role)
            if postings is None:
                continue
            postings.discard(key)
            if not postings:
                del self._by_role[role]

    @property
    def watching(self) -> bool:
        """Whether any grant is watched (every one rests on a role)."""
        return bool(self._by_role)

    @property
    def sessions(self) -> int:
        return len(self._sessions)

    @property
    def grants(self) -> int:
        return sum(len(grants) for grants in self._sessions.values())

    def grants_for(self, session_id: object) -> List[SessionGrant]:
        """The live grants of one session (observability/tests)."""
        return list(self._sessions.get(session_id, {}).values())


class PolicyDecisionPoint:
    """An asyncio decision service over one :class:`MediationEngine`.

    :param engine: the mediation engine decisions are rendered by.
    :param config: service tuning; defaults are reasonable for an
        in-process PDP.
    :param env_revision: how to observe the environment-snapshot
        revision for cache keys — a zero-argument callable, or any
        object exposing a ``revision`` attribute (e.g.
        :class:`~repro.env.runtime.EnvironmentRuntime` or the
        activator).  When omitted, it is derived from the engine's
        environment source when that source exposes ``revision``;
        engines with an opaque source stay correct by *not caching*
        requests that resolve the environment through it (explicit
        per-request environment overrides are always cacheable).
    :param metrics: registry for service counters/histograms; the
        engine's own registry is reused by default so one snapshot
        shows the whole stack.
    :param observers: observer hub for lifecycle/overload events;
        defaults to the engine's hub.
    :param trace_sink: destination for sampled decision spans (see
        :mod:`repro.obs.export`).  ``None`` disables trace export
        regardless of the configured sample rate.
    :param slo: rolling SLO tracker; a default one (99.9%%
        availability, 99%% under 50 ms, 5-minute window) bound to the
        metrics registry is created when omitted.
    """

    def __init__(
        self,
        engine: MediationEngine,
        config: Optional[PDPConfig] = None,
        env_revision: object = None,
        metrics: Optional[MetricsRegistry] = None,
        observers: Optional[ObserverHub] = None,
        trace_sink: Optional[TraceSink] = None,
        slo: Optional[SloTracker] = None,
        store: Optional[PolicyStore] = None,
        audit_writer: Optional[HashChainWriter] = None,
    ) -> None:
        self.config = config or PDPConfig()
        self.metrics = metrics if metrics is not None else engine.metrics
        self.observers = observers if observers is not None else engine.observers
        self.cache = DecisionCache(self.config.cache_size)
        #: Optional multi-tenant policy store; tenants it holds resolve
        #: engines lazily through its bounded compiled-snapshot LRU.
        self.store = store
        #: The default tenant is a tenant: the constructor engine,
        #: pinned, so single-policy traffic takes the one resolution
        #: path.  Its engine is also the template every other tenant's
        #: engine is built :meth:`~MediationEngine.like`.
        self._default = _TenantState(
            name=DEFAULT_TENANT,
            engine=engine,
            env_source=engine.environment,
            env_revision=self._resolve_env_revision(env_revision),
        )
        self._tenants: Dict[str, _TenantState] = {
            DEFAULT_TENANT: self._default
        }
        #: Admitted, not yet batched requests, oldest first.  Never
        #: rebound: a running :meth:`step` holds this very list, so a
        #: shed empties it in place.
        self._pending: List[_Pending] = []
        #: A ``call_soon`` of :meth:`step` is due, and no step has run
        #: since it was made.
        self._step_scheduled = False
        self._accepting = False
        self._started_at: Optional[float] = None
        # Live-ops surfaces (PR 4): sampled trace export, the always-on
        # flight recorder, and rolling SLO objectives.
        self.trace_sink = trace_sink
        self.sampler = TraceSampler(self.config.trace_sample_rate)
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(self.config.flight_capacity)
            if self.config.flight_capacity > 0
            else None
        )
        self.slo = slo if slo is not None else SloTracker(metrics=self.metrics)
        #: Bounded buffer of this process's distributed-trace spans,
        #: keyed by trace id — what the ``trace`` wire op and the
        #: cluster admin's cross-process join read from.
        self.spans = SpanCollector()
        #: Optional hash-chained audit stream: every *mediated*
        #: response (GRANT/DENY — service refusals mediate nothing)
        #: appends one tamper-evident record.  See
        #: :class:`repro.core.audit.HashChainWriter`.
        self.audit_writer = audit_writer
        self.metrics.gauge("pdp.queue_depth", lambda: float(self.queue_depth))
        self.metrics.gauge("pdp.running", lambda: float(self.running))
        self.metrics.gauge("pdp.generation", lambda: float(self.generation))
        environment = engine.environment
        if environment is not None and hasattr(environment, "revision"):
            self.metrics.gauge(
                "env.revision",
                lambda: float(environment.revision),  # type: ignore[attr-defined]
            )
        # Hot-path metric handles (one dict probe each, taken once).
        metrics_registry = self.metrics
        self._m_requests = metrics_registry.counter("pdp.requests")
        self._m_cache_hits = metrics_registry.counter("pdp.cache_hits")
        self._m_cache_misses = metrics_registry.counter("pdp.cache_misses")
        self._m_cache_uncacheable = metrics_registry.counter(
            "pdp.cache_uncacheable"
        )
        self._m_shed = metrics_registry.counter("pdp.shed")
        self._m_timeouts = metrics_registry.counter("pdp.timeouts")
        self._m_errors = metrics_registry.counter("pdp.errors")
        self._m_batches = metrics_registry.counter("pdp.batches")
        self._m_decided = metrics_registry.counter("pdp.decided")
        self._m_reloads = metrics_registry.counter("pdp.reloads")
        self._m_unknown_tenant = metrics_registry.counter(
            "pdp.unknown_tenant"
        )
        self._h_batch = metrics_registry.histogram("pdp.batch_size")
        self._h_queue = metrics_registry.histogram("pdp.queue_depth")
        self._h_latency = metrics_registry.histogram("pdp.latency")
        self._h_reload = metrics_registry.histogram("pdp.reload_duration")
        # Continuous authorization (§4.2.2): the push-revocation ledger
        # and its observability.  The table is always present (cheap);
        # it only fills when a serving layer attaches sessions and
        # calls watch_environment.
        self.grants = SessionGrantTable()
        self._m_revocations = metrics_registry.counter("pdp.revocations")
        self._h_revocation_latency = metrics_registry.histogram(
            "pdp.revocation_latency"
        )
        metrics_registry.gauge(
            "pdp.subscribed_sessions", lambda: float(self.grants.sessions)
        )
        metrics_registry.gauge(
            "pdp.subscribed_grants", lambda: float(self.grants.grants)
        )
        # Decision-cache capacity/evictions at the exposition surface,
        # so tenant-LRU tuning is observable without a stats round-trip.
        metrics_registry.gauge(
            "pdp.cache_capacity", lambda: float(self.cache.capacity)
        )
        metrics_registry.gauge(
            "pdp.cache_evictions", lambda: float(self.cache.evictions)
        )
        if store is not None:
            store.bind_metrics(metrics_registry)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PolicyDecisionPoint":
        """Open admission; idempotent.  The PDP owns no task."""
        if self._accepting:
            return self
        self._accepting = True
        self._started_at = time.monotonic()
        hub = self.observers
        if hub:
            hub.emit("pdp.start", max_batch=self.config.max_batch,
                     max_queue=self.config.max_queue)
        return self

    async def stop(self, drain: bool = True) -> None:
        """Close admission and settle the pending list; never suspends.

        With ``drain=True`` (graceful, the default) every already-
        admitted request is decided first; with ``drain=False`` the
        pending list is shed with DENY_OVERLOAD, and only a batch a
        running :meth:`step` is already deciding completes.
        """
        if not self.running:
            return
        self._accepting = False
        if drain:
            self.step()
        else:
            shed = self._pending[:]
            self._pending.clear()  # in place: a running step holds it
            for item in shed:
                self._shed(item, "service shutting down")
        hub = self.observers
        if hub:
            hub.emit("pdp.stop", drained=drain)

    async def __aenter__(self) -> "PolicyDecisionPoint":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        """Admission is open, or the pending list is not yet empty."""
        return self._accepting or bool(self._pending)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def uptime_s(self) -> float:
        """Seconds since the last :meth:`start`; 0 when never."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    @property
    def engine(self) -> MediationEngine:
        """The default tenant's engine (read-only; see :meth:`swap_policy`)."""
        return self._default.engine  # type: ignore[return-value]

    @property
    def generation(self) -> int:
        """The default tenant's install counter."""
        return self._default.generation

    @property
    def policy(self) -> GrbacPolicy:
        """The policy currently being served (default tenant)."""
        return self.engine.policy

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def _tenant_state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(name=tenant)
            self._tenants[tenant] = state
        return state

    def _resolve_tenant(
        self, tenant: str
    ) -> Optional[Tuple[MediationEngine, int, _TenantState]]:
        """``(engine, generation, state)`` for ``tenant``, or None.

        Resolution order: a tenant with a pinned engine (the default
        tenant always; any other after a direct :meth:`swap_policy`)
        serves that; otherwise the attached store resolves the
        tenant's *active* version through its compiled LRU, as an
        engine like the default one (same threshold, environment,
        constraints) — and a pointer move observed here bumps the
        tenant's generation, so a store-side ``activate``/``rollback``
        invalidates cached decisions without any callback plumbing.
        ``None`` means the tenant is unknown (or store-known but never
        activated): the caller answers ``DENY_UNKNOWN_TENANT``.
        """
        state = self._tenants.get(tenant)
        if state is not None and state.engine is not None:
            return state.engine, state.generation, state
        store = self.store
        if store is None or tenant not in store:
            return None
        # Fast path: the last resolution is still valid if the active
        # pointer has not moved and the LRU has not evicted the engine
        # (the weakref died).  One lock-free version probe instead of
        # the store's full lock + LRU round trip per request.
        if state is not None and state.store_engine is not None:
            try:
                version = store.active_version(tenant)
            except PolicyStoreError:
                version = None
            if version is not None and version == state.version:
                engine = state.store_engine()
                if engine is not None:
                    return engine, state.generation, state
        try:
            engine, version = store.engine(tenant, self.engine)
        except PolicyStoreError:
            return None  # no active version yet
        state = self._tenant_state(tenant)
        state.store_engine = weakref.ref(engine)
        if state.version != version:
            state.version = version
            state.generation += 1
        return engine, state.generation, state

    def tenants(self) -> List[str]:
        """Every tenant this PDP can currently serve, sorted."""
        names = {
            name
            for name, state in self._tenants.items()
            if state.engine is not None
        }
        if self.store is not None:
            names.update(self.store.tenants())
        return sorted(names)

    def tenant_policy(self, tenant: Optional[str] = None) -> GrbacPolicy:
        """The policy serving ``tenant`` (default tenant when None).

        :raises ServiceError: unknown tenant.
        """
        resolved = self._resolve_tenant(tenant or DEFAULT_TENANT)
        if resolved is None:
            raise ServiceError(f"unknown tenant {tenant!r}")
        return resolved[0].policy

    def refresh_tenant(self, tenant: Optional[str] = None) -> int:
        """Re-resolve ``tenant`` from the attached store; new generation.

        The explicit admin hook behind ``reload?tenant=`` without a
        policy body: drops any pinned engine (the store becomes the
        authority again).  The default tenant stays pinned — its
        refresh installs the store's active *default* policy.

        :raises ServiceError: no store attached.
        :raises PolicyStoreError: tenant unknown to the store / no
            active version.
        """
        if self.store is None:
            raise ServiceError("no policy store attached to this PDP")
        return self._install(tenant or DEFAULT_TENANT, None)

    def tenants_overview(self) -> List[Dict[str, object]]:
        """One summary row per tenant — the ``tenants`` op / ``GET
        /tenants`` body: lineage from the store (when attached) merged
        with live serving state and per-tenant counters."""
        rows: Dict[str, Dict[str, object]] = {}
        if self.store is not None:
            for row in self.store.overview():
                rows[str(row["tenant"])] = {**row, "source": "store"}
        for name, state in self._tenants.items():
            row = rows.setdefault(name, {"tenant": name})
            if state is self._default:
                row.setdefault("source", "engine")
            elif state.engine is not None:
                row["source"] = "swap"
            if state.engine is not None:
                row["policy"] = state.engine.policy.name
            row["generation"] = state.generation
            if state.version is not None:
                row["serving_version"] = state.version
            row["requests"] = state.requests
            row["cache_hits"] = state.cache_hits
            row["decided"] = state.decided
            row["reloads"] = state.reloads
        return [rows[name] for name in sorted(rows)]

    # ------------------------------------------------------------------
    # Hot-reload
    # ------------------------------------------------------------------
    def swap_policy(
        self, policy: GrbacPolicy, tenant: Optional[str] = None
    ) -> int:
        """Atomically replace the served policy; returns the generation.

        ``tenant=None`` is the default tenant.  Naming another tenant
        targets (or creates) that tenant's pinned engine instead and
        bumps the *tenant's* generation — every other tenant keeps
        serving its engine and its cached decisions untouched.

        This is the mechanism only (see :meth:`_install`); validation,
        diffing, and audit live in
        :class:`repro.policy.admin.PolicyAdministrator`, which calls
        this after a candidate passes its checks.
        """
        return self._install(tenant or DEFAULT_TENANT, policy)

    def _install(self, name: str, policy: Optional[GrbacPolicy]) -> int:
        """The one install: make tenant ``name`` serve a new engine.

        With ``policy`` the engine is built on it
        :meth:`MediationEngine.like` the tenant's previous pinned
        engine (the default tenant's when it had none — a tenant minted
        by its first swap inherits the deployment's settings): same
        environment source, confidence threshold, internal cache sizing
        and decision constraints, pre-compiled so the first post-swap
        batch does not pay the compile inside its latency budget.  With
        ``None`` it is the store's engine for the tenant's active
        version, built like the default tenant's.

        Either way it is published with *no await point* between
        building it and publishing it: on asyncio's single thread, a
        micro-batch that already captured its engine (see
        :meth:`_flush`) completes against the old snapshot, and every
        batch formed afterwards sees only the new one.  The tenant's
        generation bumps in the same synchronous step, so pre-install
        :class:`DecisionCache` entries stop matching by construction —
        even when old and new policies share a ``decision_revision``.
        Every install is counted, timed (``pdp.reload_duration``),
        announced (``pdp.reload`` hub event), and leaves a flight
        entry and a trace-sink span.
        """
        started = time.perf_counter()
        state = self._tenants.get(name)
        template = self._default.engine
        if policy is None:
            # Raises for a tenant the store does not know / never
            # activated, before any state exists for it.
            engine, version = self.store.engine(name, template)
        else:
            if state is not None and state.engine is not None:
                template = state.engine
            engine, version = template.like(policy), None
        if state is None:
            state = self._tenant_state(name)
        # Pinned (a strong reference, the store no longer the
        # authority) after a swap; the default tenant always — it is
        # the template.  Otherwise the store's LRU owns the engine.
        pinned = policy is not None or state is self._default
        state.engine = engine if pinned else None
        state.store_engine = None if pinned else weakref.ref(engine)
        state.version = None if pinned else version
        state.generation += 1
        generation = state.generation
        duration = time.perf_counter() - started
        state.reloads += 1
        self._m_reloads.inc()
        self._h_reload.observe(duration)
        serving = engine.policy
        annotations = {
            "policy": serving.name,
            "tenant": name,
            "generation": generation,
            "revision": serving.decision_revision,
        }
        hub = self.observers
        if hub:
            hub.emit("pdp.reload", **annotations)
        rationale = (
            f"policy swapped to {serving.name!r} (tenant {name!r}, "
            f"generation {generation}, revision {serving.decision_revision})"
        )
        if self.flight is not None:
            self.flight.record(
                subject=None,
                transaction="policy.reload",
                obj=serving.name,
                outcome="reload",
                granted=False,
                rationale=rationale,
                latency_us=duration * 1e6,
            )
        sink = self.trace_sink
        if sink is not None:
            trace = DecisionTrace(None, "policy.reload", serving.name,
                                  mode="admin")
            trace.granted = False
            trace.rationale = rationale
            trace.add_span(
                "pdp.reload", duration_s=duration, annotations=annotations
            )
            sink.offer(trace_to_dict(trace))
        return generation

    # ------------------------------------------------------------------
    # Continuous authorization (push revocation)
    # ------------------------------------------------------------------
    def watch_environment(self, bus) -> None:
        """Subscribe the grant table to ``bus``'s role lifecycle.

        Wires ``role.deactivated`` events — published eagerly by the
        :class:`~repro.env.activation.EnvironmentRoleActivator` at
        every transition, with zero requests in flight — into
        :meth:`SessionGrantTable.revoke_role`, so a §4.2.2 environment
        flip withdraws every subscribed grant the flipped role
        supported.  Delivery is synchronous on the bus's publish path:
        by the time the event has fanned out, the table no longer
        holds the grant and every push callback has run.

        ``role.activated`` events withdraw what a newly armed DENY
        forbids.  A grant's supporting roles are the roles active when
        it was rendered, so a role that was inactive then can never
        reach it through :meth:`SessionGrantTable.revoke_role`: when X
        activates and a tenant's policy has a DENY conditioned on X or
        on a generalisation of X, the standing grants on that DENY's
        transactions are re-mediated against the live environment and
        the ones that now deny are revoked, naming X.  Any other
        activation costs one set lookup per tenant (none while no grant
        is watched).
        """
        bus.subscribe("role.deactivated", self._on_role_deactivated)
        bus.subscribe("role.activated", self._on_role_activated)

    def _on_role_deactivated(self, event) -> None:
        role = event.get("role")
        if not role:
            return
        ts = time.time()
        revoked = self.grants.revoke_role(
            role, reason=f"environment role '{role}' deactivated", ts=ts
        )
        if revoked:
            self._m_revocations.inc(len(revoked))
            hub = self.observers
            if hub:
                hub.emit(
                    "pdp.revocations", role=role, grants=len(revoked)
                )

    def _on_role_activated(self, event) -> None:
        role = event.get("role")
        if not role or not self.grants.watching:
            return
        armed: List[Tuple[str, MediationEngine, FrozenSet[str]]] = []
        for tenant in list(self._tenants):
            resolved = self._resolve_tenant(tenant)
            if resolved is None:
                continue
            engine = resolved[0]
            transactions = _armed_denies(engine.policy).get(role)
            if transactions:
                armed.append((tenant, engine, transactions))
        if not armed:
            return
        doomed: List[SessionGrant] = []
        for grant in self.grants.standing():
            for tenant, engine, transactions in armed:
                if grant.tenant != tenant or grant.transaction not in transactions:
                    continue
                request = grant.request or AccessRequest(
                    grant.transaction, grant.obj, subject=grant.subject
                )
                if not engine.decide(request).granted:
                    doomed.append(grant)
        revoked = self.grants.revoke_grants(
            doomed, role, f"environment role '{role}' activated", time.time()
        )
        if revoked:
            self._m_revocations.inc(len(revoked))
            hub = self.observers
            if hub:
                hub.emit("pdp.revocations", role=role, grants=len(revoked))

    def record_revocation_latency(self, seconds: float) -> None:
        """Record one flip-to-delivery revocation latency observation.

        Called by whichever layer can actually see the delivery happen
        — the TCP server just before the push bytes are written, an
        in-process harness when its callback fires — because the PDP
        itself only knows when the flip occurred, not when the
        subscriber learned of it.
        """
        self._h_revocation_latency.observe(max(0.0, seconds))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: AccessRequest,
        environment_roles: Optional[Set[str]] = None,
        timeout: Optional[float] = None,
        request_id: Optional[object] = None,
        tenant: Optional[str] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> PDPResponse:
        """Mediate ``request`` through the service.

        :param environment_roles: explicit directly-active environment
            roles (what-if / replay traffic); ``None`` resolves through
            the engine's environment source at decision time.
        :param timeout: per-request deadline in seconds (defaults to
            the config's ``default_timeout_s``).  A request whose
            deadline passes while it is still queued resolves to
            DENY_TIMEOUT.
        :param request_id: caller correlation id (the wire protocol's
            ``id``); echoed on the response, stamped into exported
            trace spans and flight-recorder entries.
        :param tenant: named policy lineage to decide against;
            ``None`` (and the literal default name) is the constructor
            engine.  A tenant this PDP does not serve answers
            DENY_UNKNOWN_TENANT — explicitly, never as a crash.
        :param trace_ctx: distributed trace context propagated from an
            upstream hop (the client).  Its head-sampling flag is
            *obeyed* — this PDP never re-rolls the decision — so a
            cross-process trace is complete or absent, never partial.
            ``None`` falls back to local head sampling, originating a
            fresh context when sampled.
        :raises ServiceError: when the service is not running.
        """
        future: "asyncio.Future[PDPResponse]" = (
            asyncio.get_running_loop().create_future()
        )

        def resolve(response: PDPResponse) -> None:
            if not future.done():  # a cancelled caller is not an error
                future.set_result(response)

        self.submit_nowait(
            request,
            resolve,
            environment_roles=environment_roles,
            timeout=timeout,
            request_id=request_id,
            tenant=tenant,
            trace_ctx=trace_ctx,
        )
        return await future

    def submit_nowait(
        self,
        request: AccessRequest,
        callback: Callable[[PDPResponse], None],
        environment_roles: Optional[Set[str]] = None,
        timeout: Optional[float] = None,
        request_id: Optional[object] = None,
        tenant: Optional[str] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> None:
        """:meth:`admit`, plus one ``call_soon`` of :meth:`step` per
        loop iteration that queued work — the completion path of every
        caller that does not step the PDP itself.  The callback runs on
        the event loop and must not raise or block.

        :raises ServiceError: when the service is not running.
        """
        if (
            self.admit(
                request, callback, environment_roles, timeout, request_id,
                tenant, trace_ctx,
            )
            and not self._step_scheduled
        ):
            self._step_scheduled = True
            asyncio.get_running_loop().call_soon(self.step)

    def admit(
        self,
        request: AccessRequest,
        callback: Callable[[PDPResponse], None],
        environment_roles: Optional[Set[str]] = None,
        timeout: Optional[float] = None,
        request_id: Optional[object] = None,
        tenant: Optional[str] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> bool:
        """The synchronous half of submission; needs no event loop.

        Whatever admission can answer on its own — a cache hit, a shed,
        an unknown tenant — reaches ``callback`` before this returns
        ``False``.  A request that has to be mediated joins the pending
        list and this returns ``True``: the caller owes the PDP a
        :meth:`step`, which calls ``callback`` from the batch that
        decided it.

        :raises ServiceError: when the service is not running.
        """
        if not self._accepting:
            raise ServiceError("PDP is not running (call start())")
        self._m_requests.inc()
        submitted = time.perf_counter()
        tenant_name = tenant or DEFAULT_TENANT
        resolved = self._resolve_tenant(tenant_name)
        if resolved is None:
            self._m_unknown_tenant.inc()
            self._refuse(
                _Pending(
                    request,
                    env_override=None,
                    submitted_at=submitted,
                    deadline=None,
                    callback=callback,
                    request_id=request_id,
                    tenant=tenant_name,
                    trace_ctx=trace_ctx,
                ),
                PDPOutcome.DENY_UNKNOWN_TENANT,
                f"unknown tenant {tenant_name!r}",
            )
            return False
        engine, generation, state = resolved
        state.requests += 1
        override = (
            frozenset(environment_roles) if environment_roles is not None else None
        )
        # Head-based sampling: the keep/drop choice is made here, once,
        # before we know whether the request will hit the cache.  A
        # propagated context's flag is authoritative (the origin rolled
        # the dice); otherwise the local sampler decides, and a locally
        # sampled request originates its own context so every traced
        # decision carries a joinable trace id.
        if trace_ctx is not None:
            traced = trace_ctx.sampled
        else:
            traced = self.sampler.should_sample()
            if traced:
                trace_ctx = TraceContext.origin()

        if self.config.cache_size == 0:
            # Capacity-0 fast path: no key tuple is ever materialized
            # and the LRU is never probed — only the uncacheable tally
            # moves, exactly as a ``get(None)`` would have moved it.
            key: Optional[CacheKey] = None
            cached = None
            self.cache.note_uncacheable()
        else:
            key = self._cache_key(request, override, engine, generation, state)
            cached = self.cache.get(key)
        if cached is not None:
            self._m_cache_hits.inc()
            state.cache_hits += 1
            outcome = PDPOutcome.GRANT if cached.granted else PDPOutcome.DENY
            response = PDPResponse(
                request=request,
                outcome=outcome,
                granted=cached.granted,
                decision=cached,
                cached=True,
                latency_s=time.perf_counter() - submitted,
                request_id=request_id,
                tenant=tenant_name,
                trace_id=trace_ctx.trace_id if trace_ctx is not None else "",
            )
            if traced:
                # A cache hit has no live stages to time, but the
                # sampled stream must still carry it — otherwise warm
                # caches would make traces vanish exactly when
                # correlation questions get asked.
                trace = cached.reconstruct_trace()
                trace.mode = "cached"
                self._export_trace(
                    trace, request, request_id, tenant_name, trace_ctx, None
                )
            self._observe_response(response)
            callback(response)
            return False
        if key is None:
            # The cache could never have answered this (constraints,
            # opaque env source, cache disabled) — not a miss; counting
            # it as one deflates the exported hit rate.
            self._m_cache_uncacheable.inc()
        else:
            self._m_cache_misses.inc()

        timeout_s = timeout if timeout is not None else self.config.default_timeout_s
        pending = _Pending(
            request=request,
            env_override=override,
            submitted_at=submitted,
            deadline=(
                time.monotonic() + timeout_s if timeout_s is not None else None
            ),
            callback=callback,
            request_id=request_id,
            traced=traced,
            tenant=tenant_name,
            trace_ctx=trace_ctx,
        )
        depth = len(self._pending)
        self._h_queue.observe(float(depth))
        if depth >= self.config.max_queue:
            self._shed(pending, "admission queue full")
            return False
        self._pending.append(pending)
        return True

    # ------------------------------------------------------------------
    # Batching internals
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Decide the pending list, at most ``max_batch`` entries per
        batch, until it is empty.

        A server connection calls this at the end of every read pass,
        so the misses of a read are answered in the same write as its
        cache hits; :meth:`submit_nowait` schedules it for everyone
        else.  Re-entrant: a batch's callbacks may admit or step.
        """
        self._step_scheduled = False
        pending = self._pending
        max_batch = self.config.max_batch
        while pending:
            batch = pending[:max_batch]
            del pending[:max_batch]
            self._flush(batch)

    def _flush(self, batch: Sequence[_Pending]) -> None:
        """Triage one micro-batch and decide it, grouped by tenant.

        Deadline triage runs over the whole batch first; survivors are
        grouped by tenant and each group renders through one
        ``decide_batch`` call on *its* tenant's engine — single-tenant
        traffic therefore takes exactly the pre-tenancy path (one
        group, one engine capture, one decide call).
        """
        now = time.monotonic()
        groups: Dict[str, List[_Pending]] = {}
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                self._refuse(
                    item,
                    PDPOutcome.DENY_TIMEOUT,
                    "deadline expired while queued",
                )
                self._m_timeouts.inc()
                continue
            groups.setdefault(item.tenant, []).append(item)
        for tenant, items in groups.items():
            # Capture the group's engine and generation *once*, before
            # deciding: a swap/activate landing inside this flush must
            # not mix decisions from the old engine with cache entries
            # keyed on the new one, or vice versa.
            resolved = self._resolve_tenant(tenant)
            if resolved is None:
                # The tenant vanished between admission and flush (a
                # store swap-out); answer explicitly, never crash.
                self._m_unknown_tenant.inc()
                for item in items:
                    self._refuse(
                        item,
                        PDPOutcome.DENY_UNKNOWN_TENANT,
                        f"unknown tenant {tenant!r}",
                    )
                continue
            engine, generation, state = resolved
            self._flush_group(items, engine, generation, state)

    def _flush_group(
        self,
        live: List[_Pending],
        engine: MediationEngine,
        generation: int,
        state: _TenantState,
    ) -> None:
        """Decide one same-tenant group and answer its callbacks."""
        tenant = state.name
        self._m_batches.inc()
        self._h_batch.observe(float(len(live)))
        # Sampled requests are decided individually with a full
        # pipeline trace; the rest share one decide_batch call.
        plain = [item for item in live if not item.traced]
        traced = [item for item in live if item.traced]
        decisions: Dict[int, Decision] = {}
        try:
            if plain:
                for item, decision in zip(
                    plain,
                    self._decide(
                        [item.request for item in plain],
                        [item.env_override for item in plain],
                        engine,
                    ),
                ):
                    decisions[id(item)] = decision
            for item in traced:
                decisions[id(item)] = self._decide_traced(item, engine)
        except Exception as error:  # noqa: BLE001 - isolate engine faults
            unresolved = [i for i in live if id(i) not in decisions]
            self._m_errors.inc(len(unresolved))
            for item in unresolved:
                self._refuse(
                    item, PDPOutcome.ERROR, f"engine error: {error!r}"
                )
            live = [i for i in live if id(i) in decisions]
        self._m_decided.inc(len(live))
        state.decided += len(live)
        size = len(live)
        for item in live:
            decision = decisions[id(item)]
            # Key recomputed *after* deciding — under the captured
            # engine and generation, so the cached entry is filed under
            # the revision it was actually rendered at, never a policy
            # swapped in mid-flush.  Capacity 0 skips key work here
            # too (the put would be a no-op anyway).
            if self.config.cache_size:
                self.cache.put(
                    self._cache_key(
                        item.request,
                        item.env_override,
                        engine,
                        generation,
                        state,
                    ),
                    decision,
                )
            self._finish(
                item,
                PDPResponse(
                    request=item.request,
                    outcome=PDPOutcome.GRANT if decision.granted else PDPOutcome.DENY,
                    granted=decision.granted,
                    decision=decision,
                    batch_size=size,
                    latency_s=time.perf_counter() - item.submitted_at,
                    request_id=item.request_id,
                    tenant=tenant,
                    trace_id=item.trace_id,
                ),
            )

    def _decide_traced(
        self, item: _Pending, engine: MediationEngine
    ) -> Decision:
        """Decide one sampled request with a pipeline trace, export it."""
        env = set(item.env_override) if item.env_override is not None else None
        started = time.perf_counter()
        decision = engine.decide(
            item.request, environment_roles=env, trace=True
        )
        self._export_trace(
            decision.trace,
            item.request,
            item.request_id,
            item.tenant,
            item.trace_ctx,
            time.perf_counter() - started,
        )
        return decision

    def _export_trace(
        self,
        trace: DecisionTrace,
        request: AccessRequest,
        request_id: Optional[object],
        tenant: str,
        ctx: TraceContext,
        duration_s: Optional[float],
    ) -> None:
        """Export one sampled answer: decided (``duration_s`` timed) or
        a cache hit (``None``).

        This hop's span — the propagated span id becomes its parent, a
        fresh id names the PDP's own work — is retained in the bounded
        collector, so the ``trace`` op (and the cluster admin's
        cross-process join) can serve it later; the whole trace goes to
        the sink when one is attached.
        """
        cached = duration_s is None
        trace.request_id = request_id
        trace.trace_id = ctx.trace_id
        trace.span_id = new_span_id()
        trace.parent_span_id = ctx.span_id
        self.spans.add(
            Span(
                trace_id=trace.trace_id,
                span_id=trace.span_id,
                parent_span_id=trace.parent_span_id,
                name="pdp.cache_hit" if cached else "pdp.decide",
                service="pdp",
                start_s=time.time() - (duration_s or 0.0),
                duration_s=duration_s,
                annotations={
                    "subject": request.subject,
                    "transaction": request.transaction,
                    "object": request.obj,
                    "granted": trace.granted,
                    "cached": cached,
                    "tenant": tenant,
                    "request_id": request_id,
                    "mode": trace.mode,
                    "stage_timings_us": trace.stage_timings_us(),
                },
            ).to_dict()
        )
        sink = self.trace_sink
        if sink is not None:
            sink.offer(trace_to_dict(trace))

    def _decide(
        self,
        requests: Sequence[AccessRequest],
        env_overrides: Sequence[Optional[FrozenSet[str]]],
        engine: MediationEngine,
    ) -> List[Decision]:
        """Render a batch on ``engine``, the snapshot captured at flush
        start — never ``self.engine``, so a :meth:`swap_policy` landing
        mid-flush cannot split a batch across two policies."""
        if all(env is None for env in env_overrides):
            return engine.decide_batch(requests)
        return engine.decide_batch(
            requests,
            environment_roles=[
                set(env) if env is not None else None for env in env_overrides
            ],
        )

    def _shed(self, item: _Pending, detail: str) -> None:
        self._m_shed.inc()
        hub = self.observers
        if hub:
            hub.emit(
                "pdp.shed",
                subject=item.request.subject,
                transaction=item.request.transaction,
                obj=item.request.obj,
                detail=detail,
            )
        self._refuse(item, PDPOutcome.DENY_OVERLOAD, detail)

    def _refuse(
        self, item: _Pending, outcome: PDPOutcome, detail: str
    ) -> None:
        """The one constructor for answers that mediated nothing —
        unknown tenant, timeout, engine error, overload."""
        response = PDPResponse(
            request=item.request,
            outcome=outcome,
            granted=False,
            decision=None,
            detail=detail,
            latency_s=time.perf_counter() - item.submitted_at,
            request_id=item.request_id,
            tenant=item.tenant,
            trace_id=item.trace_id,
        )
        self._finish(item, response)

    def _finish(self, item: _Pending, response: PDPResponse) -> None:
        self._observe_response(response)
        try:
            item.callback(response)
        except Exception:  # noqa: BLE001 - one caller's bug must not stop the batcher
            self._m_errors.inc()

    def _observe_response(self, response: PDPResponse) -> None:
        """Feed ``pdp.latency``, the flight recorder, SLO tracker,
        per-tenant latency tallies, and the audit chain — every
        response, every path (cache hit, batch, shed, timeout, unknown
        tenant, error).

        The flight ring keeps ``response`` itself and renders it on
        read; a response carries a decision exactly when its outcome
        is mediated (GRANT/DENY), so that is the availability test.
        """
        latency_s = response.latency_s
        decision = response.decision
        self._h_latency.observe(latency_s)
        self.slo.record_response(decision is not None, latency_s)
        state = self._tenants.get(response.tenant)
        if state is not None:
            state.latency_sum_s += latency_s
            state.latency_count += 1
        writer = self.audit_writer
        if writer is not None and decision is not None:
            writer.append(
                {
                    "timestamp": time.time(),
                    "request_id": response.request_id,
                    "trace_id": response.trace_id,
                    "tenant": response.tenant,
                    "subject": response.request.subject,
                    "transaction": response.request.transaction,
                    "object": response.request.obj,
                    "granted": response.granted,
                    "outcome": response.outcome.value,
                    "cached": response.cached,
                    "rationale": response.rationale,
                    "matched_rules": [
                        match.permission.describe()
                        for match in decision.matches
                    ],
                    "subject_roles": sorted(
                        decision.subject_role_confidence
                    ),
                    "environment_roles": sorted(decision.environment_roles),
                    "latency_us": round(response.latency_s * 1e6, 3),
                }
            )
        flight = self.flight
        if flight is not None:
            flight.add(response)

    # ------------------------------------------------------------------
    # Cache keying
    # ------------------------------------------------------------------
    def _resolve_env_revision(
        self, source: object
    ) -> Optional[Callable[[], int]]:
        """An explicit caller-supplied revision reader, or None.

        When None, :meth:`_env_component` derives the component from
        the engine's *current* environment source at key time — it used
        to be captured here at construction, which meant a source
        attached or replaced on the engine afterwards changed decisions
        without changing cache keys (a stale-serve bug; regression
        tests in ``tests/service/test_revision_coverage.py``).
        """
        if source is None:
            return None
        if callable(source):
            return source  # type: ignore[return-value]
        if not hasattr(source, "revision"):
            raise ServiceError(
                "env_revision must be callable or expose .revision"
            )
        return lambda: source.revision  # type: ignore[attr-defined]

    @staticmethod
    def _env_component(
        state: _TenantState, engine: MediationEngine
    ) -> Optional[object]:
        """The environment part of the cache key, or None (uncacheable).

        Resolved against the engine's *live* environment source, with
        an identity-keyed epoch kept on the tenant's state: replacing,
        attaching, or detaching the source bumps it, so keys built
        against the old source stop matching even when old and new
        sources happen to carry equal revision numbers.
        """
        reader = state.env_revision
        if reader is not None:
            return ("revision", reader())
        environment = engine.environment
        if environment is not state.env_source:
            state.env_source = environment
            state.env_epoch += 1
        if environment is None:
            return ("none", state.env_epoch)
        if not hasattr(environment, "revision"):
            return None  # opaque source: source-resolved uncacheable
        return (
            "epoch",
            state.env_epoch,
            environment.revision,  # type: ignore[attr-defined]
        )

    def _cache_key(
        self,
        request: AccessRequest,
        env_override: Optional[FrozenSet[str]],
        engine: MediationEngine,
        generation: int,
        state: _TenantState,
    ) -> Optional[CacheKey]:
        """The generation- and revision-pinned key, or None (uncacheable).

        ``engine``/``generation`` are the pair the caller resolved — the
        batcher passes the one it captured at flush start, so entries
        are filed under the policy that actually rendered them.  The
        tenant's name leads the tuple, so two tenants serving policies
        with equal revisions (a shared template text) can never collide.
        """
        if engine.decision_constraints:
            # A constraint may consult state outside the key; mirror
            # the engine's own policy of never caching around them.
            return None
        if env_override is not None:
            env_component: Optional[object] = ("override", env_override)
        else:
            env_component = self._env_component(state, engine)
            if env_component is None:
                return None
        return (
            state.name,
            generation,
            engine.policy.decision_revision,
            env_component,
            request.subject,
            request.transaction,
            request.obj,
            request.identity_confidence,
            frozenset(request.role_claims.items()),
            engine.confidence_threshold,
            # The members' plain values: an Enum member hashes through
            # the pure-Python ``Enum.__hash__``, a str through its
            # cached hash, and ``_value_`` skips the ``.value``
            # descriptor.  Values are unique per member, so the key
            # still tells every setting apart.
            engine.policy.precedence._value_,
            engine.policy.default_sign._value_,
        )

    # ------------------------------------------------------------------
    # Introspection / live-ops
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Service counters plus the nested cache view.

        Engine-side statistics remain on :meth:`MediationEngine.stats`;
        both publish into the same metrics registry by default.
        """
        data: Dict[str, object] = {
            "running": self.running,
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": self.queue_depth,
            "max_queue": self.config.max_queue,
            "max_batch": self.config.max_batch,
            "requests": self._m_requests.value,
            "decided": self._m_decided.value,
            "batches": self._m_batches.value,
            "cache_hits": self._m_cache_hits.value,
            "cache_misses": self._m_cache_misses.value,
            "cache_uncacheable": self._m_cache_uncacheable.value,
            "cache_hit_rate": round(self.cache.hit_rate, 4),
            "cache_capacity": self.cache.capacity,
            "cache_evictions": self.cache.evictions,
            "shed": self._m_shed.value,
            "timeouts": self._m_timeouts.value,
            "errors": self._m_errors.value,
            "unknown_tenant": self._m_unknown_tenant.value,
            "generation": self.generation,
            "reloads": self._m_reloads.value,
            "cache": self.cache.stats(),
            "trace_sample_rate": self.config.trace_sample_rate,
            "traces_sampled": self.sampler.sampled,
            "tenants": self.tenants_overview(),
        }
        if self.store is not None:
            data["store"] = self.store.stats()
        if self.trace_sink is not None:
            data["trace_sink"] = self.trace_sink.stats()
        data["trace_buffer"] = self.spans.stats()
        if self.audit_writer is not None:
            data["audit"] = self.audit_writer.stats()
        if self.flight is not None:
            data["flight"] = self.flight.stats()
        return data

    def metrics_prometheus(self) -> str:
        """The shared metrics registry in Prometheus text format.

        Engine-internal tallies (plain attributes for hot-path speed)
        are synced into the registry first, so one scrape is the whole
        stack: engine, pipeline, cache, PDP, SLOs.
        """
        from repro.obs.export import render_prometheus

        self.engine.stats()  # syncs engine tallies into the registry
        text = render_prometheus(self.metrics)
        tenant_lines = self._tenant_prometheus()
        if tenant_lines:
            text += "\n".join(tenant_lines) + "\n"
        return text

    def _tenant_prometheus(self) -> List[str]:
        """Bounded-cardinality per-tenant series.

        The top-K tenants by request count get their own
        ``tenant="..."`` label; every other tenant folds into one
        ``tenant="__other__"`` bucket.  Label values are escaped, so a
        tenant named ``a"b\\n`` cannot corrupt the exposition.
        """
        states = [s for s in self._tenants.values() if s.requests > 0]
        if not states:
            return []
        states.sort(key=lambda s: (-s.requests, s.name))
        rows: List[Tuple[str, _TenantState]] = [
            (state.name, state) for state in states[:TENANT_LABEL_TOPK]
        ]
        overflow = states[TENANT_LABEL_TOPK:]
        if overflow:
            other = _TenantState(name="__other__")
            for state in overflow:
                other.requests += state.requests
                other.cache_hits += state.cache_hits
                other.decided += state.decided
                other.reloads += state.reloads
                other.latency_sum_s += state.latency_sum_s
                other.latency_count += state.latency_count
            rows.append(("__other__", other))
        lines: List[str] = []
        counters = (
            ("pdp.tenant_requests", lambda s: s.requests),
            ("pdp.tenant_cache_hits", lambda s: s.cache_hits),
            ("pdp.tenant_decided", lambda s: s.decided),
            ("pdp.tenant_reloads", lambda s: s.reloads),
        )
        for name, reader in counters:
            metric = prometheus_name(name, "_total")
            lines.append(f"# TYPE {metric} counter")
            for tenant, state in rows:
                labels = render_label_set({"tenant": tenant})
                lines.append(f"{metric}{labels} {float(reader(state))!r}")
        metric = prometheus_name("pdp.tenant_latency_seconds")
        lines.append(f"# TYPE {metric} summary")
        for tenant, state in rows:
            labels = render_label_set({"tenant": tenant})
            lines.append(f"{metric}_sum{labels} {state.latency_sum_s!r}")
            lines.append(
                f"{metric}_count{labels} {float(state.latency_count)!r}"
            )
        return lines

    def metrics_json(self) -> Dict[str, object]:
        """The same exposition as structured JSON."""
        from repro.obs.export import render_json

        self.engine.stats()
        return render_json(self.metrics)

    def health(self) -> Dict[str, object]:
        """Liveness + SLO state — the ``health`` op / ``/health`` body."""
        return {
            "healthy": self.running,
            "running": self.running,
            "uptime_s": round(self.uptime_s, 3),
            "policy": self.engine.policy.name,
            "policy_revision": self.engine.policy.decision_revision,
            "generation": self.generation,
            "queue_depth": self.queue_depth,
            "slo": self.slo.snapshot(),
        }

    def ready(self) -> Dict[str, object]:
        """Readiness: accepting work with admission headroom.

        ``ready`` flips false when the PDP is stopped, draining, or its
        admission queue is saturated (new submits would shed) — the
        signal a load balancer keys on.
        """
        saturated = self.queue_depth >= self.config.max_queue
        return {
            "ready": self.running and self._accepting and not saturated,
            "accepting": self._accepting,
            "queue_depth": self.queue_depth,
            "max_queue": self.config.max_queue,
        }

    def dump(
        self,
        limit: Optional[int] = None,
        since_seq: int = 0,
        subject: Optional[str] = None,
        outcome: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Flight-recorder entries (oldest first); [] when disabled."""
        if self.flight is None:
            return []
        return self.flight.dump(
            limit=limit, since_seq=since_seq, subject=subject, outcome=outcome
        )

    def find_trace(self, trace_id: str) -> List[Dict[str, object]]:
        """This process's retained spans for ``trace_id`` (maybe []).

        Only spans this PDP emitted — the cluster admin joins these
        with the other workers' spans for the cross-process waterfall.
        """
        return self.spans.get(trace_id)

    def recent_traces(self, limit: Optional[int] = None) -> List[str]:
        """Retained trace ids, newest first."""
        return self.spans.trace_ids(limit)


@dataclass
class PDPClient:
    """In-process client: the ergonomic face of :class:`PolicyDecisionPoint`.

    Mirrors :meth:`MediationEngine.check`/``decide`` so call sites can
    swap direct mediation for the served path with one line —
    ``examples/served_home.py`` replays §5.1 through this.
    """

    pdp: PolicyDecisionPoint
    #: Environment roles applied to every request when the call site
    #: does not pass its own (replay streams with a fixed context).
    default_environment_roles: Optional[Set[str]] = field(default=None)

    def __post_init__(self) -> None:
        # Sequential correlation ids, mirroring the wire client's, so
        # in-process traffic is attributable the same way TCP traffic
        # is (loadgen verification errors name a request id either way).
        self._ids = itertools.count(1)

    async def decide(
        self,
        request: AccessRequest,
        environment_roles: Optional[Set[str]] = None,
        timeout: Optional[float] = None,
        request_id: Optional[object] = None,
        tenant: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> PDPResponse:
        env = (
            environment_roles
            if environment_roles is not None
            else self.default_environment_roles
        )
        if request_id is None:
            request_id = next(self._ids)
        return await self.pdp.submit(
            request,
            environment_roles=env,
            timeout=timeout,
            request_id=request_id,
            tenant=tenant,
            trace_ctx=trace,
        )

    async def check(
        self,
        subject: str,
        transaction: str,
        obj: str,
        environment_roles: Optional[Set[str]] = None,
        timeout: Optional[float] = None,
        tenant: Optional[str] = None,
    ) -> bool:
        request = AccessRequest(transaction=transaction, obj=obj, subject=subject)
        response = await self.decide(
            request,
            environment_roles=environment_roles,
            timeout=timeout,
            tenant=tenant,
        )
        return response.granted
