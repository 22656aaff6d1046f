"""Access mediation — the GRBAC decision procedure (§4.2.4).

The paper's rule: for subject *s* to perform transaction *t* on object
*o*, *s* must possess some subject role ``rs`` such that

1. there exists some object role ``ro`` possessed by *o*;
2. there exists some environment role ``re`` that is currently active;
3. there exists some permission that allows ``rs`` to perform *t* on
   ``ro`` when ``re`` is active.

:class:`MediationEngine` implements this rule over a
:class:`~repro.core.policy.GrbacPolicy`, with the practical extensions
the paper discusses around it:

* **hierarchy expansion** — possession and activation close over the
  role hierarchies (§4.1.2 "Role Hierarchies");
* **negative rights** — matching DENY rules are fed, together with the
  grants, to the configured precedence strategy (§3, §4.1.2 "Role
  Precedence");
* **sessions** — when a request carries a session, only the session's
  *active* roles can produce matches (§4.1.2 "Role Activation");
* **partial authentication** (§5.2) — requests may carry role-level
  confidence claims instead of (or alongside) an identity; GRANT rules
  only match when the claim confidence clears both the rule's own
  ``min_confidence`` and the engine-wide ``confidence_threshold``.
  DENY rules match at any confidence: weak evidence must never weaken
  a prohibition.

Every decision runs through the staged pipeline of
:mod:`repro.core.pipeline` — resolve subject roles, snapshot the
environment, expand hierarchy closures, match permissions, resolve
precedence, apply constraints, emit.  There is one engine: interned-ID
bitsets over a compiled policy snapshot (:mod:`repro.core.compiled`),
shared by ``decide``, ``decide_batch`` and ``check``.  The literal
quantifier above is kept apart as a reference oracle
(:mod:`repro.core.oracle`); the engine is verified equivalent to it by
property-based tests and ablated against it in benchmark E11.

The request/decision value types live in :mod:`repro.core.decision`
and are re-exported here for compatibility.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.core.activation import Session
from repro.core.decision import (  # noqa: F401  (re-exported API)
    WILDCARD_DISTANCE,
    AccessRequest,
    Decision,
    EnvironmentSource,
    RuleDiagnosis,
    StaticEnvironment,
)
from repro.core.permissions import Sign
from repro.core.pipeline import (
    DecisionPipeline,
    direct_subject_confidences,
    environment_role_names,
    expand_subject_confidences,
    object_role_names,
)
from repro.core.policy import GrbacPolicy
from repro.exceptions import PolicyError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observers import ObserverHub


class MediationEngine:
    """Evaluates access requests against a policy (§4.2.4).

    :param policy: the policy to mediate.
    :param environment: source of active environment roles; when
        ``None`` only the always-active ``any-environment`` role is
        active.
    :param confidence_threshold: policy-wide minimum authentication
        confidence for GRANT matches (the "90% accuracy before the
        system will grant rights" of §5.2).
    :param cache_size: capacity of the LRU decision cache (0, the
        default, disables it) — the one decision memo in ``core/``.
    :param metrics: metrics registry to publish into; a private one is
        created when not supplied, so ``engine.metrics`` always works.
    :param observers: observer hub decisions are published to; a
        private (empty) hub is created when not supplied.
    """

    def __init__(
        self,
        policy: GrbacPolicy,
        environment: Optional[EnvironmentSource] = None,
        confidence_threshold: float = 0.0,
        cache_size: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        observers: Optional[ObserverHub] = None,
    ) -> None:
        if not 0.0 <= confidence_threshold <= 1.0:
            raise PolicyError("confidence_threshold must be in [0, 1]")
        if cache_size < 0:
            raise PolicyError("cache_size must be >= 0")
        self.policy = policy
        self.environment = environment
        self.confidence_threshold = confidence_threshold
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.observers = observers if observers is not None else ObserverHub()
        #: Decision constraints (pipeline stage 6): callables
        #: ``(ctx) -> Optional[str]`` whose non-empty return vetoes a
        #: grant.  Empty by default.  Engines with constraints skip the
        #: decision cache — a constraint may consult state outside the
        #: cache key.
        self.decision_constraints: List = []
        #: LRU decision cache capacity (0 disables caching).  Entries
        #: key on the full request *and* the active environment set
        #: *and* the policy's decision revision, so cached decisions
        #: can never go stale (verified property-based).
        self.cache_size = cache_size
        self._cache: "OrderedDict[tuple, Decision]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        #: Total decisions rendered (cache hits included), split into
        #: grants/denies.  Plain attributes — not registry counters —
        #: on purpose: the decision path pays one integer add, and
        #: :meth:`stats` syncs them into the registry when anyone looks.
        self.decisions = 0
        self.grants = 0
        self.denies = 0
        self.pipeline = DecisionPipeline(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decide(
        self,
        request: AccessRequest,
        session: Optional[Session] = None,
        environment_roles: Optional[Set[str]] = None,
        trace: bool = False,
    ) -> Decision:
        """Mediate ``request`` and return a full :class:`Decision`.

        :param session: when given, the subject's identity-derived
            roles are restricted to the session's active role set
            before hierarchy expansion (§4.1.2 "Role Activation").
        :param environment_roles: explicit directly-active environment
            role names, overriding the engine's environment source —
            useful for what-if queries and policy analysis.
        :param trace: record a timed per-stage pipeline trace on the
            returned decision (``decision.trace``) and feed the
            per-stage latency histograms.  Traced decisions bypass the
            decision cache — a cached decision has no live stages to
            time.
        """
        active_env = self._resolve_active_env(request, environment_roles)
        return self._decide_one(request, session, active_env, trace)

    def decide_batch(
        self,
        requests: Iterable[AccessRequest],
        session: Optional[Session] = None,
        environment_roles: Union[
            None, Set[str], FrozenSet[str], Sequence[Optional[Set[str]]]
        ] = None,
    ) -> List[Decision]:
        """Mediate many requests, amortizing per-request setup.

        A batch is the loop over the per-request kernel ``decide``
        runs, so batch-of-one and batch-of-N agree by construction;
        what it amortizes is environment resolution up front and the
        pipeline's expansion memos (subject profiles, object profiles,
        environment closures) across the whole batch — with Zipf-shaped
        traffic most requests hit a memoized profile and skip role
        expansion entirely.

        :param requests: the access requests, in order.
        :param session: optional session applied to *every* request
            (requests in one batch belong to one principal stream).
        :param environment_roles: either ``None`` (resolve each request
            against the engine's environment source), one role-name set
            shared by the whole batch, or a per-request sequence of
            sets (``None`` entries fall back to the environment
            source).  A per-request sequence must match ``requests`` in
            length.
        :returns: one :class:`Decision` per request, in request order.
        """
        batch = list(requests)
        resolve_env = self._resolve_active_env
        if environment_roles is None:
            envs = [resolve_env(r, None) for r in batch]
        elif isinstance(environment_roles, (set, frozenset)):
            envs = [frozenset(environment_roles)] * len(batch)
        else:
            overrides = list(environment_roles)
            if len(overrides) != len(batch):
                raise PolicyError(
                    f"environment_roles sequence has {len(overrides)} entries "
                    f"for {len(batch)} requests"
                )
            envs = [
                resolve_env(r, override)
                for r, override in zip(batch, overrides)
            ]
        decide_one = self._decide_one
        return [
            decide_one(r, session, env) for r, env in zip(batch, envs)
        ]

    def check(
        self,
        subject: str,
        transaction: str,
        obj: str,
        session: Optional[Session] = None,
        environment_roles: Optional[Set[str]] = None,
    ) -> bool:
        """Boolean convenience wrapper around :meth:`decide`.

        ``environment_roles`` passes straight through to
        :meth:`decide`, so what-if checks ("could Bobby watch TV on a
        weekday evening?") do not need a hand-built
        :class:`AccessRequest`.
        """
        request = AccessRequest(transaction=transaction, obj=obj, subject=subject)
        return self.decide(
            request, session=session, environment_roles=environment_roles
        ).granted

    def stats(self) -> Dict[str, object]:
        """Engine-level cache and compile statistics.

        Complements :meth:`GrbacPolicy.stats` (policy sizes) with the
        runtime counters operators watch: decision volume, decision-
        cache effectiveness, and compiled-snapshot churn.  Calling it
        also syncs the engine tallies into the metrics registry, so a
        registry snapshot taken afterwards is consistent with the
        returned dict.
        """
        data: Dict[str, object] = {
            "decisions": self.decisions,
            "grants": self.grants,
            "denies": self.denies,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_entries": len(self._cache),
            **self.pipeline.stats(),
        }
        metrics = self.metrics
        for key in (
            "decisions",
            "grants",
            "denies",
            "cache_hits",
            "cache_misses",
            "compile_count",
        ):
            metrics.counter(f"engine.{key}").set(int(data[key]))  # type: ignore[arg-type]
        return data

    def settings(self) -> tuple:
        """Everything a deployment configures on an engine besides its
        policy — what :meth:`like` carries over, comparable with ``==``."""
        return (
            self.environment,
            self.confidence_threshold,
            self.cache_size,
            self.decision_constraints,
            self.metrics,
            self.observers,
        )

    def like(self, policy: GrbacPolicy) -> "MediationEngine":
        """An engine like this one, on ``policy``, ready to serve.

        Carries over the environment source, confidence threshold,
        decision-cache sizing, decision constraints, metrics registry
        and observer hub, and pre-compiles ``policy`` so the first
        decision does not pay for it.  Every second engine the serving
        layer builds (policy swap, pinned tenant, store-backed tenant)
        comes from here, so none of them can drop a setting — a tenant
        served with the §5.2 gate or a vetoing constraint silently off
        would be a fail-open.
        """
        engine = MediationEngine(
            policy,
            environment=self.environment,
            confidence_threshold=self.confidence_threshold,
            cache_size=self.cache_size,
            metrics=self.metrics,
            observers=self.observers,
        )
        engine.decision_constraints = list(self.decision_constraints)
        policy.compiled()
        return engine

    # ------------------------------------------------------------------
    # Decision internals
    # ------------------------------------------------------------------
    def _decide_one(
        self,
        request: AccessRequest,
        session: Optional[Session],
        active_env: FrozenSet[str],
        trace: bool = False,
    ) -> Decision:
        """Render one decision for an already-resolved environment."""
        self.decisions += 1
        cache_key = None
        if (
            self.cache_size > 0
            and session is None
            and not trace
            and not self.decision_constraints
        ):
            cache_key = (
                request.subject,
                request.transaction,
                request.obj,
                request.identity_confidence,
                frozenset(request.role_claims.items()),
                active_env,
                self.policy.decision_revision,
                self.confidence_threshold,
                self.policy.precedence,
                self.policy.default_sign,
            )
            cached = self._cache.get(cache_key)
            if cached is not None:
                self._cache.move_to_end(cache_key)
                self.cache_hits += 1
                self._tally(cached)
                hub = self.observers
                if hub:
                    hub.emit_decision(cached, None)
                return cached
            self.cache_misses += 1

        decision = self.pipeline.execute(
            request, session=session, active_env=active_env, trace=trace
        )
        self._tally(decision)
        if cache_key is not None:
            self._cache[cache_key] = decision
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return decision

    def _tally(self, decision: Decision) -> None:
        if decision.granted:
            self.grants += 1
        else:
            self.denies += 1

    def diagnose(
        self,
        request: AccessRequest,
        session: Optional[Session] = None,
        environment_roles: Optional[Set[str]] = None,
    ) -> List[RuleDiagnosis]:
        """Explain, per candidate rule, why the request did or did not
        match it — the "why can't I watch TV?" answer a homeowner needs
        (§3's usability requirement).

        Every permission whose *transaction* matches the request is a
        candidate; for each, the diagnosis reports which of the three
        §4.2.4 conditions held (subject role possessed, object role
        possessed, environment role active) plus the confidence gate.
        Sorted with the nearest misses first.
        """
        policy = self.policy
        active_env = self._resolve_active_env(request, environment_roles)
        confidences = expand_subject_confidences(
            policy, direct_subject_confidences(policy, request, session)
        )
        object_roles, _ = object_role_names(policy, request.obj)
        env_roles, _ = environment_role_names(policy, active_env)
        policy.transaction(request.transaction)

        diagnoses: List[RuleDiagnosis] = []
        for permission in policy.permissions():
            if permission.transaction.name != request.transaction:
                continue
            subject_ok = permission.subject_role.name in confidences
            object_ok = permission.object_role.name in object_roles
            environment_ok = permission.environment_role.name in env_roles
            required = permission.min_confidence or self.confidence_threshold
            if permission.sign is Sign.DENY or required == 0.0:
                confidence_ok = True
            else:
                confidence_ok = (
                    subject_ok
                    and confidences[permission.subject_role.name] >= required
                )
            diagnoses.append(
                RuleDiagnosis(
                    permission=permission,
                    subject_role_ok=subject_ok,
                    object_role_ok=object_ok,
                    environment_role_ok=environment_ok,
                    confidence_ok=confidence_ok,
                )
            )
        diagnoses.sort(key=lambda d: -d.conditions_met)
        return diagnoses

    # ------------------------------------------------------------------
    # Environment resolution
    # ------------------------------------------------------------------
    def _resolve_active_env(
        self, request: AccessRequest, override: Optional[Set[str]]
    ) -> FrozenSet[str]:
        """The directly-active environment role names for this request.

        Precedence: an explicit override beats the environment source;
        a request-aware source contributes requester-relative roles.
        """
        if override is not None:
            return frozenset(override)
        if self.environment is None:
            return frozenset()
        return frozenset(self.environment.active_environment_roles_for(request))
