"""The staged decision pipeline — the one mediation engine.

GRBAC's access mediation rule (§4.2.4) is a fixed sequence; this
module makes that sequence explicit.  Every decision — ``decide``,
``decide_batch``, ``check`` — runs the same seven stages over one
shared :class:`DecisionContext`:

1. :class:`ResolveSubjectRoles` — which subject roles (with what
   authentication confidence) can the requester use, after the §4.1.2
   session restriction;
2. :class:`SnapshotEnvironment` — which environment roles are
   directly active right now (explicit override, or the engine's
   environment source, request-aware when available);
3. :class:`ExpandClosures` — close possession/activation over the
   three role hierarchies (§4.1.2 "Role Hierarchies");
4. :class:`MatchPermissions` — collect the permissions whose
   (subject role, object role, environment role, transaction) tests
   all hold, confidence-gated per §5.2;
5. :class:`ResolvePrecedence` — feed grants and denies to the
   policy's precedence strategy (§4.1.2 "Role Precedence");
6. :class:`ApplyConstraints` — run engine-registered decision
   constraints, each of which may veto a grant (an extension point;
   none are registered by default);
7. :class:`EmitDecision` — build the immutable
   :class:`~repro.core.decision.Decision` and publish it to any
   subscribed observers.

Stages 1, 3 and 4 are :class:`DecisionPipeline`'s own kernel:
interned-ID bitset tests over an immutable
:class:`~repro.core.compiled.CompiledPolicy` snapshot, with memoized
subject / session / object / environment profiles.  There is no other
production path.  The literal §4.2.4 quantifier lives apart in
:mod:`repro.core.oracle`, built from the string-set helpers below and
sharing nothing with the kernel; every equivalence property is the
engine against that oracle.

Tracing: ``execute(..., trace=True)`` wraps every stage in a timed
:class:`~repro.obs.trace.StageSpan` and feeds per-stage latency
histograms in the engine's metrics registry.  The untraced path runs
the same stage objects with no timing calls at all, which is what
keeps instrumentation overhead inside the E11 budget.
"""

from __future__ import annotations

import time
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.activation import Session
from repro.core.compiled import CompiledPolicy
from repro.core.decision import WILDCARD_DISTANCE, AccessRequest, Decision
from repro.core.permissions import Permission, Sign
from repro.core.precedence import Match, Resolution, resolve
from repro.core.roles import ANY_ENVIRONMENT, ANY_OBJECT
from repro.exceptions import PolicyError
from repro.obs.trace import DecisionTrace

#: Stage names in execution order (the trace vocabulary).
STAGE_ORDER = (
    "resolve-subject-roles",
    "snapshot-environment",
    "expand-closures",
    "match-permissions",
    "resolve-precedence",
    "apply-constraints",
    "emit-decision",
)


# ----------------------------------------------------------------------
# String-set role resolution (the engine's miss paths, the oracle, diagnose)
# ----------------------------------------------------------------------
def restricted_assigned_roles(
    policy, request: AccessRequest, session: Optional[Session]
) -> Set[str]:
    """The subject's directly assigned role names usable by ``request``.

    This is the single implementation of the §4.1.2 activation
    restriction — *only roles in the active role set can be used to
    execute transactions* — that the engine and the oracle share: resolve the
    subject (raising for unknown names exactly once, in one place),
    then intersect the assigned set with the session's active roles
    when a session accompanies the request.
    """
    policy.subject(request.subject)
    assigned = policy.authorized_subject_role_names(request.subject)
    if session is not None:
        if session.subject != request.subject:
            raise PolicyError(
                f"session belongs to {session.subject!r}, "
                f"request is for {request.subject!r}"
            )
        assigned &= session.active_roles
    return assigned


def direct_subject_confidences(
    policy, request: AccessRequest, session: Optional[Session]
) -> Dict[str, float]:
    """Direct (pre-expansion) subject-role -> confidence for a request.

    Identity-derived roles carry ``identity_confidence``; explicit
    role claims carry their own confidence; where several sources
    support the same role, the maximum wins.
    """
    direct: Dict[str, float] = {}
    if request.subject is not None:
        for role_name in restricted_assigned_roles(policy, request, session):
            direct[role_name] = max(
                direct.get(role_name, 0.0), request.identity_confidence
            )
    for role_name, confidence in request.role_claims.items():
        policy.subject_roles.role(role_name)  # claims must name real roles
        direct[role_name] = max(direct.get(role_name, 0.0), confidence)
    return direct


def expand_subject_confidences(
    policy, direct: Dict[str, float]
) -> Dict[str, float]:
    """Expanded subject-role -> confidence map.

    Expansion propagates a role's confidence to all its
    generalizations (being *parent* at 0.9 implies being
    *family-member* at 0.9), max-merging where closures overlap.
    """
    hierarchy = policy.subject_roles
    effective: Dict[str, float] = {}
    for role_name, confidence in direct.items():
        for role in hierarchy.expand([role_name]):
            if confidence > effective.get(role.name, -1.0):
                effective[role.name] = confidence
    return effective


def object_role_names(policy, obj: str) -> Tuple[Set[str], Set[str]]:
    """(expanded role names incl. any-object, direct role names)."""
    expanded = {r.name for r in policy.effective_object_roles(obj)}
    direct = {r.name for r in policy.direct_object_roles(obj)}
    return expanded, direct


def environment_role_names(
    policy, active: FrozenSet[str]
) -> Tuple[Set[str], Set[str]]:
    """(expanded active role names incl. any-environment, direct)."""
    hierarchy = policy.environment_roles
    known = {name for name in active if name in hierarchy}
    expanded = {r.name for r in hierarchy.expand(known)}
    expanded.add(ANY_ENVIRONMENT.name)
    return expanded, known


def apply_confidence_gate(
    matches: List[Match], threshold: float
) -> List[Match]:
    """Drop GRANT matches whose confidence is insufficient.

    A rule that sets its own ``min_confidence`` governs itself — that
    is how §3's quality-tiered access works (stream at 90%, degraded
    snapshot at 60%, under a 90% house default).  Rules without one
    fall under the engine-wide threshold (§5.2's "90% accuracy before
    the system will grant rights").  Denies always survive:
    insufficient evidence must never *unlock* something a deny rule
    forbids.
    """
    kept: List[Match] = []
    for match in matches:
        if match.sign is Sign.DENY:
            kept.append(match)
            continue
        required = match.permission.min_confidence
        if required == 0.0:
            required = threshold
        if match.confidence >= required or required == 0.0:
            kept.append(match)
    return kept


def _dimension_distance(hierarchy, direct_roles: Set[str], target: str) -> int:
    distances = [
        d
        for d in (
            hierarchy.distance(name, target)
            for name in direct_roles
            if name in hierarchy
        )
        if d is not None
    ]
    return min(distances) if distances else WILDCARD_DISTANCE


def rule_specificity(
    policy,
    permission: Permission,
    directs: Tuple[Set[str], Set[str], Set[str]],
) -> int:
    """Total hierarchy distance of the rule from the request.

    Per dimension: the minimum specialization-path length from any
    role the request holds *directly* up to the role the rule was
    written against — 0 when the rule names a direct role, larger the
    more generally the rule was phrased.  The ``any-object`` /
    ``any-environment`` wildcards take a fixed large penalty: a
    wildcard is by definition the least specific way to match.
    """
    direct_subjects, direct_objects, direct_envs = directs
    subject_component = _dimension_distance(
        policy.subject_roles, direct_subjects, permission.subject_role.name
    )
    if permission.object_role == ANY_OBJECT:
        object_component = WILDCARD_DISTANCE
    else:
        object_component = _dimension_distance(
            policy.object_roles, direct_objects, permission.object_role.name
        )
    if permission.environment_role == ANY_ENVIRONMENT:
        environment_component = WILDCARD_DISTANCE
    else:
        environment_component = _dimension_distance(
            policy.environment_roles,
            direct_envs,
            permission.environment_role.name,
        )
    return subject_component + object_component + environment_component


# ----------------------------------------------------------------------
# Decision context
# ----------------------------------------------------------------------
class DecisionContext:
    """Shared state of one request's trip through the pipeline.

    Stages write their outputs here; later stages (and trace
    annotations) read them.  Only the request-identity slots are
    initialized eagerly — everything else is written by exactly one
    stage, so the untraced hot path pays for no speculative stores.
    """

    __slots__ = (
        # request identity (set at construction)
        "request",
        "session",
        "env_override",
        "active_env",
        "trace",
        # stage 1: resolve-subject-roles
        "subject_confidences",
        "subject_state",  # kernel-private (masks/distances)
        # stage 3: expand-closures
        "object_roles",
        "object_state",
        "environment_roles",
        "environment_state",
        # stages 4-7
        "matches",
        "resolution",
        "vetoes",
        "decision",
    )

    def __init__(
        self,
        request: AccessRequest,
        session: Optional[Session] = None,
        active_env: Optional[FrozenSet[str]] = None,
        env_override: Optional[Set[str]] = None,
        trace: Optional[DecisionTrace] = None,
    ) -> None:
        self.request = request
        self.session = session
        self.active_env = active_env
        self.env_override = env_override
        self.trace = trace


def _ctx_get(ctx: DecisionContext, name: str):
    """Read a context slot that may not have been written yet."""
    return getattr(ctx, name, None)


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class Stage:
    """One pipeline stage: a ``run`` mutation of the context plus an
    ``annotate`` summary used when the decision is traced."""

    name = "abstract"

    def __init__(
        self, engine, run: Optional[Callable[[DecisionContext], None]] = None
    ) -> None:
        self.engine = engine
        if run is not None:
            # Stages 1, 3 and 4 run the pipeline's kernel methods bound
            # straight onto the stage: no extra call frame per decision
            # on the untraced hot path.
            self.run = run

    def run(self, ctx: DecisionContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        return {}


class ResolveSubjectRoles(Stage):
    name = "resolve-subject-roles"

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        confidences = _ctx_get(ctx, "subject_confidences") or {}
        return {"effective": len(confidences)}


class SnapshotEnvironment(Stage):
    name = "snapshot-environment"

    def run(self, ctx: DecisionContext) -> None:
        if ctx.active_env is None:
            ctx.active_env = self.engine._resolve_active_env(
                ctx.request, ctx.env_override
            )

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        return {"active": ",".join(sorted(ctx.active_env or ())) or "-"}


class ExpandClosures(Stage):
    name = "expand-closures"

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        return {
            "subject": len(_ctx_get(ctx, "subject_confidences") or ()),
            "object": len(_ctx_get(ctx, "object_roles") or ()),
            "environment": len(_ctx_get(ctx, "environment_roles") or ()),
        }


class MatchPermissions(Stage):
    name = "match-permissions"

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        matches = _ctx_get(ctx, "matches") or ()
        denies = sum(1 for m in matches if m.sign is Sign.DENY)
        return {"matches": len(matches), "denies": denies}


class ResolvePrecedence(Stage):
    name = "resolve-precedence"

    def run(self, ctx: DecisionContext) -> None:
        policy = self.engine.policy
        ctx.resolution = resolve(
            ctx.matches, policy.precedence, policy.default_sign
        )

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        return {
            "strategy": self.engine.policy.precedence.value,
            "sign": ctx.resolution.sign.value,
        }


class ApplyConstraints(Stage):
    """Run engine-registered decision constraints.

    A decision constraint is a callable ``(ctx) -> Optional[str]``; a
    non-empty return is a veto reason.  Vetoes only ever *narrow* a
    decision — they can turn a grant into a deny, never the reverse —
    so the stage preserves the fail-closed invariant.  No constraints
    are registered by default, making this stage a no-op.
    """

    name = "apply-constraints"

    def run(self, ctx: DecisionContext) -> None:
        constraints = self.engine.decision_constraints
        if not constraints:
            return
        vetoes = [
            reason
            for reason in (constraint(ctx) for constraint in constraints)
            if reason
        ]
        ctx.vetoes = vetoes
        if vetoes and ctx.resolution.sign is Sign.GRANT:
            ctx.resolution = Resolution(
                Sign.DENY,
                ctx.resolution.winner,
                "constraint veto: " + "; ".join(vetoes),
            )

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        return {
            "checks": len(self.engine.decision_constraints),
            "vetoes": len(_ctx_get(ctx, "vetoes") or ()),
        }


class EmitDecision(Stage):
    name = "emit-decision"

    def run(self, ctx: DecisionContext) -> None:
        resolution = ctx.resolution
        granted = resolution.sign is Sign.GRANT
        trace = ctx.trace
        if trace is not None:
            trace.granted = granted
            trace.rationale = resolution.rationale
            trace.subject_roles = dict(ctx.subject_confidences)
            trace.object_roles = sorted(ctx.object_roles)
            trace.environment_roles = sorted(ctx.environment_roles)
            trace.matched_rules = [
                m.permission.describe() for m in ctx.matches
            ]
        ctx.decision = decision = Decision(
            request=ctx.request,
            granted=granted,
            resolution=resolution,
            matches=tuple(ctx.matches),
            subject_role_confidence=dict(ctx.subject_confidences),
            object_roles=frozenset(ctx.object_roles),
            environment_roles=frozenset(ctx.environment_roles),
            trace=trace,
        )
        hub = self.engine.observers
        if hub:
            hub.emit_decision(decision, trace)

    def annotate(self, ctx: DecisionContext) -> Dict[str, object]:
        return {"granted": ctx.decision.granted}


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class DecisionPipeline:
    """Runs the seven stages over a context, untraced or traced.

    Both paths execute the *same* stage objects in the same order; the
    traced path additionally times each stage, records a
    :class:`~repro.obs.trace.StageSpan` with the stage's annotation,
    and feeds the per-stage latency histograms of the engine's metrics
    registry.

    The pipeline also *is* the mediation kernel behind stages 1, 3 and
    4: interned-ID bitset tests served from an immutable
    :class:`~repro.core.compiled.CompiledPolicy` snapshot (see
    :mod:`repro.core.compiled` and ``docs/PERFORMANCE.md``), which it
    reloads — dropping every expansion memo — whenever the policy's
    ``decision_revision`` moves.

    Stage fusion: the memoized subject profile already carries the
    hierarchy-expanded closure, so subject expansion happens inside
    :meth:`resolve_subject`; :meth:`expand` covers the object and
    environment dimensions.  Stage *outputs* are the ones the §4.2.4
    oracle (:mod:`repro.core.oracle`) computes from string sets — that
    is property-tested.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.policy = engine.policy
        #: Snapshot this engine currently serves.
        self._snapshot: Optional[CompiledPolicy] = None
        #: Snapshot (re)loads observed, and the time spent waiting on
        #: them (compilation is shared per policy, so a load can be a
        #: cheap cache hit on the policy side).
        self.compile_count = 0
        self.compile_time_s = 0.0
        #: subject name -> (effective ids, names, mask, distance table);
        #: valid for one snapshot revision (cleared on reload).
        self._subject_memo: Dict[str, tuple] = {}
        #: Session -> (epoch, profile); weak so ended sessions drop out.
        self._session_memo: "weakref.WeakKeyDictionary[Session, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        #: object name -> (mask, expanded names, distance table).
        self._object_memo: Dict[str, tuple] = {}
        #: frozenset of direct env roles -> (mask, names, distances).
        self._env_memo: Dict[FrozenSet[str], tuple] = {}
        self.stages: Tuple[Stage, ...] = (
            ResolveSubjectRoles(engine, self.resolve_subject),
            SnapshotEnvironment(engine),
            ExpandClosures(engine, self.expand),
            MatchPermissions(engine, self.match),
            ResolvePrecedence(engine),
            ApplyConstraints(engine),
            EmitDecision(engine),
        )
        #: Pre-extracted runners: the untraced per-decision loop costs
        #: seven calls and nothing else.
        self._runners: Tuple[Callable[[DecisionContext], None], ...] = tuple(
            stage.run for stage in self.stages
        )

    def execute(
        self,
        request: AccessRequest,
        session: Optional[Session] = None,
        active_env: Optional[FrozenSet[str]] = None,
        env_override: Optional[Set[str]] = None,
        trace: bool = False,
    ) -> Decision:
        """Mediate one request through every stage.

        ``active_env`` short-circuits :class:`SnapshotEnvironment`
        when the engine already resolved the environment (it needs it
        for the decision-cache key); otherwise the stage resolves
        ``env_override`` / the engine's environment source itself.
        """
        if not trace:
            ctx = DecisionContext(request, session, active_env, env_override)
            for run in self._runners:
                run(ctx)
            return ctx.decision
        return self._execute_traced(
            DecisionContext(
                request,
                session,
                active_env,
                env_override,
                trace=DecisionTrace(
                    subject=request.subject,
                    transaction=request.transaction,
                    obj=request.obj,
                    mode="compiled",
                ),
            )
        )

    def _execute_traced(self, ctx: DecisionContext) -> Decision:
        trace = ctx.trace
        metrics = self.engine.metrics
        perf_counter = time.perf_counter
        total = 0.0
        for stage in self.stages:
            started = perf_counter()
            stage.run(ctx)
            duration = perf_counter() - started
            total += duration
            trace.add_span(stage.name, duration, stage.annotate(ctx))
            metrics.observe(f"pipeline.{stage.name}", duration)
        metrics.observe("pipeline.total", total)
        return ctx.decision

    # -- snapshot lifecycle -------------------------------------------
    def snapshot(self) -> CompiledPolicy:
        """The compiled snapshot for the current decision revision.

        Reloads (and drops every expansion memo) whenever the policy's
        ``decision_revision`` has moved past the held snapshot — the
        revision-based invalidation the property tests pin down.
        """
        snapshot = self._snapshot
        if snapshot is None or snapshot.revision != self.policy.decision_revision:
            started = time.perf_counter()
            snapshot = self.policy.compiled()
            self.compile_time_s += time.perf_counter() - started
            self.compile_count += 1
            self._snapshot = snapshot
            self._subject_memo.clear()
            self._session_memo = weakref.WeakKeyDictionary()
            self._object_memo.clear()
            self._env_memo.clear()
        return snapshot

    def stats(self) -> Dict[str, object]:
        snapshot = self._snapshot
        return {
            "compile_count": self.compile_count,
            "compile_time_s": self.compile_time_s,
            "snapshot_revision": None if snapshot is None else snapshot.revision,
            "compiled_rules": 0 if snapshot is None else snapshot.rule_count,
            "subject_profiles": len(self._subject_memo),
            "object_profiles": len(self._object_memo),
            "environment_profiles": len(self._env_memo),
        }

    # -- stage 1 -------------------------------------------------------
    def resolve_subject(self, ctx: DecisionContext) -> None:
        snapshot = self.snapshot()
        request = ctx.request
        if not request.role_claims and request.subject is not None:
            if ctx.session is None:
                profile = self._subject_memo.get(request.subject)
                if profile is None:
                    profile = snapshot.subject_profile(
                        restricted_assigned_roles(self.policy, request, None)
                    )
                    self._subject_memo[request.subject] = profile
            else:
                profile = self._session_profile(snapshot, request, ctx.session)
            _effective_ids, effective_names, mask, distances = profile
            uniform = request.identity_confidence
            ctx.subject_confidences = dict.fromkeys(effective_names, uniform)
            # (mask, distance table, per-id confidences or None, uniform)
            ctx.subject_state = (mask, distances, None, uniform)
        else:
            (
                mask,
                distances,
                confidence_by_id,
                confidences,
            ) = self._claims_profile(snapshot, request, ctx.session)
            ctx.subject_confidences = confidences
            ctx.subject_state = (mask, distances, confidence_by_id, None)

    def _session_profile(
        self, snapshot: CompiledPolicy, request: AccessRequest, session: Session
    ) -> tuple:
        """Expansion profile for a session-restricted subject.

        Memoized per session object, keyed on the session's activation
        epoch (and implicitly on the snapshot revision — the memo is
        cleared on reload), so repeated decisions inside one session
        state expand roles once.
        """
        if session.subject != request.subject:
            raise PolicyError(
                f"session belongs to {session.subject!r}, "
                f"request is for {request.subject!r}"
            )
        entry = self._session_memo.get(session)
        if entry is not None and entry[0] == session.epoch:
            return entry[1]
        assigned = restricted_assigned_roles(self.policy, request, session)
        profile = snapshot.subject_profile(assigned)
        self._session_memo[session] = (session.epoch, profile)
        return profile

    def _claims_profile(
        self,
        snapshot: CompiledPolicy,
        request: AccessRequest,
        session: Optional[Session],
    ) -> Tuple[int, Dict[int, int], Dict[int, float], Dict[str, float]]:
        """Subject profile when role claims are in play (§5.2).

        Claims carry per-role confidences, so the uniform-confidence
        fast path does not apply; expansion still runs over closure
        bitsets, propagating each direct role's confidence to its
        generalizations with max-merge.
        """
        direct = direct_subject_confidences(self.policy, request, session)
        interned = snapshot.subjects
        ids = interned.ids
        up_masks = interned.up_masks
        confidence_by_id: Dict[int, float] = {}
        subject_mask = 0
        direct_ids: List[int] = []
        for role_name, confidence in direct.items():
            role_id = ids[role_name]
            direct_ids.append(role_id)
            mask = up_masks[role_id]
            subject_mask |= mask
            while mask:
                bit = mask & -mask
                mask ^= bit
                effective_id = bit.bit_length() - 1
                if confidence > confidence_by_id.get(effective_id, -1.0):
                    confidence_by_id[effective_id] = confidence
        names = interned.names
        confidences = {
            names[role_id]: confidence
            for role_id, confidence in confidence_by_id.items()
        }
        return (
            subject_mask,
            interned.merged_distances(direct_ids),
            confidence_by_id,
            confidences,
        )

    # -- stage 3 -------------------------------------------------------
    def expand(self, ctx: DecisionContext) -> None:
        snapshot = self._snapshot  # fresh: resolve_subject ran first
        obj = ctx.request.obj
        object_profile = self._object_memo.get(obj)
        if object_profile is None:
            self.policy.object(obj)
            object_profile = snapshot.object_profile(
                r.name for r in self.policy.direct_object_roles(obj)
            )
            self._object_memo[obj] = object_profile
        object_mask, object_names, object_distances = object_profile
        ctx.object_roles = object_names
        ctx.object_state = (object_mask, object_distances)

        active_env = ctx.active_env
        env_profile = self._env_memo.get(active_env)
        if env_profile is None:
            env_profile = snapshot.environment_profile(active_env)
            if len(self._env_memo) >= 4096:  # defensive bound
                self._env_memo.clear()
            self._env_memo[active_env] = env_profile
        env_mask, env_names, env_distances = env_profile
        ctx.environment_roles = env_names
        ctx.environment_state = (env_mask, env_distances)

    # -- stage 4 -------------------------------------------------------
    def match(self, ctx: DecisionContext) -> None:
        snapshot = self._snapshot
        transaction = ctx.request.transaction
        if transaction in snapshot.transactions:
            bucket = snapshot.rules.get(transaction)
        else:
            # Registered after the snapshot was compiled (transactions
            # carry no revision) or simply unknown — the live lookup
            # raises for the latter.
            self.policy.transaction(transaction)
            bucket = None

        subject_mask, subject_distances, confidence_by_id, uniform = (
            ctx.subject_state
        )
        object_mask, object_distances = ctx.object_state
        env_mask, env_distances = ctx.environment_state

        # Match loop: pure int tests.
        raw: List = []
        if bucket is not None:
            remaining = subject_mask
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                rules = bucket.get(bit.bit_length() - 1)
                if rules:
                    for rule in rules:
                        # rule[3]=object_bit, rule[4]=environment_bit
                        if rule[3] & object_mask and rule[4] & env_mask:
                            raw.append(rule)
            if len(raw) > 1:
                raw.sort()  # CompiledRule sorts by its order field
        self._finish_matches(ctx, raw)

    def _finish_matches(self, ctx: DecisionContext, raw: List) -> None:
        """Confidence-gate ``raw`` compiled rules and build the Matches."""
        subject_distances = ctx.subject_state[1]
        confidence_by_id = ctx.subject_state[2]
        uniform = ctx.subject_state[3]
        object_distances = ctx.object_state[1]
        env_distances = ctx.environment_state[1]
        threshold = self.engine.confidence_threshold
        matches: List[Match] = []
        for rule in raw:
            (
                _order,
                permission,
                subject_id,
                _obit,
                _ebit,
                is_deny,
                min_confidence,
                object_is_wildcard,
                environment_is_wildcard,
                object_id,
                environment_id,
            ) = rule
            if uniform is not None:
                confidence = uniform
            else:
                confidence = confidence_by_id[subject_id]
            if not is_deny:
                required = min_confidence or threshold
                if required != 0.0 and confidence < required:
                    continue
            specificity = (
                subject_distances.get(subject_id, WILDCARD_DISTANCE)
                + (
                    WILDCARD_DISTANCE
                    if object_is_wildcard
                    else object_distances.get(object_id, WILDCARD_DISTANCE)
                )
                + (
                    WILDCARD_DISTANCE
                    if environment_is_wildcard
                    else env_distances.get(environment_id, WILDCARD_DISTANCE)
                )
            )
            matches.append(
                Match(
                    permission,
                    permission.subject_role,
                    permission.object_role,
                    permission.environment_role,
                    specificity,
                    confidence,
                )
            )
        ctx.matches = matches
