"""Live policy administration: one gate, one reload path, one audit ring.

ARBAC treats policy *change* as a first-class, analyzable operation;
this module is that operation for the running service.  Every door
that can change what a deployment serves — the wire ``reload`` op,
``POST /reload``, the file watcher, the cluster's two-phase
``prepare``/``activate``, a store ``activate`` — goes through:

**The gate**, :func:`vet_candidate`.  A candidate (DSL text or the
serialized JSON form) is **parsed** (:func:`load_policy_text`) and
**linted** with :class:`~repro.policy.analysis.PolicyAnalyzer` — that
half, :func:`lint_candidate`, is a pure function of the text, so
:class:`~repro.store.store.PolicyStore` memoizes it by content hash —
then **diffed** against the live policy for the change summary,
**filtered** (findings at or above the caller's ``fail_on`` severity
reject it) and, for a two-phase prepare, **pre-compiled**.  Nothing
else decides whether a text may serve.

**The tenant cases**, owned once by :meth:`PolicyAdministrator.reload`:

* *store-backed tenant, with text* — ``put`` + ``activate`` (the gate,
  under the store's own ``fail_on``) + refresh the PDP's resolution;
* *store-backed tenant, no text* — refresh only, for activations done
  out of band (CLI, another process);
* *default or pinned tenant, with text* — the gate, then
  :meth:`PolicyDecisionPoint.swap_policy
  <repro.service.pdp.PolicyDecisionPoint.swap_policy>`: atomic on the
  event loop, generation-keyed so stale cache entries stop matching;
* *unknown tenant, or no text and no store to refresh from* — refused.

**The ring**: every attempt through any door — accepted, rejected,
refused, dry-run, prepared, aborted — lands in the deployment's one
bounded :class:`ReloadAudit` as a :class:`ReloadRecord` naming who
asked, when, for which tenant, what changed, and why it was refused if
it was.  A rejected or failed reload leaves the old policy serving.

:class:`PolicyFileWatcher` closes the loop for ``serve --policy-file
--watch``: mtime polling that funnels file edits through the same path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.policy import GrbacPolicy
from repro.exceptions import GrbacError, PolicyStoreError, ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.policy.analysis import Finding, PolicyAnalyzer
from repro.policy.diff import diff_policies
from repro.policy.dsl import compile_policy
from repro.policy.serialize import from_json

#: Lint severities, most severe first (index = rank).
_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}

#: The tenant single-policy deployments implicitly serve: what "no
#: tenant" means to reload records, the store and the PDP alike.
DEFAULT_TENANT = "default"


def load_policy_text(text: str, name: str = "candidate") -> GrbacPolicy:
    """Parse a candidate policy from DSL text or serialized JSON.

    The two on-disk forms are distinguished by their first
    non-whitespace character: serialized policies are JSON objects
    (``{``); everything else is DSL.  Raises the underlying
    :class:`~repro.exceptions.GrbacError` subtype on malformed input —
    the administrator turns that into an audited rejection.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return compile_policy(text, name=name)


#: ``(candidate, findings, parse_error)`` — what :func:`lint_candidate`
#: returns.  A memoizing caller may drop the parsed candidate (pass
#: ``None`` back): the gate re-parses only when it needs a diff.
Linted = Tuple[Optional[GrbacPolicy], List[Finding], str]


def lint_candidate(source: str, name: str = "candidate") -> Linted:
    """The text-pure half of the gate: parse, then lint.

    Never raises on a bad candidate — a malformed text comes back as
    ``(None, [], "parse error: ...")``.
    """
    try:
        candidate = load_policy_text(source, name=name)
    except (GrbacError, ValueError, KeyError, TypeError) as error:
        # GrbacError covers DSL/compile faults; the rest are what
        # json.loads / from_dict raise on malformed documents.
        return None, [], f"parse error: {error}"
    return candidate, PolicyAnalyzer(candidate).lint(), ""


@dataclass(frozen=True)
class Vetted:
    """The gate's verdict on one candidate text."""

    #: The parsed candidate; None when it failed to parse (or when a
    #: memoized lint was supplied and no diff needed the parse).
    candidate: Optional[GrbacPolicy] = None
    #: ``Finding.describe()`` strings from the lint pass.
    findings: Tuple[str, ...] = ()
    #: Change summary against the live policy ("" when there is none).
    diff_summary: str = ""
    #: Why the candidate may not serve; empty when it may.
    error: str = ""


def vet_candidate(
    source: str,
    name: str = "candidate",
    fail_on: Optional[str] = "error",
    live: Optional[GrbacPolicy] = None,
    linted: Optional[Linted] = None,
    precompile: bool = False,
) -> Vetted:
    """The one vetting gate between policy text and serving traffic.

    :param fail_on: minimum lint severity that rejects the candidate;
        ``None`` disables the lint gate (parse failures still reject).
    :param live: the policy currently serving, diffed against.
    :param linted: a memoized :func:`lint_candidate` result for this
        exact text (the store keys it by content hash).
    :param precompile: also build the candidate's compiled snapshot
        (memoized on the policy object), so installing it later pays
        no compile.
    """
    candidate, findings, error = (
        linted if linted is not None else lint_candidate(source, name)
    )
    if error:
        return Vetted(error=error)
    described = tuple(f.describe() for f in findings)
    if candidate is None and (live is not None or precompile):
        candidate = load_policy_text(source, name=name)
    diff_summary = ""
    if live is not None:
        diff_summary = diff_policies(live, candidate).describe()
    if fail_on is not None:
        gate = _SEVERITY_RANK[fail_on]
        blocking = [
            f
            for f in findings
            if _SEVERITY_RANK.get(f.severity, gate) <= gate
        ]
        if blocking:
            error = "validation failed: " + "; ".join(
                f.describe() for f in blocking
            )
    if precompile and not error:
        try:
            candidate.compiled()
        except GrbacError as fault:
            error = f"compile failed: {fault}"
    return Vetted(candidate, described, diff_summary, error)


@dataclass(frozen=True)
class ReloadRecord:
    """One audited policy-administration attempt.

    This is the administration plane's audit record — who asked for the
    change, when, whether it was applied, and the diff summary — the
    counterpart of the decision-bound
    :class:`~repro.core.audit.AuditRecord` for mediation traffic.
    """

    sequence: int
    #: Wall-clock seconds (``time.time()``) the attempt completed at.
    timestamp: float
    #: Caller-supplied identity ("cli", "admin-http", "file-watch", a
    #: username); empty when the caller named nobody.
    actor: str
    #: ``"reload"``, ``"validate"`` (dry-run), or the two-phase
    #: ``"prepare"`` / ``"activate"`` / ``"abort"``.
    action: str
    #: The candidate was swapped in (always False for dry-runs).
    accepted: bool
    dry_run: bool
    policy_name: str
    #: The serving policy's decision revision; None for an unknown or
    #: store-backed tenant.
    old_revision: Optional[int]
    #: The candidate's decision revision; None when it failed to parse.
    new_revision: Optional[int]
    #: PDP generation after an accepted swap; None otherwise.
    generation: Optional[int]
    #: ``Finding.describe()`` strings from the lint pass.
    findings: Tuple[str, ...]
    #: Human-readable change summary from :func:`diff_policies`.
    diff_summary: str
    #: Why the attempt was rejected; empty when it was not.
    error: str
    duration_s: float
    #: The tenant the attempt targeted; None is the default tenant.
    tenant: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "actor": self.actor,
            "action": self.action,
            "accepted": self.accepted,
            "dry_run": self.dry_run,
            "policy": self.policy_name,
            "old_revision": self.old_revision,
            "new_revision": self.new_revision,
            "generation": self.generation,
            "findings": list(self.findings),
            "diff_summary": self.diff_summary,
            "error": self.error,
            "duration_s": round(self.duration_s, 6),
        }
        if self.tenant is not None:
            # Only a non-default tenant is named, exactly as
            # encode_response treats PDPResponse.tenant.
            payload["tenant"] = self.tenant
        return payload

    def describe(self) -> str:
        verdict = (
            "dry-run ok"
            if self.dry_run and not self.error
            else "applied"
            if self.accepted
            else f"rejected ({self.error})"
        )
        return (
            f"#{self.sequence} {self.action} by {self.actor or '<anonymous>'}"
            f" -> {verdict}: {self.policy_name!r}"
        )


class ReloadAudit:
    """A bounded, append-only ring of :class:`ReloadRecord` entries."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ServiceError("reload audit capacity must be >= 1")
        self.capacity = capacity
        self._records: List[ReloadRecord] = []
        self._sequence = 0
        self.accepted = 0
        self.rejected = 0

    def append(self, **fields: object) -> ReloadRecord:
        self._sequence += 1
        record = ReloadRecord(
            sequence=self._sequence, timestamp=time.time(), **fields
        )  # type: ignore[arg-type]
        self._records.append(record)
        if len(self._records) > self.capacity:
            self._records = self._records[-self.capacity :]
        if record.error:
            self.rejected += 1
        elif record.accepted:
            self.accepted += 1
        return record

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[ReloadRecord]:
        return list(self._records)

    @property
    def last(self) -> Optional[ReloadRecord]:
        return self._records[-1] if self._records else None

    def stats(self) -> Dict[str, object]:
        return {
            "attempts": self._sequence,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "retained": len(self._records),
        }


@dataclass(frozen=True)
class ReloadResult:
    """What a :meth:`PolicyAdministrator.reload` call tells its caller."""

    accepted: bool
    dry_run: bool
    record: ReloadRecord
    #: The tenant resolves through the policy store: the attempt was
    #: ``put`` + ``activate`` + refresh (or refresh only).
    store_backed: bool = False
    #: The store version serving after an accepted store-backed reload.
    version: Optional[int] = None
    #: Set when the *request*, not the candidate, was refused — doors
    #: map it onto their bad-request replies: ``"unknown-tenant"``,
    #: ``"no-candidate"`` (no text, and no store to refresh from) or
    #: ``"dry-run"`` (store-backed tenants have none; activate gates).
    refusal: str = ""

    @property
    def error(self) -> str:
        return self.record.error

    @property
    def generation(self) -> Optional[int]:
        return self.record.generation


@dataclass(frozen=True)
class PrepareResult:
    """What :meth:`PolicyAdministrator.prepare` tells its caller.

    ``token`` is non-None exactly when the candidate passed the full
    validation pipeline and is being held warm for
    :meth:`~PolicyAdministrator.activate_prepared`.
    """

    accepted: bool
    token: Optional[str]
    record: ReloadRecord

    @property
    def error(self) -> str:
        return self.record.error


class PolicyAdministrator:
    """The validated path between candidate policy text and the PDP.

    :param target: the serving :class:`PolicyDecisionPoint` (anything
        exposing ``policy``, ``tenant_policy(tenant=None)`` and
        ``swap_policy(policy, tenant=None) -> int``; tenant-scoped
        reloads also use its ``store`` and ``refresh_tenant``).
    :param fail_on: minimum lint severity that rejects a candidate —
        ``"error"`` (default) lets warnings through with an audit
        trail; ``"warning"`` makes the gate strict.  ``None`` disables
        the lint gate entirely (parse failures still reject).
    :param metrics: registry for ``admin.reloads_*`` counters; the
        target's own registry is reused when it has one.
    """

    def __init__(
        self,
        target: object,
        fail_on: Optional[str] = "error",
        metrics: Optional[MetricsRegistry] = None,
        audit_capacity: int = 256,
    ) -> None:
        if fail_on is not None and fail_on not in _SEVERITY_RANK:
            raise ServiceError(
                f"fail_on must be one of {sorted(_SEVERITY_RANK)} or None"
            )
        self.target = target
        self.fail_on = fail_on
        self.audit = ReloadAudit(audit_capacity)
        if metrics is None:
            metrics = getattr(target, "metrics", None) or MetricsRegistry()
        self.metrics = metrics
        self._m_accepted = metrics.counter("admin.reloads_accepted")
        self._m_rejected = metrics.counter("admin.reloads_rejected")
        self._m_dry_runs = metrics.counter("admin.reloads_dry_run")
        #: Outstanding two-phase candidates by token (insertion order;
        #: oldest evicted past :attr:`max_prepared`).
        self._prepared: Dict[str, Vetted] = {}
        self._prepare_sequence = 0
        self.max_prepared = 8

    # ------------------------------------------------------------------
    # The one audit record
    # ------------------------------------------------------------------
    def _audit(
        self,
        started: float,
        actor: str,
        action: str,
        live: Optional[GrbacPolicy],
        vetted: Vetted,
        name: str = "",
        tenant: Optional[str] = None,
        dry_run: bool = False,
        generation: Optional[int] = None,
    ) -> ReloadRecord:
        """Count and record one attempt; ``generation`` set = applied."""
        candidate = vetted.candidate
        accepted = generation is not None
        if vetted.error:
            self._m_rejected.inc()
        elif accepted:
            self._m_accepted.inc()
        elif dry_run:
            self._m_dry_runs.inc()
        return self.audit.append(
            actor=actor,
            action=action,
            accepted=accepted,
            dry_run=dry_run,
            policy_name=candidate.name if candidate is not None else name,
            old_revision=live.decision_revision if live is not None else None,
            new_revision=(
                candidate.decision_revision if candidate is not None else None
            ),
            generation=generation,
            findings=vetted.findings,
            diff_summary=vetted.diff_summary,
            error=vetted.error,
            duration_s=time.perf_counter() - started,
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    # The reload path — every door, every tenant
    # ------------------------------------------------------------------
    def reload(
        self,
        source: Optional[str],
        actor: str = "",
        dry_run: bool = False,
        name: str = "candidate",
        tenant: Optional[str] = None,
    ) -> ReloadResult:
        """Vet ``source`` and (unless ``dry_run``) make ``tenant`` serve it.

        The tenant cases are decided here, once (see the module
        docstring); ``tenant=None`` or the default tenant's name is the
        deployment's own policy.  Never raises on a bad candidate or a
        bad tenant: parse error, lint gate, store refusal, swap fault,
        unknown tenant, missing text — each resolves to an audited,
        unaccepted :class:`ReloadResult` with the old policy still
        serving.
        """
        started = time.perf_counter()
        target = self.target
        if tenant == DEFAULT_TENANT:
            tenant = None
        has_text = isinstance(source, str) and bool(source.strip())
        store = getattr(target, "store", None) if tenant is not None else None
        store_backed = store is not None and tenant in store
        live = None  # a store-backed tenant's history is the store's log
        if not store_backed:
            try:
                live = target.tenant_policy(tenant)
            except ServiceError:
                pass  # unknown tenant: refused below

        def result(
            vetted: Vetted,
            generation: Optional[int] = None,
            version: Optional[int] = None,
            refusal: str = "",
        ) -> ReloadResult:
            record = self._audit(
                started,
                actor,
                "validate" if dry_run else "reload",
                live,
                vetted,
                name=name,
                tenant=tenant,
                dry_run=dry_run,
                generation=generation,
            )
            return ReloadResult(
                record.accepted, dry_run, record, store_backed, version, refusal
            )

        if store_backed:
            if dry_run:
                return result(
                    Vetted(
                        error="dry_run is not supported for store-backed "
                        "tenants (activate gates instead)"
                    ),
                    refusal="dry-run",
                )
            try:
                if has_text:
                    put = store.put(tenant, source, actor=actor, note="reload")
                    store.activate(tenant, put.version, actor=actor)
                generation = target.refresh_tenant(tenant)
            except (PolicyStoreError, ServiceError) as error:
                return result(Vetted(error=str(error)))
            return result(
                Vetted(target.tenant_policy(tenant)),
                generation,
                store.active_version(tenant),
            )
        if not has_text:
            return result(
                Vetted(error="no candidate policy text"),
                refusal="no-candidate",
            )
        if live is None:
            return result(
                Vetted(error=f"unknown tenant {tenant!r}"),
                refusal="unknown-tenant",
            )
        vetted = vet_candidate(source, name, self.fail_on, live=live)
        if vetted.error or dry_run:
            return result(vetted)
        try:
            generation = target.swap_policy(vetted.candidate, tenant=tenant)
        except GrbacError as error:
            # Swap refused (e.g. the candidate will not compile): the
            # PDP still holds the old engine — swap is all-or-nothing.
            return result(replace(vetted, error=f"swap failed: {error}"))
        return result(vetted, generation)

    def validate(
        self, source: str, actor: str = "", name: str = "candidate"
    ) -> ReloadResult:
        """Dry-run: the full pipeline minus the swap."""
        return self.reload(source, actor=actor, dry_run=True, name=name)

    # ------------------------------------------------------------------
    # Two-phase reload (cluster prepare/activate)
    # ------------------------------------------------------------------
    def prepare(
        self, source: str, actor: str = "", name: str = "candidate"
    ) -> PrepareResult:
        """Phase one: validate ``source`` and hold it warm for activate.

        Runs the same gate as :meth:`reload`, pre-building the
        candidate's compiled snapshot (so the eventual ``swap_policy``
        pays no compile), then parks it under a token.  Nothing about
        the serving policy changes.  The cluster supervisor prepares on
        *every* worker and activates only when all of them accepted;
        any rejection here aborts the whole cluster reload with nothing
        swapped anywhere.
        """
        started = time.perf_counter()
        live = self.target.policy
        vetted = vet_candidate(
            source, name, self.fail_on, live=live, precompile=True
        )
        token = None
        if not vetted.error:
            self._prepare_sequence += 1
            token = f"prep-{self._prepare_sequence}"
            self._prepared[token] = vetted
            while len(self._prepared) > self.max_prepared:
                del self._prepared[next(iter(self._prepared))]
        record = self._audit(started, actor, "prepare", live, vetted, name=name)
        return PrepareResult(
            accepted=token is not None, token=token, record=record
        )

    def activate_prepared(self, token: str, actor: str = "") -> ReloadResult:
        """Phase two: swap in a previously prepared candidate.

        The candidate was validated and compiled at prepare time, so
        barring an engine-construction fault this is just the atomic
        ``swap_policy`` — the cheap, non-rejectable step the
        supervisor fans out once every worker has prepared.  The token
        is consumed whether or not the swap succeeds.
        """
        started = time.perf_counter()
        live = self.target.policy
        vetted = self._prepared.pop(token, None)
        generation = None
        if vetted is None:
            vetted = Vetted(error=f"unknown prepare token {token!r}")
        else:
            try:
                generation = self.target.swap_policy(vetted.candidate)
            except GrbacError as fault:
                vetted = replace(vetted, error=f"swap failed: {fault}")
        record = self._audit(
            started, actor, "activate", live, vetted, token, generation=generation
        )
        return ReloadResult(record.accepted, dry_run=False, record=record)

    def abort_prepared(self, token: str, actor: str = "") -> bool:
        """Discard a prepared candidate; True if the token was live."""
        vetted = self._prepared.pop(token, None)
        if vetted is None:
            return False
        self._audit(
            time.perf_counter(), actor, "abort", self.target.policy, vetted
        )
        return True

    def prepared_tokens(self) -> List[str]:
        """Outstanding prepare tokens, oldest first."""
        return list(self._prepared)


@dataclass
class PolicyFileWatcher:
    """Polling bridge from a policy file to the administrator.

    ``serve --policy-file X --watch`` runs :meth:`run_forever`; tests
    and the CLI use the synchronous :meth:`poll_once`.  The watcher
    never crashes the server on a bad edit: a file that fails
    validation is an audited rejection, and the same content is not
    retried until the content actually changes.

    Change detection compares a three-part fingerprint — ``(mtime_ns,
    size, sha256(content))`` — not mtime alone.  The stat pair is the
    cheap first gate (unchanged metadata means no read at all); when
    it moves, the content hash decides: a ``touch``, a re-save of
    identical text, or a rsync/untar that bumps timestamps produces
    **no** reload, while a real edit does even when the filesystem's
    mtime granularity swallowed the timestamp step.
    """

    path: str
    administrator: PolicyAdministrator
    interval_s: float = 1.0
    actor: str = "file-watch"
    #: Called with each ReloadResult (serve uses this to log).
    on_reload: Optional[Callable[[ReloadResult], None]] = None
    #: ``(mtime_ns, size, content_sha256)`` of the last content seen.
    _last_fingerprint: Optional[Tuple[int, int, str]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ServiceError("watch interval must be > 0")
        # Baseline: the file as served at startup is not "a change".
        snapshot = self._snapshot()
        if snapshot is not None:
            self._last_fingerprint = snapshot[0]

    def _snapshot(
        self,
    ) -> Optional[Tuple[Tuple[int, int, str], str]]:
        """``(fingerprint, content)`` of the file now, None if unreadable."""
        import hashlib
        import os

        try:
            stat = os.stat(self.path)
            with open(self.path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            return None  # transient (editor rename-in-place); retry
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return (stat.st_mtime_ns, stat.st_size, digest), source

    def poll_once(self) -> Optional[ReloadResult]:
        """Reload if the file's *content* changed; None when it did not."""
        import os

        last = self._last_fingerprint
        if last is not None:
            try:
                stat = os.stat(self.path)
            except OSError:
                return None  # transient; fingerprint kept, next poll retries
            if (stat.st_mtime_ns, stat.st_size) == last[:2]:
                return None  # metadata unchanged: skip the read
        snapshot = self._snapshot()
        if snapshot is None:
            return None
        fingerprint, source = snapshot
        # Record the new metadata either way, so a pure touch is not
        # re-hashed every poll; reload only on a content change.
        self._last_fingerprint = fingerprint
        if last is not None and fingerprint[2] == last[2]:
            return None  # touched, but byte-identical content
        result = self.administrator.reload(
            source, actor=self.actor, name=self.path
        )
        if self.on_reload is not None:
            self.on_reload(result)
        return result

    async def run_forever(self) -> None:
        """Poll until cancelled (serve runs this next to the PDP)."""
        import asyncio

        while True:
            await asyncio.sleep(self.interval_s)
            self.poll_once()
