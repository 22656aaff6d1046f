"""The versioned multi-tenant policy store — append-only source of truth.

The paper frames GRBAC per home (§4: each smart home has its own
subjects, environment roles, and policy); the ROADMAP's
millions-of-users target needs *many* such homes served as tenants
from one cluster.  This module is the persistence half of that story,
in the "policy store as single source of truth" shape of the openedx
Casbin ADR (SNIPPETS.md): every policy a tenant has ever served is a
**version** in an append-only JSONL log, an explicit **active
pointer** selects the one decisions render against, and nothing is
ever rewritten — ``put`` appends, ``activate``/``rollback`` move the
pointer, history answers "what did home 17 enforce last Tuesday".

Model
-----

* **Tenant** — a named policy lineage (one smart home, in paper
  terms).  Created explicitly; names are ``[A-Za-z0-9][A-Za-z0-9_.-]*``
  up to 64 chars.
* **Version** — one immutable policy text (DSL or serialized JSON),
  numbered 1..N per tenant.  Texts are stored once per content hash
  (``sha256:...``) however many tenants or versions reference them.
* **Active pointer** — the version decisions are served from.
  ``activate`` puts the candidate through the one gate
  :class:`~repro.policy.admin.PolicyAdministrator` puts hot reloads
  through (:func:`~repro.policy.admin.vet_candidate`: ``fail_on``
  severity, diff against the previously active version recorded in
  the log); a candidate that fails the
  gate *cannot* become active.  ``rollback`` moves the pointer to the
  previously active distinct version without re-linting — it was
  gated when it first went live, and the escape hatch must not be
  blockable by a since-tightened linter.
* **Compiled snapshots** — serving goes through
  :meth:`PolicyStore.engine`: the active text is parsed and compiled
  lazily on first use into a bounded content-addressed LRU
  (:mod:`repro.store.snapshots`), so memory is bounded by the LRU
  capacity, not the tenant count.

Durability: one ``store.jsonl`` per store directory, replayed on open.
A torn final line (crash mid-append) is dropped and counted; malformed
interior lines fail loudly — they mean the log was edited by hand.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.mediation import MediationEngine
from repro.core.policy import GrbacPolicy
from repro.exceptions import GrbacError, PolicyStoreError
from repro.obs.metrics import MetricsRegistry
from repro.policy.admin import (
    _SEVERITY_RANK,
    Linted,
    lint_candidate,
    load_policy_text,
    vet_candidate,
)
from repro.store.snapshots import CompiledSnapshotCache

#: Store log filename inside a store directory.
LOG_FILENAME = "store.jsonl"

_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def content_hash(text: str) -> str:
    """The content address of one policy text."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PolicyVersion:
    """One immutable entry in a tenant's lineage."""

    tenant: str
    version: int
    content_hash: str
    actor: str
    created_at: float
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "version": self.version,
            "content_hash": self.content_hash,
            "actor": self.actor,
            "created_at": self.created_at,
            "note": self.note,
        }


@dataclass(frozen=True)
class Activation:
    """One movement of a tenant's active pointer."""

    version: int
    #: ``"activate"`` or ``"rollback"``.
    action: str
    actor: str
    timestamp: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "action": self.action,
            "actor": self.actor,
            "timestamp": self.timestamp,
        }


@dataclass
class TenantLineage:
    """A tenant's full history: versions plus pointer movements."""

    name: str
    created_at: float
    actor: str = ""
    versions: List[PolicyVersion] = field(default_factory=list)
    activations: List[Activation] = field(default_factory=list)

    @property
    def head(self) -> Optional[PolicyVersion]:
        """The latest *put* version (not necessarily the active one)."""
        return self.versions[-1] if self.versions else None

    @property
    def active_version(self) -> Optional[int]:
        """The version currently serving, or None before any activate."""
        return self.activations[-1].version if self.activations else None

    def version(self, number: int) -> PolicyVersion:
        if not 1 <= number <= len(self.versions):
            raise PolicyStoreError(
                f"tenant {self.name!r} has no version {number} "
                f"(lineage holds 1..{len(self.versions)})"
            )
        return self.versions[number - 1]

    def to_dict(self) -> Dict[str, object]:
        active = self.active_version
        return {
            "tenant": self.name,
            "created_at": self.created_at,
            "actor": self.actor,
            "active_version": active,
            "versions": [
                {**v.to_dict(), "active": v.version == active}
                for v in self.versions
            ],
            "activations": [a.to_dict() for a in self.activations],
        }


class PolicyStore:
    """Append-only, versioned, multi-tenant policy store.

    :param path: store directory (created if missing); ``None`` keeps
        everything in memory — same semantics, no durability, for
        tests and embedding.
    :param compiled_cache_size: bounded LRU capacity for compiled
        engine snapshots (content-addressed; see
        :mod:`repro.store.snapshots`).
    :param fail_on: minimum lint severity that blocks ``activate`` —
        mirrors :class:`~repro.policy.admin.PolicyAdministrator`.
        ``None`` disables the lint gate (parse failures still block).
    :param reader: open the store read-only for cross-process sharing.
        A reader holds **no** append handle and takes **no** lock
        against the writing process: it replays the log to the last
        complete line, remembers that byte offset, and re-reads only
        the appended suffix when the file grows (throttled by
        ``refresh_interval_s``).  The writer's append+flush of whole
        lines is what makes this safe — a reader either sees a
        complete event or leaves the torn tail for the next refresh.
        Mutating calls raise.  This is how every worker in a PDP
        cluster boots from (and follows) one supervisor-owned
        ``store.jsonl``.
    :param refresh_interval_s: minimum seconds between a reader's
        ``stat`` probes of the log — bounds syscall cost on the
        per-request ``active_version`` path.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        compiled_cache_size: int = 8,
        fail_on: Optional[str] = "error",
        reader: bool = False,
        refresh_interval_s: float = 0.2,
    ) -> None:
        if fail_on is not None and fail_on not in _SEVERITY_RANK:
            raise PolicyStoreError(
                f"fail_on must be one of {sorted(_SEVERITY_RANK)} or None"
            )
        if reader and path is None:
            raise PolicyStoreError(
                "reader mode requires a store path (nothing to follow)"
            )
        if refresh_interval_s < 0:
            raise PolicyStoreError("refresh_interval_s must be >= 0")
        self.path = path
        self.fail_on = fail_on
        self._reader = reader
        self.refresh_interval_s = refresh_interval_s
        self.compiled = CompiledSnapshotCache(compiled_cache_size)
        self._lock = threading.RLock()
        self._tenants: Dict[str, TenantLineage] = {}
        self._blobs: Dict[str, str] = {}
        self._seq = 0
        self._log: Optional[io.TextIOWrapper] = None
        #: Tallies surfaced via :meth:`stats` / bound metrics.
        self.puts = 0
        self.dedup_hits = 0
        self.activations = 0
        self.rollbacks = 0
        self.torn_tail_recovered = 0
        #: Lint results memoized by content hash — text is immutable,
        #: so findings are too.  Holds :func:`lint_candidate`'s result
        #: with the parsed policy dropped; one small entry per distinct
        #: blob (same bound as ``_blobs``), which turns fleet-wide
        #: activations of a shared template into one parse+lint instead
        #: of thousands.
        self._lint_memo: Dict[str, Linted] = {}
        #: Byte offset of the last complete line replayed (reader mode).
        self._read_offset = 0
        self._applied_lines = 0
        self._last_probe = float("-inf")
        self._log_path: Optional[str] = None
        if path is not None:
            os.makedirs(path, exist_ok=True)
            log_path = os.path.join(path, LOG_FILENAME)
            self._log_path = log_path
            if os.path.exists(log_path):
                self._replay(log_path)
            if not reader:
                self._log = open(log_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Log plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "PolicyStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _append(self, event: Dict[str, object]) -> None:
        """Append one event to the log (no-op for in-memory stores)."""
        self._seq += 1
        event = {"seq": self._seq, "ts": time.time(), **event}
        if self._log is not None:
            self._log.write(json.dumps(event, separators=(",", ":")) + "\n")
            self._log.flush()

    def _replay(self, log_path: str) -> None:
        """Rebuild in-memory state from the log; tolerate a torn tail."""
        with open(log_path, "rb") as handle:
            data = handle.read()
        self._read_offset = self._ingest(data, log_path)
        # A cleanly-appended log ends with "\n"; trailing bytes past
        # the last newline are a torn final line (crash mid-append for
        # the writer, append-in-progress for a reader): drop and count.
        if len(data) > self._read_offset:
            self.torn_tail_recovered += 1

    def _ingest(self, data: bytes, log_path: str) -> int:
        """Apply every complete line in ``data``; bytes consumed.

        Only lines with a trailing newline are applied — an
        unterminated tail stays unconsumed so a reader can pick it up
        once the writer's flush completes it.
        """
        end = data.rfind(b"\n")
        if end < 0:
            return 0
        consumed = end + 1
        for raw in data[:end].split(b"\n"):
            if not raw:
                continue
            self._applied_lines += 1
            number = self._applied_lines
            try:
                event = json.loads(raw)
            except json.JSONDecodeError as error:
                raise PolicyStoreError(
                    f"corrupt store log {log_path}:{number}: {error}"
                ) from None
            self._apply(event, log_path, number)
            self._seq = max(self._seq, int(event.get("seq", 0)))
        return consumed

    # ------------------------------------------------------------------
    # Reader mode (cross-process sharing)
    # ------------------------------------------------------------------
    @property
    def reader(self) -> bool:
        """True when opened read-only (see the ``reader`` parameter)."""
        return self._reader

    def _require_writer(self, operation: str) -> None:
        if self._reader:
            raise PolicyStoreError(
                f"store opened reader=True: {operation} is not allowed"
            )

    def _maybe_refresh(self) -> None:
        """Throttled reader catch-up on the shared log.

        The cheap gate is a monotonic-clock compare; at most once per
        :attr:`refresh_interval_s` the log is ``stat``-ed, and only a
        grown file is re-opened and read from the remembered offset.
        Called from read paths; a no-op for writers.
        """
        if not self._reader:
            return
        now = time.monotonic()
        if now - self._last_probe < self.refresh_interval_s:
            return
        self._last_probe = now
        log_path = self._log_path
        assert log_path is not None  # reader mode requires a path
        try:
            size = os.stat(log_path).st_size
        except OSError:
            return  # log not created yet (writer still booting)
        if size <= self._read_offset:
            return
        with self._lock:
            self.refresh()

    def refresh(self) -> int:
        """Apply any log lines appended since the last read; count.

        Readers call this implicitly (throttled) on read paths; it is
        public so tests and coordination points (e.g. a worker told
        "the supervisor just activated v3") can force an immediate
        catch-up.  Writers return 0 — their own appends already
        applied in-memory, so re-reading the log would double-apply.
        """
        log_path = self._log_path
        if log_path is None or not self._reader:
            return 0
        with self._lock:
            before = self._applied_lines
            try:
                with open(log_path, "rb") as handle:
                    handle.seek(self._read_offset)
                    data = handle.read()
            except OSError:
                return 0
            self._read_offset += self._ingest(data, log_path)
            return self._applied_lines - before

    def _apply(self, event: Dict[str, object], path: str, line: int) -> None:
        kind = event.get("event")
        try:
            if kind == "create":
                self._tenants[str(event["tenant"])] = TenantLineage(
                    name=str(event["tenant"]),
                    created_at=float(event.get("ts", 0.0)),
                    actor=str(event.get("actor", "")),
                )
            elif kind == "blob":
                self._blobs[str(event["hash"])] = str(event["text"])
            elif kind == "put":
                lineage = self._tenants[str(event["tenant"])]
                lineage.versions.append(
                    PolicyVersion(
                        tenant=lineage.name,
                        version=int(event["version"]),
                        content_hash=str(event["hash"]),
                        actor=str(event.get("actor", "")),
                        created_at=float(event.get("ts", 0.0)),
                        note=str(event.get("note", "")),
                    )
                )
            elif kind == "activate":
                lineage = self._tenants[str(event["tenant"])]
                lineage.activations.append(
                    Activation(
                        version=int(event["version"]),
                        action=str(event.get("action", "activate")),
                        actor=str(event.get("actor", "")),
                        timestamp=float(event.get("ts", 0.0)),
                    )
                )
            else:
                raise KeyError(f"unknown event kind {kind!r}")
        except (KeyError, TypeError, ValueError) as error:
            raise PolicyStoreError(
                f"corrupt store log {path}:{line}: {error}"
            ) from None

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        """All tenant names, sorted."""
        self._maybe_refresh()
        with self._lock:
            return sorted(self._tenants)

    def __contains__(self, tenant: str) -> bool:
        self._maybe_refresh()
        return tenant in self._tenants

    def lineage(self, tenant: str) -> TenantLineage:
        self._maybe_refresh()
        with self._lock:
            found = self._tenants.get(tenant)
            if found is None:
                raise PolicyStoreError(f"unknown tenant {tenant!r}")
            return found

    def create_tenant(self, name: str, actor: str = "") -> TenantLineage:
        """Register a new, empty lineage; rejects duplicates."""
        self._require_writer("create_tenant")
        if not _TENANT_NAME.match(name or ""):
            raise PolicyStoreError(
                f"invalid tenant name {name!r} "
                "(want [A-Za-z0-9][A-Za-z0-9_.-]*, max 64 chars)"
            )
        with self._lock:
            if name in self._tenants:
                raise PolicyStoreError(f"tenant {name!r} already exists")
            lineage = TenantLineage(
                name=name, created_at=time.time(), actor=actor
            )
            self._tenants[name] = lineage
            self._append({"event": "create", "tenant": name, "actor": actor})
            return lineage

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def put(
        self, tenant: str, text: str, actor: str = "", note: str = ""
    ) -> PolicyVersion:
        """Append ``text`` as the tenant's next version.

        Content-hash dedup at two levels: the text blob is stored once
        per hash store-wide, and a put identical to the tenant's
        *head* version is a no-op returning the head (re-putting the
        same file must not grow the lineage).  Does **not** parse or
        activate — the lineage records candidates; the gate runs at
        :meth:`activate`.
        """
        self._require_writer("put")
        if not isinstance(text, str) or not text.strip():
            raise PolicyStoreError("policy text must be non-empty")
        with self._lock:
            lineage = self.lineage(tenant)
            digest = content_hash(text)
            head = lineage.head
            if head is not None and head.content_hash == digest:
                self.dedup_hits += 1
                return head
            if digest not in self._blobs:
                self._blobs[digest] = text
                self._append({"event": "blob", "hash": digest, "text": text})
            else:
                self.dedup_hits += 1
            entry = PolicyVersion(
                tenant=tenant,
                version=len(lineage.versions) + 1,
                content_hash=digest,
                actor=actor,
                created_at=time.time(),
                note=note,
            )
            lineage.versions.append(entry)
            self.puts += 1
            self._append(
                {
                    "event": "put",
                    "tenant": tenant,
                    "version": entry.version,
                    "hash": digest,
                    "actor": actor,
                    "note": note,
                }
            )
            return entry

    def text(self, tenant: str, version: Optional[int] = None) -> str:
        """The policy text of ``version`` (default: the active one)."""
        with self._lock:
            entry = self._resolve_version(tenant, version)
            return self._blobs[entry.content_hash]

    def policy(
        self, tenant: str, version: Optional[int] = None
    ) -> GrbacPolicy:
        """A freshly parsed policy for ``version`` (default: active)."""
        with self._lock:
            entry = self._resolve_version(tenant, version)
            text = self._blobs[entry.content_hash]
        return load_policy_text(text, name=f"{tenant}@v{entry.version}")

    def _resolve_version(
        self, tenant: str, version: Optional[int]
    ) -> PolicyVersion:
        lineage = self.lineage(tenant)
        if version is None:
            active = lineage.active_version
            if active is None:
                raise PolicyStoreError(
                    f"tenant {tenant!r} has no active version"
                )
            version = active
        return lineage.version(version)

    # ------------------------------------------------------------------
    # Activation / rollback — the gated pointer moves
    # ------------------------------------------------------------------
    def activate(
        self,
        tenant: str,
        version: Optional[int] = None,
        actor: str = "",
    ) -> PolicyVersion:
        """Move the active pointer to ``version`` (default: head).

        The candidate goes through the gate every hot reload goes
        through (:func:`repro.policy.admin.vet_candidate`, under this
        store's ``fail_on``); the findings and the diff against the
        previously active version land in the log's activate event.
        A candidate that fails the gate raises and the pointer does
        not move.

        Lint results are memoized by content hash (immutable text ->
        immutable findings), so a template shared by a thousand
        tenants is parsed and linted once, not a thousand times —
        subsequent activations of a known-clean first version skip
        the parse entirely.
        """
        self._require_writer("activate")
        with self._lock:
            lineage = self.lineage(tenant)
            if version is None:
                head = lineage.head
                if head is None:
                    raise PolicyStoreError(
                        f"tenant {tenant!r} has no versions to activate"
                    )
                version = head.version
            entry = lineage.version(version)
            if lineage.active_version == version:
                return entry  # idempotent: already serving
            name = f"{tenant}@v{version}"
            text = self._blobs[entry.content_hash]
            linted = self._lint_memo.get(entry.content_hash)
            if linted is None:
                linted = lint_candidate(text, name)
                # Findings only: the parsed policy is not retained.
                self._lint_memo[entry.content_hash] = (None, *linted[1:])
            live, diff_note = None, ""
            previous = lineage.active_version
            if previous is not None:
                try:
                    live = self.policy(tenant, previous)
                except GrbacError:
                    diff_note = "(a version no longer parses)"
            vetted = vet_candidate(
                text, name, self.fail_on, live=live, linted=linted
            )
            if vetted.error:
                raise PolicyStoreError(
                    f"cannot activate {tenant!r} v{version}: {vetted.error}"
                )
            lineage.activations.append(
                Activation(
                    version=version,
                    action="activate",
                    actor=actor,
                    timestamp=time.time(),
                )
            )
            self.activations += 1
            self._append(
                {
                    "event": "activate",
                    "tenant": tenant,
                    "version": version,
                    "action": "activate",
                    "actor": actor,
                    "findings": list(vetted.findings),
                    "diff_summary": vetted.diff_summary or diff_note,
                }
            )
            return entry

    def rollback(self, tenant: str, actor: str = "") -> PolicyVersion:
        """Move the pointer back to the previously active distinct version.

        No re-lint: the target served before (it passed the gate when
        it first activated), and the escape hatch must not be
        blockable.  Appends a ``rollback`` activation — lineage is
        history, so rolling back twice alternates between the last two
        distinct versions, exactly like repeated ``git revert``.
        """
        self._require_writer("rollback")
        with self._lock:
            lineage = self.lineage(tenant)
            current = lineage.active_version
            if current is None:
                raise PolicyStoreError(
                    f"tenant {tenant!r} has no active version to roll back"
                )
            target: Optional[int] = None
            for activation in reversed(lineage.activations):
                if activation.version != current:
                    target = activation.version
                    break
            if target is None:
                raise PolicyStoreError(
                    f"tenant {tenant!r} has no earlier distinct version "
                    "to roll back to"
                )
            lineage.activations.append(
                Activation(
                    version=target,
                    action="rollback",
                    actor=actor,
                    timestamp=time.time(),
                )
            )
            self.rollbacks += 1
            self._append(
                {
                    "event": "activate",
                    "tenant": tenant,
                    "version": target,
                    "action": "rollback",
                    "actor": actor,
                }
            )
            return lineage.version(target)

    def active_version(self, tenant: str) -> Optional[int]:
        # Deliberately lock-free: one dict read and a list-tail read,
        # both atomic under the GIL against an append-only lineage.
        # This sits on the PDP's per-request fast path (the probe that
        # decides whether a cached engine resolution is still valid).
        # In reader mode the refresh probe rides here too — its cheap
        # gate is one clock compare, the stat syscall throttled.
        if self._reader:
            self._maybe_refresh()
        lineage = self._tenants.get(tenant)
        if lineage is None:
            raise PolicyStoreError(f"unknown tenant {tenant!r}")
        return lineage.active_version

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def engine(
        self, tenant: str, template: Optional[MediationEngine] = None
    ) -> Tuple[MediationEngine, int]:
        """The compiled engine for the tenant's active version.

        Lazy: the text is parsed and compiled on first use and cached
        content-addressed (tenants sharing a text share the engine).

        :param template: the deployment's engine; the tenant's engine
            is built :meth:`~MediationEngine.like` it — same
            environment source, confidence threshold, constraints —
            and a cached engine built under other settings is rebuilt
            rather than served.  A PDP passes its default engine, so a
            store tenant can never run with the §5.2 gate the operator
            configured switched off.  ``None`` (tools, tests) takes
            whatever is cached, or builds with engine defaults.
        :returns: ``(engine, active_version)``.
        :raises PolicyStoreError: unknown tenant / no active version.
        """
        with self._lock:
            entry = self._resolve_version(tenant, None)
            text = self._blobs[entry.content_hash]

        def build() -> MediationEngine:
            policy = load_policy_text(
                text, name=f"{tenant}@v{entry.version}"
            )
            if template is not None:
                return template.like(policy)
            policy.compiled()  # pre-warm outside the decision path
            return MediationEngine(policy)

        def usable(engine: MediationEngine) -> bool:
            return template is None or engine.settings() == template.settings()

        return self.compiled.get_or_build(entry.content_hash, build, usable), (
            entry.version
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def log(self, tenant: str) -> Dict[str, object]:
        """The tenant's lineage as plain data (CLI ``tenant log``)."""
        with self._lock:
            return self.lineage(tenant).to_dict()

    def overview(self) -> List[Dict[str, object]]:
        """One summary row per tenant (wire ``tenants`` op)."""
        self._maybe_refresh()
        with self._lock:
            rows = []
            for name in sorted(self._tenants):
                lineage = self._tenants[name]
                rows.append(
                    {
                        "tenant": name,
                        "versions": len(lineage.versions),
                        "active_version": lineage.active_version,
                        "activations": len(lineage.activations),
                    }
                )
            return rows

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "path": self.path,
                "reader": self._reader,
                "read_offset": self._read_offset,
                "tenants": len(self._tenants),
                "versions": sum(
                    len(t.versions) for t in self._tenants.values()
                ),
                "blobs": len(self._blobs),
                "puts": self.puts,
                "dedup_hits": self.dedup_hits,
                "activations": self.activations,
                "rollbacks": self.rollbacks,
                "torn_tail_recovered": self.torn_tail_recovered,
                "compiled": self.compiled.stats(),
            }

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Publish store gauges into ``registry`` (PDP wiring)."""
        registry.gauge("store.tenants", lambda: float(len(self._tenants)))
        registry.gauge(
            "store.versions",
            lambda: float(
                sum(len(t.versions) for t in self._tenants.values())
            ),
        )
        registry.gauge("store.blobs", lambda: float(len(self._blobs)))
        registry.gauge("store.activations", lambda: float(self.activations))
        registry.gauge("store.rollbacks", lambda: float(self.rollbacks))
        registry.gauge(
            "store.compiled_entries", lambda: float(len(self.compiled))
        )
        registry.gauge(
            "store.compiled_hits", lambda: float(self.compiled.hits)
        )
        registry.gauge(
            "store.compiled_misses", lambda: float(self.compiled.misses)
        )
        registry.gauge(
            "store.compiled_evictions",
            lambda: float(self.compiled.evictions),
        )
